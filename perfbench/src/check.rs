//! Output checks: served responses against an in-process oracle engine
//! built from the same checkpoint. The wire renders every score with six
//! decimals, so "bitwise" here means: the oracle's f32, rendered exactly
//! as the protocol renders it, equals the served text.

use crate::streams::{ReadOp, ReadReq, TOPK_K};
use prim_obs::json::{self, Value};
use prim_serve::{EmbeddingStore, EngineOpts, PairScores, ServeEngine};
use std::collections::HashSet;

/// The protocol's rendering of an f32 score (`prim_obs::json::num`).
fn wire(v: f32) -> String {
    json::num(v as f64)
}

fn num_text(v: Option<&Value>) -> Option<String> {
    v.and_then(Value::as_f64).map(json::num)
}

fn check_pair(engine: &ServeEngine, got: &Value, want: &PairScores) -> Result<(), String> {
    let store = engine.store();
    let field = |k: &str| got.get(k).and_then(Value::as_f64);
    if field("src") != Some(want.src as f64) || field("dst") != Some(want.dst as f64) {
        return Err(format!(
            "pair ({}, {}) answered for another pair",
            want.src, want.dst
        ));
    }
    if field("bin") != Some(want.bin as f64) {
        return Err(format!(
            "pair ({}, {}): wrong distance bin",
            want.src, want.dst
        ));
    }
    if got.get("best").and_then(Value::as_str) != Some(store.relation_name(want.best)) {
        return Err(format!(
            "pair ({}, {}): wrong best relation",
            want.src, want.dst
        ));
    }
    let scores = got
        .get("scores")
        .and_then(Value::as_arr)
        .ok_or("missing scores")?;
    if scores.len() != want.scores().len() {
        return Err(format!(
            "{} scores, oracle has {}",
            scores.len(),
            want.scores().len()
        ));
    }
    for (r, (s, &w)) in scores.iter().zip(want.scores()).enumerate() {
        if s.get("relation").and_then(Value::as_str) != Some(store.relation_name(r))
            || num_text(s.get("score")) != Some(wire(w))
        {
            return Err(format!(
                "pair ({}, {}) relation {r}: served {:?}, oracle {}",
                want.src,
                want.dst,
                s.get("score"),
                wire(w)
            ));
        }
    }
    Ok(())
}

/// Checks one served read response against the oracle; for `top_k` also
/// returns recall@k against the exact mode.
pub fn check_read(engine: &ServeEngine, req: &ReadReq, resp: &str) -> Result<Option<f64>, String> {
    let v = json::parse(resp).map_err(|e| format!("unparseable response: {e}"))?;
    if v.get("ok") != Some(&Value::Bool(true)) {
        return Err(format!("not ok: {resp}"));
    }
    let result = |key: &str| v.get(key).ok_or_else(|| format!("missing {key:?}"));
    match &req.op {
        ReadOp::Score { src, dst } => {
            check_pair(engine, result("result")?, &engine.score(*src, *dst))?;
            Ok(None)
        }
        ReadOp::Batch { pairs } => {
            let got = result("results")?
                .as_arr()
                .ok_or("results is not an array")?;
            let want = engine.batch(pairs);
            if got.len() != want.len() {
                return Err(format!("{} results for {} pairs", got.len(), want.len()));
            }
            for (g, w) in got.iter().zip(&want) {
                check_pair(engine, g, w)?;
            }
            Ok(None)
        }
        ReadOp::TopK {
            src,
            radius_km,
            relation,
        } => {
            let (want, mode) =
                engine.top_k_related_mode(*src, *radius_km, TOPK_K, *relation, false);
            if v.get("mode").and_then(Value::as_str) != Some(mode) {
                return Err(format!("served mode {:?}, oracle {mode}", v.get("mode")));
            }
            let got = result("results")?
                .as_arr()
                .ok_or("results is not an array")?;
            if got.len() != want.len() {
                return Err(format!(
                    "{} neighbours, oracle has {}",
                    got.len(),
                    want.len()
                ));
            }
            for (g, w) in got.iter().zip(&want) {
                if g.get("poi").and_then(Value::as_f64) != Some(w.poi as f64)
                    || num_text(g.get("score")) != Some(wire(w.score))
                {
                    return Err(format!(
                        "top_k from {src}: served {:?}/{:?}, oracle {}/{}",
                        g.get("poi"),
                        g.get("score"),
                        w.poi,
                        wire(w.score)
                    ));
                }
            }
            let (exact, _) = engine.top_k_related_mode(*src, *radius_km, TOPK_K, *relation, true);
            let truth: HashSet<u32> = exact.iter().map(|n| n.poi).collect();
            let recall = if truth.is_empty() {
                1.0
            } else {
                want.iter().filter(|n| truth.contains(&n.poi)).count() as f64 / truth.len() as f64
            };
            Ok(Some(recall))
        }
    }
}

/// The top-k regime a query takes, from the grid's population estimate
/// with the engine's own test under default options: `"exact"` (at most
/// `min_exact` candidates), `"beam"` (over `beam_cutoff` candidates
/// covering at least a quarter of the store) or `"scan"` (the quantized
/// scan). The served `mode` tag is `"exact"` exactly when this is.
pub fn topk_regime(store: &EmbeddingStore, src: u32, radius_km: f64) -> &'static str {
    let opts = EngineOpts::default().ann;
    if !opts.enabled || store.ann.is_none() {
        return "exact";
    }
    let est = store.grid.count_in_cells_around(src as usize, radius_km);
    if est <= opts.min_exact {
        "exact"
    } else if est > opts.beam_cutoff && est.saturating_mul(4) >= store.n_pois() {
        "beam"
    } else {
        "scan"
    }
}

/// Regime shares of `regimes`, as `exact=… scan=… beam=… n=…`.
pub fn regime_shares<'a>(regimes: impl IntoIterator<Item = &'a str>) -> String {
    let mut counts = [0usize; 3];
    for r in regimes {
        let i = ["exact", "scan", "beam"].iter().position(|&k| k == r);
        counts[i.expect("a top-k regime name")] += 1;
    }
    let n: usize = counts.iter().sum();
    let share = |c: usize| c as f64 / n.max(1) as f64;
    format!(
        "exact={:.3} scan={:.3} beam={:.3} n={n}",
        share(counts[0]),
        share(counts[1]),
        share(counts[2])
    )
}

/// Scores of a `batch` response, rendered for comparison across nodes
/// (drops the per-node `cached` flag and the routing echo).
pub fn batch_scores(resp: &str) -> Result<Vec<String>, String> {
    let v = json::parse(resp).map_err(|e| format!("unparseable response: {e}"))?;
    if v.get("ok") != Some(&Value::Bool(true)) {
        return Err(format!("not ok: {resp}"));
    }
    let results = v
        .get("results")
        .and_then(Value::as_arr)
        .ok_or("missing results")?;
    Ok(results
        .iter()
        .map(|r| {
            let scores: Vec<String> = r
                .get("scores")
                .and_then(Value::as_arr)
                .unwrap_or(&[])
                .iter()
                .map(|s| num_text(s.get("score")).unwrap_or_default())
                .collect();
            format!(
                "{}-{}:{}",
                num_text(r.get("src")).unwrap_or_default(),
                num_text(r.get("dst")).unwrap_or_default(),
                scores.join(",")
            )
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{generate, Workload};
    use crate::streams::reads;
    use prim_obs::Recorder;
    use prim_serve::{handle_line, ServeCtx};
    use std::sync::Arc;

    fn engine_for(workload: Workload, dir: &std::path::Path) -> (Arc<ServeEngine>, Vec<ReadReq>) {
        let cities = generate(workload, 7, dir).unwrap();
        let ckpt = prim_serve::load_checkpoint(&cities[0].ckpt).unwrap();
        let store = EmbeddingStore::from_checkpoint(&ckpt).unwrap();
        let engine = Arc::new(ServeEngine::new(
            store,
            &EngineOpts::default(),
            Recorder::disabled(),
        ));
        let stream = reads(workload, &cities, 7, 64)
            .into_iter()
            .filter(|r| r.city == 0)
            .collect();
        (engine, stream)
    }

    fn served(engine: &Arc<ServeEngine>, req: &ReadReq) -> String {
        let line = req
            .line
            .replace(", \"city\": \"north\"", "")
            .replace(", \"city\": \"metro\"", "");
        handle_line(&ServeCtx::direct(Arc::clone(engine)), &line).response
    }

    #[test]
    fn a_served_score_passes_and_one_flipped_bit_fails() {
        let dir = std::env::temp_dir().join(format!("perfbench-check-{}", std::process::id()));
        let (engine, stream) = engine_for(Workload::ServePoint, &dir);
        let req = stream
            .iter()
            .find(|r| matches!(r.op, ReadOp::Score { .. }))
            .unwrap();
        let resp = served(&engine, req);
        assert_eq!(check_read(&engine, req, &resp), Ok(None));

        let ReadOp::Score { src, dst } = req.op else {
            unreachable!()
        };
        let s = engine.score(src, dst).scores()[0];
        let flipped = f32::from_bits(s.to_bits() ^ (1 << 22));
        let bad = resp.replacen(&wire(s), &wire(flipped), 1);
        assert_ne!(bad, resp, "the flip must change the rendered score");
        assert!(check_read(&engine, req, &bad).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn the_regime_test_agrees_with_the_served_mode() {
        let dir = std::env::temp_dir().join(format!("perfbench-regime-{}", std::process::id()));
        let (engine, _) = engine_for(Workload::IngestMixed, &dir);
        let mut seen = HashSet::new();
        for src in (0..engine.store().n_pois() as u32).step_by(7) {
            let regime = topk_regime(engine.store(), src, crate::streams::NEIGHBOURHOOD_KM);
            let (_, mode) =
                engine.top_k_related_mode(src, crate::streams::NEIGHBOURHOOD_KM, TOPK_K, 0, false);
            assert_eq!(regime == "exact", mode == "exact", "src {src}");
            seen.insert(regime);
        }
        assert!(seen.contains("exact") && seen.contains("scan"), "{seen:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_top_k_with_a_wrong_id_fails() {
        let dir = std::env::temp_dir().join(format!("perfbench-checktk-{}", std::process::id()));
        let (engine, stream) = engine_for(Workload::IngestMixed, &dir);
        let req = stream
            .iter()
            .find(|r| matches!(r.op, ReadOp::TopK { .. }))
            .unwrap();
        let resp = served(&engine, req);
        assert!(matches!(check_read(&engine, req, &resp), Ok(Some(r)) if r > 0.0));

        let ReadOp::TopK {
            src,
            radius_km,
            relation,
        } = req.op
        else {
            unreachable!()
        };
        let (want, _) = engine.top_k_related_mode(src, radius_km, TOPK_K, relation, false);
        let first = want[0].poi;
        let wrong = (first + 1..)
            .find(|p| want.iter().all(|n| n.poi != *p))
            .unwrap();
        let bad = resp.replacen(
            &format!("\"poi\": {first},"),
            &format!("\"poi\": {wrong},"),
            1,
        );
        assert_ne!(bad, resp);
        assert!(check_read(&engine, req, &bad).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
