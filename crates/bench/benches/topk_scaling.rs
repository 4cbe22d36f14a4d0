//! Top-k serving scalability: exact radius-scan vs the ANN path as the
//! synthetic Singapore store grows 20k → 200k (→ 1M at full scale) POIs.
//!
//! The store is fabricated directly from seeded random embeddings — no
//! training — because the question here is purely the serving data
//! structure: how per-query latency scales with store size. Each tier is
//! measured under two radius profiles, matching the engine's dispatch
//! regimes:
//!
//! * **scan** (2 km, the paper's neighbourhood scale): the exact path
//!   scores every in-radius candidate through the full f32 kernel; the
//!   ANN path quantize-scans them (one int8 dot each) and exact-rescores
//!   only the kept `ef`. Both are linear in density, but the ANN constant
//!   is far cheaper — this profile gates recall@10 ≥ 0.95 and
//!   ANN-p99 < exact-p99 at the 200k tier.
//! * **beam** (26 km, radius covering the whole box): the exact path
//!   degenerates to scoring the entire store, while the ANN path walks
//!   the HNSW beam under a fixed `ef · budget_mult` evaluation budget —
//!   its latency is bounded regardless of store size. This profile gates
//!   near-flat scaling: ANN p99 must grow ≤ 2× per 10× POIs.
//!
//! Per tier the harness also records index build time. Results land in
//! `BENCH_topk.json`; `examples/check_bench_regression.rs` re-checks the
//! same gates in CI.

use prim_bench::json;
use prim_geo::{DistanceBins, GridIndex, Location};
use prim_obs::Recorder;
use prim_serve::{AnnOpts, AnnParams, EmbeddingStore, EngineOpts, ServeEngine};
use prim_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::time::Instant;

const DIM: usize = 32;
const K: usize = 10;

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn bench_json_path() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_topk.json")
}

/// A synthetic Singapore store: `n` POIs uniform over a ~18 km box
/// (density grows with `n`, as it would if the same city were mapped at
/// higher coverage), random embeddings, distance scoring on.
fn singapore_store(n: usize, seed: u64) -> (EmbeddingStore, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rand_mat = |rows: usize| {
        Matrix::from_vec(
            rows,
            DIM,
            (0..rows * DIM).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        )
    };
    let pois = rand_mat(n);
    let relations = rand_mat(4);
    let bins = DistanceBins::new(vec![0.5, 1.0, 2.0, 5.0]);
    let mut bin_normals = rand_mat(bins.len());
    for b in 0..bin_normals.rows() {
        let norm = bin_normals.row(b).iter().map(|v| v * v).sum::<f32>().sqrt();
        for v in bin_normals.row_mut(b) {
            *v /= norm;
        }
    }
    let locations: Vec<Location> = (0..n)
        .map(|_| {
            Location::new(
                103.8198 + rng.gen_range(-0.08..0.08),
                1.3521 + rng.gen_range(-0.08..0.08),
            )
        })
        .collect();
    let grid = GridIndex::build(&locations, 1.0);
    let mut store = EmbeddingStore {
        pois,
        relations,
        bin_normals,
        relation_names: vec!["serve".into(), "compete".into(), "complement".into()],
        locations,
        bins,
        use_distance_scoring: true,
        grid,
        ann: None,
    };
    let t = Instant::now();
    store.build_ann(AnnParams {
        seed,
        ..AnnParams::default()
    });
    let build_ms = t.elapsed().as_secs_f64() * 1e3;
    (store, build_ms)
}

struct Profile {
    recall: f64,
    exact_p50: f64,
    exact_p99: f64,
    ann_p50: f64,
    ann_p99: f64,
    avg_candidates: usize,
    ann_served: usize,
    queries: usize,
}

fn measure(engine: &ServeEngine, n: usize, radius_km: f64, n_queries: usize) -> Profile {
    let mut rng = StdRng::seed_from_u64(77);
    let sources: Vec<u32> = (0..n_queries).map(|_| rng.gen_range(0..n as u32)).collect();
    for &src in &sources[..n_queries.min(10)] {
        let _ = engine.top_k_related(src, radius_km, K, 1);
        let _ = engine.top_k_related_mode(src, radius_km, K, 1, false);
    }
    let mut exact_us: Vec<f64> = Vec::with_capacity(n_queries);
    let mut ann_us: Vec<f64> = Vec::with_capacity(n_queries);
    let mut recall_sum = 0.0f64;
    let mut ann_served = 0usize;
    let mut candidates_sum = 0usize;
    for &src in &sources {
        let t = Instant::now();
        let exact = engine.top_k_related(src, radius_km, K, 1);
        exact_us.push(t.elapsed().as_secs_f64() * 1e6);

        let t = Instant::now();
        let (ann, mode) = engine.top_k_related_mode(src, radius_km, K, 1, false);
        ann_us.push(t.elapsed().as_secs_f64() * 1e6);

        if mode == "ann" {
            ann_served += 1;
        }
        candidates_sum += engine
            .store()
            .within_radius(prim_graph::PoiId(src), radius_km)
            .len();
        if !exact.is_empty() {
            let truth: std::collections::HashSet<u32> = exact.iter().map(|e| e.poi).collect();
            let hit = ann.iter().filter(|a| truth.contains(&a.poi)).count();
            recall_sum += hit as f64 / exact.len() as f64;
        } else {
            recall_sum += 1.0;
        }
    }
    exact_us.sort_by(f64::total_cmp);
    ann_us.sort_by(f64::total_cmp);
    Profile {
        recall: recall_sum / n_queries as f64,
        exact_p50: percentile(&exact_us, 0.50),
        exact_p99: percentile(&exact_us, 0.99),
        ann_p50: percentile(&ann_us, 0.50),
        ann_p99: percentile(&ann_us, 0.99),
        avg_candidates: candidates_sum / n_queries,
        ann_served,
        queries: n_queries,
    }
}

fn profile_json(p: &Profile, ef_search: usize) -> String {
    json::obj(&[
        ("ef_search", json::int(ef_search as u64)),
        ("recall_at_10", json::num(p.recall)),
        ("exact_p50_us", json::num(p.exact_p50)),
        ("exact_p99_us", json::num(p.exact_p99)),
        ("ann_p50_us", json::num(p.ann_p50)),
        ("ann_p99_us", json::num(p.ann_p99)),
        ("avg_candidates", json::int(p.avg_candidates as u64)),
        ("ann_served", json::int(p.ann_served as u64)),
        ("queries", json::int(p.queries as u64)),
    ])
}

fn main() {
    prim_bench::ensure_run_report("topk_scaling");
    let full = matches!(prim_data::Scale::from_env(), prim_data::Scale::Full);
    let tiers: &[usize] = if full {
        &[20_000, 200_000, 1_000_000]
    } else {
        &[20_000, 200_000]
    };

    let mut sections: Vec<String> = Vec::new();
    let mut prev_beam_p99 = f64::NAN;
    for (ti, &n) in tiers.iter().enumerate() {
        let (store, build_ms) = singapore_store(n, 4000 + ti as u64);
        // Each profile gets its own serve-time beam width over the same
        // store and index, matching how a deployment tunes `ef` per query
        // class. The scan profile keeps a small rescore set (ef 256 ≪
        // in-radius candidates — the quantized pass only pays when keep ≪
        // scan). The beam profile keeps a wide set (ef 8192) under a fixed
        // evaluation budget (2×ef quantized sims): recall is limited by
        // which visited nodes survive into the rescore set, so the budget
        // goes to a wide `ef` (cheap exact rescores) rather than a deeper
        // walk, and with `ef` this close to the budget the walk saturates
        // it at every tier — beam work, and hence latency, is a fixed
        // count independent of store size. That is the property the
        // growth gate checks.
        let scan_opts = EngineOpts {
            ann: AnnOpts {
                ef_search: 256,
                ..AnnOpts::default()
            },
            ..EngineOpts::default()
        };
        let beam_opts = EngineOpts {
            ann: AnnOpts {
                ef_search: 8192,
                budget_mult: 2,
                ..AnnOpts::default()
            },
            ..EngineOpts::default()
        };
        let engine = ServeEngine::new(store.clone(), &scan_opts, Recorder::disabled());
        let beam_engine = ServeEngine::new(store, &beam_opts, Recorder::disabled());

        let scan = measure(&engine, n, 2.0, 200);
        let beam = measure(&beam_engine, n, 26.0, 50);
        println!(
            "topk_scaling: n {n:8} | build {build_ms:9.1} ms | scan[cand {:6}, recall {:.4}, \
             exact p99 {:9.1} us, ann p99 {:8.1} us] | beam[recall {:.4}, exact p99 {:9.1} us, \
             ann p99 {:8.1} us]",
            scan.avg_candidates,
            scan.recall,
            scan.exact_p99,
            scan.ann_p99,
            beam.recall,
            beam.exact_p99,
            beam.ann_p99,
        );

        // -- Gates (the CI example re-checks these from the JSON) ---------
        assert!(
            scan.recall >= 0.95,
            "tier {n}: scan recall@{K} {:.4} below the 0.95 gate",
            scan.recall
        );
        assert!(
            beam.recall >= 0.95,
            "tier {n}: beam recall@{K} {:.4} below the 0.95 gate",
            beam.recall
        );
        assert_eq!(
            beam.ann_served, beam.queries,
            "tier {n}: beam profile must serve ANN"
        );
        if n >= 200_000 {
            assert!(
                scan.ann_p99 < scan.exact_p99,
                "tier {n}: ANN scan p99 {:.1}us should beat exact p99 {:.1}us",
                scan.ann_p99,
                scan.exact_p99
            );
        }
        if prev_beam_p99.is_finite() {
            assert!(
                beam.ann_p99 <= prev_beam_p99 * 2.0,
                "tier {n}: beam ANN p99 {:.1}us grew more than 2x over the previous \
                 tier's {prev_beam_p99:.1}us — the budget cap is not holding",
                beam.ann_p99
            );
        }
        prev_beam_p99 = beam.ann_p99;

        sections.push(json::obj(&[
            ("n_pois", json::int(n as u64)),
            ("ann_build_ms", json::num(build_ms)),
            ("scan", profile_json(&scan, scan_opts.ann.ef_search)),
            ("beam", profile_json(&beam, beam_opts.ann.ef_search)),
        ]));
    }

    let hw_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let section = json::obj(&[
        ("dim", json::int(DIM as u64)),
        ("k", json::int(K as u64)),
        ("scan_radius_km", json::num(2.0)),
        ("beam_radius_km", json::num(26.0)),
        ("hw_threads", json::int(hw_threads as u64)),
        ("tiers", json::arr(&sections)),
    ]);
    let path = bench_json_path();
    json::update_section(&path, "topk_scaling", &section);
    println!("topk_scaling: recorded to {}", path.display());
}
