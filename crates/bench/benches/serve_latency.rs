//! Serving-path latency and throughput — `pred_latency` extended through
//! the `prim-serve` engine.
//!
//! Measures, over a checkpoint-reloaded engine:
//! * single-pair latency percentiles (p50/p95/p99) through
//!   [`ServeEngine::score`];
//! * batched throughput vs batch size against the single-pair eager
//!   serving path (one `ServeEngine::score` per request — what a client
//!   gets without batching) and, for reference, against the raw
//!   `score_pair_eager` model loop. The batched kernel hoists the
//!   per-relation projections, blocks four pairs per pass and amortises
//!   all per-request overhead, so it must clear ≥ 5× the single-pair
//!   serving path.
//!
//! Results land in `BENCH_serve.json` at the repo root.

use prim_bench::json;
use prim_core::{fit, ModelInputs, PrimConfig, PrimModel};
use prim_data::{Dataset, Scale};
use prim_graph::PoiId;
use prim_obs::Recorder;
use prim_serve::{EmbeddingStore, EngineOpts, ServeEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::time::Instant;

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn bench_json_path() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_serve.json")
}

fn build_engine() -> (PrimModel, ModelInputs, ServeEngine) {
    let ds = Dataset::beijing(Scale::Quick);
    let cfg = PrimConfig {
        epochs: 5,
        val_check_every: 0,
        ..PrimConfig::quick()
    };
    let inputs = ModelInputs::build(
        &ds.graph,
        &ds.taxonomy,
        &ds.attrs,
        ds.graph.edges(),
        None,
        &cfg,
    );
    let mut model = PrimModel::new(cfg, &inputs);
    fit(&mut model, &inputs, &ds.graph, ds.graph.edges(), None, None);

    // Serve from a reloaded checkpoint, as production would.
    let path = std::env::temp_dir().join("prim_bench_serve.ckpt");
    prim_serve::save_checkpoint(
        &path,
        "bench",
        &model,
        &ds.graph,
        &ds.taxonomy,
        &ds.attrs,
        &ds.relation_names,
    )
    .unwrap();
    let ckpt = prim_serve::load_checkpoint(&path).unwrap();
    let (loaded, loaded_inputs) = ckpt.rebuild().unwrap();
    let store = EmbeddingStore::from_model(&loaded, &loaded_inputs, ckpt.relation_names.clone());
    // Telemetry on, exactly as the CI smoke job and a monitored deployment
    // run the engine; both measured paths pay for their own counters.
    let engine = ServeEngine::new(
        store,
        &EngineOpts::default(),
        Recorder::enabled("serve-bench"),
    );
    (model, inputs, engine)
}

fn random_pairs(n_pois: u32, count: usize, seed: u64) -> Vec<(u32, u32)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| (rng.gen_range(0..n_pois), rng.gen_range(0..n_pois)))
        .collect()
}

fn main() {
    prim_bench::ensure_run_report("serve_latency");

    let (model, inputs, engine) = build_engine();
    let n_pois = engine.store().n_pois() as u32;
    let table = model.embed(&inputs);
    let phi = model.phi();

    // -- Single-pair latency percentiles through the engine ---------------
    let queries = random_pairs(n_pois, 5_000, 9);
    for &(a, b) in &queries[..200] {
        let _ = engine.score(a, b); // warm up caches of the CPU kind
    }
    let mut lat_us: Vec<f64> = queries
        .iter()
        .map(|&(a, b)| {
            let t = Instant::now();
            let s = engine.score(a, b);
            let dt = t.elapsed().as_secs_f64() * 1e6;
            assert!(s.best_score.is_finite());
            dt
        })
        .collect();
    lat_us.sort_by(f64::total_cmp);
    let (p50, p95, p99) = (
        percentile(&lat_us, 0.50),
        percentile(&lat_us, 0.95),
        percentile(&lat_us, 0.99),
    );

    // -- Single-pair eager serving path: one request per pair -------------
    let single_queries = random_pairs(n_pois, 10_000, 10);
    let t = Instant::now();
    let mut sink = 0.0f32;
    for &(a, b) in &single_queries {
        sink += engine.score(a, b).best_score;
    }
    let single_s = t.elapsed().as_secs_f64();
    assert!(sink.is_finite());
    let single_pairs_per_s = single_queries.len() as f64 / single_s;

    // -- Reference: the raw pre-serve eager model loop --------------------
    let t = Instant::now();
    let mut sink = 0.0f32;
    for &(a, b) in &single_queries {
        let bin = inputs.pair_bin(PoiId(a), PoiId(b), model.config());
        for r in 0..=phi {
            sink += model.score_pair_eager(&table, PoiId(a), r, PoiId(b), bin);
        }
    }
    let eager_s = t.elapsed().as_secs_f64();
    assert!(sink.is_finite());
    let eager_pairs_per_s = single_queries.len() as f64 / eager_s;

    // -- Batched throughput vs batch size ---------------------------------
    let mut batch_sections: Vec<String> = Vec::new();
    let mut best_ratio = 0.0f64;
    for &batch_size in &[16usize, 64, 256, 1024] {
        let n_batches = (20_000 / batch_size).max(8);
        let pairs = random_pairs(n_pois, batch_size * n_batches, 11 + batch_size as u64);
        let t = Instant::now();
        let mut total = 0usize;
        for chunk in pairs.chunks(batch_size) {
            let out = engine.batch(chunk);
            total += out.len();
        }
        let dt = t.elapsed().as_secs_f64();
        let pairs_per_s = total as f64 / dt;
        let ratio = pairs_per_s / single_pairs_per_s;
        let ratio_eager = pairs_per_s / eager_pairs_per_s;
        best_ratio = best_ratio.max(ratio);
        batch_sections.push(json::obj(&[
            ("batch_size", json::int(batch_size as u64)),
            ("pairs_per_s", json::num(pairs_per_s)),
            ("speedup_vs_single_pair", json::num(ratio)),
            ("speedup_vs_eager_model_loop", json::num(ratio_eager)),
        ]));
        println!(
            "serve_latency: batch {batch_size:5} -> {pairs_per_s:10.0} pairs/s \
             ({ratio:.2}x single-pair, {ratio_eager:.2}x eager model loop)"
        );
    }
    assert!(
        best_ratio >= 5.0,
        "batched serving should clear 5x the single-pair eager path, got {best_ratio:.2}x"
    );

    let section = json::obj(&[
        ("single_pair_p50_us", json::num(p50)),
        ("single_pair_p95_us", json::num(p95)),
        ("single_pair_p99_us", json::num(p99)),
        ("single_pair_pairs_per_s", json::num(single_pairs_per_s)),
        ("eager_model_pairs_per_s", json::num(eager_pairs_per_s)),
        ("batched", json::arr(&batch_sections)),
    ]);
    let path = bench_json_path();
    json::update_section(&path, "serve_latency", &section);
    println!(
        "serve_latency: p50 {p50:.1}us p95 {p95:.1}us p99 {p99:.1}us, best batched speedup {best_ratio:.2}x; recorded to {}",
        path.display()
    );
}
