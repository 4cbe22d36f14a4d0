//! `perfbench`: the end-to-end and per-layer benchmark of PRIM serving,
//! top-k and live ingest. See `perfbench/README.md` for the workloads,
//! the metric glossary and the layer → end-to-end map.
//!
//! ```text
//! perfbench --workload <serve-point|topk-metro|ingest-mixed> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a `{"report": ...}` line (host facts, every metric with its
//! unit and sample count, notes) and then the result line the benchmark
//! contract asks for. Exits non-zero without a result when the run
//! cannot be made (no second core to pin the generator to, a build or
//! server failure).

mod calib;
mod check;
mod child;
mod e2e;
mod fixtures;
mod host;
mod loadgen;
mod report;
mod server;
mod stats;
mod streams;
mod trace;

use fixtures::Workload;
use prim_obs::json;
use report::RunResult;
use std::path::PathBuf;
use std::time::Instant;

/// Metrics of the `--trace 0` result line (identical on every workload).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("server_cpu_per_req_calib", "rounds"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "ratio"),
];

/// Metrics of the `--trace 1` result line.
const PER_LAYER: &[(&str, &str)] = &[
    ("loadgen.late_p99_ms", "ms"),
    ("server.transport_us", "us"),
    ("server.frame_ns_per_line", "ns"),
    ("json.parse_us", "us"),
    ("proto.handle_us", "us"),
    ("proto.self_us", "us"),
    ("proto.response_bytes", "bytes"),
    ("proto.shed_share", "ratio"),
    ("engine.score_us", "us"),
    ("engine.batch_us_per_pair", "us"),
    ("engine.kernel_ns_per_pair", "ns"),
    ("batcher.submit_us", "us"),
    ("cache.hit_rate", "ratio"),
    ("engine.topk_scan_us", "us"),
    ("engine.topk_beam_us", "us"),
    ("ann.candidates_per_query", "count"),
    ("ann.visited_per_query", "count"),
    ("store.within_radius_us", "us"),
    ("ckpt.load_ms", "ms"),
    ("ckpt.bytes", "bytes"),
    ("store.materialise_ms", "ms"),
    ("ann.build_ms", "ms"),
    ("ingest.stage_us_p50", "us"),
    ("ingest.stage_us_p99", "us"),
    ("ingest.apply_ms", "ms"),
    ("ingest.flush_ms", "ms"),
    ("ingest.apply_targets", "count"),
    ("ckpt.snapshot_encode_ms", "ms"),
    ("ckpt.snapshot_bytes", "bytes"),
    ("ckpt.snapshot_save_ms", "ms"),
    ("repl.sync_round_ms", "ms"),
    ("repl.records_per_round", "count"),
    ("repl.bootstraps", "count"),
    ("hol.read_p99_during_flush_ms", "ms"),
    ("hol.read_p99_idle_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_us", "us"),
];

/// Where the benchmark keeps its scratch files and span dumps, relative
/// to the directory it runs in.
const OUT_DIR: &str = ".perfbench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    // Server-child mode.
    serve_child: bool,
    work: Option<PathBuf>,
    cities: Vec<String>,
    cpus: Vec<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::ServePoint,
        seed: 0,
        seconds: 10.0,
        trace: false,
        serve_child: false,
        work: None,
        cities: Vec::new(),
        cpus: Vec::new(),
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--serve-child" {
            args.serve_child = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds < 1.0 {
                    return Err("--seconds must be at least 1".to_string());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--work" => args.work = Some(PathBuf::from(value)),
            "--cities" => args.cities = value.split(',').map(String::from).collect(),
            "--cpus" => args.cpus = host::parse_cpus(&value)?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <serve-point|topk-metro|ingest-mixed> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    if args.serve_child {
        let work = args.work.clone().unwrap_or_default();
        std::process::exit(child::run(args.workload, &work, &args.cities, &args.cpus));
    }
    match bench(&args) {
        Ok(lines) => {
            for l in lines {
                println!("{l}");
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn bench(args: &Args) -> Result<Vec<String>, String> {
    let nproc = host::nproc();
    let (server_cpus, gen_cpus) = host::split_cpus()?;
    host::pin_to(&gen_cpus)
        .map_err(|e| format!("refusing to run: pinning the load generator failed: {e}"))?;

    let all_cpus: Vec<usize> = server_cpus.iter().chain(&gen_cpus).copied().collect();
    let _spinners = host::IdleSpinners::start(&all_cpus)
        .map_err(|e| format!("refusing to run: the idle spinner failed: {e}"))?;

    let work = PathBuf::from(OUT_DIR).join(format!("work-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let result = run(args, &work, &server_cpus);
    let _ = std::fs::remove_dir_all(&work);
    let (out, fixture_s) = result?;

    let names = if args.trace { PER_LAYER } else { END_TO_END };
    let mut out = out;
    let missing = out.missing(&names.iter().map(|(n, _)| *n).collect::<Vec<_>>());
    if !missing.is_empty() {
        out.mismatches
            .push(format!("metrics not produced: {missing:?}"));
    }
    let header = vec![
        ("workload", json::str(args.workload.name())),
        ("seed", json::int(args.seed)),
        ("seconds", json::num(args.seconds)),
        ("trace", args.trace.to_string()),
        ("nproc", json::int(nproc as u64)),
        ("server_cpus", json::str(&host::format_cpus(&server_cpus))),
        ("server_mask", json::str(&host::mask_hex(&server_cpus))),
        ("loadgen_cpus", json::str(&host::format_cpus(&gen_cpus))),
        ("loadgen_mask", json::str(&host::mask_hex(&gen_cpus))),
        ("loadgen_threads", json::int(1)),
        ("loadgen_conns", json::int(e2e::CONNS as u64)),
        ("server_shards", json::int(child::SHARDS as u64)),
        ("rustc", json::str(host::rustc_version())),
        ("fixture_s", json::num(fixture_s)),
    ];
    Ok(vec![
        report::report_line(&header, &out),
        report::result_line(&out, names),
    ])
}

fn run(
    args: &Args,
    work: &std::path::Path,
    server_cpus: &[usize],
) -> Result<(RunResult, f64), String> {
    let t = Instant::now();
    let cities = fixtures::generate(args.workload, args.seed, work)
        .map_err(|e| format!("generating fixtures: {e}"))?;
    let fixture_s = t.elapsed().as_secs_f64();
    let mut out = RunResult::default();
    if args.trace {
        let spans = PathBuf::from(OUT_DIR).join(format!(
            "spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        trace::run(
            args.workload,
            args.seed,
            args.seconds,
            work,
            &cities,
            server_cpus,
            &spans,
            &mut out,
        )?;
    } else if args.workload == Workload::IngestMixed {
        e2e::run_ingest(
            args.seed,
            args.seconds,
            work,
            &cities,
            server_cpus,
            &mut out,
        )?;
    } else {
        e2e::run_reads(
            args.workload,
            args.seed,
            args.seconds,
            work,
            &cities,
            server_cpus,
            &mut out,
        )?;
    }
    Ok((out, fixture_s))
}
