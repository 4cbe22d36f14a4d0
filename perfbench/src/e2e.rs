//! The untraced runs: every end-to-end metric is measured here, against
//! a real `TcpServer` child, from one pinned load-generating thread.

use crate::calib;
use crate::check;
use crate::child;
use crate::fixtures::{self, subseed, City, Workload, PRIMARY, STANDBY};
use crate::host;
use crate::loadgen::{Client, Outcome, Phase, PhaseResult, ReadRec, WriteRec, Writer};
use crate::report::RunResult;
use crate::server::{self, ServerProc};
use crate::stats;
use crate::streams::{self, ReadOp, ReadReq, WriteOp};
use prim_obs::json::{self, Value};
use prim_obs::Recorder;
use prim_serve::{EngineOpts, ServeEngine};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Connections the load generator opens.
pub const CONNS: usize = 2;
/// Writer window (ops in flight) on `ingest-mixed`.
pub const WRITE_WINDOW: usize = 4;
/// The writer's think time after each acknowledged `ingest_flush`.
pub const WRITE_THINK: Duration = Duration::from_millis(700);

/// Fixed per-workload load settings.
pub struct Profile {
    /// The reference rate `read_p50_ms` / `read_p99_ms` are measured at.
    pub ref_rate: f64,
    /// The read p99 limit `max_rps_under_slo` must meet.
    pub slo_ms: f64,
    /// Arrival window of one saturation-search step.
    pub step_s: f64,
}

pub fn profile(w: Workload) -> Profile {
    match w {
        Workload::ServePoint => Profile {
            ref_rate: 1_000.0,
            slo_ms: 20.0,
            step_s: 1.0,
        },
        Workload::TopkMetro => Profile {
            ref_rate: 600.0,
            slo_ms: 50.0,
            step_s: 1.5,
        },
        // Reads only: the writer is closed-loop and nothing is searched.
        Workload::IngestMixed => Profile {
            ref_rate: 500.0,
            slo_ms: 0.0,
            step_s: 0.0,
        },
    }
}

/// Reads generated per workload stream (phases cycle through it).
pub fn stream_len(w: Workload) -> usize {
    match w {
        Workload::ServePoint => 60_000,
        Workload::TopkMetro => 6_000,
        Workload::IngestMixed => 12_000,
    }
}

pub fn city_names(cities: &[City]) -> Vec<String> {
    cities.iter().map(|c| c.name.clone()).collect()
}

/// Server starts per run; `setup_s` is their median. A `topk-metro`
/// start builds the ANN index (seconds), the others take about half a
/// second, so they can afford more starts.
pub fn setups(w: Workload) -> usize {
    match w {
        Workload::TopkMetro => 5,
        Workload::ServePoint | Workload::IngestMixed => 9,
    }
}

/// Starts the server [`setups`] times and keeps the last one running.
pub fn start_measured(
    w: Workload,
    work: &Path,
    cities: &[City],
    cpus: &[usize],
    out: &mut RunResult,
) -> Result<ServerProc, String> {
    let names = city_names(cities);
    let starts = setups(w);
    let mut setups = Vec::with_capacity(starts);
    for i in 0..starts {
        // Ingest state from an earlier start must not leak into the next.
        let _ = std::fs::remove_dir_all(work.join("server"));
        let proc = server::start(w, work, &names, cpus)?;
        setups.push(proc.setup_s);
        if i + 1 == starts {
            out.push("setup_s", "s", stats::median(&setups), setups.len());
            let each: Vec<String> = setups.iter().map(|s| format!("{s:.4}")).collect();
            out.note("setup_s_starts", each.join(" "));
            return Ok(proc);
        }
        proc.stop()?;
    }
    unreachable!("setups(w) > 0")
}

/// Back-to-back phases the read-only workloads' measured window is cut
/// into. A host-speed calibration sample (see [`calib`]) is taken before
/// the first and after each, so the samples cover the same stretch of time
/// as the segments.
const SEGMENTS: usize = 8;

/// The measured window of a run: its segments, the server CPU each cost
/// and the calibration samples around them (`SEGMENTS + 1`).
struct Measured {
    segs: Vec<PhaseResult>,
    cpu_s: Vec<f64>,
    calib_us: Vec<f64>,
}

/// Runs [`SEGMENTS`] phases through `phase(i)`, reading the server's CPU
/// time around each and calibrating between them.
fn measure(
    pid: u32,
    cpus: &[usize],
    mut phase: impl FnMut(usize) -> Result<PhaseResult, String>,
) -> Result<Measured, String> {
    let cpu = || host::cpu_seconds_precise(pid).map_err(|e| e.to_string());
    let mut m = Measured {
        segs: Vec::with_capacity(SEGMENTS),
        cpu_s: Vec::with_capacity(SEGMENTS),
        calib_us: vec![calib::sample(cpus)?],
    };
    for i in 0..SEGMENTS {
        let c0 = cpu()?;
        m.segs.push(phase(i)?);
        m.cpu_s.push(cpu()? - c0);
        m.calib_us.push(calib::sample(cpus)?);
    }
    Ok(m)
}

/// Calibration samples taken on each side of an unsegmented phase.
const CALIB_AROUND: usize = 4;

/// Takes [`CALIB_AROUND`] calibration samples on the server's CPUs.
fn calibrate(cpus: &[usize]) -> Result<Vec<f64>, String> {
    (0..CALIB_AROUND).map(|_| calib::sample(cpus)).collect()
}

/// Requests and writer ops a phase got an answer to.
fn answered(res: &PhaseResult) -> usize {
    res.reads.iter().filter(|r| r.done.is_some()).count()
        + res.writes.iter().filter(|r| r.done.is_some()).count()
}

/// Pushes `server_cpu_us_per_req` (all segments pooled) and the gated
/// `server_cpu_per_req_calib`: the median over segments of the CPU per
/// answered request, over the median calibration round of the run.
/// Medians on both sides keep one disturbed segment or sample from moving
/// the figure.
fn push_cpu(out: &mut RunResult, m: &Measured) {
    let total: usize = m.segs.iter().map(answered).sum();
    let cpu: f64 = m.cpu_s.iter().sum();
    out.push(
        "server_cpu_us_per_req",
        "us",
        cpu * 1e6 / total.max(1) as f64,
        total,
    );
    let per_seg: Vec<f64> = m
        .segs
        .iter()
        .zip(&m.cpu_s)
        .map(|(seg, cpu)| cpu * 1e6 / answered(seg).max(1) as f64)
        .collect();
    out.push(
        "server_cpu_per_req_calib",
        "rounds",
        stats::median(&per_seg) / stats::median(&m.calib_us),
        total,
    );
    let fmt = |v: &[f64]| {
        v.iter()
            .map(|c| format!("{c:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    out.note("calib_us_per_round", fmt(&m.calib_us));
    out.note("server_cpu_us_per_req_segments", fmt(&per_seg));
}

/// Builds the oracle engines: the same checkpoints, loaded in-process.
fn oracles(cities: &[City]) -> Result<Vec<Arc<ServeEngine>>, String> {
    cities
        .iter()
        .map(|c| fixtures::load_engine(&c.ckpt, Recorder::disabled()))
        .collect()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Read latencies (ms from scheduled arrival) of the ok reads.
pub fn latencies(reads: &[ReadRec]) -> Vec<f64> {
    reads.iter().filter_map(ReadRec::latency_ms).collect()
}

fn failures(reads: &[ReadRec]) -> u64 {
    reads.iter().filter(|r| r.outcome != Outcome::Ok).count() as u64
}

/// Pushes the reference-rate read percentiles (pooled over the
/// segments) and, as notes, the same percentiles per segment — on a shared
/// host they show how far the figure moves with the host rather than the
/// code — plus the generator's lateness.
fn push_read_metrics(out: &mut RunResult, segs: &[PhaseResult]) {
    let recs: Vec<&ReadRec> = segs.iter().flat_map(|s| &s.reads).collect();
    let lat: Vec<f64> = recs.iter().filter_map(|r| r.latency_ms()).collect();
    out.push_pct("read_p50_ms", &lat, 0.50);
    out.push_pct("read_p99_ms", &lat, 0.99);
    for (name, q) in [
        ("read_p50_ms_segments", 0.50),
        ("read_p99_ms_segments", 0.99),
    ] {
        let per: Vec<String> = segs
            .iter()
            .filter_map(|s| stats::percentile_of(&latencies(&s.reads), q))
            .map(|v| format!("{v:.3}"))
            .collect();
        out.note(name, per.join(" "));
    }
    let late: Vec<f64> = recs.iter().map(|r| r.late_ms()).collect();
    if let Some(l) = stats::percentile_of(&late, 0.99) {
        out.note("loadgen_late_p99_ms", format!("{l:.4}"));
        if l > 1.0 {
            out.note("loadgen_warning", "generator ran late: latencies overstate");
        }
    }
}

/// One saturation-search step at `rate`: passes when at most 1% of the
/// reads miss the limit (a shed, error or unanswered read is a miss) and
/// the backlog at the end of the window fits what the limit allows.
struct Step {
    pass: bool,
    offered: f64,
    clean: bool,
}

fn search_step(
    client: &mut Client,
    reads: &[ReadReq],
    offset: usize,
    rate: f64,
    p: &Profile,
    seed: u64,
) -> (Step, usize) {
    let arrivals = streams::arrivals(rate, p.step_s, seed);
    let res = client.run(&Phase {
        reads,
        offset,
        arrivals: &arrivals,
        read_conns: &[0, 1],
        horizon: Duration::from_secs_f64(p.step_s),
        drain: Duration::from_secs(2),
        keep: &|_| false,
        writer: None,
    });
    let sent = res.reads.len();
    let misses = res
        .reads
        .iter()
        .filter(|r| r.latency_ms().is_none_or(|l| l > p.slo_ms))
        .count();
    let backlog_ok = res.inflight_at_horizon as f64 <= (2.0 * rate * p.slo_ms / 1e3).max(16.0);
    let clean = res.reads.iter().all(|r| r.outcome != Outcome::Unanswered);
    (
        Step {
            pass: sent > 0 && misses as f64 <= 0.01 * sent as f64 && backlog_ok,
            offered: sent as f64 / p.step_s,
            clean,
        },
        sent,
    )
}

/// Highest offered rate meeting the limit: a ×1.5 ladder from
/// `start_rate`, then geometric bisection until the bracket is within 5%
/// or the time budget runs out.
#[allow(clippy::too_many_arguments)] // one call site, all of it run state
fn saturation(
    client: &mut Client,
    addr: std::net::SocketAddr,
    reads: &[ReadReq],
    mut offset: usize,
    p: &Profile,
    seed: u64,
    start_rate: f64,
    budget: Duration,
    out: &mut RunResult,
) -> Result<(), String> {
    let t0 = Instant::now();
    let mut lo: Option<f64> = None; // highest passing offered rate
    let mut lo_target = 0.0;
    let mut hi: Option<f64> = None; // lowest failing target rate
    let mut rate = start_rate;
    let mut steps = 0u64;
    loop {
        // A failing rate is tried twice before it counts: one transient
        // stall on a shared host must not end the ladder.
        let mut step = None;
        for _ in 0..2 {
            steps += 1;
            let (s, sent) =
                search_step(client, reads, offset, rate, p, subseed(seed, 1000 + steps));
            offset += sent;
            if !s.clean {
                // Responses still in flight would be matched to the next
                // step's requests: reconnect and let the server drain.
                std::thread::sleep(Duration::from_millis(300));
                client.reconnect(addr).map_err(|e| e.to_string())?;
            }
            let pass = s.pass;
            step = Some(s);
            if pass || t0.elapsed() + Duration::from_secs_f64(p.step_s + 0.5) > budget {
                break;
            }
        }
        let step = step.expect("at least one trial");
        if step.pass {
            lo = Some(step.offered);
            lo_target = rate;
        } else {
            hi = Some(rate);
        }
        let next = match (lo, hi) {
            (_, None) => rate * 1.5,
            (None, Some(h)) => h / 1.5,
            (Some(_), Some(h)) if h / lo_target > 1.05 => (lo_target * h).sqrt(),
            _ => break,
        };
        if t0.elapsed() + Duration::from_secs_f64(p.step_s + 0.5) > budget {
            break;
        }
        rate = next;
    }
    out.note("search_steps", steps);
    match lo {
        Some(v) => {
            out.push("max_rps_under_slo", "req/s", v, steps as usize);
            if let Some(h) = hi {
                out.note("search_bracket_rps", format!("{lo_target:.1}..{h:.1}"));
            }
            Ok(())
        }
        None => {
            out.mismatches
                .push("max_rps_under_slo: no step met the latency limit".to_string());
            Ok(())
        }
    }
}

/// `serve-point` and `topk-metro`: reference-rate phase, then the
/// saturation search, then the output checks.
pub fn run_reads(
    w: Workload,
    seed: u64,
    seconds: f64,
    work: &Path,
    cities: &[City],
    cpus: &[usize],
    out: &mut RunResult,
) -> Result<(), String> {
    let p = profile(w);
    let reads = streams::reads(w, cities, seed, stream_len(w));
    let proc = start_measured(w, work, cities, cpus, out)?;
    let pid = proc.pid();
    let mut client = Client::connect(proc.addr, CONNS).map_err(|e| e.to_string())?;

    // Warm-up: fill the score cache and fault in the server's pages.
    let warm = streams::arrivals(p.ref_rate, 1.0, subseed(seed, 11));
    let res = client.run(&Phase {
        reads: &reads,
        offset: 0,
        arrivals: &warm,
        read_conns: &[0, 1],
        horizon: Duration::from_secs(1),
        drain: Duration::from_secs(5),
        keep: &|_| false,
        writer: None,
    });
    let mut offset = res.reads.len();

    let ref_s = (seconds * 0.55).max(1.0);
    let seg_s = ref_s / SEGMENTS as f64;
    let m = measure(pid, cpus, |i| {
        let arrivals = streams::arrivals(p.ref_rate, seg_s, subseed(seed, 12 + i as u64));
        let res = client.run(&Phase {
            reads: &reads,
            offset,
            arrivals: &arrivals,
            read_conns: &[0, 1],
            horizon: Duration::from_secs_f64(seg_s),
            drain: Duration::from_secs(5),
            // Every 4th read is kept for the output check.
            keep: &|i| i % 4 == 0,
            writer: None,
        });
        offset += res.reads.len();
        Ok(res)
    })?;
    push_read_metrics(out, &m.segs);
    push_cpu(out, &m);
    let recs: Vec<ReadRec> = m.segs.iter().flat_map(|s| s.reads.clone()).collect();
    out.attempted += recs.len() as u64;
    out.failed += failures(&recs);

    // Start the search near capacity: a request holds the one shard for
    // its CPU cost plus, for a single-pair score, the batcher's linger
    // (the shard thread waits on the batch while the worker waits for
    // more pairs).
    let budget = Duration::from_secs_f64((seconds - 1.0 - ref_s).max(p.step_s + 0.5));
    let cpu_us = out.get("server_cpu_us_per_req").unwrap_or(1e6 / p.ref_rate);
    let scores = reads
        .iter()
        .filter(|r| matches!(r.op, ReadOp::Score { .. }))
        .count();
    let linger_us = EngineOpts::default().batch_max_wait.as_secs_f64() * 1e6;
    let hold_us = cpu_us + linger_us * scores as f64 / reads.len() as f64;
    let start = (0.8e6 / hold_us.max(1.0)).max(p.ref_rate);
    saturation(
        &mut client,
        proc.addr,
        &reads,
        offset,
        &p,
        seed,
        start,
        budget,
        out,
    )?;
    let rss = host::peak_rss_mb(pid).map_err(|e| e.to_string())?;
    out.push("peak_rss_mb", "MB", rss, 1);
    drop(client);
    proc.stop()?;

    // Output checks against the in-process oracle.
    let engines = oracles(cities)?;
    let mut recalls = Vec::new();
    let mut checked = 0usize;
    let topk_budget = 400usize;
    for r in recs.iter().filter(|r| r.outcome == Outcome::Ok) {
        let Some(resp) = &r.resp else { continue };
        let req = &reads[r.req];
        if w == Workload::TopkMetro && checked >= topk_budget {
            break;
        }
        checked += 1;
        match check::check_read(&engines[req.city], req, resp) {
            Ok(Some(recall)) => recalls.push(recall),
            Ok(None) => {}
            Err(e) => {
                out.failed += 1;
                if out.mismatches.len() < 8 {
                    out.mismatches.push(format!("{}: {e}", req.kind()));
                }
            }
        }
    }
    out.note("oracle_checked", checked);
    if checked == 0 {
        out.mismatches.push("no responses were checked".to_string());
    }
    if w == Workload::TopkMetro {
        out.push("topk_recall", "ratio", stats::mean(&recalls), recalls.len());
    }
    note_regimes(out, &engines, &reads, &recs);
    out.push_ok_share();
    Ok(())
}

/// Notes the top-k regime shares of the reads `recs` sent, per radius
/// (classified on the checkpoint's store, see [`check::topk_regime`]).
fn note_regimes(
    out: &mut RunResult,
    engines: &[Arc<ServeEngine>],
    reads: &[ReadReq],
    recs: &[ReadRec],
) {
    for (label, metro) in [("neighbourhood", false), ("metro", true)] {
        let regimes: Vec<&str> = recs
            .iter()
            .filter_map(|r| match reads[r.req].op {
                ReadOp::TopK { src, radius_km, .. }
                    if (radius_km >= streams::METRO_KM) == metro =>
                {
                    Some(check::topk_regime(
                        engines[reads[r.req].city].store(),
                        src,
                        radius_km,
                    ))
                }
                _ => None,
            })
            .collect();
        if !regimes.is_empty() {
            out.note(
                &format!("topk_regimes_{label}"),
                check::regime_shares(regimes),
            );
        }
    }
}

/// Parses an integer field of a response line.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    json::parse(line)
        .ok()?
        .get(key)
        .and_then(Value::as_f64)
        .map(|v| v as u64)
}

/// What the `ingest-mixed` phase wrote, for checks and metrics.
pub struct WriteLog<'a> {
    pub ops: &'a [WriteOp],
    pub recs: &'a [WriteRec],
}

impl WriteLog<'_> {
    /// Acked mutations as `(seq, ack instant)`.
    pub fn acked_seqs(&self) -> Vec<(u64, Instant)> {
        self.recs
            .iter()
            .filter(|r| r.outcome == Outcome::Ok && self.ops[r.op].is_mutation())
            .filter_map(|r| Some((field_u64(r.resp.as_ref()?, "seq")?, r.done?)))
            .collect()
    }

    /// POI ids assigned to acked `add_poi` ops.
    pub fn new_pois(&self) -> Vec<u32> {
        self.recs
            .iter()
            .filter(|r| r.outcome == Outcome::Ok)
            .filter(|r| matches!(self.ops[r.op], WriteOp::AddPoi { .. }))
            .filter_map(|r| field_u64(r.resp.as_ref()?, "poi").map(|p| p as u32))
            .collect()
    }

    /// `add_poi` sent → the first acked flush after it, ms.
    pub fn visible_ms(&self) -> Vec<f64> {
        let mut out = Vec::new();
        let mut pending: Vec<Instant> = Vec::new();
        for r in self.recs {
            match self.ops[r.op] {
                WriteOp::AddPoi { .. } if r.outcome == Outcome::Ok => pending.push(r.sent),
                WriteOp::Flush if r.outcome == Outcome::Ok => {
                    let done = r.done.expect("ok implies done");
                    out.extend(pending.drain(..).map(|s| ms(done.duration_since(s))));
                }
                _ => {}
            }
        }
        out
    }

    /// Mutation sent → durable ack, ms.
    pub fn ack_ms(&self) -> Vec<f64> {
        self.recs
            .iter()
            .filter(|r| r.outcome == Outcome::Ok && self.ops[r.op].is_mutation())
            .filter_map(|r| Some(ms(r.done?.duration_since(r.sent))))
            .collect()
    }

    /// Flight windows of the `ingest_flush` ops.
    pub fn flush_windows(&self) -> Vec<(Instant, Instant)> {
        self.recs
            .iter()
            .filter(|r| self.ops[r.op] == WriteOp::Flush)
            .filter_map(|r| Some((r.sent, r.done?)))
            .collect()
    }
}

/// Splits ok read latencies by whether each read's flight overlapped an
/// `ingest_flush` flight: `(during, idle)`.
pub fn hol_split(reads: &[ReadRec], flushes: &[(Instant, Instant)]) -> (Vec<f64>, Vec<f64>) {
    let mut during = Vec::new();
    let mut idle = Vec::new();
    for r in reads {
        let (Some(l), Some(done)) = (r.latency_ms(), r.done) else {
            continue;
        };
        let overlaps = flushes.iter().any(|&(a, b)| r.sent < b && a < done);
        if overlaps {
            during.push(l);
        } else {
            idle.push(l);
        }
    }
    (during, idle)
}

/// Parses the child's `FOLLOWER [[seq, unix_ns], ...]` line (as integers:
/// nanosecond stamps do not fit an f64 exactly).
pub fn follower_log(stdout: &str) -> Vec<(u64, u64)> {
    let Some(body) = stdout.lines().find_map(|l| l.strip_prefix("FOLLOWER ")) else {
        return Vec::new();
    };
    let nums: Vec<u64> = body
        .split(['[', ']', ','])
        .filter_map(|t| t.trim().parse().ok())
        .collect();
    nums.chunks_exact(2).map(|p| (p[0], p[1])).collect()
}

/// What one `ingest-mixed` phase observed.
pub struct IngestPhase {
    pub res: PhaseResult,
    /// Acked mutations as `(seq, ack instant)`.
    pub acked: Vec<(u64, Instant)>,
    /// An `(Instant, unix ns)` pair taken together, for comparing
    /// against the standby's log.
    pub anchor: (Instant, u64),
}

/// The `ingest-mixed` measured phase: open-loop reads on connection 0,
/// the closed-loop writer on connection 1.
pub fn run_ingest_phase(
    seed: u64,
    horizon_s: f64,
    addr: std::net::SocketAddr,
    reads: &[ReadReq],
    ops: &[WriteOp],
    city: &City,
) -> Result<IngestPhase, String> {
    let p = profile(Workload::IngestMixed);
    let lines: Vec<String> = ops
        .iter()
        .map(|o| o.line(PRIMARY, &city.dataset.relation_names))
        .collect();
    let barriers: Vec<bool> = ops.iter().map(|o| !o.is_mutation()).collect();
    let mut client = Client::connect(addr, CONNS).map_err(|e| e.to_string())?;
    let arrivals = streams::arrivals(p.ref_rate, horizon_s, subseed(seed, 21));
    let anchor = (Instant::now(), child::unix_ns());
    let res = client.run(&Phase {
        reads,
        offset: 0,
        arrivals: &arrivals,
        read_conns: &[0],
        horizon: Duration::from_secs_f64(horizon_s),
        drain: Duration::from_secs(60),
        keep: &|_| false,
        writer: Some(Writer {
            conn: 1,
            lines: &lines,
            barriers: &barriers,
            window: WRITE_WINDOW,
            think: WRITE_THINK,
        }),
    });
    let acked = WriteLog {
        ops,
        recs: &res.writes,
    }
    .acked_seqs();
    Ok(IngestPhase { res, acked, anchor })
}

/// End-of-run checks of `ingest-mixed`: a final flush, every acked
/// `add_poi` id servable, the standby caught up and answering bitwise the
/// primary's scores.
pub fn run_ingest_checks(
    seed: u64,
    addr: std::net::SocketAddr,
    city: &City,
    log: &WriteLog,
    out: &mut RunResult,
) -> Result<(), String> {
    let mut client = Client::connect(addr, 1).map_err(|e| e.to_string())?;
    let timeout = Duration::from_secs(60);
    let flush = WriteOp::Flush.line(PRIMARY, &city.dataset.relation_names);
    let flushed = client.request(0, &flush, timeout).unwrap_or_default();
    if !flushed.starts_with("{\"ok\": true") {
        out.mismatches
            .push(format!("final ingest_flush failed: {flushed}"));
    }

    let new_pois = log.new_pois();
    for chunk in new_pois.chunks(32) {
        let pairs: Vec<(u32, u32)> = chunk.iter().map(|&p| (p, 0)).collect();
        let resp = client
            .request(0, &streams::batch_line(PRIMARY, &pairs), timeout)
            .unwrap_or_default();
        if check::batch_scores(&resp).map(|s| s.len()) != Ok(chunk.len()) {
            out.failed += 1;
            out.mismatches.push(format!(
                "acked add_poi ids {chunk:?} are not servable: {resp}"
            ));
            break;
        }
    }
    out.note("new_pois_checked", new_pois.len());

    let high = log.acked_seqs().iter().map(|a| a.0).max().unwrap_or(0);
    let status = format!(
        "{{\"op\": \"repl_status\", \"city\": {}}}",
        json::str(STANDBY)
    );
    let wait_until = Instant::now() + Duration::from_secs(30);
    let mut synced = 0;
    while Instant::now() < wait_until {
        let resp = client.request(0, &status, timeout).unwrap_or_default();
        synced = field_u64(&resp, "synced_seq").unwrap_or(0);
        if synced >= high {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    if synced < high {
        out.mismatches
            .push(format!("standby stuck at seq {synced} < {high}"));
    }
    let readable = (city.dataset.graph.num_pois() - streams::RETIRE_POOL) as u64;
    let mut state = subseed(seed, 31);
    let mut next = || {
        state = subseed(state, 1);
        (state % readable) as u32
    };
    let mut pairs: Vec<(u32, u32)> = (0..48).map(|_| (next(), next())).collect();
    pairs.extend(new_pois.iter().take(16).map(|&p| (p, next())));
    let primary = client
        .request(0, &streams::batch_line(PRIMARY, &pairs), timeout)
        .unwrap_or_default();
    let standby = client
        .request(0, &streams::batch_line(STANDBY, &pairs), timeout)
        .unwrap_or_default();
    match (check::batch_scores(&primary), check::batch_scores(&standby)) {
        (Ok(a), Ok(b)) if a == b && a.len() == pairs.len() => {}
        (a, b) => {
            out.failed += 1;
            out.mismatches.push(format!(
                "standby scores differ from the primary's ({:?} vs {:?} results)",
                a.map(|v| v.len()),
                b.map(|v| v.len())
            ));
        }
    }
    out.note("replica_pairs_checked", pairs.len());
    Ok(())
}

/// Follower lag per acked mutation: its durable ack → the standby's
/// synced seq reaching it, ms.
pub fn follower_lags(
    acked: &[(u64, Instant)],
    anchor: (Instant, u64),
    log: &[(u64, u64)],
) -> Vec<f64> {
    acked
        .iter()
        .filter_map(|&(seq, at)| {
            let ack_ns = anchor.1 + at.duration_since(anchor.0).as_nanos() as u64;
            let (_, synced_ns) = log.iter().find(|(s, _)| *s >= seq)?;
            Some(synced_ns.saturating_sub(ack_ns) as f64 / 1e6)
        })
        .collect()
}

/// `ingest-mixed`: open-loop reads on connection 0, the closed-loop
/// writer on connection 1, the standby tailing over TCP.
pub fn run_ingest(
    seed: u64,
    seconds: f64,
    work: &Path,
    cities: &[City],
    cpus: &[usize],
    out: &mut RunResult,
) -> Result<(), String> {
    let w = Workload::IngestMixed;
    let city = &cities[0];
    let reads = streams::reads(w, cities, seed, stream_len(w));
    let ops = streams::writes(city, seed, 40_000);
    let proc = start_measured(w, work, cities, cpus, out)?;
    let pid = proc.pid();
    let horizon_s = (seconds * 0.8).max(1.0);
    // One unbroken phase: the writer's flush cadence and the standby's
    // catch-up are left undisturbed, so calibration samples are taken
    // only before the phase and after the checks, with the server idle.
    let mut calib_us = calibrate(cpus)?;
    let cpu = || host::cpu_seconds_precise(pid).map_err(|e| e.to_string());
    let cpu0 = cpu()?;
    let IngestPhase { res, acked, anchor } =
        run_ingest_phase(seed, horizon_s, proc.addr, &reads, &ops, city)?;
    let cpu1 = cpu()?;
    let log = WriteLog {
        ops: &ops,
        recs: &res.writes,
    };
    run_ingest_checks(seed, proc.addr, city, &log, out)?;
    calib_us.extend(calibrate(cpus)?);
    let rss = host::peak_rss_mb(pid).map_err(|e| e.to_string())?;
    let stdout = proc.stop()?;

    let visible = log.visible_ms();
    let acks = log.ack_ms();
    let flushes = log.flush_windows();
    let m = Measured {
        segs: vec![res],
        cpu_s: vec![cpu1 - cpu0],
        calib_us,
    };
    let res = &m.segs[0];
    push_read_metrics(out, &m.segs);
    note_regimes(out, &oracles(cities)?, &reads, &res.reads);
    push_cpu(out, &m);
    out.push("peak_rss_mb", "MB", rss, 1);
    out.push_pct("visible_p50_ms", &visible, 0.50);
    out.push_pct("visible_p90_ms", &visible, 0.90);
    out.push_pct("write_ack_p50_ms", &acks, 0.50);
    let horizon_end = res.start + res.horizon;
    let in_window = res
        .writes
        .iter()
        .filter(|r| r.outcome == Outcome::Ok && ops[r.op].is_mutation())
        .filter(|r| r.done.is_some_and(|d| d <= horizon_end))
        .count();
    out.push(
        "writes_per_s",
        "mut/s",
        in_window as f64 / res.horizon.as_secs_f64(),
        in_window,
    );
    let lags = follower_lags(&acked, anchor, &follower_log(&stdout));
    if lags.len() < acked.len() {
        out.mismatches.push(format!(
            "{} acked mutations never reached the standby",
            acked.len() - lags.len()
        ));
    }
    out.push_pct("follower_lag_p50_ms", &lags, 0.50);
    out.push_pct("follower_lag_p90_ms", &lags, 0.90);
    let (during, idle) = hol_split(&res.reads, &flushes);
    out.note("reads_during_flush", during.len());
    out.note("reads_idle", idle.len());

    out.attempted += (res.reads.len() + res.writes.len()) as u64;
    out.failed += failures(&res.reads)
        + res
            .writes
            .iter()
            .filter(|r| r.outcome != Outcome::Ok)
            .count() as u64;
    out.push_ok_share();
    Ok(())
}
