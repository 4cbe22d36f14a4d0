//! The traced run: the workload's seeded inputs fed through each layer's
//! public entry points in-process, every call recorded as a span (name,
//! start, end, parent, request id). Spans stay in memory and are written
//! out when the run ends; per-layer metrics are derived from them. Short
//! TCP phases against a server child supply the few figures only a real
//! socket shows (transport cost, generator lateness, head-of-line split).

use crate::check;
use crate::child;
use crate::e2e::{self, WriteLog};
use crate::fixtures::{self, subseed, City, Workload, PRIMARY};
use crate::loadgen::{Client, Phase, ReadRec};
use crate::report::RunResult;
use crate::server;
use crate::stats;
use crate::streams::{self, ReadOp, ReadReq, WriteOp};
use prim_geo::Location;
use prim_graph::PoiId;
use prim_ingest::{CityIngest, Mutation, ReplFollower, ReplLink, SyncProgress};
use prim_obs::{json, Counter, Recorder};
use prim_serve::{
    encode_checkpoint_ingest, handle_line, handle_request_gated, load_checkpoint, score_pairs_all,
    AnnParams, Batcher, CkptRotator, EmbeddingStore, EngineOpts, EngineSlot, IngestBackend,
    IngestSnapshotState, LineEvent, LineFramer, RealIo, ServeCtx, ServeEngine, TenantSpec,
};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start: u64,
    pub end: u64,
    pub parent: Option<u32>,
    pub req: u64,
}

/// In-memory span recorder.
pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, parent: Option<u32>, req: u64) -> u32 {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            req,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn end(&mut self, id: u32) {
        let now = self.now();
        self.spans[id as usize].end = now;
    }

    /// Runs `f` inside a span; returns its value and the span id.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u32) {
        let id = self.begin(name, parent, req);
        let v = f();
        self.end(id);
        (v, id)
    }

    pub fn dur_ns(&self, id: u32) -> u64 {
        let s = &self.spans[id as usize];
        s.end - s.start
    }

    /// Each span's self time: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p as usize] += s.end - s.start;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| (s.end - s.start).saturating_sub(c))
            .collect()
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let selfs = self.self_ns();
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, own)) in self.spans.iter().zip(selfs).enumerate() {
            writeln!(
                f,
                "{}",
                json::obj(&[
                    ("id", json::int(i as u64)),
                    ("name", json::str(s.name)),
                    ("start_ns", json::int(s.start)),
                    ("end_ns", json::int(s.end)),
                    ("self_ns", json::int(own)),
                    (
                        "parent",
                        s.parent.map_or("null".to_string(), |p| json::int(p as u64)),
                    ),
                    ("req", json::int(s.req)),
                ])
            )?;
        }
        f.flush()
    }
}

/// Requests of the traced read path per workload.
fn traced_len(w: Workload) -> usize {
    match w {
        Workload::ServePoint => 8_000,
        Workload::TopkMetro => 400,
        Workload::IngestMixed => 3_000,
    }
}

/// Top-k probes per regime (scan and beam) on the metro city.
const TOPK_PROBES: usize = 32;

/// One probe request and the stack it runs on (an index into the read
/// path's stacks).
struct Probe {
    stack: usize,
    req: ReadReq,
}

/// Requests added for layers the workload's own stream never calls, so
/// every layer metric has enough samples for its median on every
/// workload. They are traced like the stream but kept out of the
/// protocol and cache figures. Score and batch probes run on the
/// workload's first city; top-k probes run on the metro city (stack
/// `metro_stack`), [`TOPK_PROBES`] in each of the scan and beam regimes,
/// chosen with the engine's own regime test.
fn probes(
    w: Workload,
    cities: &[City],
    metro: (&City, &EmbeddingStore),
    metro_stack: usize,
    seed: u64,
) -> Result<Vec<Probe>, String> {
    let mut state = subseed(seed, 41);
    let mut next = |n: usize| {
        state = subseed(state, 1);
        (state % n as u64) as u32
    };
    let mut out = Vec::new();
    let (city, store) = metro;
    for (regime, radius_km) in [
        ("scan", streams::NEIGHBOURHOOD_KM),
        ("beam", streams::METRO_KM),
    ] {
        let mut found = 0;
        for _ in 0..100 * store.n_pois() {
            if found == TOPK_PROBES {
                break;
            }
            let src = next(store.n_pois());
            if check::topk_regime(store, src, radius_km) != regime {
                continue;
            }
            found += 1;
            let relation = next(city.dataset.relation_names.len()) as usize;
            out.push(Probe {
                stack: metro_stack,
                req: ReadReq {
                    city: 0,
                    line: streams::topk_line(
                        &city.name,
                        src,
                        radius_km,
                        &city.dataset.relation_names[relation],
                    ),
                    op: ReadOp::TopK {
                        src,
                        radius_km,
                        relation,
                    },
                },
            });
        }
        if found < TOPK_PROBES {
            return Err(format!(
                "only {found} {regime} top-k probes at {radius_km} km on the metro city"
            ));
        }
    }
    let first = &cities[0];
    let n = first.dataset.graph.num_pois();
    let (score, batch) = match w {
        Workload::ServePoint => (0, 0),
        Workload::TopkMetro => (256, 64),
        Workload::IngestMixed => (0, 64),
    };
    for _ in 0..score {
        let (src, dst) = (next(n), next(n));
        out.push(Probe {
            stack: 0,
            req: ReadReq {
                city: 0,
                line: streams::score_line(&first.name, src, dst),
                op: ReadOp::Score { src, dst },
            },
        });
    }
    for _ in 0..batch {
        let pairs: Vec<(u32, u32)> = (0..4).map(|_| (next(n), next(n))).collect();
        out.push(Probe {
            stack: 0,
            req: ReadReq {
                city: 0,
                line: streams::batch_line(&first.name, &pairs),
                op: ReadOp::Batch { pairs },
            },
        });
    }
    Ok(out)
}

/// A serving context plus, per city, a twin engine and a batcher over a
/// third engine. The twin receives the engine call the context's tenant
/// makes for each request, in the same order, so its cache evolves
/// exactly as the context's does; the batcher's engine receives every
/// request's pairs too, and single-pair scores are timed through it.
struct Stack {
    ctx: ServeCtx,
    twins: Vec<Arc<ServeEngine>>,
    batchers: Vec<Batcher>,
    /// Whether the context's tenants batch single-pair scores (as the
    /// read-only workloads deploy them; ingest tenants do not).
    batched: bool,
}

fn stack(names: &[String], stores: &[EmbeddingStore], batched: bool) -> Stack {
    let engine = |s: &EmbeddingStore, rec: Recorder| {
        Arc::new(ServeEngine::new(s.clone(), &EngineOpts::default(), rec))
    };
    let specs = names
        .iter()
        .zip(stores)
        .map(|(name, s)| {
            let e = engine(s, Recorder::disabled());
            if batched {
                child::batched_tenant(name, e)
            } else {
                TenantSpec::new(name.as_str(), e)
            }
        })
        .collect();
    Stack {
        ctx: ServeCtx::multi(specs),
        twins: stores
            .iter()
            .map(|s| engine(s, Recorder::enabled("perfbench-twin")))
            .collect(),
        batchers: stores
            .iter()
            .map(|s| Batcher::new(engine(s, Recorder::disabled()), &EngineOpts::default()))
            .collect(),
        batched,
    }
}

/// The engine call the context's tenant makes for a request, on the
/// twin; a top-k returns its served mode tag.
fn engine_call(st: &Stack, engine: &ServeEngine, op: &ReadOp) -> Option<&'static str> {
    match op {
        // The tenant's batcher scores a lone pair as a batch of one.
        ReadOp::Score { src, dst } if st.batched => {
            std::hint::black_box(engine.batch(&[(*src, *dst)]));
        }
        ReadOp::Score { src, dst } => {
            std::hint::black_box(engine.score(*src, *dst));
        }
        ReadOp::Batch { pairs } => {
            std::hint::black_box(engine.batch(pairs));
        }
        ReadOp::TopK {
            src,
            radius_km,
            relation,
        } => {
            let (ranked, mode) =
                engine.top_k_related_mode(*src, *radius_km, streams::TOPK_K, *relation, false);
            std::hint::black_box(ranked);
            return Some(mode);
        }
    }
    None
}

fn pairs_of(op: &ReadOp) -> Vec<(u32, u32)> {
    match op {
        ReadOp::Score { src, dst } => vec![(*src, *dst)],
        ReadOp::Batch { pairs } => pairs.clone(),
        ReadOp::TopK { .. } => Vec::new(),
    }
}

/// What one traced request produced.
struct Served {
    bytes: usize,
    shed: bool,
    /// The twin's top-k mode tag.
    mode: Option<&'static str>,
}

/// One request through frame → parse → handle, plus the twin's engine
/// call, the batcher round trip of a single-pair score and the kernel /
/// radius lookups the request implies.
fn one_request(
    st: &Stack,
    framer: &mut LineFramer,
    req: &ReadReq,
    id: u64,
    mut tr: Option<&mut Tracer>,
) -> Served {
    let bytes = format!("{}\n", req.line);
    let twin = &st.twins[req.city];
    let batcher = &st.batchers[req.city];
    let pairs = pairs_of(&req.op);
    let bins: Vec<usize> = pairs
        .iter()
        .map(|&(a, b)| twin.store().pair_bin(PoiId(a), PoiId(b)))
        .collect();
    let root = tr.as_mut().map(|t| t.begin("request", None, id));
    macro_rules! span {
        ($name:expr, $body:expr) => {{
            let sid = tr.as_mut().map(|t| t.begin($name, root, id));
            let v = $body;
            if let (Some(t), Some(s)) = (tr.as_mut(), sid) {
                t.end(s);
            }
            v
        }};
    }
    let mut line = String::new();
    span!("serve.server.frame", {
        framer.push(bytes.as_bytes(), &mut |ev| {
            if let LineEvent::Line(l) = ev {
                line = l;
            }
        })
    });
    span!(
        "obs.json.parse",
        std::hint::black_box(json::parse(&line).ok())
    );
    let resp = span!("serve.proto.handle", {
        handle_request_gated(&st.ctx, &line, None).handled.response
    });
    let mode = span!("serve.engine", engine_call(st, twin, &req.op));
    match &req.op {
        ReadOp::Score { src, dst } => {
            span!(
                "serve.batcher",
                std::hint::black_box(batcher.submit(*src, *dst))
            );
        }
        ReadOp::Batch { pairs } => {
            std::hint::black_box(batcher.engine().batch(pairs));
        }
        ReadOp::TopK { .. } => {}
    }
    if let ReadOp::TopK { src, radius_km, .. } = req.op {
        span!(
            "geo.within_radius",
            std::hint::black_box(twin.store().within_radius(PoiId(src), radius_km))
        );
    } else {
        span!(
            "serve.kernel",
            std::hint::black_box(score_pairs_all(twin.store(), &pairs, &bins))
        );
    }
    if let (Some(t), Some(r)) = (tr.as_mut(), root) {
        t.end(r);
    }
    let shed = resp.contains("\"code\": \"overloaded\"")
        || resp.contains("\"code\": \"deadline_exceeded\"");
    Served {
        bytes: resp.len(),
        shed,
        mode,
    }
}

/// Median under the ≥10-beyond rule; `None` on too few samples.
fn p50(values: &[f64]) -> Option<f64> {
    stats::percentile_of(values, 0.5)
}

/// Setup layers on the workload's first checkpoint.
fn setup_layers(
    city: &City,
    tr: &mut Tracer,
    out: &mut RunResult,
) -> Result<EmbeddingStore, String> {
    let (ckpt, load) = tr.time("serve.ckpt.load", None, 0, || load_checkpoint(&city.ckpt));
    let ckpt = ckpt.map_err(|e| e.to_string())?;
    let bytes = std::fs::metadata(&city.ckpt).map_or(0, |m| m.len());
    let (store, mat) = tr.time("serve.store.materialise", None, 0, || {
        EmbeddingStore::from_checkpoint(&ckpt)
    });
    let store = store.map_err(|e| e.to_string())?;
    let mut bare = store.clone();
    bare.ann = None;
    let (_, ann) = tr.time("serve.ann.build", None, 0, || {
        bare.build_ann(AnnParams {
            seed: ckpt.config.seed,
            ..AnnParams::default()
        })
    });
    out.push("ckpt.load_ms", "ms", tr.dur_ns(load) as f64 / 1e6, 1);
    out.push("ckpt.bytes", "bytes", bytes as f64, 1);
    out.push("store.materialise_ms", "ms", tr.dur_ns(mat) as f64 / 1e6, 1);
    out.push("ann.build_ms", "ms", tr.dur_ns(ann) as f64 / 1e6, 1);
    Ok(store)
}

/// Loads a checkpoint's serving store.
fn load_store(city: &City) -> Result<EmbeddingStore, String> {
    let ckpt = load_checkpoint(&city.ckpt).map_err(|e| e.to_string())?;
    EmbeddingStore::from_checkpoint(&ckpt).map_err(|e| e.to_string())
}

/// In-process read path: untraced passes and a traced pass over fresh
/// stacks. `metro` is the metro city and its store when the workload's
/// own city is not it; top-k probes run there. Returns p50 of the
/// server-side per-request work (frame + handle), µs, for the
/// unattributed-time figure.
fn read_layers(
    w: Workload,
    seed: u64,
    cities: &[City],
    first_store: EmbeddingStore,
    metro: Option<(&City, EmbeddingStore)>,
    tr: &mut Tracer,
    out: &mut RunResult,
) -> Result<f64, String> {
    let mut stores = vec![first_store];
    for c in &cities[1..] {
        stores.push(load_store(c)?);
    }
    let batched = w != Workload::IngestMixed;
    let names = e2e::city_names(cities);
    let metro_stack = usize::from(metro.is_some());
    let (metro_city, metro_store) = match &metro {
        Some((c, s)) => (*c, s),
        None => (&cities[0], &stores[0]),
    };
    let extra = probes(w, cities, (metro_city, metro_store), metro_stack, seed)?;
    let stacks = || {
        let mut v = vec![stack(&names, &stores, batched)];
        if let Some((c, s)) = &metro {
            v.push(stack(
                std::slice::from_ref(&c.name),
                std::slice::from_ref(s),
                true,
            ));
        }
        v
    };
    let stream = streams::reads(w, cities, seed, traced_len(w));

    // Untraced passes: per-request wall time of the same call sequence.
    // The first only warms the process; each pass gets a fresh stack so
    // every pass sees the same cache evolution.
    let mut plain = Vec::with_capacity(stream.len());
    for _ in 0..2 {
        let st = stack(&names, &stores, batched);
        let mut framer = LineFramer::new(0);
        plain.clear();
        for (i, req) in stream.iter().enumerate() {
            let t = Instant::now();
            one_request(&st, &mut framer, req, i as u64, None);
            plain.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }

    // Traced pass on fresh stacks (same cold caches, same order).
    let sts = stacks();
    let mut framer = LineFramer::new(0);
    let first = tr.spans.len();
    let (mut bytes, mut sheds) = (0usize, 0usize);
    let mut modes = Vec::with_capacity(stream.len() + extra.len());
    for (i, req) in stream.iter().enumerate() {
        let s = one_request(&sts[0], &mut framer, req, i as u64, Some(&mut *tr));
        bytes += s.bytes;
        sheds += usize::from(s.shed);
        modes.push(s.mode);
    }
    let (hits, misses) = sts[0].twins.iter().fold((0, 0), |(h, m), t| {
        (
            h + t.recorder().counter(Counter::ServeCacheHits),
            m + t.recorder().counter(Counter::ServeCacheMisses),
        )
    });
    let stream_end = tr.spans.len();
    for (i, p) in extra.iter().enumerate() {
        let id = (stream.len() + i) as u64;
        let s = one_request(&sts[p.stack], &mut framer, &p.req, id, Some(&mut *tr));
        modes.push(s.mode);
    }

    // Every request's top-k regime, checked against the served mode tag.
    let all: Vec<(usize, &ReadReq)> = stream
        .iter()
        .map(|r| (0, r))
        .chain(extra.iter().map(|p| (p.stack, &p.req)))
        .collect();
    let regimes: Vec<Option<&'static str>> = all
        .iter()
        .map(|&(k, req)| match req.op {
            ReadOp::TopK { src, radius_km, .. } => Some(check::topk_regime(
                sts[k].twins[req.city].store(),
                src,
                radius_km,
            )),
            _ => None,
        })
        .collect();
    for (i, (regime, mode)) in regimes.iter().zip(&modes).enumerate() {
        if let (Some(r), Some(m)) = (regime, mode) {
            if (*r == "exact") != (*m == "exact") && out.mismatches.len() < 8 {
                out.mismatches.push(format!(
                    "request {i}: regime test says {r}, the engine served {m}"
                ));
            }
        }
    }
    for (label, metro_radius) in [("neighbourhood", false), ("metro", true)] {
        let picked: Vec<&str> = stream
            .iter()
            .zip(&regimes)
            .filter_map(|(req, r)| match req.op {
                ReadOp::TopK { radius_km, .. }
                    if (radius_km >= streams::METRO_KM) == metro_radius =>
                {
                    *r
                }
                _ => None,
            })
            .collect();
        if !picked.is_empty() {
            out.note(
                &format!("topk_regimes_traced_{label}"),
                check::regime_shares(picked),
            );
        }
    }

    // Per-request figures from the stream's spans.
    // Per request: frame, parse, handle, engine, batcher (µs).
    let mut per_req: Vec<[f64; 5]> = vec![[0.0; 5]; stream.len()];
    let mut roots = Vec::with_capacity(stream.len());
    let mut frame_ns = 0u64;
    for s in &tr.spans[first..stream_end] {
        let d = (s.end - s.start) as f64 / 1e3;
        let r = &mut per_req[s.req as usize];
        match s.name {
            "request" => roots.push(d),
            "serve.server.frame" => {
                r[0] = d;
                frame_ns += s.end - s.start;
            }
            "obs.json.parse" => r[1] = d,
            "serve.proto.handle" => r[2] = d,
            "serve.engine" => r[3] = d,
            "serve.batcher" => r[4] = d,
            _ => {}
        }
    }
    let col = |k: usize| per_req.iter().map(|r| r[k]).collect::<Vec<f64>>();
    // The handler's own time: minus the parse and the work it delegates
    // (the batcher round trip for a batched single-pair score, the
    // engine call otherwise).
    let proto_self: Vec<f64> = per_req
        .iter()
        .zip(&stream)
        .map(|(r, req)| match req.op {
            ReadOp::Score { .. } if batched => r[2] - r[1] - r[4],
            _ => r[2] - r[1] - r[3],
        })
        .collect();
    let server_side: Vec<f64> = per_req.iter().map(|r| r[0] + r[2]).collect();
    let n = stream.len().max(1) as f64;
    out.push(
        "server.frame_ns_per_line",
        "ns",
        frame_ns as f64 / n,
        stream.len(),
    );
    out.push_quantile("json.parse_us", "us", &col(1), 0.5, 1.0);
    out.push_quantile("proto.handle_us", "us", &col(2), 0.5, 1.0);
    out.push_quantile("proto.self_us", "us", &proto_self, 0.5, 1.0);
    out.push(
        "proto.response_bytes",
        "bytes",
        bytes as f64 / n,
        stream.len(),
    );
    out.push("proto.shed_share", "ratio", sheds as f64 / n, stream.len());
    out.push(
        "cache.hit_rate",
        "ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        (hits + misses) as usize,
    );
    match (p50(&roots), p50(&plain)) {
        (Some(traced), Some(untraced)) => out.push(
            "trace.overhead_pct",
            "%",
            (traced - untraced) / untraced * 100.0,
            roots.len(),
        ),
        _ => out
            .mismatches
            .push("trace.overhead_pct: too few requests".to_string()),
    }

    // Engine, batcher, kernel and radius figures over stream and probes;
    // top-k times split by the regime each query took.
    let mut score_us = Vec::new();
    let mut batch_us = Vec::new();
    let mut batcher_us = Vec::new();
    let mut scan_us = Vec::new();
    let mut beam_us = Vec::new();
    let mut exact_topk = 0usize;
    let mut radius_us = Vec::new();
    let (mut kernel_ns, mut kernel_pairs) = (0u64, 0usize);
    for s in &tr.spans[first..] {
        let i = s.req as usize;
        let op = &all[i].1.op;
        let d = (s.end - s.start) as f64 / 1e3;
        match (s.name, op) {
            ("serve.engine", ReadOp::Score { .. }) => score_us.push(d),
            ("serve.engine", ReadOp::Batch { pairs }) => batch_us.push(d / pairs.len() as f64),
            ("serve.engine", ReadOp::TopK { .. }) => match regimes[i] {
                Some("beam") => beam_us.push(d),
                Some("scan") => scan_us.push(d),
                _ => exact_topk += 1,
            },
            ("serve.batcher", _) => batcher_us.push(d),
            ("geo.within_radius", _) => radius_us.push(d),
            ("serve.kernel", op) => {
                kernel_ns += s.end - s.start;
                kernel_pairs += pairs_of(op).len();
            }
            _ => {}
        }
    }
    out.push_quantile("engine.score_us", "us", &score_us, 0.5, 1.0);
    out.push_quantile("engine.batch_us_per_pair", "us", &batch_us, 0.5, 1.0);
    out.push_quantile("batcher.submit_us", "us", &batcher_us, 0.5, 1.0);
    out.push(
        "engine.kernel_ns_per_pair",
        "ns",
        kernel_ns as f64 / kernel_pairs.max(1) as f64,
        kernel_pairs,
    );
    out.push_quantile("engine.topk_scan_us", "us", &scan_us, 0.5, 1.0);
    out.push_quantile("engine.topk_beam_us", "us", &beam_us, 0.5, 1.0);
    out.note("topk_exact_queries", exact_topk);
    out.push_quantile("store.within_radius_us", "us", &radius_us, 0.5, 1.0);
    // ANN work per approximate (scan or beam) top-k query, summed over
    // every twin: exact-regime queries touch no ANN counter.
    let queries = scan_us.len() + beam_us.len();
    let (cand, vis) = sts
        .iter()
        .flat_map(|st| &st.twins)
        .fold((0, 0), |(c, v), t| {
            (
                c + t.recorder().counter(Counter::AnnCandidates),
                v + t.recorder().counter(Counter::AnnNodesVisited),
            )
        });
    out.push(
        "ann.candidates_per_query",
        "count",
        cand as f64 / queries.max(1) as f64,
        queries,
    );
    out.push(
        "ann.visited_per_query",
        "count",
        vis as f64 / queries.max(1) as f64,
        queries,
    );
    p50(&server_side).ok_or_else(|| "too few traced requests".to_string())
}

/// In-process protocol link for the traced follower.
struct CtxLink<'a>(&'a ServeCtx);

impl ReplLink for CtxLink<'_> {
    fn request(&mut self, line: &str) -> std::io::Result<String> {
        Ok(handle_line(self.0, line).response)
    }
}

fn mutation(op: &WriteOp) -> Option<Mutation> {
    match op {
        WriteOp::AddPoi {
            lon,
            lat,
            category,
            attrs,
        } => Some(Mutation::AddPoi {
            location: Location::new(*lon, *lat),
            category: *category,
            attrs: attrs.clone(),
        }),
        WriteOp::AddEdge { src, dst, relation } => Some(Mutation::AddEdge {
            src: *src,
            dst: *dst,
            relation: *relation as u8,
        }),
        WriteOp::Retire { poi } => Some(Mutation::RetirePoi { poi: *poi }),
        WriteOp::Flush => None,
    }
}

/// Flush intervals of the traced replicated pipeline: the standby joins
/// at the second, so the rest give enough sync rounds for a median under
/// the ≥10-beyond rule.
const REPL_FLUSHES: usize = 28;
/// Snapshot encodes and rotator saves timed.
const SNAPSHOTS: usize = 32;

/// Ingest, snapshot and replication layers on the ingest city.
fn ingest_layers(
    seed: u64,
    work: &Path,
    city: &City,
    tr: &mut Tracer,
    out: &mut RunResult,
) -> Result<(), String> {
    let load = || load_checkpoint(&city.ckpt).map_err(|e| e.to_string());
    let ckpt = load()?;
    let dir = work.join("trace-ingest");
    let _ = std::fs::remove_dir_all(&dir);
    let err = |e: &dyn std::fmt::Display| e.to_string();

    // WAL-only pipeline: 64 flush intervals of staging and apply.
    let ops = streams::writes(city, seed, 65 * (streams::FLUSH_EVERY + 1));
    let rec = Recorder::enabled("perfbench-ingest");
    let ingest = CityIngest::open(
        load()?,
        dir.join("wal"),
        Arc::new(RealIo),
        EngineSlot::new(fixtures::load_engine(&city.ckpt, rec.clone())?),
        EngineOpts::default(),
        crate::child::ingest_opts(),
    )
    .map_err(|e| err(&e))?;
    let first = tr.spans.len();
    for (i, op) in ops.iter().enumerate().take(64 * (streams::FLUSH_EVERY + 1)) {
        match mutation(op) {
            Some(m) => {
                let (r, _) = tr.time("ingest.stage", None, i as u64, || ingest.stage(m));
                r.map_err(|e| err(&e))?;
            }
            None => {
                tr.time("ingest.apply", None, i as u64, || ingest.flush());
            }
        }
    }
    let by_name = |tr: &Tracer, name: &str| -> Vec<f64> {
        tr.spans[first..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64 / 1e3)
            .collect()
    };
    let stage = by_name(tr, "ingest.stage");
    out.push_quantile("ingest.stage_us_p50", "us", &stage, 0.5, 1.0);
    out.push_quantile("ingest.stage_us_p99", "us", &stage, 0.99, 1.0);
    let apply = by_name(tr, "ingest.apply");
    out.push_quantile("ingest.apply_ms", "ms", &apply, 0.5, 1e-3);
    let targets = rec.scalar_summary("ingest/apply_targets");
    out.push(
        "ingest.apply_targets",
        "count",
        targets.as_ref().map_or(0.0, |s| s.mean),
        targets.map_or(0, |s| s.count as usize),
    );
    drop(ingest);

    // Replicated pipeline; a standby joins after two flushes (it
    // bootstraps from a snapshot only if compaction already pruned records
    // it needs) and catches up after each of the following flushes.
    let pslot = EngineSlot::new(fixtures::load_engine(&city.ckpt, Recorder::disabled())?);
    let primary = CityIngest::open_replicated(
        Some(load()?),
        dir.join("p.wal"),
        dir.join("p.snap"),
        Arc::new(RealIo),
        Arc::clone(&pslot),
        EngineOpts::default(),
        crate::child::ingest_opts(),
    )
    .map_err(|e| err(&e))?;
    let ctx = ServeCtx::multi(vec![TenantSpec::new(PRIMARY, pslot.get())
        .with_slot(pslot)
        .with_ingest(Arc::clone(&primary) as Arc<dyn IngestBackend>)]);
    let mut link = CtxLink(&ctx);
    let mut follower: Option<Arc<ReplFollower>> = None;
    let (mut bootstraps, mut tail_records, mut tail_rounds) = (0u64, 0u64, 0u64);
    for (i, op) in ops
        .iter()
        .enumerate()
        .take(REPL_FLUSHES * (streams::FLUSH_EVERY + 1))
    {
        let Some(m) = mutation(op) else {
            tr.time("ingest.flush", None, i as u64, || primary.flush());
            let f = match &follower {
                Some(f) => f,
                None if i > 2 * streams::FLUSH_EVERY => follower.insert(
                    ReplFollower::new(
                        Some(load()?),
                        PRIMARY,
                        dir.join("f.wal"),
                        dir.join("f.snap"),
                        Arc::new(RealIo),
                        EngineSlot::new(fixtures::load_engine(&city.ckpt, Recorder::disabled())?),
                        EngineOpts::default(),
                        crate::child::ingest_opts(),
                    )
                    .map_err(|e| err(&e))?,
                ),
                None => continue,
            };
            loop {
                let (r, _) = tr.time("repl.sync_round", None, i as u64, || {
                    f.sync_round(&mut link)
                });
                match r.map_err(|e| err(&e))? {
                    SyncProgress::Tail { applied: 0, lag: 0 } => {
                        tr.spans.pop(); // an idle probe round is not work
                        break;
                    }
                    SyncProgress::Tail { applied, .. } => {
                        tail_records += applied;
                        tail_rounds += 1;
                    }
                    SyncProgress::Bootstrapped { .. } => bootstraps += 1,
                    SyncProgress::Snapshot { .. } => {}
                }
            }
            continue;
        };
        primary.stage(m).map_err(|e| err(&e))?;
    }
    let flush = by_name(tr, "ingest.flush");
    out.push_quantile("ingest.flush_ms", "ms", &flush, 0.5, 1e-3);
    let rounds = by_name(tr, "repl.sync_round");
    out.push_quantile("repl.sync_round_ms", "ms", &rounds, 0.5, 1e-3);
    out.push(
        "repl.records_per_round",
        "count",
        tail_records as f64 / tail_rounds.max(1) as f64,
        tail_rounds as usize,
    );
    out.push("repl.bootstraps", "count", bootstraps as f64, rounds.len());
    drop(follower);
    drop(primary);

    // Snapshot encode and rotator save, SNAPSHOTS times each.
    let (model, _) = ckpt.rebuild().map_err(|e| e.to_string())?;
    let state = IngestSnapshotState {
        snapshot_seq: 1,
        base_pois: ckpt.graph.num_pois() as u64,
        retired: Vec::new(),
    };
    let rot = CkptRotator::new(dir.join("rot"), 2).map_err(|e| err(&e))?;
    let mut bytes = Vec::new();
    for epoch in 0..SNAPSHOTS as u64 {
        (bytes, _) = tr.time("ckpt.snapshot_encode", None, epoch, || {
            encode_checkpoint_ingest(
                "perfbench",
                &model,
                &ckpt.graph,
                &ckpt.taxonomy,
                &ckpt.attrs,
                &ckpt.relation_names,
                None,
                None,
                Some(&state),
            )
        });
        let (r, _) = tr.time("ckpt.snapshot_save", None, epoch, || {
            rot.save(&RealIo, epoch as usize + 1, &bytes)
        });
        r.map_err(|e| err(&e))?;
    }
    let enc = by_name(tr, "ckpt.snapshot_encode");
    let save = by_name(tr, "ckpt.snapshot_save");
    out.push_quantile("ckpt.snapshot_encode_ms", "ms", &enc, 0.5, 1e-3);
    out.push("ckpt.snapshot_bytes", "bytes", bytes.len() as f64, 1);
    out.push_quantile("ckpt.snapshot_save_ms", "ms", &save, 0.5, 1e-3);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// Share of `--seconds` each open-loop TCP phase of the traced run
/// lasts: long enough that the reads overlapping an `ingest_flush` (a
/// fifth to a third of them, by the seed's apply cost) support a p99.
const TCP_SHARE: f64 = 0.7;

/// TCP phases: a closed-loop ping for the round trip, then the
/// workload's reference traffic for generator lateness and the
/// end-to-end p50 the trace is compared against.
#[allow(clippy::too_many_arguments)]
fn tcp_layers(
    w: Workload,
    seed: u64,
    seconds: f64,
    work: &Path,
    cities: &[City],
    cpus: &[usize],
    handle_us: f64,
    server_side_us: f64,
    out: &mut RunResult,
) -> Result<(), String> {
    let names = e2e::city_names(cities);
    let _ = std::fs::remove_dir_all(work.join("server"));
    let proc = server::start(w, work, &names, cpus)?;
    out.note("trace_setup_s", proc.setup_s);
    let reads = streams::reads(w, cities, seed, e2e::stream_len(w));

    let mut ping = Client::connect(proc.addr, 1).map_err(|e| e.to_string())?;
    let mut rtt = Vec::new();
    let t0 = Instant::now();
    for req in reads.iter().cycle().take(20_000) {
        if t0.elapsed() > Duration::from_secs_f64(seconds * 0.1) {
            break;
        }
        let t = Instant::now();
        ping.request(0, &req.line, Duration::from_secs(10))
            .ok_or("ping request failed")?;
        rtt.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(ping);
    let rtt_p50 = p50(&rtt).ok_or("server.transport_us: too few round trips")?;
    out.push("server.transport_us", "us", rtt_p50 - handle_us, rtt.len());

    let horizon = seconds * TCP_SHARE;
    let p = e2e::profile(w);
    let res = if w == Workload::IngestMixed {
        let ops = streams::writes(&cities[0], seed, 40_000);
        let res = e2e::run_ingest_phase(seed, horizon, proc.addr, &reads, &ops, &cities[0])?.res;
        let log = WriteLog {
            ops: &ops,
            recs: &res.writes,
        };
        hol(out, &res.reads, &log.flush_windows());
        res
    } else {
        let mut client = Client::connect(proc.addr, e2e::CONNS).map_err(|e| e.to_string())?;
        let arrivals = streams::arrivals(p.ref_rate, horizon, subseed(seed, 12));
        client.run(&Phase {
            reads: &reads,
            offset: 0,
            arrivals: &arrivals,
            read_conns: &[0, 1],
            horizon: Duration::from_secs_f64(horizon),
            drain: Duration::from_secs(5),
            keep: &|_| false,
            writer: None,
        })
    };
    proc.stop()?;
    let lat = e2e::latencies(&res.reads);
    let late: Vec<f64> = res.reads.iter().map(|r| r.late_ms()).collect();
    match stats::percentile_of(&late, 0.99) {
        Some(v) => out.push("loadgen.late_p99_ms", "ms", v, late.len()),
        None => out
            .mismatches
            .push("loadgen.late_p99_ms: too few reads".to_string()),
    }
    let read_p50_us = p50(&lat).ok_or("trace.unattributed_us: too few reads")? * 1e3;
    out.note("trace_read_p50_us", read_p50_us);
    out.push(
        "trace.unattributed_us",
        "us",
        read_p50_us - server_side_us,
        lat.len(),
    );
    Ok(())
}

/// Head-of-line split of one ingest phase's reads.
fn hol(out: &mut RunResult, reads: &[ReadRec], flushes: &[(Instant, Instant)]) {
    let (during, idle) = e2e::hol_split(reads, flushes);
    for (name, v) in [
        ("hol.read_p99_during_flush_ms", &during),
        ("hol.read_p99_idle_ms", &idle),
    ] {
        match stats::percentile_of(v, 0.99) {
            Some(p) => out.push(name, "ms", p, v.len()),
            None => out
                .mismatches
                .push(format!("{name}: {} reads cannot support p99", v.len())),
        }
    }
}

/// The whole traced run of `w`.
#[allow(clippy::too_many_arguments)]
pub fn run(
    w: Workload,
    seed: u64,
    seconds: f64,
    work: &Path,
    cities: &[City],
    cpus: &[usize],
    spans_out: &Path,
    out: &mut RunResult,
) -> Result<(), String> {
    let mut tr = Tracer::new();
    let store = setup_layers(&cities[0], &mut tr, out)?;
    // Top-k layers always run on a metro city, where the beam regime is
    // reachable: the workload's own on topk-metro, one generated from the
    // same seed otherwise.
    let metro_city = if w == Workload::TopkMetro {
        None
    } else {
        let mut owned = fixtures::generate(Workload::TopkMetro, seed, &work.join("metro-city"))
            .map_err(|e| e.to_string())?;
        Some(owned.remove(0))
    };
    let metro = match &metro_city {
        Some(c) => Some((c, load_store(c)?)),
        None => None,
    };
    let server_side_us = read_layers(w, seed, cities, store, metro, &mut tr, out)?;
    drop(metro_city);
    let handle_us = out.get("proto.handle_us").unwrap_or(0.0);

    // Ingest layers always run on an ingest city: the workload's own on
    // ingest-mixed, one generated from the same seed otherwise.
    let ingest_dir = work.join("ingest-city");
    let owned;
    let ingest_city = if w == Workload::IngestMixed {
        &cities[0]
    } else {
        owned = fixtures::generate(Workload::IngestMixed, seed, &ingest_dir)
            .map_err(|e| e.to_string())?;
        &owned[0]
    };
    ingest_layers(seed, work, ingest_city, &mut tr, out)?;

    tcp_layers(
        w,
        seed,
        seconds,
        work,
        cities,
        cpus,
        handle_us,
        server_side_us,
        out,
    )?;
    if w != Workload::IngestMixed {
        // Head-of-line figures need a writer: one short ingest phase on
        // the ingest city.
        let city = std::slice::from_ref(ingest_city);
        let _ = std::fs::remove_dir_all(ingest_dir.join("server"));
        let proc = server::start(
            Workload::IngestMixed,
            &ingest_dir,
            &e2e::city_names(city),
            cpus,
        )?;
        let reads = streams::reads(Workload::IngestMixed, city, seed, e2e::stream_len(w));
        let ops = streams::writes(ingest_city, seed, 40_000);
        let res = e2e::run_ingest_phase(
            seed,
            seconds * TCP_SHARE,
            proc.addr,
            &reads,
            &ops,
            ingest_city,
        )?
        .res;
        proc.stop()?;
        let log = WriteLog {
            ops: &ops,
            recs: &res.writes,
        };
        hol(out, &res.reads, &log.flush_windows());
    }
    out.note("spans", tr.spans.len());
    tr.write(spans_out)
        .map_err(|e| format!("writing spans: {e}"))?;
    out.note("spans_file", spans_out.display());
    out.attempted += tr.spans.iter().filter(|s| s.name == "request").count() as u64;
    Ok(())
}
