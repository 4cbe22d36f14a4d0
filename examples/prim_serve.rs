//! End-to-end serving workflow: train → checkpoint → serve → query.
//!
//! ```text
//! # 1. Train a small model and write a checkpoint:
//! cargo run --release --example prim_serve -- train-save /tmp/prim.ckpt
//!
//! # 2. Serve it over stdin/stdout (one JSON request per line):
//! cargo run --release --example prim_serve -- serve-stdin /tmp/prim.ckpt \
//!     < examples/serve_requests.jsonl
//!
//! # 3. Or over TCP (prints the bound address, then serves until a
//! #    {"op": "shutdown"} request arrives):
//! cargo run --release --example prim_serve -- serve-tcp /tmp/prim.ckpt 127.0.0.1:7391
//!
//! # 4. Multi-tenant TCP: comma-separated city=ckpt specs; requests carry
//! #    a "city" field and each tenant keeps its own telemetry recorder:
//! cargo run --release --example prim_serve -- \
//!     serve-tcp beijing=/tmp/bj.ckpt,shanghai=/tmp/sh.ckpt 127.0.0.1:7391
//! ```
//!
//! Resilience workflow (the CI chaos-smoke job drives exactly this):
//!
//! ```text
//! # Crash-safe training into a rotation directory; a second invocation
//! # resumes from the newest valid checkpoint, bitwise-identically:
//! cargo run --release --example prim_serve -- train-resumable /tmp/prim-ckpts
//!
//! # Same, but die deterministically at file-operation N of the
//! # checkpoint save sequence (exit code 3 simulates the crash):
//! cargo run --release --example prim_serve -- train-resumable /tmp/prim-ckpts kill-at-op 12
//!
//! # Canned client traffic against a running TCP server (exits non-zero
//! # if any request fails):
//! cargo run --release --example prim_serve -- client 127.0.0.1:7391 200
//!
//! # Hot-swap the serving checkpoint without dropping connections:
//! cargo run --release --example prim_serve -- reload 127.0.0.1:7391 /tmp/prim.ckpt
//! ```
//!
//! The serving process never touches the training dataset: everything it
//! needs — parameters, POI geometry, taxonomy, relation names, distance
//! bins — comes out of the checkpoint. Set `PRIM_RUN_REPORT` to capture
//! serve-phase telemetry (request/pair/batch counters) as JSON lines.

use prim::model::{fit, ModelInputs, NoopHook, PrimConfig, PrimModel};
use prim::prelude::*;
use prim::serve::{
    fit_resumable, fit_resumable_hooked, ChaosIo, EngineOpts, FaultPlan, ResilienceOpts,
    ResumeError, ServeCtx, TcpServer, TenantSpec,
};
use std::io::{BufRead, BufReader, Write};
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("train-save") if args.len() == 2 => train_save(&args[1]),
        Some("serve-stdin") if args.len() == 2 => serve_stdin_mode(&args[1]),
        Some("serve-tcp") if args.len() == 3 => serve_tcp_mode(&args[1], &args[2]),
        Some("train-resumable") if args.len() == 2 => train_resumable(&args[1], None),
        Some("train-resumable") if args.len() == 4 && args[2] == "kill-at-op" => {
            let at: usize = args[3].parse().unwrap_or_else(|_| {
                eprintln!("prim_serve: kill-at-op wants an integer, got {:?}", args[3]);
                std::process::exit(2);
            });
            train_resumable(&args[1], Some(at))
        }
        Some("client") if args.len() == 3 => {
            let count: usize = args[2].parse().unwrap_or_else(|_| {
                eprintln!(
                    "prim_serve: client wants a request count, got {:?}",
                    args[2]
                );
                std::process::exit(2);
            });
            client_mode(&args[1], count)
        }
        Some("reload") if args.len() == 3 => reload_mode(&args[1], &args[2]),
        _ => {
            eprintln!(
                "usage: prim_serve train-save <ckpt>\n       \
                 prim_serve serve-stdin <ckpt>\n       \
                 prim_serve serve-tcp <ckpt|city=ckpt[,city=ckpt...]> <addr>\n       \
                 prim_serve train-resumable <dir> [kill-at-op <n>]\n       \
                 prim_serve client <addr> <count>\n       \
                 prim_serve reload <addr> <ckpt>"
            );
            std::process::exit(2);
        }
    }
}

/// Trains a laptop-scale model on a city subsample and checkpoints it.
fn train_save(path: &str) {
    let ds = Dataset::beijing(Scale::Quick).subsample(0.2, 5);
    let cfg = PrimConfig {
        dim: 16,
        cat_dim: 8,
        epochs: 8,
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
    let report = fit(&mut model, &inputs, &ds.graph, ds.graph.edges(), None, None);
    // Build the serving store once here so the checkpoint carries the ANN
    // graph: every process that loads it adopts the index instead of
    // paying the O(n·ef) construction again.
    let store = EmbeddingStore::from_model(&model, &inputs, ds.relation_names.clone());
    let ann = &store
        .ann
        .as_ref()
        .expect("from_model builds the index")
        .graph;
    prim::serve::save_checkpoint_indexed(
        path,
        "prim-serve-example",
        &model,
        &ds.graph,
        &ds.taxonomy,
        &ds.attrs,
        &ds.relation_names,
        ann,
    )
    .unwrap_or_else(|e| {
        eprintln!("prim_serve: saving {path}: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "trained {} epochs (final loss {:.4}), indexed checkpoint written to {path}",
        report.losses.len(),
        report.final_loss()
    );
}

/// Loads a checkpoint and builds the query engine around it. Goes through
/// [`EmbeddingStore::from_checkpoint`] so a persisted `ann.*` graph is
/// adopted instead of rebuilt (and a checkpoint without one gets a fresh
/// deterministic index).
fn load_engine(path: &str) -> Arc<ServeEngine> {
    load_engine_as(path, "prim-serve")
}

/// [`load_engine`] with an explicit recorder name, so each tenant of a
/// multi-tenant server writes its own `prim-serve:<city>` telemetry run.
fn load_engine_as(path: &str, run: &str) -> Arc<ServeEngine> {
    let ckpt = prim::serve::load_checkpoint(path).unwrap_or_else(|e| {
        eprintln!("prim_serve: loading {path}: {e}");
        std::process::exit(1);
    });
    let store = EmbeddingStore::from_checkpoint(&ckpt).unwrap_or_else(|e| {
        eprintln!("prim_serve: rebuilding store: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "loaded run {:?}: {} POIs, {} relations, dim {}, ann {}",
        ckpt.run,
        store.n_pois(),
        store.n_relations(),
        store.dim(),
        if ckpt.ann_graph.is_some() {
            "adopted"
        } else {
            "rebuilt"
        }
    );
    let recorder = Recorder::from_env(run);
    Arc::new(ServeEngine::new(store, &EngineOpts::default(), recorder))
}

fn serve_stdin_mode(path: &str) {
    let engine = load_engine(path);
    let ctx = ServeCtx::direct(Arc::clone(&engine));
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    prim::serve::serve_stdin(&ctx, stdin.lock(), stdout.lock()).unwrap_or_else(|e| {
        eprintln!("prim_serve: io error: {e}");
        std::process::exit(1);
    });
    engine.recorder().finish();
}

/// Crash-safe training into a rotation directory. Rerunning after a crash
/// (or a `kill-at-op` injection) resumes from the newest valid checkpoint
/// and continues bitwise-identically to a run that never stopped. On
/// completion a standalone serving checkpoint lands at `<dir>/final.ckpt`.
fn train_resumable(dir: &str, kill_at_op: Option<usize>) {
    let ds = Dataset::beijing(Scale::Quick).subsample(0.2, 5);
    let cfg = PrimConfig {
        dim: 16,
        cat_dim: 8,
        epochs: 8,
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
    let telemetry = Telemetry {
        recorder: Recorder::from_env("prim-resumable"),
        guard: FiniteGuard::every(1),
    };
    let opts = ResilienceOpts::default();
    let result = match kill_at_op {
        None => fit_resumable(
            &mut model,
            &inputs,
            &ds.graph,
            &ds.taxonomy,
            &ds.attrs,
            &ds.relation_names,
            ds.graph.edges(),
            None,
            None,
            dir.as_ref(),
            &opts,
            &telemetry,
        ),
        Some(at) => fit_resumable_hooked(
            &mut model,
            &inputs,
            &ds.graph,
            &ds.taxonomy,
            &ds.attrs,
            &ds.relation_names,
            ds.graph.edges(),
            None,
            None,
            dir.as_ref(),
            &opts,
            &telemetry,
            &mut NoopHook,
            &ChaosIo::with_plan(FaultPlan::kill_at(at)),
        ),
    };
    match result {
        Ok(run) => {
            match run.resumed_from {
                Some(epoch) => eprintln!(
                    "resumed from epoch {epoch}, finished {} epochs (final loss {:.4}, {} rollbacks)",
                    run.report.losses.len(),
                    run.report.final_loss(),
                    run.rollbacks
                ),
                None => eprintln!(
                    "trained {} epochs from scratch (final loss {:.4}, {} rollbacks)",
                    run.report.losses.len(),
                    run.report.final_loss(),
                    run.rollbacks
                ),
            }
            let final_path = std::path::Path::new(dir).join("final.ckpt");
            prim::serve::save_checkpoint(
                &final_path,
                "prim-resumable",
                &model,
                &ds.graph,
                &ds.taxonomy,
                &ds.attrs,
                &ds.relation_names,
            )
            .unwrap_or_else(|e| {
                eprintln!("prim_serve: saving {}: {e}", final_path.display());
                std::process::exit(1);
            });
            eprintln!("serving checkpoint written to {}", final_path.display());
            telemetry.recorder.finish();
        }
        Err(ResumeError::Io(e)) if kill_at_op.is_some() => {
            // The injected kill fired: the process "died" mid-save. The
            // rotation directory still resolves to a valid checkpoint.
            eprintln!("injected crash: {e}");
            let rot = prim::serve::CkptRotator::new(std::path::Path::new(dir), opts.retain)
                .expect("rotation dir exists");
            match rot.latest_valid() {
                Some((path, _)) => eprintln!("durable checkpoint: {}", path.display()),
                None => eprintln!("no durable checkpoint yet (crash before first save)"),
            }
            std::process::exit(3);
        }
        Err(e) => {
            eprintln!("prim_serve: resumable training failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Canned score traffic against a running TCP server: `count` requests on
/// one connection, deterministic POI pairs. Exits non-zero if any request
/// fails — the CI reload-under-traffic check keys off this.
fn client_mode(addr: &str, count: usize) {
    let stream = std::net::TcpStream::connect(addr).unwrap_or_else(|e| {
        eprintln!("prim_serve: connecting {addr}: {e}");
        std::process::exit(1);
    });
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);

    // Size the pair pool from the server's own health report.
    writer.write_all(b"{\"op\": \"health\"}\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let n_pois = line
        .split("\"n_pois\": ")
        .nth(1)
        .and_then(|s| s.split([',', '}']).next())
        .and_then(|s| s.trim().parse::<u64>().ok())
        .unwrap_or_else(|| {
            eprintln!("prim_serve: bad health response: {}", line.trim());
            std::process::exit(1);
        });

    let mut failures = 0usize;
    for i in 0..count {
        let src = (i as u64 * 7 + 3) % n_pois;
        let dst = (i as u64 * 13 + 11) % n_pois;
        let req = format!("{{\"op\": \"score\", \"src\": {src}, \"dst\": {dst}}}\n");
        writer.write_all(req.as_bytes()).unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        if !line.contains("\"ok\": true") {
            failures += 1;
            eprintln!("request {i} failed: {}", line.trim());
        }
    }
    println!("{} ok, {failures} failed", count - failures);
    if failures > 0 {
        std::process::exit(1);
    }
}

/// Sends a hot-reload request to a running TCP server.
fn reload_mode(addr: &str, ckpt: &str) {
    let stream = std::net::TcpStream::connect(addr).unwrap_or_else(|e| {
        eprintln!("prim_serve: connecting {addr}: {e}");
        std::process::exit(1);
    });
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let req = format!(
        "{{\"op\": \"reload\", \"path\": \"{}\"}}\n",
        ckpt.replace('\\', "/")
    );
    writer.write_all(req.as_bytes()).unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    println!("{}", line.trim());
    if !line.contains("\"ok\": true") {
        std::process::exit(1);
    }
}

/// Serves one checkpoint (`<ckpt>`) or several named tenants
/// (`city=ckpt,city=ckpt`). The single-path form keeps the historical
/// single-tenant behavior; the multi-tenant form routes requests on their
/// `"city"` field and gives every city its own telemetry run
/// (`prim-serve:<city>`).
fn serve_tcp_mode(spec: &str, addr: &str) {
    let engines: Vec<Arc<ServeEngine>>;
    let ctx = if spec.contains('=') {
        let mut tenants = Vec::new();
        let mut loaded = Vec::new();
        for part in spec.split(',') {
            let (city, path) = match part.split_once('=') {
                Some((c, p)) if !c.is_empty() && !p.is_empty() => (c, p),
                _ => {
                    eprintln!("prim_serve: tenant spec wants city=ckpt, got {part:?}");
                    std::process::exit(2);
                }
            };
            let engine = load_engine_as(path, &format!("prim-serve:{city}"));
            loaded.push(Arc::clone(&engine));
            tenants.push(TenantSpec::new(city, engine).with_ckpt_path(path));
        }
        eprintln!("routing {} tenants by \"city\"", tenants.len());
        engines = loaded;
        ServeCtx::multi(tenants)
    } else {
        let engine = load_engine(spec);
        engines = vec![Arc::clone(&engine)];
        ServeCtx::direct(engine)
    };
    let server = TcpServer::bind(addr, ctx).unwrap_or_else(|e| {
        eprintln!("prim_serve: binding {addr}: {e}");
        std::process::exit(1);
    });
    eprintln!("serving on {}", server.local_addr().unwrap());
    server.run().unwrap_or_else(|e| {
        eprintln!("prim_serve: server error: {e}");
        std::process::exit(1);
    });
    for engine in engines {
        engine.recorder().finish();
    }
}
