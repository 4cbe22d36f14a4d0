//! The system under test, in its own process: the benchmark re-executes
//! itself with `--serve-child`, so the server's CPU time and peak RSS are
//! its own `/proc/<pid>` figures. The child pins itself to the server
//! cores before anything else runs, loads the checkpoints the parent
//! generated, binds a [`TcpServer`] with a fixed shard count and prints
//! `READY <port>`. Read-only tenants are built as `prim_serve serve-tcp`
//! builds them, with a micro-batcher in front of single-pair scores; the
//! ingest tenants take no batcher, as in the ingest examples. On
//! `ingest-mixed` the child also hosts the warm standby: a
//! [`ReplFollower`] tenant whose pull loop tails the primary over real
//! TCP (`repl_sync`), logging when its synced seq advances. At shutdown it
//! prints that log as one `FOLLOWER` line.

use crate::fixtures::{self, Workload, PRIMARY, STANDBY};
use crate::host;
use prim_ingest::{CityIngest, IngestOpts, ReplFollower, SyncProgress};
use prim_obs::Recorder;
use prim_serve::{
    load_checkpoint, Batcher, ChaosClient, EmbeddingStore, EngineOpts, EngineSlot, IngestBackend,
    RealIo, ServeCtx, ServeEngine, TcpServer, TenantSpec,
};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Event-loop shards the server runs, fixed by the benchmark (not taken
/// from the core count) so results compare across hosts.
pub const SHARDS: usize = 1;
/// How often the standby polls the primary once caught up.
pub const FOLLOWER_POLL: Duration = Duration::from_millis(20);

/// Ingest knobs for the primary and the standby.
pub fn ingest_opts() -> IngestOpts {
    IngestOpts::default()
}

/// Nanoseconds since the Unix epoch: the one clock both processes share.
pub fn unix_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64)
}

/// Runs the server child; returns the process exit code.
pub fn run(workload: Workload, work: &Path, cities: &[String], cpus: &[usize]) -> i32 {
    if let Err(e) = host::die_with_parent() {
        eprintln!("perfbench server: prctl(PR_SET_PDEATHSIG) failed: {e}");
        return 3;
    }
    if let Err(e) = host::pin_to(cpus) {
        eprintln!("perfbench server: pinning to cpus {cpus:?} failed: {e}");
        return 3;
    }
    match serve(workload, work, cities) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perfbench server: {e}");
            4
        }
    }
}

/// A read-only tenant as `prim_serve serve-tcp` deploys it: single-pair
/// `score` ops go through a [`Batcher`] with the default options.
pub fn batched_tenant(name: &str, engine: Arc<ServeEngine>) -> TenantSpec {
    let batcher = Arc::new(Batcher::new(Arc::clone(&engine), &EngineOpts::default()));
    TenantSpec::new(name, engine).with_batcher(batcher)
}

type FollowerLog = Arc<Mutex<Vec<(u64, u64)>>>;

fn serve(workload: Workload, work: &Path, cities: &[String]) -> Result<(), String> {
    let ckpt_of = |name: &str| work.join(format!("{name}.ckpt"));
    let mut follower = None;
    let specs: Vec<TenantSpec> = if workload == Workload::IngestMixed {
        let ckpt = load_checkpoint(ckpt_of(PRIMARY)).map_err(|e| e.to_string())?;
        let store = EmbeddingStore::from_checkpoint(&ckpt).map_err(|e| e.to_string())?;
        let new_engine = |store: EmbeddingStore| {
            Arc::new(ServeEngine::new(
                store,
                &EngineOpts::default(),
                Recorder::disabled(),
            ))
        };
        let pslot = EngineSlot::new(new_engine(store.clone()));
        let fslot = EngineSlot::new(new_engine(store));
        let dir = work.join("server");
        let primary = CityIngest::open_replicated(
            Some(ckpt),
            dir.join("primary.wal"),
            dir.join("primary.snap"),
            Arc::new(RealIo),
            Arc::clone(&pslot),
            EngineOpts::default(),
            ingest_opts(),
        )
        .map_err(|e| e.to_string())?;
        let standby = ReplFollower::new(
            Some(load_checkpoint(ckpt_of(PRIMARY)).map_err(|e| e.to_string())?),
            PRIMARY,
            dir.join("standby.wal"),
            dir.join("standby.snap"),
            Arc::new(RealIo),
            Arc::clone(&fslot),
            EngineOpts::default(),
            ingest_opts(),
        )
        .map_err(|e| e.to_string())?;
        follower = Some(Arc::clone(&standby));
        vec![
            TenantSpec::new(PRIMARY, pslot.get())
                .with_slot(pslot)
                .with_ingest(primary as Arc<dyn IngestBackend>),
            TenantSpec::new(STANDBY, fslot.get())
                .with_slot(fslot)
                .with_ingest(standby as Arc<dyn IngestBackend>),
        ]
    } else {
        cities
            .iter()
            .map(|c| {
                fixtures::load_engine(&ckpt_of(c), Recorder::disabled())
                    .map(|e| batched_tenant(c, e))
            })
            .collect::<Result<_, _>>()?
    };
    let server = TcpServer::bind("127.0.0.1:0", ServeCtx::multi(specs))
        .map_err(|e| format!("bind: {e}"))?
        .with_shards(SHARDS);
    let port = server.local_addr().map_err(|e| e.to_string())?.port();

    let stop = Arc::new(AtomicBool::new(false));
    let log: FollowerLog = Arc::new(Mutex::new(Vec::new()));
    let puller = follower.map(|f| {
        let (stop, log) = (Arc::clone(&stop), Arc::clone(&log));
        std::thread::spawn(move || pull_loop(&f, port, &stop, &log))
    });
    println!("READY {port}");
    let served = server.run().map_err(|e| format!("serve: {e}"));
    stop.store(true, Ordering::SeqCst);
    if let Some(h) = puller {
        h.join()
            .map_err(|_| "follower thread panicked".to_string())?;
        let log = log.lock().expect("follower log lock poisoned");
        let rows: Vec<String> = log.iter().map(|(s, t)| format!("[{s}, {t}]")).collect();
        println!("FOLLOWER [{}]", rows.join(", "));
    }
    served
}

/// The standby's pull loop: one `sync_round` after another while records
/// flow, a short poll sleep once caught up, reconnecting after link
/// errors. Logs `(synced_seq, unix_ns)` whenever the synced seq advances.
fn pull_loop(f: &ReplFollower, port: u16, stop: &AtomicBool, log: &Mutex<Vec<(u64, u64)>>) {
    let mut link: Option<ChaosClient> = None;
    let mut last = f.synced_seq();
    while !stop.load(Ordering::SeqCst) {
        let client = match link.as_mut() {
            Some(c) => c,
            None => match ChaosClient::connect(("127.0.0.1", port)) {
                Ok(c) => link.insert(c),
                Err(_) => {
                    std::thread::sleep(FOLLOWER_POLL);
                    continue;
                }
            },
        };
        let idle = match f.sync_round(client) {
            Ok(SyncProgress::Tail { applied, .. }) => applied == 0,
            Ok(_) => false,
            Err(_) => {
                link = None;
                true
            }
        };
        let synced = f.synced_seq();
        if synced > last {
            last = synced;
            log.lock()
                .expect("follower log lock poisoned")
                .push((synced, unix_ns()));
        }
        if idle {
            std::thread::sleep(FOLLOWER_POLL);
        }
    }
}
