//! Checkpoint persistence and online inference for the PRIM reproduction.
//!
//! Training (`prim-core`) produces a model; this crate turns it into a
//! *service*. The pipeline is:
//!
//! 1. **Persist** — [`ckpt::save_checkpoint`] writes the versioned,
//!    checksummed `prim-ckpt/v1` file: config, every parameter, and the
//!    graph metadata (locations, categories, taxonomy, relation names,
//!    distance-bin edges, attributes, training edges) scoring needs, so a
//!    serving process never touches the original dataset.
//! 2. **Materialise** — [`store::EmbeddingStore`] runs the forward pass
//!    once at load time and freezes the POI/relation/bin-normal tables
//!    next to a [`prim_geo::GridIndex`]; queries never touch the autograd
//!    tape.
//! 3. **Query** — [`engine::ServeEngine`] answers point scores, batched
//!    scores and spatial top-k over the frozen tables, with `prim-obs`
//!    telemetry.
//! 4. **Speak** — [`proto`] defines a JSON-lines request/response
//!    protocol; [`server`] runs it over stdin/stdout or a TCP listener.
//!
//! Every scoring path here reproduces
//! [`prim_core::PrimModel::score_pair_eager`] *bitwise*: same operation
//! order, same f32 accumulation, independent of batch size or thread
//! count.

pub mod ann;
pub mod chaos;
pub mod ckpt;
pub mod engine;
pub mod poll;
pub mod proto;
pub mod resume;
pub mod rotate;
pub mod server;
pub mod store;

pub use ann::{AnnGraph, AnnIndex, AnnParams, Hnsw, QuantStore, SearchStats};
pub use chaos::{atomic_write, ChaosClient, ChaosIo, Fault, FaultPlan, FileIo, RealIo};
pub use ckpt::{
    checksum, decode_bytes, decode_checkpoint, encode_checkpoint, encode_checkpoint_ingest,
    load_checkpoint, load_pair_model, load_params, load_params_into, load_raw, save_checkpoint,
    save_checkpoint_indexed, save_checkpoint_with_state, save_pair_model, save_params, CkptError,
    IngestSnapshotState, ParamsCheckpoint, PrimCheckpoint, RawCheckpoint, FLAG_NO_DECAY, MAGIC,
    VERSION,
};
pub use engine::{
    score_pairs_all, AnnOpts, Batcher, EngineOpts, EngineSlot, Neighbor, PairScores, ServeEngine,
};
pub use poll::{Event, Interest, Poller};
pub use proto::{
    handle_line, handle_request, handle_request_gated, oversized_line_error, AdmissionGate,
    AdmissionPermit, GatePermit, GatedHandled, Handled, IngestBackend, ServeCtx, ServeLimits,
    Tenant, TenantSpec, DEFAULT_TENANT,
};
pub use resume::{fit_resumable, fit_resumable_hooked, ResilienceOpts, ResumableRun, ResumeError};
pub use rotate::{CkptRotator, LATEST};
pub use server::{serve_stdin, LineEvent, LineFramer, TcpServer};
pub use store::EmbeddingStore;
