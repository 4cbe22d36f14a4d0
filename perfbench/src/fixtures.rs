//! Seeded fixtures: each workload's cities, a seeded-init PRIM model per
//! city and its checkpoint. Generation happens before any timed set-up;
//! the same seed always writes byte-identical checkpoints.

use prim_core::{ModelInputs, PrimConfig, PrimModel};
use prim_data::generator::generate_taxonomy;
use prim_data::{CityConfig, Dataset, RelationConfig, Scale, TaxonomyConfig};
use prim_obs::Recorder;
use prim_serve::{load_checkpoint, save_checkpoint, EmbeddingStore, EngineOpts, ServeEngine};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The benchmark's workloads (names are the CLI's `--workload` values).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ServePoint,
    TopkMetro,
    IngestMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ServePoint,
        Workload::TopkMetro,
        Workload::IngestMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServePoint => "serve-point",
            Workload::TopkMetro => "topk-metro",
            Workload::IngestMixed => "ingest-mixed",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One generated city and where its checkpoint landed.
pub struct City {
    /// Tenant name requests route on.
    pub name: String,
    pub ckpt: PathBuf,
    /// Kept for stream generation (locations, categories, attribute width).
    pub dataset: Dataset,
}

/// Tenant name of the replicated primary in `ingest-mixed`.
pub const PRIMARY: &str = "metro";
/// Tenant name of the warm standby that tails [`PRIMARY`].
pub const STANDBY: &str = "standby";

/// A city generator config: Singapore-shaped, `n` POIs, seeded layout.
/// `sprawl` stretches it to metro extent (the ingest bench's geometry),
/// so one onboarding's k-hop frontier covers a small share of the city.
fn city_config(name: &str, n: usize, seed: u64, sprawl: bool) -> CityConfig {
    let base = CityConfig {
        name: name.into(),
        seed,
        ..CityConfig::singapore(n)
    };
    if sprawl {
        CityConfig {
            city_radius_km: 65.0,
            core_radius_km: 22.0,
            n_clusters: 200,
            ..base
        }
    } else {
        base
    }
}

/// Local-commerce relations: every relation within walking distance and
/// no city-spanning edges, so an ingest apply touches a bounded k-hop
/// neighbourhood (the regime streaming ingest is built for).
fn local_relations() -> RelationConfig {
    RelationConfig {
        candidate_radius_km: 2.5,
        complementary_decay_km: 2.5,
        random_candidates: 0,
        category_candidates: 0,
        ..RelationConfig::binary()
    }
}

/// Sub-seed for one fixture component, distinct per (seed, salt).
pub fn subseed(seed: u64, salt: u64) -> u64 {
    let mut x = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 31;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^ (x >> 29)
}

fn make_city(
    dir: &Path,
    name: &str,
    n: usize,
    seed: u64,
    salt: u64,
    sprawl: bool,
) -> std::io::Result<City> {
    let tax = generate_taxonomy(&TaxonomyConfig::preset(Scale::Quick));
    let cfg_city = city_config(name, n, subseed(seed, salt), sprawl);
    let dataset = Dataset::generate(&cfg_city, &tax, &local_relations());
    let cfg = PrimConfig {
        seed: subseed(seed, salt + 100),
        ..PrimConfig::quick()
    };
    let inputs = ModelInputs::build(
        &dataset.graph,
        &dataset.taxonomy,
        &dataset.attrs,
        dataset.graph.edges(),
        None,
        &cfg,
    );
    let model = PrimModel::new(cfg, &inputs);
    let ckpt = dir.join(format!("{name}.ckpt"));
    save_checkpoint(
        &ckpt,
        &format!("perfbench-{name}"),
        &model,
        &dataset.graph,
        &dataset.taxonomy,
        &dataset.attrs,
        &dataset.relation_names,
    )
    .map_err(|e| std::io::Error::other(format!("saving {}: {e}", ckpt.display())))?;
    Ok(City {
        name: name.to_string(),
        ckpt,
        dataset,
    })
}

/// POIs per `serve-point` city (two of them).
pub const SERVE_POINT_POIS: usize = 2_000;
/// POIs in the `topk-metro` city.
pub const TOPK_METRO_POIS: usize = 20_000;
/// POIs in the `ingest-mixed` city (the failover bench's size).
pub const INGEST_POIS: usize = 4_000;

/// Writes `workload`'s checkpoints under `dir` and returns its cities.
pub fn generate(workload: Workload, seed: u64, dir: &Path) -> std::io::Result<Vec<City>> {
    std::fs::create_dir_all(dir)?;
    match workload {
        Workload::ServePoint => Ok(vec![
            make_city(dir, "north", SERVE_POINT_POIS, seed, 1, false)?,
            make_city(dir, "south", SERVE_POINT_POIS, seed, 2, false)?,
        ]),
        Workload::TopkMetro => Ok(vec![make_city(
            dir,
            "metro",
            TOPK_METRO_POIS,
            seed,
            3,
            false,
        )?]),
        Workload::IngestMixed => Ok(vec![make_city(dir, PRIMARY, INGEST_POIS, seed, 4, true)?]),
    }
}

/// Loads a checkpoint into a serving engine with default options — the
/// same path the server child takes, so oracle and server stores agree.
pub fn load_engine(ckpt: &Path, recorder: Recorder) -> Result<Arc<ServeEngine>, String> {
    let loaded = load_checkpoint(ckpt).map_err(|e| format!("{}: {e}", ckpt.display()))?;
    let store = EmbeddingStore::from_checkpoint(&loaded).map_err(|e| e.to_string())?;
    Ok(Arc::new(ServeEngine::new(
        store,
        &EngineOpts::default(),
        recorder,
    )))
}
