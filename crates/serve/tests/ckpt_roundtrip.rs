//! Checkpoint robustness: bitwise round-trips and structured corruption
//! errors (truncation, flipped bytes, version skew) — never panics.

use prim_baselines::encoders::{EncoderModel, GcnEncoder};
use prim_baselines::{BaselineConfig, PairModel};
use prim_core::{fit, ModelInputs, PrimConfig, PrimModel};
use prim_data::{Dataset, Scale};
use prim_graph::PoiId;
use prim_serve::{
    checksum, load_checkpoint, load_pair_model, load_raw, save_checkpoint, save_checkpoint_indexed,
    save_pair_model, save_params, CkptError, EmbeddingStore,
};

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("prim_serve_ckpt_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn tiny_trained() -> (Dataset, PrimConfig, ModelInputs, PrimModel) {
    let ds = Dataset::beijing(Scale::Quick).subsample(0.12, 7);
    let cfg = PrimConfig {
        dim: 8,
        cat_dim: 4,
        epochs: 4,
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
    let mut model = PrimModel::new(cfg.clone(), &inputs);
    fit(&mut model, &inputs, &ds.graph, ds.graph.edges(), None, None);
    (ds, cfg, inputs, model)
}

fn save_tiny(
    name: &str,
) -> (
    Dataset,
    PrimConfig,
    ModelInputs,
    PrimModel,
    std::path::PathBuf,
) {
    let (ds, cfg, inputs, model) = tiny_trained();
    let path = tmp(name);
    save_checkpoint(
        &path,
        "test-run",
        &model,
        &ds.graph,
        &ds.taxonomy,
        &ds.attrs,
        &ds.relation_names,
    )
    .unwrap();
    (ds, cfg, inputs, model, path)
}

#[test]
fn round_trip_is_bitwise_per_parameter() {
    let (ds, cfg, _inputs, model, path) = save_tiny("roundtrip.ckpt");
    let ckpt = load_checkpoint(&path).unwrap();

    assert_eq!(ckpt.run, "test-run");
    assert_eq!(ckpt.relation_names, ds.relation_names);
    assert_eq!(ckpt.graph.num_pois(), ds.graph.num_pois());
    assert_eq!(ckpt.graph.num_edges(), ds.graph.num_edges());
    assert_eq!(ckpt.graph.edges(), ds.graph.edges());
    assert_eq!(ckpt.taxonomy.num_nodes(), ds.taxonomy.num_nodes());
    assert_eq!(ckpt.taxonomy.num_categories(), ds.taxonomy.num_categories());
    assert_eq!(ckpt.config.seed, cfg.seed);
    assert_eq!(ckpt.config.bins.edges(), cfg.bins.edges());
    assert_eq!(ckpt.config.dim, cfg.dim);
    assert_eq!(ckpt.config.lr.to_bits(), cfg.lr.to_bits());
    assert_eq!(
        ckpt.config.weight_decay.to_bits(),
        cfg.weight_decay.to_bits()
    );

    // Locations must survive exactly: binning is threshold-sensitive.
    for (a, b) in ckpt.graph.pois().iter().zip(ds.graph.pois()) {
        assert_eq!(a.location.lon.to_bits(), b.location.lon.to_bits());
        assert_eq!(a.location.lat.to_bits(), b.location.lat.to_bits());
        assert_eq!(a.category, b.category);
    }

    // Every parameter group, bitwise, in registration order.
    let saved: Vec<(&str, &prim_tensor::Matrix, bool)> = model.params().entries().collect();
    assert_eq!(saved.len(), ckpt.params.len());
    for ((name, value, _decays), (l_name, l_value)) in saved.iter().zip(&ckpt.params) {
        assert_eq!(name, l_name, "parameter order must be preserved");
        assert_eq!(value.shape(), l_value.shape(), "{name}");
        for (x, y) in value.data().iter().zip(l_value.data()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{name} must round-trip bitwise");
        }
    }

    // And the rebuilt model scores identically to the original.
    let (rebuilt, re_inputs) = ckpt.rebuild().unwrap();
    let t0 = model.embed(&_inputs);
    let t1 = rebuilt.embed(&re_inputs);
    for (x, y) in t0.pois.data().iter().zip(t1.pois.data()) {
        assert_eq!(x.to_bits(), y.to_bits(), "embeddings must rebuild bitwise");
    }
    let pairs = [(PoiId(0), PoiId(1)), (PoiId(3), PoiId(2))];
    assert_eq!(
        model.predict_pairs(&t0, &_inputs, &pairs),
        rebuilt.predict_pairs(&t1, &re_inputs, &pairs)
    );
}

#[test]
fn no_decay_flags_survive() {
    let (_, _, _, model, path) = save_tiny("flags.ckpt");
    let raw = load_raw(&path).unwrap();
    let loaded = raw.params();
    for ((name, _, decays), (l_name, _, l_no_decay)) in model.params().entries().zip(&loaded) {
        assert_eq!(name, l_name);
        assert_eq!(
            !decays, *l_no_decay,
            "{name}: the no-decay flag must round-trip"
        );
    }
}

#[test]
fn short_file_reports_truncated() {
    let (_, _, _, _, path) = save_tiny("trunc_short.ckpt");
    let bytes = std::fs::read(&path).unwrap();
    for cut in [0usize, 4, 10, 20] {
        let short = tmp(&format!("trunc_short_{cut}.ckpt"));
        std::fs::write(&short, &bytes[..cut]).unwrap();
        match load_checkpoint(&short) {
            Err(CkptError::Truncated { available, .. }) => {
                assert_eq!(available, cut as u64);
            }
            other => panic!(
                "cut at {cut}: expected Truncated, got {other:?}",
                other = other.map(|_| "Ok")
            ),
        }
    }
}

#[test]
fn mid_file_cut_reports_checksum_mismatch() {
    // Anything past the fixed prologue is covered by the trailing
    // checksum, so a mid-tensor cut surfaces as integrity loss (the
    // trailer bytes are now tensor data, not the real checksum).
    let (_, _, _, _, path) = save_tiny("trunc_mid.ckpt");
    let bytes = std::fs::read(&path).unwrap();
    let cut = bytes.len() / 2;
    let p = tmp("trunc_mid_cut.ckpt");
    std::fs::write(&p, &bytes[..cut]).unwrap();
    match load_checkpoint(&p) {
        Err(CkptError::ChecksumMismatch { stored, computed }) => {
            assert_ne!(stored, computed);
        }
        other => panic!("expected ChecksumMismatch, got {:?}", other.map(|_| "Ok")),
    }
}

#[test]
fn flipped_byte_reports_checksum_mismatch() {
    let (_, _, _, _, path) = save_tiny("flip.ckpt");
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    let p = tmp("flip_corrupt.ckpt");
    std::fs::write(&p, &bytes).unwrap();
    match load_checkpoint(&p) {
        Err(CkptError::ChecksumMismatch { .. }) => {}
        other => panic!("expected ChecksumMismatch, got {:?}", other.map(|_| "Ok")),
    }
}

#[test]
fn wrong_version_reports_skew() {
    let (_, _, _, _, path) = save_tiny("skew.ckpt");
    let mut bytes = std::fs::read(&path).unwrap();
    // Bump the version *and* re-seal the checksum: version skew must be
    // reported as such even on an internally consistent file.
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    let body_len = bytes.len() - 8;
    let sum = checksum(&bytes[..body_len]);
    bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
    let p = tmp("skew_v99.ckpt");
    std::fs::write(&p, &bytes).unwrap();
    match load_checkpoint(&p) {
        Err(CkptError::VersionSkew { found, supported }) => {
            assert_eq!(found, 99);
            assert_eq!(supported, prim_serve::VERSION);
        }
        other => panic!("expected VersionSkew, got {:?}", other.map(|_| "Ok")),
    }
}

/// Slot 5 of `ann.meta` is the retired quant-tier code: int8 (0) is the
/// only tier, so any other code — on an otherwise consistent, re-sealed
/// file — is a structured error, not a panic or a silent int8 load.
#[test]
fn retired_ann_tier_code_is_rejected() {
    let (ds, _, inputs, model) = tiny_trained();
    let store = EmbeddingStore::from_model(&model, &inputs, ds.relation_names.clone());
    let path = tmp("tier_code.ckpt");
    save_checkpoint_indexed(
        &path,
        "test-run",
        &model,
        &ds.graph,
        &ds.taxonomy,
        &ds.attrs,
        &ds.relation_names,
        &store.ann.as_ref().expect("from_model indexes").graph,
    )
    .unwrap();
    assert!(load_checkpoint(&path).unwrap().ann_graph.is_some());

    let bytes = std::fs::read(&path).unwrap();
    let name = b"ann.meta";
    let at = bytes
        .windows(name.len())
        .position(|w| w == name)
        .expect("indexed checkpoint has ann.meta");
    // name, flags (1), rows (8), cols (8), then one f64 per slot.
    let slot5 = at + name.len() + 1 + 16 + 5 * 8;
    assert_eq!(
        bytes[slot5..slot5 + 8],
        0.0f64.to_le_bytes(),
        "int8 is written as 0"
    );
    for code in [1.0f64, f64::NAN] {
        let mut bad = bytes.clone();
        bad[slot5..slot5 + 8].copy_from_slice(&code.to_le_bytes());
        let body_len = bad.len() - 8;
        let sum = checksum(&bad[..body_len]);
        bad[body_len..].copy_from_slice(&sum.to_le_bytes());
        let p = tmp("tier_code_bad.ckpt");
        std::fs::write(&p, &bad).unwrap();
        match load_checkpoint(&p) {
            Err(CkptError::Malformed(msg)) => assert!(msg.contains("tier"), "{msg}"),
            other => panic!(
                "code {code}: expected Malformed, got {:?}",
                other.map(|_| "Ok")
            ),
        }
    }
}

#[test]
fn wrong_magic_reports_bad_magic() {
    let p = tmp("not_a_ckpt.bin");
    std::fs::write(
        &p,
        b"GIF89a......plenty of bytes here to pass length checks",
    )
    .unwrap();
    match load_checkpoint(&p) {
        Err(CkptError::BadMagic) => {}
        other => panic!("expected BadMagic, got {:?}", other.map(|_| "Ok")),
    }
}

#[test]
fn pair_model_round_trip_is_bitwise() {
    // The baselines' shared-trainer models persist through the same API.
    let ds = Dataset::beijing(Scale::Quick).subsample(0.12, 9);
    let cfg = BaselineConfig {
        dim: 8,
        epochs: 3,
        ..BaselineConfig::quick()
    };
    let inputs = ModelInputs::build(
        &ds.graph,
        &ds.taxonomy,
        &ds.attrs,
        ds.graph.edges(),
        None,
        &PrimConfig::quick(),
    );
    let mut model = EncoderModel::<GcnEncoder>::new(cfg.clone(), &inputs);
    prim_baselines::train_pair_model(&mut model, &inputs, &ds.graph, ds.graph.edges(), None, None);

    let path = tmp("gcn.ckpt");
    save_pair_model(&path, "baseline-run", &model).unwrap();

    let mut fresh = EncoderModel::<GcnEncoder>::new(cfg, &inputs);
    load_pair_model(&path, &mut fresh).unwrap();
    for ((name, a, _), (_, b, _)) in model.store().entries().zip(fresh.store().entries()) {
        for (x, y) in a.data().iter().zip(b.data()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{name}");
        }
    }
    let pairs = [(PoiId(0), PoiId(1)), (PoiId(2), PoiId(4))];
    assert_eq!(
        prim_baselines::common::predict_pairs(&model, &inputs, &pairs),
        prim_baselines::common::predict_pairs(&fresh, &inputs, &pairs)
    );
}

#[test]
fn pair_model_rejects_wrong_family() {
    let ds = Dataset::beijing(Scale::Quick).subsample(0.12, 9);
    let cfg = BaselineConfig {
        dim: 8,
        epochs: 1,
        ..BaselineConfig::quick()
    };
    let inputs = ModelInputs::build(
        &ds.graph,
        &ds.taxonomy,
        &ds.attrs,
        ds.graph.edges(),
        None,
        &PrimConfig::quick(),
    );
    let model = EncoderModel::<GcnEncoder>::new(cfg.clone(), &inputs);
    let path = tmp("family.ckpt");
    save_params(&path, "SomeOtherModel", "run", model.store()).unwrap();
    let mut fresh = EncoderModel::<GcnEncoder>::new(cfg, &inputs);
    match load_pair_model(&path, &mut fresh) {
        Err(CkptError::Incompatible(msg)) => {
            assert!(msg.contains("SomeOtherModel"), "{msg}");
        }
        other => panic!("expected Incompatible, got {:?}", other.map(|_| "Ok")),
    }
}

/// Ingest snapshots carry a `snapshot_seq` + frozen-grid section; it
/// must round-trip exactly, and a store loaded from such a checkpoint
/// must keep retired POIs out of the spatial candidate set (a promoted
/// follower or recovered primary serves from exactly this path).
#[test]
fn ingest_state_round_trips_and_retires_stay_tombstoned() {
    use prim_serve::{
        decode_bytes, decode_checkpoint, encode_checkpoint_ingest, EmbeddingStore,
        IngestSnapshotState,
    };
    let (ds, _cfg, _inputs, model) = tiny_trained();
    let n = ds.graph.num_pois();
    let retired: Vec<u32> = vec![2, 5];
    let state = IngestSnapshotState {
        snapshot_seq: 42,
        base_pois: n as u64,
        retired: retired.clone(),
    };
    let bytes = encode_checkpoint_ingest(
        "ingest-run",
        &model,
        &ds.graph,
        &ds.taxonomy,
        &ds.attrs,
        &ds.relation_names,
        None,
        None,
        Some(&state),
    );
    let ckpt = decode_checkpoint(decode_bytes(&bytes).unwrap()).unwrap();
    let got = ckpt.ingest_state.as_ref().expect("ingest section lost");
    assert_eq!(got.snapshot_seq, 42);
    assert_eq!(got.base_pois, n as u64);
    assert_eq!(got.retired, retired);

    // Without the section, the same encode yields a plain checkpoint.
    let plain = encode_checkpoint_ingest(
        "plain-run",
        &model,
        &ds.graph,
        &ds.taxonomy,
        &ds.attrs,
        &ds.relation_names,
        None,
        None,
        None,
    );
    let plain = decode_checkpoint(decode_bytes(&plain).unwrap()).unwrap();
    assert!(plain.ingest_state.is_none());

    // The loaded store must tombstone retirements in its grid: retired
    // ids never appear as spatial candidates, from any query point, at
    // any radius — while every live POI is still reachable.
    let store = EmbeddingStore::from_checkpoint(&ckpt).unwrap();
    let live = EmbeddingStore::from_checkpoint(&plain).unwrap();
    let mut saw_live = 0usize;
    for src in 0..n {
        for (j, _) in store.within_radius(PoiId(src as u32), 1.0e4) {
            assert!(
                !retired.contains(&(j as u32)),
                "retired poi {j} served as a candidate of {src}"
            );
        }
        // The plain store *does* surface the retired ids (the test would
        // be vacuous otherwise).
        saw_live += live
            .within_radius(PoiId(src as u32), 1.0e4)
            .iter()
            .filter(|(j, _)| retired.contains(&(*j as u32)))
            .count();
    }
    assert!(saw_live > 0, "retired ids never candidates even when live");
}
