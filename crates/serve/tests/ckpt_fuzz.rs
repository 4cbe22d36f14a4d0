//! The checkpoint decode taxonomy is *total*: any truncation or byte flip
//! of a valid `prim-ckpt/v1` file must produce a structured [`CkptError`]
//! — never a panic and never a silent success. The on-disk format is the
//! crash-recovery trust boundary, so these properties are what lets
//! `latest_valid` treat "decodes" as "safe to resume from".

use prim_core::{ModelInputs, PrimConfig, PrimModel};
use prim_data::{Dataset, Scale};
use prim_obs::json::{self, Value};
use prim_serve::{checksum, decode_bytes, decode_checkpoint, encode_checkpoint, CkptError};
use proptest::prelude::*;
use std::sync::OnceLock;

/// One small, fully valid checkpoint shared by every property below.
fn valid() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let ds = Dataset::beijing(Scale::Quick).subsample(0.1, 3);
        let cfg = PrimConfig {
            dim: 8,
            cat_dim: 4,
            epochs: 1,
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
        let model = PrimModel::new(cfg, &inputs);
        encode_checkpoint(
            "fuzz",
            &model,
            &ds.graph,
            &ds.taxonomy,
            &ds.attrs,
            &ds.relation_names,
            None,
            None,
        )
    })
}

#[test]
fn the_fixture_itself_decodes() {
    let raw = decode_bytes(valid()).expect("pristine checkpoint decodes");
    assert_eq!(raw.header_str("run").unwrap(), "fuzz");
}

#[test]
fn empty_input_is_a_truncation_error() {
    match decode_bytes(&[]) {
        Err(CkptError::Truncated { .. }) => {}
        Err(e) => panic!("empty input must be Truncated, got {e:?}"),
        Ok(_) => panic!("empty input decoded"),
    }
}

#[test]
fn foreign_bytes_are_bad_magic() {
    match decode_bytes(b"definitely not a checkpoint file at all") {
        Err(CkptError::BadMagic) => {}
        Err(e) => panic!("foreign bytes must be BadMagic, got {e:?}"),
        Ok(_) => panic!("foreign bytes decoded"),
    }
}

#[test]
fn future_version_is_a_version_skew_error() {
    let mut bytes = valid().to_vec();
    // Magic is 8 bytes; the version u32 follows it.
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    match decode_bytes(&bytes) {
        Err(CkptError::VersionSkew { found, .. }) => assert_eq!(found, 99),
        Err(e) => panic!("future version must be VersionSkew, got {e:?}"),
        Ok(_) => panic!("future version decoded"),
    }
}

/// Re-seals the checksum trailer after an edit, so only the decoder's own
/// checks stand between the edited bytes and a loaded checkpoint.
fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
    let body = bytes.len() - 8;
    let sum = checksum(&bytes[..body]);
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
    bytes
}

/// The fixture with value `i` of tensor `name` set to `v`, re-sealed.
fn with_value(name: &str, i: usize, v: f64) -> Vec<u8> {
    let mut bytes = valid().to_vec();
    let mut key = (name.len() as u32).to_le_bytes().to_vec();
    key.extend_from_slice(name.as_bytes());
    let at = bytes
        .windows(key.len())
        .position(|w| w == key)
        .unwrap_or_else(|| panic!("fixture has tensor {name}"));
    // name length, name, flags (1), rows (8), cols (8), then one f64 per value.
    let off = at + key.len() + 1 + 16 + i * 8;
    bytes[off..off + 8].copy_from_slice(&v.to_le_bytes());
    reseal(bytes)
}

/// The fixture with its JSON header rewritten by `edit`, re-sealed.
fn with_header(edit: impl Fn(&str) -> String) -> Vec<u8> {
    let bytes = valid();
    // Magic (8) and version (4), then the header length and the header.
    let len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let header = edit(std::str::from_utf8(&bytes[16..16 + len]).unwrap());
    let mut out = bytes[..12].to_vec();
    out.extend_from_slice(&(header.len() as u32).to_le_bytes());
    out.extend_from_slice(header.as_bytes());
    out.extend_from_slice(&bytes[16 + len..]);
    reseal(out)
}

/// Checksummed files whose graph ids are out of range must be rejected as
/// `Malformed` before any graph is built: the graph's own asserts would
/// otherwise panic the `reload` op or a follower installing a snapshot.
#[test]
fn resealed_out_of_range_graph_ids_are_malformed() {
    let raw = decode_bytes(valid()).unwrap();
    let count = |key: &str| raw.header.get(key).and_then(Value::as_f64).unwrap() as usize;
    let (n_pois, n_relations, n_categories) =
        (count("n_pois"), count("n_relations"), count("n_categories"));
    let names: Vec<String> = raw
        .header
        .get("relations")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|n| n.as_str().unwrap().to_string())
        .collect();
    let edges = raw.tensor("graph.edges").unwrap().values.clone();
    let quoted =
        |names: &[String]| json::arr(&names.iter().map(|s| json::str(s)).collect::<Vec<_>>());
    let original = quoted(&names);
    let relations_with = |n: usize| {
        let many: Vec<String> = (0..n).map(|r| format!("r{r}")).collect();
        with_header(|h| {
            h.replace(
                &format!("\"n_relations\": {n_relations}"),
                &format!("\"n_relations\": {n}"),
            )
            .replace(&original, &quoted(&many))
        })
    };
    let cases = [
        (
            "edge endpoint past n_pois",
            with_value("graph.edges", 1, (n_pois + 5) as f64),
        ),
        (
            "edge endpoint at n_pois",
            with_value("graph.edges", 0, n_pois as f64),
        ),
        ("self-loop edge", with_value("graph.edges", 1, edges[0])),
        (
            "relation id at n_relations",
            with_value("graph.edges", 2, n_relations as f64),
        ),
        ("zero relations", relations_with(0)),
        ("256 relations", relations_with(256)),
        (
            "category at n_categories",
            with_value("graph.category", 0, n_categories as f64),
        ),
        ("category of 1000", with_value("graph.category", 0, 1000.0)),
    ];
    for (what, bytes) in cases {
        let raw = decode_bytes(&bytes)
            .unwrap_or_else(|e| panic!("{what}: re-sealed file must decode raw: {e:?}"));
        match std::panic::catch_unwind(|| decode_checkpoint(raw)) {
            Ok(Err(CkptError::Malformed(_))) => {}
            Ok(Err(e)) => panic!("{what}: expected Malformed, got {e:?}"),
            Ok(Ok(_)) => panic!("{what}: decoded successfully"),
            Err(_) => panic!("{what}: decode_checkpoint panicked"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every proper prefix of a valid checkpoint fails with a structured
    /// error — a torn write can never be mistaken for a complete file.
    #[test]
    fn any_truncation_is_a_structured_error(raw_cut in 0usize..1_000_000) {
        let bytes = valid();
        let cut = raw_cut % bytes.len(); // 0 <= cut < len: always a proper prefix
        let result = decode_bytes(&bytes[..cut]);
        prop_assert!(
            result.is_err(),
            "truncation at {cut}/{} decoded successfully",
            bytes.len()
        );
    }

    /// Every single-byte corruption of a valid checkpoint fails with a
    /// structured error — the checksum (or an earlier field check) catches
    /// silent bit rot anywhere in the file.
    #[test]
    fn any_byte_flip_is_a_structured_error(
        raw_at in 0usize..1_000_000,
        mask in 1u8..=255,
    ) {
        let mut bytes = valid().to_vec();
        let at = raw_at % bytes.len();
        bytes[at] ^= mask;
        let result = decode_bytes(&bytes);
        prop_assert!(
            result.is_err(),
            "flip of byte {at} (mask {mask:#04x}) decoded successfully"
        );
    }

    /// Arbitrary garbage never panics the decoder (errors are fine; a
    /// crash is not — the server's `reload` op feeds it untrusted paths).
    #[test]
    fn arbitrary_bytes_never_panic(data in prop::collection::vec(0u8..=255, 0..256)) {
        let _ = decode_bytes(&data);
    }
}
