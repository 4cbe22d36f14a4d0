//! Bitwise parity of `PrimModel::embed`, which runs the forward pass on an
//! inference graph that frees intermediates as it goes, against the same
//! forward on a full training tape.
//!
//! Every configuration the forward branches on is covered: each γ operator,
//! the spatial context stage on and off, the per-POI embedding table on and
//! off, and subset inputs (a relabeled support set reading `node_rows`, and
//! an isolated target that takes the `spatial_forced_zero` stand-in) — each
//! at 1 and 4 pool threads.

use prim_core::{GammaOp, ModelInputs, PrimConfig, PrimModel};
use prim_data::{Dataset, Scale};
use prim_geo::{GridIndex, Location};
use prim_graph::{Poi, PoiId};
use prim_tensor::{kernel, Graph, Matrix};

fn bits(m: &Matrix) -> Vec<u32> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

fn city() -> Dataset {
    Dataset::beijing(Scale::Quick).subsample(0.15, 11)
}

fn small_cfg() -> PrimConfig {
    PrimConfig {
        dim: 8,
        cat_dim: 4,
        n_layers: 2,
        n_heads: 2,
        ..PrimConfig::quick()
    }
}

fn full_inputs(ds: &Dataset, cfg: &PrimConfig) -> ModelInputs {
    ModelInputs::build(
        &ds.graph,
        &ds.taxonomy,
        &ds.attrs,
        ds.graph.edges(),
        None,
        cfg,
    )
}

/// `embed` must reproduce the training tape's `h_final` and `rel_score`
/// bit for bit, and the bin normals must be the row-normalised `w_bins`,
/// at 1 and at 4 threads.
fn assert_embed_matches_tape(model: &PrimModel, inputs: &ModelInputs, label: &str) {
    let w_bins = model
        .params()
        .entries()
        .find(|(name, ..)| *name == "w_bins")
        .map(|(_, value, _)| value.clone())
        .expect("w_bins parameter");
    let mut want_normals = w_bins;
    for r in 0..want_normals.rows() {
        let norm = want_normals.row_norm(r).max(1e-12);
        for x in want_normals.row_mut(r) {
            *x /= norm;
        }
    }
    for threads in [1, 4] {
        kernel::set_threads(threads);
        let table = model.embed(inputs);
        let mut g = Graph::new();
        let bind = model.params().bind(&mut g);
        let fwd = model.forward(&mut g, &bind, inputs);
        kernel::set_threads(1);
        assert_eq!(
            bits(&table.pois),
            bits(g.value(fwd.h_final)),
            "{label}: POI table diverges from the tape at {threads} threads"
        );
        assert_eq!(
            bits(&table.relations),
            bits(g.value(fwd.rel_score)),
            "{label}: relation table diverges from the tape at {threads} threads"
        );
        assert_eq!(
            bits(&table.bin_normals),
            bits(&want_normals),
            "{label}: bin normals at {threads} threads"
        );
    }
}

#[test]
fn every_gamma_operator_matches_the_tape() {
    let ds = city();
    for gamma in [
        GammaOp::Multiply,
        GammaOp::Subtract,
        GammaOp::CircularCorrelation,
    ] {
        let cfg = PrimConfig {
            gamma,
            ..small_cfg()
        };
        let inputs = full_inputs(&ds, &cfg);
        assert!(inputs.adjacency.num_directed_edges() > 0);
        let model = PrimModel::new(cfg, &inputs);
        assert_embed_matches_tape(&model, &inputs, &format!("{gamma:?}"));
    }
}

#[test]
fn spatial_context_and_node_embeddings_on_and_off_match_the_tape() {
    let ds = city();
    for use_spatial_context in [true, false] {
        for use_node_embeddings in [true, false] {
            let cfg = PrimConfig {
                use_spatial_context,
                use_node_embeddings,
                ..small_cfg()
            };
            let inputs = full_inputs(&ds, &cfg);
            assert!(!inputs.spatial.is_empty());
            let model = PrimModel::new(cfg, &inputs);
            assert_embed_matches_tape(
                &model,
                &inputs,
                &format!("spatial {use_spatial_context}, node emb {use_node_embeddings}"),
            );
        }
    }
}

#[test]
fn subset_inputs_match_the_tape() {
    let ds = city();
    for use_node_embeddings in [true, false] {
        let cfg = PrimConfig {
            use_node_embeddings,
            ..small_cfg()
        };
        let inputs = full_inputs(&ds, &cfg);
        let model = PrimModel::new(cfg.clone(), &inputs);
        let locations: Vec<Location> = ds.graph.pois().iter().map(|p| p.location).collect();
        let grid = GridIndex::build(&locations, cfg.spatial_radius_km.max(1e-6));
        let sub = ModelInputs::build_subset(
            &ds.graph,
            &ds.taxonomy,
            &ds.attrs,
            &grid,
            &[0, 2, 9],
            true,
            &cfg,
        );
        assert!(sub.inputs.node_rows.is_some());
        assert!(!sub.inputs.spatial.is_empty());
        assert!(sub.inputs.n_pois < ds.graph.num_pois());
        assert_embed_matches_tape(
            &model,
            &sub.inputs,
            &format!("subset, node emb {use_node_embeddings}"),
        );
    }
}

#[test]
fn isolated_subset_with_forced_zero_context_matches_the_tape() {
    let ds = city();
    let cfg = small_cfg();
    let inputs = full_inputs(&ds, &cfg);
    let mut model = PrimModel::new(cfg.clone(), &inputs);

    // A POI far outside the city: no relation edges and no spatial
    // neighbours, so its subset takes the zero-context stand-in.
    let mut graph = ds.graph.clone();
    let anchor = graph.poi(PoiId(0)).location;
    let far = Poi {
        location: Location::new(anchor.lon + 1.0, anchor.lat + 1.0),
        category: graph.poi(PoiId(1)).category,
    };
    let far_id = graph.add_poi(far).0;
    let new_row = Matrix::from_fn(1, ds.attrs.cols(), |_, c| 0.1 * (c as f32 + 1.0));
    let attrs = Matrix::vstack(&[&ds.attrs, &new_row]);
    model.extend_pois(1);
    let locations: Vec<Location> = graph.pois().iter().map(|p| p.location).collect();
    let grid = GridIndex::build(&locations, cfg.spatial_radius_km.max(1e-6));

    let sub = ModelInputs::build_subset(&graph, &ds.taxonomy, &attrs, &grid, &[far_id], true, &cfg);
    assert!(sub.inputs.spatial_forced_zero.is_some());
    assert_eq!(sub.inputs.adjacency.num_directed_edges(), 0);
    assert_embed_matches_tape(&model, &sub.inputs, "forced-zero subset");
}
