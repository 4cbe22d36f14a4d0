//! `PrimModel::embed` against the per-edge op chain the fused forward
//! replaced, bit for bit.
//!
//! `reference_forward` below rebuilds PRIM's forward from the model's named
//! parameters with one tape op per step, storing every per-edge row: edge
//! gathers of `h*_src` and `h_r`, γ and the message matmul per edge, the
//! `[W_a h*_i ‖ W_a h*_j ‖ W_d d_ij]` concat with gathered `a_r` rows,
//! `scale_rows` and two segment sums, and the spatial q/k/v gathers. It
//! lives only here, as the reference. The POI and relation tables of
//! `embed` must equal its outputs for every γ operator, spatial context on
//! and off, node embeddings on and off, both taxonomy modes, and subset
//! inputs (including a subset with no spatial edges), at 1 and 4 threads.

use prim_core::{GammaOp, ModelInputs, PrimConfig, PrimModel, TaxonomyMode};
use prim_data::generator::generate_taxonomy;
use prim_data::{CityConfig, Dataset, RelationConfig, Scale, TaxonomyConfig};
use prim_geo::{GridIndex, Location};
use prim_graph::{Poi, PoiId};
use prim_tensor::{kernel, Graph, Matrix, Var};

fn bits(m: &Matrix) -> Vec<u32> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

/// The final POI and relation tables of the unfused forward.
fn reference_forward(model: &PrimModel, inputs: &ModelInputs) -> (Matrix, Matrix) {
    let cfg = model.config();
    let plans = &inputs.plans;
    let mut g = Graph::new();
    let params: Vec<(String, Var)> = model
        .params()
        .entries()
        .map(|(name, value, _)| (name.to_string(), g.leaf(value.clone())))
        .collect();
    let p = |name: &str| {
        params
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("no parameter {name}"))
            .1
    };

    let q = match cfg.taxonomy {
        TaxonomyMode::PathSum => {
            let gathered = g.gather_rows_planned(p("cat_table"), &plans.cat_path_gather);
            g.segment_sum_planned(gathered, &plans.cat_path_segment)
        }
        TaxonomyMode::Independent => g.gather_rows_planned(p("cat_table"), &plans.leaf_gather),
    };
    let attrs = g.constant(inputs.attrs.clone());
    let proj = g.matmul(attrs, p("w_in"));
    let mut h = if cfg.use_node_embeddings {
        let node = match &inputs.node_rows {
            Some(rows) => g.gather_rows_planned(p("node_emb"), rows),
            None => p("node_emb"),
        };
        g.add(proj, node)
    } else {
        proj
    };
    let mut hr = p("rel_emb");
    let dist_feats = g.constant(inputs.edge_dist_feats.clone());
    let (head_dim, dist_dim) = (cfg.head_dim(), cfg.dist_feat_dim);

    for l in 0..cfg.n_layers {
        let h_star = g.concat_cols(&[h, q]);
        let mut head_outs = Vec::new();
        if inputs.adjacency.num_directed_edges() > 0 {
            let h_src = g.gather_rows_planned(h_star, &plans.edge_src);
            let hr_edge = g.gather_rows_planned(hr, &plans.edge_rel_all);
            let msg = match cfg.gamma {
                GammaOp::Multiply => g.mul(h_src, hr_edge),
                GammaOp::Subtract => g.sub(h_src, hr_edge),
                GammaOp::CircularCorrelation => g.rows_circ_corr(h_src, hr_edge),
            };
            let head_param = |k: usize, what: &str| p(&format!("l{l}.h{k}.{what}"));
            let w_msg: Vec<Var> = (0..cfg.n_heads).map(|k| head_param(k, "w_msg")).collect();
            let w_att: Vec<Var> = (0..cfg.n_heads).map(|k| head_param(k, "w_att")).collect();
            let w_dist: Vec<Var> = (0..cfg.n_heads).map(|k| head_param(k, "w_dist")).collect();
            let w_msg_cat = g.concat_cols(&w_msg);
            let msg_p_all = g.matmul(msg, w_msg_cat);
            let w_att_cat = g.concat_cols(&w_att);
            let w_dist_cat = g.concat_cols(&w_dist);
            let ha_all = g.matmul(h_star, w_att_cat);
            let dproj_all = g.matmul(dist_feats, w_dist_cat);
            let ha_dst_all = g.gather_rows_planned(ha_all, &plans.edge_dst);
            let ha_src_all = g.gather_rows_planned(ha_all, &plans.edge_src);
            for k in 0..cfg.n_heads {
                let ha_dst = g.slice_cols(ha_dst_all, k * head_dim, head_dim);
                let ha_src = g.slice_cols(ha_src_all, k * head_dim, head_dim);
                let dproj = g.slice_cols(dproj_all, k * dist_dim, dist_dim);
                let feats = g.concat_cols(&[ha_dst, ha_src, dproj]);
                let a_edge = g.gather_rows_planned(head_param(k, "att"), &plans.edge_rel);
                let raw = g.rows_dot(feats, a_edge);
                let logits = g.leaky_relu(raw, 0.2);
                let alpha = g.segment_softmax_planned(logits, &plans.intra);
                let msg_p = g.slice_cols(msg_p_all, k * head_dim, head_dim);
                let weighted = g.scale_rows(msg_p, alpha);
                let seg_agg = g.segment_sum_planned(weighted, &plans.intra);
                head_outs.push(g.segment_sum_planned(seg_agg, &plans.seg_dst));
            }
        }
        let self_term = g.matmul(h_star, p(&format!("l{l}.w_self")));
        let combined = if head_outs.is_empty() {
            self_term
        } else {
            let heads = g.concat_cols(&head_outs);
            g.add(heads, self_term)
        };
        h = g.elu(combined);
        hr = g.matmul(hr, p(&format!("l{l}.w_rel")));
    }

    if cfg.use_spatial_context {
        let dim = cfg.dim;
        let w_qkv = g.concat_cols(&[p("w_q"), p("w_k"), p("w_v")]);
        let qkv = g.matmul(h, w_qkv);
        let qm = g.slice_cols(qkv, 0, dim);
        let km = g.slice_cols(qkv, dim, dim);
        let vm = g.slice_cols(qkv, 2 * dim, dim);
        let q_dst = g.gather_rows_planned(qm, &plans.sp_dst);
        let k_src = g.gather_rows_planned(km, &plans.sp_src);
        let dots = g.rows_dot(q_dst, k_src);
        let scaled = g.scale(dots, 1.0 / (dim as f32).sqrt());
        let rbf = g.constant(inputs.spatial_rbf.clone());
        let weighted_logits = g.mul(scaled, rbf);
        let beta = g.segment_softmax_planned(weighted_logits, &plans.sp_seg);
        let v_src = g.gather_rows_planned(vm, &plans.sp_src);
        let ctx_edges = g.scale_rows(v_src, beta);
        let ctx_seg = g.segment_sum_planned(ctx_edges, &plans.sp_seg);
        let ctx = g.segment_sum_planned(ctx_seg, &plans.sp_seg_dst);
        h = g.add(h, ctx);
    }
    let rel_score = g.matmul(hr, p("w_rel_score"));
    (g.value(h).clone(), g.value(rel_score).clone())
}

fn assert_matches_reference(model: &PrimModel, inputs: &ModelInputs, label: &str) {
    let (want_pois, want_rels) = reference_forward(model, inputs);
    for threads in [1, 4] {
        kernel::set_threads(threads);
        let table = model.embed(inputs);
        kernel::set_threads(0);
        assert!(
            bits(&table.pois) == bits(&want_pois),
            "{label}: POI table differs from the unfused reference at {threads} threads"
        );
        assert!(
            bits(&table.relations) == bits(&want_rels),
            "{label}: relation table differs from the unfused reference at {threads} threads"
        );
    }
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

#[test]
fn every_forward_configuration_matches_the_unfused_chain() {
    let ds = city();
    for gamma in [
        GammaOp::Multiply,
        GammaOp::Subtract,
        GammaOp::CircularCorrelation,
    ] {
        for use_spatial_context in [true, false] {
            for use_node_embeddings in [true, false] {
                for taxonomy in [TaxonomyMode::PathSum, TaxonomyMode::Independent] {
                    let cfg = PrimConfig {
                        gamma,
                        use_spatial_context,
                        use_node_embeddings,
                        taxonomy,
                        ..small_cfg()
                    };
                    let inputs = full_inputs(&ds, &cfg);
                    assert!(inputs.adjacency.num_directed_edges() > 0);
                    assert!(!inputs.spatial.is_empty());
                    let model = PrimModel::new(cfg, &inputs);
                    assert_matches_reference(
                        &model,
                        &inputs,
                        &format!(
                            "{gamma:?}, spatial {use_spatial_context}, node emb \
                             {use_node_embeddings}, {taxonomy:?}"
                        ),
                    );
                }
            }
        }
    }
}

/// The quick preset's widths (dim 24, 2 heads) on a 2k-POI city, large
/// enough for the fused ops' parallel paths at 4 threads.
#[test]
fn the_quick_preset_matches_the_unfused_chain() {
    let tax = generate_taxonomy(&TaxonomyConfig::preset(Scale::Quick));
    let city = CityConfig {
        n_pois: 2_000,
        seed: 1501,
        ..CityConfig::beijing(Scale::Quick)
    };
    let ds = Dataset::generate(&city, &tax, &RelationConfig::binary());
    let cfg = PrimConfig::quick();
    let inputs = full_inputs(&ds, &cfg);
    assert!(inputs.adjacency.num_directed_edges() * cfg.dim > 1 << 18);
    let model = PrimModel::new(cfg, &inputs);
    assert_matches_reference(&model, &inputs, "quick preset");
}

#[test]
fn subset_inputs_match_the_unfused_chain() {
    let ds = city();
    let cfg = PrimConfig {
        use_node_embeddings: true,
        ..small_cfg()
    };
    let inputs = full_inputs(&ds, &cfg);
    let mut model = PrimModel::new(cfg.clone(), &inputs);

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

    let sub = ModelInputs::build_subset(&graph, &ds.taxonomy, &attrs, &grid, &[0, 2, 9], &cfg);
    assert!(!sub.inputs.spatial.is_empty());
    assert_matches_reference(&model, &sub.inputs, "subset");

    // A target far outside the city: no relation and no spatial edges.
    let isolated = ModelInputs::build_subset(&graph, &ds.taxonomy, &attrs, &grid, &[far_id], &cfg);
    assert!(isolated.inputs.spatial.is_empty());
    assert_eq!(isolated.inputs.adjacency.num_directed_edges(), 0);
    assert_matches_reference(&model, &isolated.inputs, "isolated subset");
}
