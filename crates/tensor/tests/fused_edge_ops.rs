//! Bitwise parity of the fused edge ops against the unfused tape chains
//! they replace, forward and backward, at 1 and 4 pool threads.
//!
//! * `gathered_rows_dot` vs gather → slice → concat → `rows_dot`;
//! * `gather_scale_segment_sum` vs gather → slice → `scale_rows` →
//!   `segment_sum` → `segment_sum`.
//!
//! The unfused chains live here only as references. Each case feeds both
//! forms the same upstream gradient (the loss is `Σ out ⊙ c` for a fixed
//! `c`) and compares the output and every input gradient bit for bit. The
//! random cases cover repeated gather rows (repeated `(source, relation)`
//! keys), empty segments, output rows with no segment (POIs with no
//! in-edges) and zero-edge graphs; one large case drives the parallel
//! paths.

use prim_tensor::check::TestRng;
use prim_tensor::{kernel, Graph, Matrix, RowWindow, SegmentPlan, Var};
use proptest::prelude::*;
use std::sync::Arc;

/// A window over input `input`: columns `[start, start + width)`, read
/// through `rows` when set.
#[derive(Clone)]
struct Spec {
    input: usize,
    start: usize,
    width: usize,
    rows: Option<Arc<SegmentPlan>>,
}

impl Spec {
    fn fused(&self, vars: &[Var]) -> RowWindow {
        match &self.rows {
            Some(plan) => RowWindow::gathered(vars[self.input], self.start, self.width, plan),
            None => RowWindow::direct(vars[self.input], self.start, self.width),
        }
    }

    /// The unfused reading of the window: a gather (when planned), then a
    /// column slice.
    fn unfused(&self, g: &mut Graph, vars: &[Var]) -> Var {
        let base = match &self.rows {
            Some(plan) => g.gather_rows_planned(vars[self.input], plan),
            None => vars[self.input],
        };
        g.slice_cols(base, self.start, self.width)
    }
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

/// The output's bits and every input's gradient bits, for the loss
/// `Σ out ⊙ c` over the graph `build` wires up.
fn run(
    inputs: &[Matrix],
    c: &Matrix,
    threads: usize,
    build: impl Fn(&mut Graph, &[Var]) -> Var,
) -> (Vec<u32>, Vec<Vec<u32>>) {
    kernel::set_threads(threads);
    let mut g = Graph::new();
    let vars: Vec<Var> = inputs.iter().map(|m| g.leaf(m.clone())).collect();
    let out = build(&mut g, &vars);
    let cv = g.constant(c.clone());
    let weighted = g.mul(out, cv);
    let loss = g.sum_all(weighted);
    let grads = g.backward(loss);
    let result = (
        bits(g.value(out)),
        vars.iter()
            .zip(inputs)
            .map(|(&v, m)| bits(&grads.get_or_zeros(v, m.rows(), m.cols())))
            .collect(),
    );
    kernel::set_threads(0);
    result
}

/// Asserts the fused form matches the unfused one at 1 and 4 threads.
fn assert_parity(
    inputs: &[Matrix],
    c: &Matrix,
    fused: impl Fn(&mut Graph, &[Var]) -> Var,
    unfused: impl Fn(&mut Graph, &[Var]) -> Var,
) {
    let want = run(inputs, c, 1, &unfused);
    for threads in [1, 4] {
        let got = run(inputs, c, threads, &fused);
        assert!(got.0 == want.0, "forward differs at {threads} threads");
        for (i, (a, b)) in got.1.iter().zip(&want.1).enumerate() {
            assert!(a == b, "gradient of input {i} differs at {threads} threads");
        }
    }
}

fn plan(rng: &mut TestRng, len: usize, n_segments: usize) -> Arc<SegmentPlan> {
    Arc::new(SegmentPlan::new(
        (0..len).map(|_| rng.below(n_segments)).collect(),
        n_segments,
    ))
}

/// The WRGNN logit shape: `[node[dst] ‖ node[src] ‖ edge] · rel[r]`, with
/// both node windows on the same columns of one table.
fn check_logit_op(rng: &mut TestRng, n_nodes: usize, n_edges: usize, w: usize, we: usize) {
    let n_rel = 1 + rng.below(3);
    let node_cols = w + 1 + rng.below(3);
    let start = rng.below(node_cols - w + 1);
    let edge_cols = we + rng.below(2);
    let inputs = [
        rng.matrix(n_nodes, node_cols),
        rng.matrix(n_edges, edge_cols),
        rng.matrix(n_rel, 2 * w + we),
    ];
    let c = rng.matrix(n_edges, 1);
    let dst = plan(rng, n_edges, n_nodes);
    let src = plan(rng, n_edges, n_nodes);
    let lhs = [
        Spec {
            input: 0,
            start,
            width: w,
            rows: Some(dst),
        },
        Spec {
            input: 0,
            start,
            width: w,
            rows: Some(src),
        },
        Spec {
            input: 1,
            start: edge_cols - we,
            width: we,
            rows: None,
        },
    ];
    let rhs = Spec {
        input: 2,
        start: 0,
        width: 2 * w + we,
        rows: Some(plan(rng, n_edges, n_rel)),
    };
    check_dot(&inputs, &c, &lhs, &rhs);
}

/// The spatial logit shape: one table, the left window read through the
/// destinations and the right one through the sources.
fn check_query_key_op(rng: &mut TestRng, n_nodes: usize, n_edges: usize, d: usize) {
    let inputs = [rng.matrix(n_nodes, 3 * d)];
    let c = rng.matrix(n_edges, 1);
    let lhs = [Spec {
        input: 0,
        start: 0,
        width: d,
        rows: Some(plan(rng, n_edges, n_nodes)),
    }];
    let rhs = Spec {
        input: 0,
        start: d,
        width: d,
        rows: Some(plan(rng, n_edges, n_nodes)),
    };
    check_dot(&inputs, &c, &lhs, &rhs);
}

fn check_dot(inputs: &[Matrix], c: &Matrix, lhs: &[Spec], rhs: &Spec) {
    assert_parity(
        inputs,
        c,
        |g, v| {
            let windows: Vec<RowWindow> = lhs.iter().map(|s| s.fused(v)).collect();
            g.gathered_rows_dot(&windows, &rhs.fused(v))
        },
        |g, v| {
            let parts: Vec<Var> = lhs.iter().map(|s| s.unfused(g, v)).collect();
            let feats = g.concat_cols(&parts);
            let r = rhs.unfused(g, v);
            g.rows_dot(feats, r)
        },
    );
}

/// The aggregation shape: a per-key message table read through an
/// edge → key plan (or an edge table read directly), scaled per edge,
/// summed into segments, then into output rows.
fn check_aggregation_op(
    rng: &mut TestRng,
    n_edges: usize,
    width: usize,
    n_segments: usize,
    n_out: usize,
) {
    let gathered = rng.below(4) != 0;
    let rows = if gathered { 1 + rng.below(6) } else { n_edges };
    let cols = width + rng.below(3);
    let start = rng.below(cols - width + 1);
    let inputs = [rng.matrix(rows, cols), rng.matrix(n_edges, 1)];
    let c = rng.matrix(n_out, width);
    let values = Spec {
        input: 0,
        start,
        width,
        rows: gathered.then(|| plan(rng, n_edges, rows)),
    };
    let inner = plan(rng, n_edges, n_segments);
    let outer = plan(rng, n_segments, n_out);
    assert_parity(
        &inputs,
        &c,
        |g, v| g.gather_scale_segment_sum(&values.fused(v), v[1], &inner, &outer),
        |g, v| {
            let vals = values.unfused(g, v);
            let weighted = g.scale_rows(vals, v[1]);
            let seg = g.segment_sum_planned(weighted, &inner);
            g.segment_sum_planned(seg, &outer)
        },
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gathered_rows_dot_matches_unfused_chain_bitwise(
        seed in 0u64..1_000_000_000,
        n_nodes in 1usize..7,
        n_edges in 0usize..30,
        w in 1usize..5,
        we in 0usize..3,
    ) {
        let mut rng = TestRng::new(seed);
        check_logit_op(&mut rng, n_nodes, n_edges, w, we);
        check_query_key_op(&mut rng, n_nodes, n_edges, w);
    }

    #[test]
    fn gather_scale_segment_sum_matches_unfused_chain_bitwise(
        seed in 0u64..1_000_000_000,
        n_edges in 0usize..30,
        width in 1usize..6,
        n_segments in 1usize..10,
        n_out in 1usize..8,
    ) {
        let mut rng = TestRng::new(seed);
        check_aggregation_op(&mut rng, n_edges, width, n_segments, n_out);
    }
}

#[test]
fn zero_edge_graphs_match_unfused_chains() {
    let mut rng = TestRng::new(3);
    check_logit_op(&mut rng, 4, 0, 3, 2);
    check_query_key_op(&mut rng, 4, 0, 3);
    check_aggregation_op(&mut rng, 0, 4, 3, 5);
}

/// Big enough that every forward and backward loop of both ops splits
/// across the pool at 4 threads.
#[test]
fn large_graphs_match_unfused_chains_on_the_parallel_paths() {
    let mut rng = TestRng::new(5);
    check_logit_op(&mut rng, 500, 40_000, 8, 4);
    check_query_key_op(&mut rng, 500, 20_000, 16);
    check_aggregation_op(&mut rng, 20_000, 16, 3_000, 500);
}

/// Output rows with no segment and segments with no edges come out as
/// exact `+0.0` rows, as the unfused segment sums leave them.
#[test]
fn outputs_without_edges_are_exact_zero_rows() {
    let mut g = Graph::new();
    let table = g.leaf(Matrix::from_fn(2, 3, |r, c| -1.0 - (r * 3 + c) as f32));
    let scale = g.leaf(Matrix::from_vec(2, 1, vec![0.5, -2.0]));
    let key = Arc::new(SegmentPlan::new(vec![1, 0], 2));
    // Segment 1 has no edge; output 0 reads only segment 1, output 2 none.
    let inner = Arc::new(SegmentPlan::new(vec![0, 0], 2));
    let outer = Arc::new(SegmentPlan::new(vec![1, 0], 3));
    let out = g.gather_scale_segment_sum(
        &RowWindow::gathered(table, 0, 3, &key),
        scale,
        &inner,
        &outer,
    );
    let v = g.value(out);
    for r in [0, 2] {
        assert!(
            v.row(r).iter().all(|x| x.to_bits() == 0),
            "row {r}: {:?}",
            v.row(r)
        );
    }
    assert_eq!(
        v.row(1),
        &[
            -4.0 * 0.5 + -1.0 * -2.0,
            -5.0 * 0.5 + -2.0 * -2.0,
            -6.0 * 0.5 + -3.0 * -2.0
        ]
    );
}
