//! Property-based tests (proptest) for the autodiff engine: algebraic
//! identities of the eager ops and invariants of the GNN primitives.

use prim_tensor::check::TestRng;
use prim_tensor::segment::{
    broadcast_segments_into, segment_dot_into, segment_dot_serial_into, segment_max_into,
    segment_max_serial_into, segment_sum_into, segment_sum_serial_into,
};
use prim_tensor::{kernel, Graph, Matrix, SegmentPlan};
use proptest::prelude::*;
use std::sync::Arc;

fn mat(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-3.0f32..3.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

/// Bitwise (not approximate) equality — the contract between the blocked /
/// parallel kernels and their naive reference implementations.
fn bits_equal(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data().iter())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn close(a: f32, b: f32) -> bool {
    (a - b).abs() <= 1e-3 * (1.0 + a.abs().max(b.abs()))
}

fn mats_close(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data().iter())
            .all(|(&x, &y)| close(x, y))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (AB)C = A(BC) within float tolerance.
    #[test]
    fn matmul_associative(a in mat(4, 3), b in mat(3, 5), c in mat(5, 2)) {
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        prop_assert!(mats_close(&left, &right));
    }

    /// (A + B)C = AC + BC.
    #[test]
    fn matmul_distributes(a in mat(3, 4), b in mat(3, 4), c in mat(4, 2)) {
        let left = a.add(&b).matmul(&c);
        let right = a.matmul(&c).add(&b.matmul(&c));
        prop_assert!(mats_close(&left, &right));
    }

    /// (AB)ᵀ = Bᵀ Aᵀ.
    #[test]
    fn matmul_transpose_identity(a in mat(3, 4), b in mat(4, 2)) {
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        prop_assert!(mats_close(&left, &right));
    }

    /// Hadamard product is commutative, scale is linear.
    #[test]
    fn elementwise_algebra(a in mat(4, 4), b in mat(4, 4), k in -5.0f32..5.0) {
        prop_assert!(mats_close(&a.hadamard(&b), &b.hadamard(&a)));
        prop_assert!(mats_close(&a.add(&b).scale(k), &a.scale(k).add(&b.scale(k))));
    }

    /// segment_softmax output sums to 1 per (segment, column) and lies in
    /// (0, 1]; it is invariant to adding a constant to a segment's logits.
    #[test]
    fn segment_softmax_invariants(
        x in mat(12, 2),
        seg in prop::collection::vec(0usize..4, 12),
        shift in -10.0f32..10.0,
    ) {
        let mut g = Graph::new();
        let v = g.leaf(x.clone());
        let y = g.segment_softmax(v, &seg);
        let out = g.value(y).clone();
        // Sums per segment per column.
        let n_seg = seg.iter().copied().max().unwrap() + 1;
        for s in 0..n_seg {
            for c in 0..2 {
                let total: f32 = (0..12).filter(|&r| seg[r] == s).map(|r| out[(r, c)]).sum();
                let count = seg.iter().filter(|&&t| t == s).count();
                if count > 0 {
                    prop_assert!(close(total, 1.0), "segment {s} col {c} sums to {total}");
                }
            }
        }
        prop_assert!(out.data().iter().all(|&v| v > 0.0 && v <= 1.0 + 1e-6));

        // Shift invariance.
        let shifted = Matrix::from_fn(12, 2, |r, c| x[(r, c)] + shift);
        let mut g2 = Graph::new();
        let v2 = g2.leaf(shifted);
        let y2 = g2.segment_softmax(v2, &seg);
        prop_assert!(mats_close(&out, g2.value(y2)));
    }

    /// segment_sum is linear: seg(αx + y) = α·seg(x) + seg(y).
    #[test]
    fn segment_sum_linear(
        x in mat(10, 3),
        y in mat(10, 3),
        seg in prop::collection::vec(0usize..5, 10),
        alpha in -3.0f32..3.0,
    ) {
        let run = |m: &Matrix| {
            let mut g = Graph::new();
            let v = g.leaf(m.clone());
            let s = g.segment_sum(v, &seg, 5);
            g.value(s).clone()
        };
        let combined = run(&x.scale(alpha).add(&y));
        let separate = run(&x).scale(alpha).add(&run(&y));
        prop_assert!(mats_close(&combined, &separate));
    }

    /// gather then segment_sum by the same index is the "count-weighted"
    /// identity: each row appears exactly as often as it was gathered.
    #[test]
    fn gather_scatter_counts(
        x in mat(6, 2),
        idx in prop::collection::vec(0usize..6, 1..20),
    ) {
        let mut g = Graph::new();
        let v = g.leaf(x.clone());
        let gathered = g.gather_rows(v, &idx);
        let scattered = g.segment_sum(gathered, &idx, 6);
        let out = g.value(scattered);
        for r in 0..6 {
            let count = idx.iter().filter(|&&i| i == r).count() as f32;
            for c in 0..2 {
                prop_assert!(close(out[(r, c)], x[(r, c)] * count));
            }
        }
    }

    /// normalize_rows produces unit rows (for non-degenerate input) and is
    /// idempotent.
    #[test]
    fn normalize_rows_idempotent(x in mat(5, 4)) {
        let mut g = Graph::new();
        let v = g.leaf(x.clone());
        let y1 = g.normalize_rows(v);
        let y2 = g.normalize_rows(y1);
        let (o1, o2) = (g.value(y1).clone(), g.value(y2).clone());
        for r in 0..5 {
            if x.row_norm(r) > 1e-3 {
                prop_assert!(close(o1.row_norm(r), 1.0));
            }
        }
        prop_assert!(mats_close(&o1, &o2));
    }

    /// The hyperplane projection used by distance-specific scoring strictly
    /// reduces (or preserves) the norm and is idempotent: P(P(h)) = P(h).
    #[test]
    fn hyperplane_projection_contracts(h in mat(4, 6), w in mat(1, 6)) {
        prop_assume!(w.row_norm(0) > 1e-2);
        let mut g = Graph::new();
        let hv = g.leaf(h.clone());
        let wv = g.leaf(w.clone());
        let wn = g.normalize_rows(wv);
        let w_rows = g.gather_rows(wn, &[0usize; 4]);
        let project = |g: &mut Graph, hv| {
            let d = g.rows_dot(hv, w_rows);
            let p = g.scale_rows(w_rows, d);
            g.sub(hv, p)
        };
        let p1 = project(&mut g, hv);
        let p2 = project(&mut g, p1);
        let (o1, o2) = (g.value(p1).clone(), g.value(p2).clone());
        for r in 0..4 {
            prop_assert!(o1.row_norm(r) <= h.row_norm(r) + 1e-4);
        }
        prop_assert!(mats_close(&o1, &o2));
    }

    /// BCE with logits is non-negative and zero only for perfect confidence.
    #[test]
    fn bce_nonnegative(x in mat(6, 1), labels in prop::collection::vec(0u8..2, 6)) {
        let targets: Vec<f32> = labels.iter().map(|&l| l as f32).collect();
        let mut g = Graph::new();
        let v = g.leaf(x);
        let loss = g.bce_with_logits(v, &targets);
        prop_assert!(g.value(loss).scalar() >= 0.0);
    }

    /// Backward accumulates: d(sum(x + x))/dx = 2.
    #[test]
    fn gradient_accumulation_through_fanout(x in mat(3, 3)) {
        let mut g = Graph::new();
        let v = g.leaf(x);
        let doubled = g.add(v, v);
        let loss = g.sum_all(doubled);
        let grads = g.backward(loss);
        let dv = grads.get(v).unwrap();
        prop_assert!(dv.data().iter().all(|&d| close(d, 2.0)));
    }

    /// The blocked `matmul` is bitwise identical to the naive reference on
    /// random shapes (dimension 0 and 1×1 included in the ranges).
    #[test]
    fn matmul_blocked_matches_naive_bitwise(
        m in 0usize..40, k in 0usize..40, n in 0usize..40,
        data in prop::collection::vec(-3.0f32..3.0, 3200),
    ) {
        let a = Matrix::from_vec(m, k, data[..m * k].to_vec());
        let b = Matrix::from_vec(k, n, data[1600..1600 + k * n].to_vec());
        prop_assert!(bits_equal(&a.matmul(&b), &a.matmul_naive(&b)));
    }

    /// Same contract for `matmul_tn` (`AᵀB` without materialising `Aᵀ`).
    #[test]
    fn matmul_tn_blocked_matches_naive_bitwise(
        kd in 0usize..40, m in 0usize..40, n in 0usize..40,
        data in prop::collection::vec(-3.0f32..3.0, 3200),
    ) {
        let a = Matrix::from_vec(kd, m, data[..kd * m].to_vec());
        let b = Matrix::from_vec(kd, n, data[1600..1600 + kd * n].to_vec());
        prop_assert!(bits_equal(&a.matmul_tn(&b), &a.matmul_tn_naive(&b)));
    }

    /// Same contract for `matmul_nt` (`ABᵀ` without materialising `Bᵀ`).
    #[test]
    fn matmul_nt_blocked_matches_naive_bitwise(
        m in 0usize..40, k in 0usize..40, p in 0usize..40,
        data in prop::collection::vec(-3.0f32..3.0, 3200),
    ) {
        let a = Matrix::from_vec(m, k, data[..m * k].to_vec());
        let b = Matrix::from_vec(p, k, data[1600..1600 + p * k].to_vec());
        prop_assert!(bits_equal(&a.matmul_nt(&b), &a.matmul_nt_naive(&b)));
    }

    /// The output-partitioned segment reductions are bitwise identical to
    /// their serial references on random shapes: 0-row inputs, 0-column
    /// inputs, out-of-order segment ids, empty interior segments, and
    /// trailing empty segments (`n_segments` past the largest id), at every
    /// thread count.
    #[test]
    fn segment_kernels_parallel_match_serial_bitwise(
        rows in 0usize..40,
        cols in 0usize..8,
        extra_segments in 0usize..4,
        data in prop::collection::vec(-3.0f32..3.0, 640),
        seg_raw in prop::collection::vec(0usize..12, 40),
        threads in 1usize..6,
    ) {
        let x = Matrix::from_vec(rows, cols, data[..rows * cols].to_vec());
        let y = Matrix::from_vec(rows, cols, data[320..320 + rows * cols].to_vec());
        let seg: Vec<usize> = seg_raw[..rows].to_vec();
        let n_segments =
            seg.iter().copied().max().map_or(0, |m| m + 1) + extra_segments;
        let plan = SegmentPlan::new(seg.clone(), n_segments);
        kernel::set_threads(threads);

        let mut par = Matrix::zeros(n_segments, cols);
        segment_sum_into(&x, &plan, &mut par);
        let mut ser = Matrix::zeros(n_segments, cols);
        segment_sum_serial_into(&x, &seg, &mut ser);
        prop_assert!(bits_equal(&par, &ser), "segment_sum drifted");

        let mut par_max = Matrix::from_fn(n_segments, cols, |_, _| f32::NEG_INFINITY);
        segment_max_into(&x, &plan, &mut par_max);
        let mut ser_max = Matrix::from_fn(n_segments, cols, |_, _| f32::NEG_INFINITY);
        segment_max_serial_into(&x, &seg, &mut ser_max);
        prop_assert!(bits_equal(&par_max, &ser_max), "segment_max drifted");

        let mut par_dot = Matrix::zeros(n_segments, cols);
        segment_dot_into(&x, &y, &plan, &mut par_dot);
        let mut ser_dot = Matrix::zeros(n_segments, cols);
        segment_dot_serial_into(&x, &y, &seg, &mut ser_dot);
        prop_assert!(bits_equal(&par_dot, &ser_dot), "segment_dot drifted");

        // Broadcast (gather forward / segment-sum adjoint): each output row
        // must equal the source row its segment id names.
        let src = Matrix::from_vec(
            n_segments,
            cols,
            data[640 - n_segments * cols..].to_vec(),
        );
        let mut bcast = Matrix::zeros(rows, cols);
        broadcast_segments_into(&src, &plan, &mut bcast);
        let naive = Matrix::from_fn(rows, cols, |r, c| src[(seg[r], c)]);
        prop_assert!(bits_equal(&bcast, &naive), "broadcast drifted");
        kernel::set_threads(0);
    }

    /// A full planned pipeline on the tape — gather, segment softmax,
    /// segment sum, and the backward pass through all three (broadcast,
    /// segment-dot, scatter-add) — produces bitwise identical values and
    /// gradients at any thread count.
    #[test]
    fn planned_graph_pipeline_thread_invariant(
        table in mat(5, 3),
        idx in prop::collection::vec(0usize..5, 0..16),
        threads in 2usize..6,
    ) {
        let plan = Arc::new(SegmentPlan::new(idx, 5));
        let run = |plan: &Arc<SegmentPlan>| {
            let mut g = Graph::new();
            let t = g.leaf_ref(&table);
            let gathered = g.gather_rows_planned(t, plan);
            let alpha = g.segment_softmax_planned(gathered, plan);
            let agg = g.segment_sum_planned(alpha, plan);
            let loss = g.sum_all(agg);
            let out = g.value(agg).clone();
            let grads = g.backward(loss);
            (out, grads.get(t).unwrap().clone())
        };
        kernel::set_threads(1);
        let (v_serial, g_serial) = run(&plan);
        kernel::set_threads(threads);
        let (v_par, g_par) = run(&plan);
        kernel::set_threads(0);
        prop_assert!(bits_equal(&v_serial, &v_par), "planned values drifted");
        prop_assert!(bits_equal(&g_serial, &g_par), "planned gradients drifted");
    }

    /// The persistent-pool kernel helpers are bitwise identical to the
    /// plain serial loops the kernel module promises they equal, on random
    /// shapes, grains and thread counts.
    #[test]
    fn pooled_helpers_match_serial_loops_bitwise(
        rows in 0usize..80,
        cols in 1usize..8,
        grain in 1usize..16,
        data in prop::collection::vec(-3.0f32..3.0, 1280),
        threads in 2usize..6,
    ) {
        let len = rows * cols;
        let base: Vec<f32> = data[..len].to_vec();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        kernel::set_threads(threads);

        let mut pooled = base.clone();
        kernel::par_row_chunks(&mut pooled, cols, grain, |r0, chunk| {
            for (dr, row) in chunk.chunks_mut(cols).enumerate() {
                let scale = (r0 + dr) as f32 + 0.5;
                row.iter_mut().for_each(|x| *x *= scale);
            }
        });
        let mut serial = base.clone();
        for (r, row) in serial.chunks_mut(cols).enumerate() {
            let scale = r as f32 + 0.5;
            row.iter_mut().for_each(|x| *x *= scale);
        }
        prop_assert_eq!(bits(&pooled), bits(&serial), "par_row_chunks drifted");

        let mut pooled = base.clone();
        kernel::par_apply(&mut pooled, |x| *x = x.exp());
        let mut serial = base.clone();
        serial.iter_mut().for_each(|x| *x = x.exp());
        prop_assert_eq!(bits(&pooled), bits(&serial), "par_apply drifted");

        let src: Vec<f32> = data[len..2 * len].to_vec();
        let mut pooled = base.clone();
        kernel::par_zip_apply(&mut pooled, &src, |a, b| *a += b * b);
        let mut serial = base.clone();
        serial.iter_mut().zip(&src).for_each(|(a, &b)| *a += b * b);
        prop_assert_eq!(bits(&pooled), bits(&serial), "par_zip_apply drifted");

        let pooled = kernel::par_map_chunks(&base, grain, |i, &x| x * i as f32);
        let serial: Vec<f32> = base.iter().enumerate().map(|(i, &x)| x * i as f32).collect();
        prop_assert_eq!(bits(&pooled), bits(&serial), "par_map_chunks drifted");
        kernel::set_threads(0);
    }

    /// Reusing one pooled tape across training iterations (`reset()` +
    /// `recycle()`) is bitwise identical to building a fresh `Graph` per
    /// iteration: pooled buffers must never leak stale values into the next
    /// step.
    #[test]
    fn pooled_reset_matches_fresh_graph_bitwise(
        x in mat(6, 4),
        w0 in mat(4, 3),
        seg in prop::collection::vec(0usize..4, 10),
    ) {
        // One SGD-style step: h = x·w, gather, softmax, aggregate, then
        // follow the gradient of the summed output.
        let step = |g: &mut Graph, w: &Matrix| -> (f32, Matrix) {
            let xv = g.constant_ref(&x);
            let wv = g.leaf_ref(w);
            let h = g.matmul(xv, wv);
            let gathered = g.gather_rows(h, &seg);
            let alpha = g.segment_softmax(gathered, &seg);
            let agg = g.segment_sum(alpha, &seg, 4);
            let loss = g.sum_all(agg);
            let loss_val = g.value(loss).scalar();
            let grads = g.backward(loss);
            let dw = grads.get(wv).unwrap().clone();
            let next = w.add(&dw.scale(-0.1));
            g.recycle(grads);
            (loss_val, next)
        };

        let mut w_pooled = w0.clone();
        let mut w_fresh = w0;
        let mut pooled = Graph::new();
        for _ in 0..3 {
            pooled.reset();
            let (loss_pooled, next_pooled) = step(&mut pooled, &w_pooled);
            let mut fresh = Graph::new();
            let (loss_fresh, next_fresh) = step(&mut fresh, &w_fresh);
            prop_assert_eq!(loss_pooled.to_bits(), loss_fresh.to_bits());
            w_pooled = next_pooled;
            w_fresh = next_fresh;
            prop_assert!(bits_equal(&w_pooled, &w_fresh), "pooled step drifted");
        }
    }
}

/// Deterministic edge cases the random shapes above may not always hit:
/// empty dimensions, scalars, and shapes that straddle the cache-block
/// boundaries (`NB = 128`, `KB = 64`, `IB = 32`).
#[test]
fn matmul_parity_edge_and_boundary_shapes() {
    let mut rng = TestRng::new(0x5EED_B10C);
    for &(m, k, n) in &[
        (0, 5, 7),
        (5, 0, 7),
        (5, 7, 0),
        (1, 1, 1),
        (1, 64, 128),
        (32, 64, 128),
        (33, 65, 129),
        (129, 64, 1),
        (200, 3, 130),
        (3, 200, 5),
    ] {
        let a = rng.matrix(m, k);
        let b = rng.matrix(k, n);
        assert!(
            bits_equal(&a.matmul(&b), &a.matmul_naive(&b)),
            "matmul parity failed at {m}x{k}x{n}"
        );
        let at = rng.matrix(k, m);
        assert!(
            bits_equal(&at.matmul_tn(&b), &at.matmul_tn_naive(&b)),
            "matmul_tn parity failed at {m}x{k}x{n}"
        );
        let bt = rng.matrix(n, k);
        assert!(
            bits_equal(&a.matmul_nt(&bt), &a.matmul_nt_naive(&bt)),
            "matmul_nt parity failed at {m}x{k}x{n}"
        );
    }
}

/// Kernel outputs are invariant to the thread count: the same product
/// computed on 1, 2, 3 and 8 threads is bitwise identical. (The override is
/// process-wide, but since *every* kernel is thread-count invariant,
/// concurrent tests cannot disturb each other's results.)
#[test]
fn matmul_bitwise_identical_across_thread_counts() {
    let mut rng = TestRng::new(0xDE7E_2817);
    // Big enough that the parallel path actually engages (grain = 1 row).
    let a = rng.matrix(160, 96);
    let b = rng.matrix(96, 140);
    kernel::set_threads(1);
    let serial = a.matmul(&b);
    let serial_tn = a.matmul_tn(&a);
    let serial_nt = b.matmul_nt(&b);
    for threads in [2, 3, 8] {
        kernel::set_threads(threads);
        assert!(
            bits_equal(&a.matmul(&b), &serial),
            "matmul drifted at {threads} threads"
        );
        assert!(
            bits_equal(&a.matmul_tn(&a), &serial_tn),
            "matmul_tn drifted at {threads} threads"
        );
        assert!(
            bits_equal(&b.matmul_nt(&b), &serial_nt),
            "matmul_nt drifted at {threads} threads"
        );
    }
    kernel::set_threads(0);
}
