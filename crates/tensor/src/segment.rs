//! CSR-style segment plans and the parallel deterministic scatter kernels
//! built on them.
//!
//! The message-passing primitives (`segment_sum`, `segment_softmax`,
//! `gather_rows`' backward scatter-add) all reduce many input rows into
//! per-segment output rows. Executed naively that reduction is a serial
//! scatter: row `r` accumulates into output row `segment_of_row[r]`, and two
//! rows of the same segment must not race. A [`SegmentPlan`] inverts the map
//! once per graph structure — for each segment it lists the input rows that
//! feed it, **in ascending row order** — which turns the scatter into a
//! gather-reduce that parallelises by *output segment*: each output row is
//! owned by exactly one thread, and that thread accumulates the segment's
//! rows in the exact order the serial kernel would have. Results are
//! therefore bitwise identical for any thread count (the same contract
//! [`crate::kernel`] documents for the matmul family), which the serial
//! reference kernels kept in this module let the property tests assert.
//!
//! Plans are immutable after construction and meant to be built once per
//! graph structure, shared behind [`std::sync::Arc`], and passed to the
//! `*_planned` tape ops — eliminating the per-epoch clone of every E-sized
//! index vector that the slice-taking ops perform.

use crate::kernel;
use crate::matrix::Matrix;

/// Segment reductions touching fewer than this many input elements
/// (`rows × cols`) take the serial path outright. Even with the persistent
/// pool a wake costs a few microseconds, and a sub-threshold reduction
/// finishes in less than that — BENCH_kernels.json showed the 40k-edge
/// kernels *losing* at small widths under per-call spawning, and small
/// calls (validation batches, tiny heads) still lose under the pool.
pub const SEG_PAR_MIN_WORK: usize = 1 << 18;

/// Inverted segment map: for every output segment, the input rows that feed
/// it, grouped CSR-style and ascending within each segment.
///
/// Doubles as a gather plan: a gather by `indices` from an `n`-row source is
/// described by `SegmentPlan::new(indices, n)` — the forward pass reads
/// [`SegmentPlan::segment_of_row`] (the original index list, order
/// preserved), and the backward scatter-add reduces by segment.
#[derive(Clone, Debug)]
pub struct SegmentPlan {
    /// The original map: `segment_of_row[r]` is the segment (or gather
    /// source row) of input row `r`.
    segment_of_row: Vec<usize>,
    /// Number of output segments. May exceed `max(segment_of_row) + 1`;
    /// segments with no rows produce zero (or the reduction's identity).
    n_segments: usize,
    /// Input rows grouped by segment: rows of segment `s` are
    /// `rows[offsets[s]..offsets[s + 1]]`, ascending.
    rows: Vec<u32>,
    /// CSR offsets, `n_segments + 1` entries.
    offsets: Vec<usize>,
}

impl SegmentPlan {
    /// Builds a plan from a segment map via a stable counting sort.
    ///
    /// # Panics
    /// Panics if any segment id is `>= n_segments`, or if there are more
    /// than `u32::MAX` rows.
    pub fn new(segment_of_row: Vec<usize>, n_segments: usize) -> Self {
        assert!(
            u32::try_from(segment_of_row.len()).is_ok(),
            "SegmentPlan: row count {} exceeds u32 range",
            segment_of_row.len()
        );
        let mut offsets = vec![0usize; n_segments + 1];
        for &s in &segment_of_row {
            assert!(s < n_segments, "segment id {s} out of range {n_segments}");
            offsets[s + 1] += 1;
        }
        for s in 0..n_segments {
            offsets[s + 1] += offsets[s];
        }
        let mut cursor = offsets[..n_segments].to_vec();
        let mut rows = vec![0u32; segment_of_row.len()];
        for (r, &s) in segment_of_row.iter().enumerate() {
            rows[cursor[s]] = r as u32;
            cursor[s] += 1;
        }
        SegmentPlan {
            segment_of_row,
            n_segments,
            rows,
            offsets,
        }
    }

    /// Number of input rows the plan describes.
    pub fn len(&self) -> usize {
        self.segment_of_row.len()
    }

    /// True if the plan describes zero input rows.
    pub fn is_empty(&self) -> bool {
        self.segment_of_row.is_empty()
    }

    /// Number of output segments.
    pub fn n_segments(&self) -> usize {
        self.n_segments
    }

    /// The original (order-preserving) segment map / gather index list.
    pub fn segment_of_row(&self) -> &[usize] {
        &self.segment_of_row
    }

    /// Input rows of segment `s`, in ascending order.
    #[inline]
    pub fn rows_of(&self, s: usize) -> &[u32] {
        &self.rows[self.offsets[s]..self.offsets[s + 1]]
    }

    /// Row-chunk grain for a reduction over this plan (see
    /// [`reduce_grain`]).
    fn seg_grain(&self, cols: usize) -> usize {
        reduce_grain(self.len(), self.n_segments, cols)
    }
}

/// Output-row chunk grain for a reduction of `inputs` rows, `cols` wide,
/// into `outputs` rows, so one thread handles at least
/// [`kernel::PAR_ELEM_CUTOFF`] accumulated elements: segments are cheap
/// when sparse, so the grain scales with the average fan-in. Reductions
/// below [`SEG_PAR_MIN_WORK`] total elements return an unsatisfiable grain,
/// pinning them to the serial path (bitwise identical — the parallel
/// kernels accumulate each output row in the same ascending input order).
pub(crate) fn reduce_grain(inputs: usize, outputs: usize, cols: usize) -> usize {
    if inputs.saturating_mul(cols.max(1)) < SEG_PAR_MIN_WORK {
        return usize::MAX;
    }
    let per_output = (inputs / outputs.max(1)).max(1) * cols.max(1);
    (kernel::PAR_ELEM_CUTOFF / per_output).max(1)
}

/// `out[s] += Σ input[r]` over `r ∈ rows_of(s)`, parallel by output segment.
///
/// `out` carries the reduction's initial value (zero it for a plain sum — it
/// is *not* cleared here, so gradient accumulation can reuse the kernel).
/// Bitwise identical to [`segment_sum_serial_into`] for any thread count:
/// each output row is owned by one thread which adds the segment's input
/// rows in the same ascending order as the serial scatter.
///
/// # Panics
/// Panics if `input` has `plan.len()` rows violated or `out` is not
/// `n_segments × cols`.
pub fn segment_sum_into(input: &Matrix, plan: &SegmentPlan, out: &mut Matrix) {
    let c = input.cols();
    assert_eq!(input.rows(), plan.len(), "segment_sum_into row mismatch");
    assert_eq!(
        out.shape(),
        (plan.n_segments(), c),
        "segment_sum_into output shape mismatch"
    );
    if c == 0 || plan.is_empty() {
        return;
    }
    kernel::par_row_chunks(out.data_mut(), c, plan.seg_grain(c), |s0, chunk| {
        for (ds, orow) in chunk.chunks_mut(c).enumerate() {
            for &r in plan.rows_of(s0 + ds) {
                for (o, &x) in orow.iter_mut().zip(input.row(r as usize)) {
                    *o += x;
                }
            }
        }
    });
}

/// Serial reference for [`segment_sum_into`]: the in-row-order scatter loop
/// the tape originally ran. Retained as the parity baseline for proptests
/// and the microbenchmarks.
pub fn segment_sum_serial_into(input: &Matrix, segment_of_row: &[usize], out: &mut Matrix) {
    assert_eq!(
        input.rows(),
        segment_of_row.len(),
        "segment_sum_serial_into row mismatch"
    );
    for (r, &s) in segment_of_row.iter().enumerate() {
        for (o, &x) in out.row_mut(s).iter_mut().zip(input.row(r)) {
            *o += x;
        }
    }
}

/// Per-segment, per-column maximum, parallel by output segment.
///
/// `out` carries the reduction's initial value (fill with
/// `f32::NEG_INFINITY`; empty segments keep it). Bitwise identical to
/// [`segment_max_serial_into`] for any thread count.
pub fn segment_max_into(input: &Matrix, plan: &SegmentPlan, out: &mut Matrix) {
    let c = input.cols();
    assert_eq!(input.rows(), plan.len(), "segment_max_into row mismatch");
    assert_eq!(
        out.shape(),
        (plan.n_segments(), c),
        "segment_max_into output shape mismatch"
    );
    if c == 0 || plan.is_empty() {
        return;
    }
    kernel::par_row_chunks(out.data_mut(), c, plan.seg_grain(c), |s0, chunk| {
        for (ds, orow) in chunk.chunks_mut(c).enumerate() {
            for &r in plan.rows_of(s0 + ds) {
                for (o, &x) in orow.iter_mut().zip(input.row(r as usize)) {
                    if x > *o {
                        *o = x;
                    }
                }
            }
        }
    });
}

/// Serial reference for [`segment_max_into`] (same `>` update, row order).
pub fn segment_max_serial_into(input: &Matrix, segment_of_row: &[usize], out: &mut Matrix) {
    assert_eq!(
        input.rows(),
        segment_of_row.len(),
        "segment_max_serial_into row mismatch"
    );
    for (r, &s) in segment_of_row.iter().enumerate() {
        for (o, &x) in out.row_mut(s).iter_mut().zip(input.row(r)) {
            if x > *o {
                *o = x;
            }
        }
    }
}

/// `out[s][c] += Σ a[r][c] · b[r][c]` over `r ∈ rows_of(s)`, parallel by
/// output segment — the fused `Σ_seg g ⊙ y` reduction of the segment-softmax
/// backward pass. `out` must be zeroed. Bitwise identical to
/// [`segment_dot_serial_into`] for any thread count.
pub fn segment_dot_into(a: &Matrix, b: &Matrix, plan: &SegmentPlan, out: &mut Matrix) {
    let c = a.cols();
    assert_eq!(
        a.shape(),
        b.shape(),
        "segment_dot_into input shape mismatch"
    );
    assert_eq!(a.rows(), plan.len(), "segment_dot_into row mismatch");
    assert_eq!(
        out.shape(),
        (plan.n_segments(), c),
        "segment_dot_into output shape mismatch"
    );
    if c == 0 || plan.is_empty() {
        return;
    }
    kernel::par_row_chunks(out.data_mut(), c, plan.seg_grain(c), |s0, chunk| {
        for (ds, orow) in chunk.chunks_mut(c).enumerate() {
            for &r in plan.rows_of(s0 + ds) {
                let (ra, rb) = (a.row(r as usize), b.row(r as usize));
                for ((o, &x), &y) in orow.iter_mut().zip(ra).zip(rb) {
                    *o += x * y;
                }
            }
        }
    });
}

/// Serial reference for [`segment_dot_into`].
pub fn segment_dot_serial_into(a: &Matrix, b: &Matrix, segment_of_row: &[usize], out: &mut Matrix) {
    assert_eq!(
        a.rows(),
        segment_of_row.len(),
        "segment_dot_serial_into row mismatch"
    );
    for (r, &s) in segment_of_row.iter().enumerate() {
        for ((o, &x), &y) in out.row_mut(s).iter_mut().zip(a.row(r)).zip(b.row(r)) {
            *o += x * y;
        }
    }
}

/// `out[r] = src[segment_of_row[r]]` — the broadcast adjoint of a segment
/// sum (and the forward of a gather). Every output row is written exactly
/// once, so this is plain per-row parallelism with no reduction at all.
pub fn broadcast_segments_into(src: &Matrix, plan: &SegmentPlan, out: &mut Matrix) {
    let c = src.cols();
    assert_eq!(src.rows(), plan.n_segments(), "broadcast segment mismatch");
    assert_eq!(
        out.shape(),
        (plan.len(), c),
        "broadcast_segments_into output shape mismatch"
    );
    if c == 0 {
        return;
    }
    let seg = plan.segment_of_row();
    let grain = if plan.len().saturating_mul(c) < SEG_PAR_MIN_WORK {
        usize::MAX // sub-threshold broadcast: serial (see SEG_PAR_MIN_WORK)
    } else {
        (kernel::PAR_ELEM_CUTOFF / c).max(1)
    };
    kernel::par_row_chunks(out.data_mut(), c, grain, |r0, chunk| {
        for (dr, row) in chunk.chunks_mut(c).enumerate() {
            row.copy_from_slice(src.row(seg[r0 + dr]));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_groups_rows_in_ascending_order() {
        let plan = SegmentPlan::new(vec![2, 0, 2, 1, 0, 2], 4);
        assert_eq!(plan.rows_of(0), &[1, 4]);
        assert_eq!(plan.rows_of(1), &[3]);
        assert_eq!(plan.rows_of(2), &[0, 2, 5]);
        assert_eq!(plan.rows_of(3), &[] as &[u32]); // empty trailing segment
        assert_eq!(plan.len(), 6);
        assert_eq!(plan.n_segments(), 4);
    }

    #[test]
    fn planned_sum_matches_serial_reference() {
        let seg = vec![1usize, 0, 1, 3, 0];
        let input = Matrix::from_fn(5, 3, |r, c| (r * 3 + c) as f32 * 0.5 - 2.0);
        let plan = SegmentPlan::new(seg.clone(), 4);
        let mut par = Matrix::zeros(4, 3);
        segment_sum_into(&input, &plan, &mut par);
        let mut ser = Matrix::zeros(4, 3);
        segment_sum_serial_into(&input, &seg, &mut ser);
        assert_eq!(par.data(), ser.data());
    }

    #[test]
    fn zero_rows_and_zero_cols_are_noops() {
        let plan = SegmentPlan::new(vec![], 3);
        let input = Matrix::zeros(0, 4);
        let mut out = Matrix::zeros(3, 4);
        segment_sum_into(&input, &plan, &mut out);
        assert!(out.data().iter().all(|&v| v == 0.0));

        let plan = SegmentPlan::new(vec![0, 1], 2);
        let empty_cols = Matrix::zeros(2, 0);
        let mut out = Matrix::zeros(2, 0);
        segment_max_into(&empty_cols, &plan, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_segment_id_panics() {
        let _ = SegmentPlan::new(vec![0, 5], 3);
    }

    #[test]
    fn broadcast_copies_segment_rows() {
        let plan = SegmentPlan::new(vec![1, 0, 1], 2);
        let src = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let mut out = Matrix::zeros(3, 2);
        broadcast_segments_into(&src, &plan, &mut out);
        assert_eq!(out.row(0), &[3.0, 4.0]);
        assert_eq!(out.row(1), &[1.0, 2.0]);
        assert_eq!(out.row(2), &[3.0, 4.0]);
    }
}
