//! Execution policy for the compute kernels in this crate.
//!
//! Every hot loop in `prim-tensor` (and, through it, the model layer) funnels
//! through the helpers here, which decide *how* a kernel runs — on how many
//! threads, over which contiguous chunks — without ever changing *what* it
//! computes. The contract that makes that safe:
//!
//! **Work is only ever partitioned along axes that are mathematically
//! independent** (output rows, disjoint element ranges, independent items).
//! Reduction axes — the `k` dimension of a matmul, a segment sum — are never
//! split across threads, so every output element is produced by exactly one
//! thread accumulating in exactly the same order as the serial kernel. Results
//! are therefore **bitwise identical** for any thread count, which the
//! property and determinism tests assert.
//!
//! Thread count resolution, in priority order:
//!
//! 1. the `serial` cargo feature pins everything to one thread at compile
//!    time (zero threading overhead, easiest debugging);
//! 2. [`set_threads`] — a process-wide runtime override, used by the
//!    determinism tests to compare pool sizes in-process;
//! 3. `PRIM_NUM_THREADS`, then `RAYON_NUM_THREADS` (honoured for
//!    familiarity), from the environment;
//! 4. [`std::thread::available_parallelism`].
//!
//! Parallel regions execute on the persistent worker pool in
//! [`crate::pool`]: the helpers here compute a shape-dependent partition
//! (chunk boundaries never depend on the thread count), then hand the chunk
//! indices to [`pool::run`], which fans them out over long-lived parked
//! workers. Even without spawns, parallelism is only worth it for large
//! inputs, so every helper takes (or hard-codes) a grain size below which
//! it stays on the calling thread.

use crate::pool;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Elementwise ops on fewer elements than this run serially: below ~64 KiB of
/// data the memory traffic is cheaper than waking the pool.
pub const PAR_ELEM_CUTOFF: usize = 1 << 16;

/// Runtime thread-count override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Environment/hardware default, resolved once per process.
static DEFAULT_THREADS: OnceLock<usize> = OnceLock::new();

/// Overrides the kernel thread count for the whole process (`0` clears the
/// override). Takes effect on the next kernel call; used by tests to prove
/// results are identical across pool sizes without re-execing.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::SeqCst);
}

/// True when this build uses hardware fused multiply-add in the matmul
/// kernels (compiled with a `target-cpu`/`target-feature` including `fma`;
/// the workspace's `.cargo/config.toml` sets `target-cpu=native`). The
/// microbenchmarks gate their speedup assertions on this: without fma the
/// naive axpy loops already sit at the same ALU ceiling as the register-tiled
/// kernels, so blocking buys parity-preserving structure but little speed.
pub fn fused_multiply_add() -> bool {
    cfg!(target_feature = "fma")
}

/// The number of threads kernels may fan out to, resolved per the
/// module-level priority order. Always ≥ 1.
pub fn configured_threads() -> usize {
    if cfg!(feature = "serial") {
        return 1;
    }
    let o = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if o != 0 {
        return o;
    }
    *DEFAULT_THREADS.get_or_init(|| {
        for var in ["PRIM_NUM_THREADS", "RAYON_NUM_THREADS"] {
            if let Some(n) = std::env::var(var)
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
            {
                if n >= 1 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

use crate::pool::SendPtr;

/// First item index of chunk `c` when `n` items split into `chunks` parts
/// (the first `n % chunks` parts take one extra item).
#[inline]
fn chunk_start(n: usize, chunks: usize, c: usize) -> usize {
    let base = n / chunks;
    let rem = n % chunks;
    c * base + c.min(rem)
}

/// Runs `f(first_row, rows_chunk)` over contiguous row-chunks of `out`
/// (row-major, `cols` wide), in parallel when there are at least
/// `grain_rows` rows per thread. Chunks partition the rows exactly, so each
/// output row is written by one invocation; `f` must not depend on the chunk
/// boundaries for this to stay deterministic (and none of our kernels do —
/// they treat each row independently).
pub fn par_row_chunks<F>(out: &mut [f32], cols: usize, grain_rows: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    let rows = out.len().checked_div(cols).unwrap_or(0);
    let chunks = configured_threads().min((rows / grain_rows.max(1)).max(1));
    if chunks <= 1 {
        f(0, out);
        return;
    }
    let ptr = SendPtr::new(out.as_mut_ptr());
    pool::run(chunks, |c| {
        let r0 = chunk_start(rows, chunks, c);
        let r1 = chunk_start(rows, chunks, c + 1);
        // Safety: rows [r0, r1) are disjoint across job indices and the
        // partition depends only on (rows, chunks); see `SendPtr`.
        let chunk =
            unsafe { std::slice::from_raw_parts_mut(ptr.get().add(r0 * cols), (r1 - r0) * cols) };
        f(r0, chunk);
    });
}

/// Applies `f` to every element of `data`, fanning out over contiguous
/// ranges when the slice is at least [`PAR_ELEM_CUTOFF`] long.
pub fn par_apply<F>(data: &mut [f32], f: F)
where
    F: Fn(&mut f32) + Sync,
{
    let threads = configured_threads();
    if threads <= 1 || data.len() < PAR_ELEM_CUTOFF {
        data.iter_mut().for_each(f);
        return;
    }
    let n = data.len();
    let ptr = SendPtr::new(data.as_mut_ptr());
    pool::run(threads, |c| {
        let s = chunk_start(n, threads, c);
        let e = chunk_start(n, threads, c + 1);
        // Safety: disjoint element ranges per job index; see `SendPtr`.
        let piece = unsafe { std::slice::from_raw_parts_mut(ptr.get().add(s), e - s) };
        piece.iter_mut().for_each(&f);
    });
}

/// Applies `f(dst_elem, src_elem)` pairwise, fanning out over aligned
/// contiguous ranges when the slices are at least [`PAR_ELEM_CUTOFF`] long.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn par_zip_apply<F>(dst: &mut [f32], src: &[f32], f: F)
where
    F: Fn(&mut f32, f32) + Sync,
{
    assert_eq!(dst.len(), src.len(), "par_zip_apply length mismatch");
    let threads = configured_threads();
    if threads <= 1 || dst.len() < PAR_ELEM_CUTOFF {
        dst.iter_mut().zip(src).for_each(|(a, &b)| f(a, b));
        return;
    }
    let n = dst.len();
    let ptr = SendPtr::new(dst.as_mut_ptr());
    pool::run(threads, |c| {
        let s = chunk_start(n, threads, c);
        let e = chunk_start(n, threads, c + 1);
        // Safety: disjoint element ranges per job index; see `SendPtr`.
        let d = unsafe { std::slice::from_raw_parts_mut(ptr.get().add(s), e - s) };
        d.iter_mut().zip(&src[s..e]).for_each(|(a, &b)| f(a, b));
    });
}

/// Three-slice variant of [`par_zip_apply`]: `f(dst_elem, a_elem, b_elem)`.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn par_zip2_apply<F>(dst: &mut [f32], a: &[f32], b: &[f32], f: F)
where
    F: Fn(&mut f32, f32, f32) + Sync,
{
    assert_eq!(dst.len(), a.len(), "par_zip2_apply length mismatch");
    assert_eq!(dst.len(), b.len(), "par_zip2_apply length mismatch");
    let threads = configured_threads();
    if threads <= 1 || dst.len() < PAR_ELEM_CUTOFF {
        for (d, (&x, &y)) in dst.iter_mut().zip(a.iter().zip(b)) {
            f(d, x, y);
        }
        return;
    }
    let n = dst.len();
    let ptr = SendPtr::new(dst.as_mut_ptr());
    pool::run(threads, |c| {
        let s = chunk_start(n, threads, c);
        let e = chunk_start(n, threads, c + 1);
        // Safety: disjoint element ranges per job index; see `SendPtr`.
        let d = unsafe { std::slice::from_raw_parts_mut(ptr.get().add(s), e - s) };
        for (dv, (&x, &y)) in d.iter_mut().zip(a[s..e].iter().zip(&b[s..e])) {
            f(dv, x, y);
        }
    });
}

/// Maps `f(index, item)` over `items`, splitting into per-thread chunks of at
/// least `grain` items and concatenating the per-chunk results in order —
/// the output is identical to a serial `items.iter().enumerate().map(..)`.
pub fn par_map_chunks<T, U, F>(items: &[T], grain: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let n = items.len();
    let chunks = configured_threads().min((n / grain.max(1)).max(1));
    if chunks <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let mut results: Vec<Vec<U>> = (0..chunks).map(|_| Vec::new()).collect();
    let ptr = SendPtr::new(results.as_mut_ptr());
    pool::run(chunks, |c| {
        let s = chunk_start(n, chunks, c);
        let e = chunk_start(n, chunks, c + 1);
        let out: Vec<U> = items[s..e]
            .iter()
            .enumerate()
            .map(|(i, t)| f(s + i, t))
            .collect();
        // Safety: slot `c` is written by exactly this job index (the
        // pre-sized placeholder Vec it replaces is empty); see `SendPtr`.
        unsafe { *ptr.get().add(c) = out };
    });
    results.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configured_threads_is_positive() {
        assert!(configured_threads() >= 1);
    }

    #[test]
    fn row_chunks_cover_all_rows_exactly_once() {
        // 37 rows x 5 cols with a tiny grain: every row must be visited once,
        // with the correct global row offset, regardless of chunking.
        let rows = 37;
        let cols = 5;
        let mut out = vec![0.0f32; rows * cols];
        par_row_chunks(&mut out, cols, 1, |r0, chunk| {
            for (local, row) in chunk.chunks_mut(cols).enumerate() {
                for v in row.iter_mut() {
                    *v += (r0 + local) as f32 + 1.0;
                }
            }
        });
        for r in 0..rows {
            for c in 0..cols {
                assert_eq!(out[r * cols + c], r as f32 + 1.0, "row {r} col {c}");
            }
        }
    }

    #[test]
    fn row_chunks_handle_empty_and_zero_cols() {
        let mut empty: Vec<f32> = vec![];
        par_row_chunks(&mut empty, 4, 1, |_, chunk| assert!(chunk.is_empty()));
        par_row_chunks(&mut empty, 0, 1, |_, chunk| assert!(chunk.is_empty()));
    }

    #[test]
    fn apply_matches_serial_above_cutoff() {
        let n = PAR_ELEM_CUTOFF + 123;
        let mut a: Vec<f32> = (0..n).map(|i| i as f32 * 0.25).collect();
        let mut b = a.clone();
        a.iter_mut().for_each(|v| *v = *v * 2.0 + 1.0);
        par_apply(&mut b, |v| *v = *v * 2.0 + 1.0);
        assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn zip_apply_matches_serial_above_cutoff() {
        let n = PAR_ELEM_CUTOFF + 7;
        let src: Vec<f32> = (0..n).map(|i| (i % 97) as f32).collect();
        let mut a: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let mut b = a.clone();
        a.iter_mut().zip(&src).for_each(|(x, &s)| *x += 3.0 * s);
        par_zip_apply(&mut b, &src, |x, s| *x += 3.0 * s);
        assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn zip2_apply_matches_serial_above_cutoff() {
        let n = PAR_ELEM_CUTOFF + 11;
        let a: Vec<f32> = (0..n).map(|i| (i % 53) as f32).collect();
        let b: Vec<f32> = (0..n).map(|i| (i % 11) as f32 - 5.0).collect();
        let mut d1: Vec<f32> = (0..n).map(|i| i as f32 * 0.5).collect();
        let mut d2 = d1.clone();
        for (d, (&x, &y)) in d1.iter_mut().zip(a.iter().zip(&b)) {
            *d = *d * x + y;
        }
        par_zip2_apply(&mut d2, &a, &b, |d, x, y| *d = *d * x + y);
        assert!(d1.iter().zip(&d2).all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn map_chunks_preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        let got = par_map_chunks(&items, 1, |i, &x| {
            assert_eq!(i, x);
            x * 3
        });
        assert_eq!(got, (0..1000).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn pooled_helpers_match_serial_loops() {
        // Every pooled helper, at sizes that engage the pool, against the
        // plain serial loop it promises to equal (the proptest suite covers
        // randomized shapes).
        set_threads(4);
        let rows = 513;
        let cols = 7;
        let fill = |r0: usize, chunk: &mut [f32]| {
            for (local, row) in chunk.chunks_mut(cols).enumerate() {
                for (c, v) in row.iter_mut().enumerate() {
                    *v = ((r0 + local) * 31 + c) as f32 * 0.125;
                }
            }
        };
        let mut pooled = vec![0.0f32; rows * cols];
        let mut serial = pooled.clone();
        par_row_chunks(&mut pooled, cols, 1, fill);
        fill(0, &mut serial);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let rows_ok = bits(&pooled) == bits(&serial);

        let n = PAR_ELEM_CUTOFF + 5;
        let src: Vec<f32> = (0..n).map(|i| (i % 89) as f32 * 0.01 - 0.4).collect();
        let mut pooled = src.clone();
        let mut serial = src.clone();
        par_apply(&mut pooled, |x| *x = x.exp());
        serial.iter_mut().for_each(|x| *x = x.exp());
        let apply_ok = bits(&pooled) == bits(&serial);

        par_zip_apply(&mut pooled, &src, |a, b| *a += b * b);
        serial.iter_mut().zip(&src).for_each(|(a, &b)| *a += b * b);
        let zip_ok = bits(&pooled) == bits(&serial);

        let pooled = par_map_chunks(&src, 1, |i, &x| x * i as f32);
        let serial: Vec<f32> = src.iter().enumerate().map(|(i, &x)| x * i as f32).collect();
        let map_ok = bits(&pooled) == bits(&serial);
        set_threads(0);
        assert!(rows_ok, "par_row_chunks drifted");
        assert!(apply_ok, "par_apply drifted");
        assert!(zip_ok, "par_zip_apply drifted");
        assert!(map_ok, "par_map_chunks drifted");
    }

    #[test]
    fn thread_override_round_trips() {
        // Not asserting on configured_threads() here: other tests in this
        // binary run concurrently and the override is process-wide.
        set_threads(3);
        set_threads(0);
    }
}
