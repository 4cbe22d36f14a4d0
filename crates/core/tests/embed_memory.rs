//! Peak-memory regression test for `PrimModel::embed`.
//!
//! A training tape keeps every forward intermediate alive until it is
//! dropped; `embed` runs the same forward on an inference graph that frees
//! each scope's intermediates as the scope ends. This binary installs a
//! global allocator that tracks live and peak heap bytes, and checks that
//! the peak added during `embed` on a seeded 2k-POI city stays at most
//! 0.4× the peak added by a training-tape forward over the same inputs.
//!
//! The file holds a single test so no other test allocates concurrently.

use prim_core::{ModelInputs, PrimConfig, PrimModel};
use prim_data::generator::generate_taxonomy;
use prim_data::{CityConfig, Dataset, RelationConfig, Scale, TaxonomyConfig};
use prim_tensor::Graph;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator plus live and peak byte counters.
struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

/// Peak heap bytes that `f` adds on top of what was live when it started.
fn peak_added<R>(f: impl FnOnce() -> R) -> usize {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    black_box(f());
    PEAK.load(Ordering::Relaxed) - base
}

#[test]
fn embed_peaks_well_below_a_training_tape_forward() {
    let tax = generate_taxonomy(&TaxonomyConfig::preset(Scale::Quick));
    let city = CityConfig {
        n_pois: 2_000,
        seed: 1501,
        ..CityConfig::beijing(Scale::Quick)
    };
    let ds = Dataset::generate(&city, &tax, &RelationConfig::binary());
    let cfg = PrimConfig::quick();
    let inputs = ModelInputs::build(
        &ds.graph,
        &ds.taxonomy,
        &ds.attrs,
        ds.graph.edges(),
        None,
        &cfg,
    );
    assert!(inputs.adjacency.num_directed_edges() > 10_000);
    let model = PrimModel::new(cfg, &inputs);
    // Warm the worker pool and its per-thread scratch outside the windows.
    black_box(model.embed(&inputs));

    let tape = peak_added(|| {
        let mut g = Graph::new();
        let bind = model.params().bind(&mut g);
        let fwd = model.forward(&mut g, &bind, &inputs);
        g.value(fwd.h_final).sum()
    });
    let inference = peak_added(|| model.embed(&inputs));
    let ratio = inference as f64 / tape as f64;
    println!(
        "tape forward peak {:.2} MB, embed peak {:.2} MB, ratio {ratio:.3}",
        tape as f64 / 1e6,
        inference as f64 / 1e6
    );
    assert!(
        ratio <= 0.4,
        "embed peaked at {inference} bytes, {ratio:.3}× the {tape}-byte training-tape forward \
         (limit 0.4×)"
    );
}
