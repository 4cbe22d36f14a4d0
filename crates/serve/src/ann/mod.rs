//! Approximate-nearest-neighbor layer for `top_k_related`.
//!
//! Composes three pieces (DESIGN.md §11):
//!
//! * [`hnsw`] — a deterministic, seeded HNSW graph over the L2-normalized
//!   POI embeddings (the part a checkpoint persists),
//! * [`quant`] — an int8 compressed embedding tier with a SIMD dot kernel
//!   the search loop scores candidates through (rebuilt from the
//!   embeddings at load, never persisted),
//! * the existing `geo::GridIndex` — the spatial filter; candidates are
//!   always `ANN beam ∩ radius`, and every survivor is re-scored through
//!   the exact f32 kernel before ranking.

pub mod hnsw;
pub mod quant;

pub use hnsw::{Hnsw, Layer, SearchStats};
pub use quant::{l2_normalized, QuantStore};

use prim_tensor::Matrix;

/// Construction parameters for the ANN layer. Persisted alongside the
/// graph so a loaded index searches exactly like the one that was built.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AnnParams {
    /// Upper-level link cap (ground level allows `2m`).
    pub m: usize,
    /// Build-time beam width.
    pub ef_construction: usize,
    /// Default serve-time beam width (the engine may widen it for large
    /// `k`).
    pub ef_search: usize,
    /// Seed for the geometric level assignment (the engine passes the
    /// checkpoint config's seed).
    pub seed: u64,
}

impl Default for AnnParams {
    fn default() -> Self {
        AnnParams {
            m: 8,
            ef_construction: 64,
            ef_search: 64,
            seed: 0,
        }
    }
}

/// The persistable part of the index: parameters + frozen graph. This is
/// what the `ann.*` checkpoint tensors round-trip; the quantized tier is
/// rebuilt from the (bitwise-reconstructed) embeddings at load.
#[derive(Clone, Debug, PartialEq)]
pub struct AnnGraph {
    pub params: AnnParams,
    pub hnsw: Hnsw,
}

/// The full serve-time index: graph + compressed scoring tier.
#[derive(Clone, Debug)]
pub struct AnnIndex {
    pub graph: AnnGraph,
    pub quant: QuantStore,
}

impl AnnIndex {
    /// Builds graph and tier from the POI embedding table (`phis`,
    /// `n × dim`). The graph is constructed over the L2-normalized rows
    /// (cosine geometry); the quantized tier encodes the *raw* rows, so
    /// serve-time dot products approximate the exact relation-linear
    /// scores.
    pub fn build(phis: &Matrix, params: AnnParams) -> AnnIndex {
        let normalized = l2_normalized(phis);
        let hnsw = Hnsw::build(
            normalized.data(),
            phis.rows(),
            phis.cols(),
            params.m,
            params.ef_construction,
            params.seed,
        );
        AnnIndex {
            graph: AnnGraph { params, hnsw },
            quant: QuantStore::build(phis),
        }
    }

    /// Reassembles an index from a persisted graph plus the embedding
    /// table it was built over (checkpoint load path — skips the O(n·ef)
    /// graph construction entirely).
    pub fn from_graph(graph: AnnGraph, phis: &Matrix) -> AnnIndex {
        AnnIndex {
            graph,
            quant: QuantStore::build(phis),
        }
    }

    /// Incremental update for an ingest publish: the sealed HNSW graph is
    /// kept frozen (rows past [`AnnIndex::len`] form the *delta segment*
    /// the engine linear-scans), while the quantized tier is brought up to
    /// date against the mutated table `phis` — rows in `touched` (must be
    /// `< self.quant.len()`) are re-encoded and rows past the old tier
    /// length are appended. Because rows encode independently, the result
    /// is bitwise identical to rebuilding the tier from `phis`.
    pub fn extended(&self, phis: &Matrix, touched: &[usize]) -> AnnIndex {
        let mut quant = self.quant.clone();
        assert!(phis.rows() >= quant.len(), "table must not shrink");
        for &r in touched {
            quant.restage_row(r, phis.row(r));
        }
        for r in quant.len()..phis.rows() {
            quant.append_row(phis.row(r));
        }
        AnnIndex {
            graph: self.graph.clone(),
            quant,
        }
    }

    /// Number of POIs the sealed HNSW graph covers (rows past this are
    /// delta-segment rows the engine scans linearly).
    pub fn len(&self) -> usize {
        self.graph.hnsw.len()
    }

    /// True if the index holds no POIs.
    pub fn is_empty(&self) -> bool {
        self.graph.hnsw.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_from_graph_agree() {
        let phis = Matrix::from_fn(64, 8, |r, c| ((r * 13 + c * 7) as f32).sin());
        let params = AnnParams {
            seed: 9,
            ..AnnParams::default()
        };
        let built = AnnIndex::build(&phis, params);
        let loaded = AnnIndex::from_graph(built.graph.clone(), &phis);
        assert_eq!(built.graph, loaded.graph);
        assert_eq!(built.quant, loaded.quant);
        assert_eq!(built.len(), 64);
        assert!(!built.is_empty());
    }

    #[test]
    fn extended_quant_matches_rebuild_and_keeps_graph_sealed() {
        let before = Matrix::from_fn(48, 8, |r, c| ((r * 13 + c * 7) as f32).sin());
        let after = Matrix::from_fn(50, 8, |r, c| {
            if r == 2 || r == 40 || r >= 48 {
                ((r * 3 + c * 17) as f32).cos()
            } else {
                before.row(r)[c]
            }
        });
        let base = AnnIndex::build(&before, AnnParams::default());
        let ext = base.extended(&after, &[2, 40]);
        assert_eq!(ext.graph, base.graph, "graph stays sealed");
        assert_eq!(ext.len(), 48, "delta rows are not in the graph");
        assert_eq!(ext.quant, QuantStore::build(&after));
    }
}
