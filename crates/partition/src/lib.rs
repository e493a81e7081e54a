//! # graph-partition
//!
//! A from-scratch multilevel graph partitioner with k-way swap refinement.
//!
//! This crate is the substrate for the *VieM*-style general graph mapping
//! baseline used in the evaluation of
//! *"Efficient Process-to-Node Mapping Algorithms for Stencil Computations"*
//! (Hunold et al., CLUSTER 2020).  VieM itself is a closed-source tool; this
//! crate re-implements the relevant pipeline from scratch:
//!
//! 1. [`Graph`] — an undirected weighted graph in CSR form,
//! 2. multilevel **coarsening** via heavy-edge matching ([`coarsen`]),
//! 3. an **initial bisection** by greedy graph growing ([`bisect`]),
//! 4. **Fiduccia–Mattheyses** boundary refinement ([`fm`]) driven by dense
//!    **gain buckets** ([`bucket`]) — O(1) selection and incremental gain
//!    updates instead of linear rescans,
//! 5. **recursive bisection** into parts of exact, arbitrary sizes
//!    ([`partitioner`]), with the independent halves of every bisection
//!    executed in parallel (deterministically — see
//!    [`PartitionConfig::parallel`]),
//! 6. randomized **k-way pairwise-swap local search** ([`refine`]) mirroring
//!    the local search VieM applies to the final mapping, parallelised with
//!    part-pair coloring and identical results for every thread count
//!    ([`RefineConfig::parallel`]).
//!
//! All per-level scratch lives in a reusable [`Workspace`] threaded through
//! every stage of the pipeline, so a steady-state multilevel run performs no
//! per-level scratch allocation.  The worker count is controlled by the
//! `RAYON_NUM_THREADS` environment variable.
//!
//! The objective is the (unit- or weighted-) edge cut, which for a
//! homogeneous two-level machine model (`distance 0:1` in VieM terms) is
//! exactly the `Jsum` objective of the paper.
//!
//! ```
//! use graph_partition::{Graph, PartitionConfig, partition};
//!
//! // a 4x4 grid graph split into 4 parts of 4 vertices each
//! let mut edges = Vec::new();
//! for r in 0..4u32 {
//!     for c in 0..4u32 {
//!         let v = r * 4 + c;
//!         if c + 1 < 4 { edges.push((v, v + 1, 1)); }
//!         if r + 1 < 4 { edges.push((v, v + 4, 1)); }
//!     }
//! }
//! let g = Graph::from_edges(16, &edges);
//! let cfg = PartitionConfig::new(vec![4, 4, 4, 4]);
//! let parts = partition(&g, &cfg).unwrap();
//! assert_eq!(parts.iter().filter(|&&p| p == 0).count(), 4);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod bisect;
pub mod bucket;
pub mod coarsen;
pub mod csr;
pub mod fm;
pub mod partitioner;
pub mod refine;
pub mod workspace;

pub use bucket::BucketQueue;
pub use csr::Graph;
pub use partitioner::{partition, PartitionConfig, PartitionError};
pub use refine::{refine_kway_with, RefineConfig, RefineStats};
pub use workspace::Workspace;

#[cfg(test)]
pub(crate) mod testutil {
    use crate::{Graph, Workspace};

    /// [`crate::bisect::greedy_bisection`] into a fresh partition vector.
    pub fn bisection(g: &Graph, target0: u64, attempts: usize, seed: u64) -> Vec<u32> {
        let mut part = Vec::new();
        crate::bisect::greedy_bisection(
            g,
            target0,
            attempts,
            seed,
            &mut Workspace::new(),
            &mut part,
        );
        part
    }

    /// Builds the communication graph of a `rows x cols` grid with 4-point
    /// nearest-neighbor connectivity and unit weights.
    pub fn grid_graph(rows: u32, cols: u32) -> Graph {
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let v = r * cols + c;
                if c + 1 < cols {
                    edges.push((v, v + 1, 1));
                }
                if r + 1 < rows {
                    edges.push((v, v + cols, 1));
                }
            }
        }
        Graph::from_edges((rows * cols) as usize, &edges)
    }

    /// A path graph with `n` vertices.
    pub fn path_graph(n: u32) -> Graph {
        let edges: Vec<(u32, u32, u32)> = (0..n.saturating_sub(1)).map(|i| (i, i + 1, 1)).collect();
        Graph::from_edges(n as usize, &edges)
    }
}
