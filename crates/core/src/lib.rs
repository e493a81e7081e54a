//! # stencil-mapping
//!
//! The primary contribution of *"Efficient Process-to-Node Mapping Algorithms
//! for Stencil Computations"* (Hunold, von Kirchbach, Lehr, Schulz, Träff —
//! IEEE CLUSTER 2020): rank-reordering algorithms that map the processes of a
//! Cartesian stencil computation onto compute nodes such that inter-node
//! communication is minimised.
//!
//! ## Algorithms
//!
//! * [`Hyperplane`](hyperplane::Hyperplane) — recursive bisection with
//!   stencil-aware cut-dimension selection (Section V-A),
//! * [`KdTree`](kdtree::KdTree) — k-d-tree-style recursive halving, oblivious
//!   to the node size (Section V-B),
//! * [`StencilStrips`](stencil_strips::StencilStrips) — strip decomposition
//!   scaled to the stencil bounding box (Section V-C),
//! * [`Nodecart`](nodecart::Nodecart) — Gropp's prime-factorisation based
//!   Cartesian mapping (the state-of-the-art baseline of the paper),
//! * [`GraphMapper`](viem::GraphMapper) — a general graph-mapping baseline in
//!   the spirit of VieM, built on the from-scratch multilevel partitioner of
//!   the [`graph_partition`] crate,
//! * [`Blocked`](baselines::Blocked), [`RoundRobin`](baselines::RoundRobin)
//!   and [`RandomMapping`](baselines::RandomMapping) — trivial baselines.
//!
//! [`Algorithm`] names the six reordering algorithms a caller can ask for
//! (the `reorder` argument of the paper's interface, the `stencil-serve`
//! wire names) and is the one place that builds their mappers.
//!
//! ## Objective
//!
//! Given the communication graph induced by a grid and a stencil, the cost of
//! a mapping is measured by [`metrics::MappingCost`]:
//! `Jsum` (total number of inter-node communication edges) and `Jmax`
//! (edges leaving the most loaded, *bottleneck*, node).
//!
//! ## Quick example
//!
//! ```
//! use stencil_grid::{Dims, Stencil, NodeAllocation, CartGraph};
//! use stencil_mapping::{MappingProblem, Mapper, metrics};
//! use stencil_mapping::hyperplane::Hyperplane;
//! use stencil_mapping::baselines::Blocked;
//!
//! let problem = MappingProblem::new(
//!     Dims::from_slice(&[50, 48]),
//!     Stencil::nearest_neighbor(2),
//!     NodeAllocation::homogeneous(50, 48),
//! ).unwrap();
//!
//! let graph = CartGraph::build(problem.dims(), problem.stencil(), false);
//! let blocked = metrics::evaluate(&graph, &Blocked.compute(&problem).unwrap());
//! let hp = metrics::evaluate(&graph, &Hyperplane::default().compute(&problem).unwrap());
//! assert!(hp.j_sum < blocked.j_sum);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod analysis;
pub mod baselines;
pub mod canonical;
pub mod cart_comm;
pub mod hyperplane;
pub mod kdtree;
pub mod mapping;
pub mod metrics;
pub mod nodecart;
pub mod problem;
pub mod stencil_strips;
pub mod viem;

pub use cart_comm::{Algorithm, CartStencilComm};
pub use mapping::Mapping;
pub use metrics::MappingCost;
pub use problem::{MapError, Mapper, MappingProblem, RankLocalMapper};

/// Re-export of the grid vocabulary crate for convenience.
pub use stencil_grid as grid;
