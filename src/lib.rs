//! # stencilmap
//!
//! Umbrella crate of the *stencilmap* workspace — a Rust reproduction of
//! *"Efficient Process-to-Node Mapping Algorithms for Stencil Computations"*
//! (Hunold, von Kirchbach, Lehr, Schulz, Träff — IEEE CLUSTER 2020).
//!
//! It re-exports the individual crates under stable names so that examples,
//! integration tests and downstream users can depend on a single crate:
//!
//! * [`grid`] — Cartesian grids, stencils, communication graphs
//!   (`stencil-grid`),
//! * [`mapping`] — the mapping algorithms and metrics (`stencil-mapping`),
//! * [`partition`] — the multilevel graph partitioner (`graph-partition`),
//! * [`sim`] — machine models and the exchange-time simulator
//!   (`cluster-sim`),
//! * [`mpc`] — the thread-based message-passing runtime (`mpc-sim`).
//!
//! ## Quickstart
//!
//! ```
//! use stencilmap::prelude::*;
//!
//! // The headline instance of the paper: 50 nodes x 48 processes on a
//! // 50 x 48 grid with a nearest-neighbor stencil.
//! let problem = MappingProblem::new(
//!     Dims::from_slice(&[50, 48]),
//!     Stencil::nearest_neighbor(2),
//!     NodeAllocation::homogeneous(50, 48),
//! ).unwrap();
//! let graph = CartGraph::build(problem.dims(), problem.stencil(), false);
//!
//! let blocked = metrics::evaluate(&graph, &Blocked.compute(&problem).unwrap());
//! let strips = metrics::evaluate(&graph, &StencilStrips.compute(&problem).unwrap());
//! assert!(strips.j_sum * 3 < blocked.j_sum);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub use cluster_sim as sim;
pub use graph_partition as partition;
pub use mpc_sim as mpc;
pub use stencil_grid as grid;
pub use stencil_mapping as mapping;

/// Commonly used types, re-exported for convenient glob imports.
pub mod prelude {
    pub use cluster_sim::{ExchangeModel, Machine, Measurement, Summary};
    pub use stencil_grid::{dims_create, CartGraph, Dims, NodeAllocation, Stencil};
    pub use stencil_mapping::analysis::{InstanceSpec, StencilKind};
    pub use stencil_mapping::baselines::{Blocked, RandomMapping, RoundRobin};
    pub use stencil_mapping::hyperplane::Hyperplane;
    pub use stencil_mapping::kdtree::KdTree;
    pub use stencil_mapping::metrics;
    pub use stencil_mapping::nodecart::Nodecart;
    pub use stencil_mapping::stencil_strips::StencilStrips;
    pub use stencil_mapping::viem::GraphMapper;
    pub use stencil_mapping::{
        Algorithm, CartStencilComm, MapError, Mapper, Mapping, MappingCost, MappingProblem,
        RankLocalMapper,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_all_mappers() {
        let problem = MappingProblem::new(
            Dims::from_slice(&[6, 4]),
            Stencil::nearest_neighbor(2),
            NodeAllocation::homogeneous(4, 6),
        )
        .unwrap();
        let mappers: Vec<Box<dyn Mapper>> = vec![
            Box::new(Hyperplane::default()),
            Box::new(KdTree),
            Box::new(StencilStrips),
            Box::new(Nodecart),
            Box::new(GraphMapper::with_seed(1)),
            Box::new(Blocked),
            Box::new(RoundRobin),
            Box::new(RandomMapping::with_seed(1)),
        ];
        for m in mappers {
            let mapping = m.compute(&problem).unwrap();
            assert!(mapping.respects_allocation(problem.alloc()), "{}", m.name());
        }
    }
}
