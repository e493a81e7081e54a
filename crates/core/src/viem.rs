//! A general graph-mapping baseline in the spirit of VieM (Vienna Mapping).
//!
//! The paper compares its specialised algorithms against VieM (Schulz &
//! Träff, *Better Process Mapping and Sparse Quadratic Assignment*), a
//! sequential, high-quality general graph mapping tool.  VieM is not
//! available as a library, so this module rebuilds the relevant pipeline on
//! top of the from-scratch [`graph_partition`] crate:
//!
//! 1. the Cartesian communication graph is handed over as an *unstructured*
//!    graph (the mapper deliberately ignores the grid structure, exactly like
//!    VieM does),
//! 2. the graph is partitioned into parts of the exact node sizes with
//!    multilevel recursive bisection,
//! 3. a randomized pairwise-swap local search over connected vertex pairs
//!    refines the mapping, using the same objective as the paper's
//!    experiments (`hierarchy n:N`, `distance 0:1` — minimise inter-node
//!    communication).
//!
//! As in the paper, this baseline reaches mapping quality comparable to the
//! specialised algorithms but is orders of magnitude slower (see the
//! instantiation-time benchmark, Fig. 9).

use crate::problem::{MapError, Mapper, MappingProblem};
use crate::Mapping;
use graph_partition::{partition, refine_kway_with, Graph, PartitionConfig, RefineConfig};
use stencil_grid::CartGraph;

/// Default seed of [`GraphMapper`]'s randomised components.
pub const DEFAULT_SEED: u64 = 0x71EA;

/// VieM-style general graph mapper (multilevel partitioning + swap search).
#[derive(Debug, Clone)]
pub struct GraphMapper {
    /// Seed of the randomised components.
    pub seed: u64,
    /// Rounds of pairwise-swap local search applied after partitioning.
    pub refine_rounds: usize,
    /// Whether the partitioner and the swap search may use multiple threads
    /// (the result is identical either way; see
    /// [`PartitionConfig::parallel`] and [`RefineConfig::parallel`]).
    pub parallel: bool,
}

impl Default for GraphMapper {
    fn default() -> Self {
        GraphMapper {
            seed: DEFAULT_SEED,
            refine_rounds: 12,
            parallel: true,
        }
    }
}

impl GraphMapper {
    /// Creates a mapper with the given seed and default search effort.
    pub fn with_seed(seed: u64) -> Self {
        GraphMapper {
            seed,
            ..Default::default()
        }
    }
}

impl Mapper for GraphMapper {
    fn name(&self) -> &str {
        "VieM-style"
    }

    fn compute(&self, problem: &MappingProblem) -> Result<Mapping, MapError> {
        // 1. build the communication graph and strip its structure
        let cart = CartGraph::build(problem.dims(), problem.stencil(), problem.periodic());
        let graph = Graph::from_directed_csr(cart.xadj(), cart.adjncy());

        // 2. multilevel recursive bisection into exact node sizes
        let sizes: Vec<usize> = problem.alloc().sizes().to_vec();
        let cfg = PartitionConfig::new(sizes)
            .with_seed(self.seed)
            .with_parallel(self.parallel);
        let mut parts = partition(&graph, &cfg)
            .map_err(|e| MapError::InvalidResult(format!("partitioner failed: {e}")))?;

        // 3. swap-based local search (largest search space, as configured in
        //    the paper's experiments), parallel whenever the partitioner is
        if self.refine_rounds > 0 {
            let refine_cfg = RefineConfig::new(self.refine_rounds, self.seed ^ 0x9E37)
                .with_parallel(cfg.parallel);
            refine_kway_with(&graph, &mut parts, &refine_cfg);
        }

        let node_of_position: Vec<usize> = parts.iter().map(|&p| p as usize).collect();
        Mapping::from_node_of_position(problem, &node_of_position)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::Blocked;
    use crate::metrics::evaluate;
    use crate::nodecart::Nodecart;
    use stencil_grid::{Dims, NodeAllocation, Stencil};

    fn problem(dims: &[usize], nodes: usize, per: usize, stencil: Stencil) -> MappingProblem {
        MappingProblem::new(
            Dims::from_slice(dims),
            stencil,
            NodeAllocation::homogeneous(nodes, per),
        )
        .unwrap()
    }

    #[test]
    fn produces_valid_balanced_mapping() {
        let p = problem(&[12, 8], 8, 12, Stencil::nearest_neighbor(2));
        let m = GraphMapper::with_seed(1).compute(&p).unwrap();
        assert!(m.respects_allocation(p.alloc()));
    }

    #[test]
    fn quality_beats_blocked_and_is_competitive_with_nodecart() {
        // A medium instance keeps the test fast: 24x20 grid, 20 nodes x 24.
        let p = problem(&[24, 20], 20, 24, Stencil::nearest_neighbor(2));
        let g = stencil_grid::CartGraph::build(p.dims(), p.stencil(), false);
        let viem = evaluate(&g, &GraphMapper::with_seed(3).compute(&p).unwrap());
        let blocked = evaluate(&g, &Blocked.compute(&p).unwrap());
        let nodecart = evaluate(&g, &Nodecart.compute(&p).unwrap());
        assert!(
            viem.j_sum < blocked.j_sum,
            "{} vs {}",
            viem.j_sum,
            blocked.j_sum
        );
        // VieM-style quality should at least be in the same ballpark as
        // Nodecart (the paper shows it is usually better than Nodecart).
        assert!(
            viem.j_sum <= nodecart.j_sum * 3 / 2,
            "viem {} vs nodecart {}",
            viem.j_sum,
            nodecart.j_sum
        );
    }

    #[test]
    fn heterogeneous_allocations_are_supported() {
        let p = MappingProblem::new(
            Dims::from_slice(&[6, 6]),
            Stencil::nearest_neighbor(2),
            NodeAllocation::heterogeneous(vec![14, 12, 10]).unwrap(),
        )
        .unwrap();
        let m = GraphMapper::with_seed(5).compute(&p).unwrap();
        assert!(m.respects_allocation(p.alloc()));
        assert_eq!(m.node_loads(), vec![14, 12, 10]);
    }

    #[test]
    fn effort_zero_skips_local_search_but_stays_valid() {
        let p = problem(&[8, 8], 4, 16, Stencil::nearest_neighbor(2));
        let effort = |refine_rounds| GraphMapper {
            refine_rounds,
            ..GraphMapper::with_seed(2)
        };
        let fast = effort(0).compute(&p).unwrap();
        let slow = effort(10).compute(&p).unwrap();
        assert!(fast.respects_allocation(p.alloc()));
        let g = stencil_grid::CartGraph::build(p.dims(), p.stencil(), false);
        assert!(evaluate(&g, &slow).j_sum <= evaluate(&g, &fast).j_sum);
    }

    #[test]
    fn sequential_mode_matches_parallel_mapping_exactly() {
        let p = problem(&[12, 10], 10, 12, Stencil::nearest_neighbor(2));
        let par = GraphMapper::with_seed(7).compute(&p).unwrap();
        let seq = GraphMapper {
            parallel: false,
            ..GraphMapper::with_seed(7)
        }
        .compute(&p)
        .unwrap();
        assert_eq!(par, seq);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let p = problem(&[6, 6], 6, 6, Stencil::nearest_neighbor_with_hops(2));
        let a = GraphMapper::with_seed(11).compute(&p).unwrap();
        let b = GraphMapper::with_seed(11).compute(&p).unwrap();
        assert_eq!(a, b);
    }
}
