//! Trivial baseline mappings: blocked, round-robin and random.
//!
//! The *blocked* assignment is the reference every algorithm is compared
//! against in the paper ("Standard"); *Random* appears in the appendix tables
//! and is consistently the worst mapping; *RoundRobin* (cyclic) is included
//! as an additional adversarial baseline often produced by schedulers.

use crate::problem::{MapError, MapWorkspace, Mapper, MappingProblem, RankLocalMapper};
use crate::Mapping;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use stencil_grid::coords::rank_to_coord_into;

/// The blocked (identity) mapping: rank `r` owns grid position `r`, so node
/// `i` owns a contiguous row-major block of `n_i` grid cells.  This is what
/// MPI implementations do when `MPI_Cart_create` does not reorder.
#[derive(Debug, Clone, Copy, Default)]
pub struct Blocked;

impl RankLocalMapper for Blocked {
    fn local_name(&self) -> &str {
        "Blocked"
    }

    fn remap_rank_into(
        &self,
        problem: &MappingProblem,
        rank: usize,
        _ws: &mut MapWorkspace,
        out: &mut [usize],
    ) {
        rank_to_coord_into(rank, problem.dims().as_slice(), out);
    }
}

/// A cyclic (round-robin) assignment: grid positions are dealt to the nodes
/// one at a time, so consecutive grid cells land on different nodes.  This is
/// close to the worst possible mapping for stencil communication.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobin;

impl Mapper for RoundRobin {
    fn name(&self) -> &str {
        "RoundRobin"
    }

    fn compute(&self, problem: &MappingProblem) -> Result<Mapping, MapError> {
        let p = problem.num_processes();
        let n_nodes = problem.num_nodes();
        let alloc = problem.alloc();
        // Deal positions to nodes cyclically, skipping nodes that are full.
        let mut remaining: Vec<usize> = (0..n_nodes).map(|i| alloc.node_size(i)).collect();
        let mut node_of_position = Vec::with_capacity(p);
        let mut next = 0usize;
        for _ in 0..p {
            let mut tries = 0;
            while remaining[next] == 0 {
                next = (next + 1) % n_nodes;
                tries += 1;
                debug_assert!(tries <= n_nodes, "allocation exhausted prematurely");
            }
            node_of_position.push(next);
            remaining[next] -= 1;
            next = (next + 1) % n_nodes;
        }
        Mapping::from_node_of_position(problem, &node_of_position)
    }
}

/// A uniformly random assignment of grid positions to nodes (respecting the
/// allocation sizes), seeded for reproducibility.
#[derive(Debug, Clone)]
pub struct RandomMapping {
    seed: u64,
}

impl Default for RandomMapping {
    fn default() -> Self {
        RandomMapping { seed: 0x5713 }
    }
}

impl RandomMapping {
    /// Creates a random mapping generator with an explicit seed.
    pub fn with_seed(seed: u64) -> Self {
        RandomMapping { seed }
    }
}

impl Mapper for RandomMapping {
    fn name(&self) -> &str {
        "Random"
    }

    fn compute(&self, problem: &MappingProblem) -> Result<Mapping, MapError> {
        let p = problem.num_processes();
        let mut positions: Vec<usize> = (0..p).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        positions.shuffle(&mut rng);
        Mapping::from_positions(problem, positions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::evaluate;
    use stencil_grid::{CartGraph, Dims, NodeAllocation, Stencil};

    fn problem() -> MappingProblem {
        MappingProblem::new(
            Dims::from_slice(&[6, 4]),
            Stencil::nearest_neighbor(2),
            NodeAllocation::homogeneous(6, 4),
        )
        .unwrap()
    }

    #[test]
    fn blocked_is_identity() {
        let p = problem();
        let m = Blocked.compute(&p).unwrap();
        for r in 0..p.num_processes() {
            assert_eq!(m.position_of_rank(r), r);
        }
        assert_eq!(Mapper::name(&Blocked), "Blocked");
    }

    #[test]
    fn round_robin_spreads_consecutive_cells() {
        let p = problem();
        let m = RoundRobin.compute(&p).unwrap();
        assert!(m.respects_allocation(p.alloc()));
        // consecutive positions land on different nodes
        for x in 0..p.num_processes() - 1 {
            assert_ne!(m.node_of_position(x), m.node_of_position(x + 1));
        }
        assert_eq!(RoundRobin.name(), "RoundRobin");
    }

    #[test]
    fn round_robin_heterogeneous_allocation() {
        let p = MappingProblem::new(
            Dims::from_slice(&[3, 3]),
            Stencil::nearest_neighbor(2),
            NodeAllocation::heterogeneous(vec![5, 2, 2]).unwrap(),
        )
        .unwrap();
        let m = RoundRobin.compute(&p).unwrap();
        assert!(m.respects_allocation(p.alloc()));
        assert_eq!(m.node_loads(), vec![5, 2, 2]);
    }

    #[test]
    fn random_is_reproducible_and_seed_sensitive() {
        let p = problem();
        let a = RandomMapping::with_seed(7).compute(&p).unwrap();
        let b = RandomMapping::with_seed(7).compute(&p).unwrap();
        let c = RandomMapping::with_seed(8).compute(&p).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.respects_allocation(p.alloc()));
        assert_eq!(RandomMapping::default().name(), "Random");
    }

    #[test]
    fn baselines_are_ordered_blocked_best_on_stencils() {
        // On a nearest-neighbor stencil the blocked mapping is strictly
        // better than round robin and random (with very high probability).
        let p = problem();
        let g = CartGraph::build(p.dims(), p.stencil(), false);
        let blocked = evaluate(&g, &Blocked.compute(&p).unwrap());
        let rr = evaluate(&g, &RoundRobin.compute(&p).unwrap());
        let rnd = evaluate(&g, &RandomMapping::with_seed(3).compute(&p).unwrap());
        assert!(blocked.j_sum < rr.j_sum);
        assert!(blocked.j_sum <= rnd.j_sum);
    }
}
