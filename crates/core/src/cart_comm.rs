//! `MPIX_Cart_stencil_comm`-style front-end (Listing 1 of the paper).
//!
//! The paper proposes an interface that extends `MPI_Cart_create` with an
//! explicit stencil so that the library can reorder ranks for arbitrary
//! `k`-neighborhoods.  [`CartStencilComm`] is the library-level equivalent:
//! it takes the grid, the stencil, the node allocation and a reordering
//! [`Algorithm`] and exposes the resulting rank permutation together with
//! topology queries (new/old ranks, coordinates, stencil neighbors).
//!
//! The actual message-passing communicator built on top of this lives in the
//! `mpc-sim` crate; this module is the pure, reusable computation.

use crate::baselines::Blocked;
use crate::hyperplane::Hyperplane;
use crate::kdtree::KdTree;
use crate::metrics::{evaluate, MappingCost};
use crate::nodecart::Nodecart;
use crate::problem::{MapError, Mapper, MappingProblem, RankLocalMapper};
use crate::stencil_strips::StencilStrips;
use crate::viem::GraphMapper;
use crate::Mapping;
use stencil_grid::{CartGraph, Coord, Dims, NodeAllocation, Stencil};

/// The reordering algorithm: the `reorder` argument of
/// `MPIX_Cart_stencil_comm`, the `"algorithm"` of a `stencil-serve`
/// request, and the one place that turns either into a mapper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Recursive bisection with stencil-aware cut selection (Section V-A).
    Hyperplane,
    /// k-d-tree-style recursive halving (Section V-B).
    KdTree,
    /// Strip decomposition scaled to the stencil bounding box (Section V-C).
    StencilStrips,
    /// Gropp's prime-factorisation Cartesian mapping.
    Nodecart,
    /// VieM-style multilevel partitioning + swap search (expensive).
    Viem,
    /// The blocked (identity) mapping, no reordering — `reorder = 0` in MPI
    /// terms.
    Blocked,
}

impl Algorithm {
    /// Parses a wire name.
    pub fn from_wire(name: &str) -> Result<Algorithm, String> {
        match name {
            "hyperplane" => Ok(Algorithm::Hyperplane),
            "kdtree" => Ok(Algorithm::KdTree),
            "stencil_strips" => Ok(Algorithm::StencilStrips),
            "nodecart" => Ok(Algorithm::Nodecart),
            "viem" => Ok(Algorithm::Viem),
            "blocked" => Ok(Algorithm::Blocked),
            other => Err(format!(
                "unknown algorithm {other:?} (expected hyperplane, kdtree, stencil_strips, \
                 nodecart, viem or blocked)"
            )),
        }
    }

    /// The wire name.
    pub fn wire_name(&self) -> &'static str {
        match self {
            Algorithm::Hyperplane => "hyperplane",
            Algorithm::KdTree => "kdtree",
            Algorithm::StencilStrips => "stencil_strips",
            Algorithm::Nodecart => "nodecart",
            Algorithm::Viem => "viem",
            Algorithm::Blocked => "blocked",
        }
    }

    /// Whether the algorithm uses the request seed (only the randomised
    /// `viem` pipeline does; keeping the seed out of the other algorithms'
    /// cache keys avoids pointless cache fragmentation).
    pub fn uses_seed(&self) -> bool {
        matches!(self, Algorithm::Viem)
    }

    /// Instantiates the mapper; `seed` drives the randomised `Viem`
    /// pipeline and is ignored by the others.
    pub fn mapper(&self, seed: u64) -> Box<dyn Mapper> {
        match self {
            Algorithm::Hyperplane => Box::new(Hyperplane::default()),
            Algorithm::KdTree => Box::new(KdTree),
            Algorithm::StencilStrips => Box::new(StencilStrips),
            Algorithm::Nodecart => Box::new(Nodecart),
            Algorithm::Viem => Box::new(GraphMapper::with_seed(seed)),
            Algorithm::Blocked => Box::new(Blocked),
        }
    }

    /// The single-rank form of the mapper, for the algorithms every process
    /// can run on its own (the paper's three and `Blocked`); `None` for
    /// Nodecart and `Viem`, which compute the whole mapping at once.
    pub fn rank_local(&self) -> Option<Box<dyn RankLocalMapper>> {
        Some(match self {
            Algorithm::Hyperplane => Box::new(Hyperplane::default()),
            Algorithm::KdTree => Box::new(KdTree),
            Algorithm::StencilStrips => Box::new(StencilStrips),
            Algorithm::Blocked => Box::new(Blocked),
            Algorithm::Nodecart | Algorithm::Viem => return None,
        })
    }
}

/// A stencil-aware Cartesian "communicator": the reordered rank layout for a
/// grid, stencil and node allocation.
#[derive(Debug, Clone)]
pub struct CartStencilComm {
    problem: MappingProblem,
    mapping: Mapping,
    algorithm: String,
}

impl CartStencilComm {
    /// Creates the communicator, mirroring the arguments of
    /// `MPIX_Cart_stencil_comm(oldcomm, ndims, dims, periods, reorder,
    /// stencil, k, &cartcomm)`.
    ///
    /// * `dims` / `periodic` — the Cartesian grid and its boundary condition,
    /// * `stencil` — the `k`-neighborhood,
    /// * `alloc` — the node allocation of the "old communicator",
    /// * `reorder` — the reordering algorithm ([`Algorithm::Blocked`] is
    ///   the MPI `reorder = 0` behaviour),
    /// * `seed` — seed for randomised algorithms.
    pub fn create(
        dims: Dims,
        periodic: bool,
        stencil: Stencil,
        alloc: NodeAllocation,
        reorder: Algorithm,
        seed: u64,
    ) -> Result<Self, MapError> {
        let problem = MappingProblem::with_periodicity(dims, stencil, alloc, periodic)?;
        let mapper = reorder.mapper(seed);
        let mapping = mapper.compute(&problem)?;
        Ok(CartStencilComm {
            problem,
            mapping,
            algorithm: mapper.name().to_string(),
        })
    }

    /// Creates the communicator from a flattened stencil array of length
    /// `k * ndims`, exactly like the C interface of Listing 1.
    #[allow(clippy::too_many_arguments)]
    pub fn create_from_flat(
        ndims: usize,
        dims: &[usize],
        periodic: bool,
        reorder: Algorithm,
        stencil_flat: &[i64],
        alloc: NodeAllocation,
        seed: u64,
    ) -> Result<Self, MapError> {
        let dims = Dims::new(dims.to_vec())?;
        let stencil = Stencil::from_flat(ndims, stencil_flat)?;
        Self::create(dims, periodic, stencil, alloc, reorder, seed)
    }

    /// The underlying mapping problem.
    pub fn problem(&self) -> &MappingProblem {
        &self.problem
    }

    /// The computed mapping (rank ↔ position permutation).
    pub fn mapping(&self) -> &Mapping {
        &self.mapping
    }

    /// Name of the algorithm that produced the reordering.
    pub fn algorithm(&self) -> &str {
        &self.algorithm
    }

    /// Number of processes in the communicator.
    pub fn size(&self) -> usize {
        self.problem.num_processes()
    }

    /// The new rank of a process identified by its old rank.
    pub fn new_rank_of(&self, old_rank: usize) -> usize {
        self.mapping.new_rank_of(old_rank)
    }

    /// The old rank of the process holding `new_rank` after reordering.
    pub fn old_rank_of(&self, new_rank: usize) -> usize {
        self.mapping.old_rank_of(new_rank)
    }

    /// The Cartesian coordinate associated with a new rank
    /// (`MPI_Cart_coords`).
    pub fn coords_of_new_rank(&self, new_rank: usize) -> Coord {
        self.problem.dims().coord_of(new_rank)
    }

    /// The new rank at the given Cartesian coordinate (`MPI_Cart_rank`).
    pub fn new_rank_at(&self, coord: &[usize]) -> usize {
        self.problem.dims().rank_of(coord)
    }

    /// The stencil neighbors of a new rank, as new ranks; out-of-grid
    /// neighbors are omitted (or wrapped if the grid is periodic).  This is
    /// the neighbor list a distributed-graph communicator would be created
    /// with.
    pub fn neighbors_of_new_rank(&self, new_rank: usize) -> Vec<usize> {
        let dims = self.problem.dims();
        let coord = dims.coord_of(new_rank);
        self.problem
            .stencil()
            .offsets()
            .iter()
            .filter_map(|off| {
                dims.offset_coord(&coord, off, self.problem.periodic())
                    .map(|c| dims.rank_of(&c))
            })
            .filter(|&t| t != new_rank)
            .collect()
    }

    /// The compute node hosting a given new rank.
    pub fn node_of_new_rank(&self, new_rank: usize) -> usize {
        self.mapping.node_of_position(new_rank)
    }

    /// Evaluates the communication cost (`Jsum` / `Jmax`) of this
    /// communicator's mapping.
    pub fn cost(&self) -> MappingCost {
        let graph = CartGraph::build(
            self.problem.dims(),
            self.problem.stencil(),
            self.problem.periodic(),
        );
        evaluate(&graph, &self.mapping)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comm(reorder: Algorithm) -> CartStencilComm {
        CartStencilComm::create(
            Dims::from_slice(&[8, 6]),
            false,
            Stencil::nearest_neighbor(2),
            NodeAllocation::homogeneous(4, 12),
            reorder,
            7,
        )
        .unwrap()
    }

    #[test]
    fn none_reorder_is_identity() {
        let c = comm(Algorithm::Blocked);
        assert_eq!(c.algorithm(), "Blocked");
        assert_eq!(c.size(), 48);
        for r in 0..48 {
            assert_eq!(c.new_rank_of(r), r);
            assert_eq!(c.old_rank_of(r), r);
        }
    }

    #[test]
    fn reordering_improves_cost() {
        let blocked = comm(Algorithm::Blocked).cost();
        for alg in [
            Algorithm::Hyperplane,
            Algorithm::KdTree,
            Algorithm::StencilStrips,
        ] {
            let c = comm(alg);
            assert!(c.cost().j_sum <= blocked.j_sum, "{alg:?}");
            // permutation is consistent
            for r in 0..c.size() {
                assert_eq!(c.old_rank_of(c.new_rank_of(r)), r);
            }
        }
    }

    #[test]
    fn coordinates_and_neighbors_follow_the_grid() {
        let c = comm(Algorithm::Hyperplane);
        let coord = c.coords_of_new_rank(13);
        assert_eq!(c.new_rank_at(&coord), 13);
        let neigh = c.neighbors_of_new_rank(13);
        assert!(!neigh.is_empty() && neigh.len() <= 4);
        for t in neigh {
            let tc = c.coords_of_new_rank(t);
            let dist: i64 = coord
                .iter()
                .zip(&tc)
                .map(|(&a, &b)| (a as i64 - b as i64).abs())
                .sum();
            assert_eq!(dist, 1);
        }
    }

    #[test]
    fn periodic_neighbors_wrap() {
        let c = CartStencilComm::create(
            Dims::from_slice(&[4, 4]),
            true,
            Stencil::nearest_neighbor(2),
            NodeAllocation::homogeneous(4, 4),
            Algorithm::KdTree,
            0,
        )
        .unwrap();
        // every rank has exactly 4 neighbors on a periodic grid
        for r in 0..16 {
            assert_eq!(c.neighbors_of_new_rank(r).len(), 4);
        }
    }

    #[test]
    fn flat_interface_matches_listing_one() {
        // nearest neighbor stencil expressed as a flat array (k = 4, ndims = 2)
        let flat = [1i64, 0, -1, 0, 0, 1, 0, -1];
        let c = CartStencilComm::create_from_flat(
            2,
            &[8, 6],
            false,
            Algorithm::StencilStrips,
            &flat,
            NodeAllocation::homogeneous(4, 12),
            0,
        )
        .unwrap();
        assert_eq!(c.problem().stencil().k(), 4);
        assert_eq!(c.algorithm(), "Stencil Strips");
    }

    #[test]
    fn node_of_new_rank_is_consistent_with_mapping() {
        let c = comm(Algorithm::StencilStrips);
        for new_rank in 0..c.size() {
            let old = c.old_rank_of(new_rank);
            assert_eq!(
                c.node_of_new_rank(new_rank),
                c.problem().alloc().node_of_rank(old)
            );
        }
    }

    #[test]
    fn one_table_names_builds_and_classifies_every_algorithm() {
        // (algorithm, paper name, rank local)
        for (alg, name, rank_local) in [
            (Algorithm::Hyperplane, "Hyperplane", true),
            (Algorithm::KdTree, "k-d Tree", true),
            (Algorithm::StencilStrips, "Stencil Strips", true),
            (Algorithm::Nodecart, "Nodecart", false),
            (Algorithm::Viem, "VieM-style", false),
            (Algorithm::Blocked, "Blocked", true),
        ] {
            assert_eq!(Algorithm::from_wire(alg.wire_name()), Ok(alg));
            assert_eq!(alg.mapper(7).name(), name);
            assert_eq!(
                alg.rank_local().map(|m| m.local_name().to_string()),
                rank_local.then(|| name.to_string()),
            );
            assert_eq!(alg.uses_seed(), alg == Algorithm::Viem);
        }
        assert_eq!(
            Algorithm::from_wire("metis"),
            Err(
                "unknown algorithm \"metis\" (expected hyperplane, kdtree, stencil_strips, \
                 nodecart, viem or blocked)"
                    .to_string()
            )
        );
    }
}
