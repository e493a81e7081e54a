//! The result of a mapping algorithm: a rank ↔ grid-position permutation and
//! the induced process-to-node assignment.

use crate::problem::{MapError, MappingProblem};
use stencil_grid::{Coord, Dims, NodeAllocation};

/// A process-to-node mapping.
///
/// Conceptually this is the mapping function `M : V → N` of the paper: every
/// grid position (vertex of the Cartesian graph) is assigned to a compute
/// node.  Because the scheduler's allocation of *ranks* to nodes is fixed
/// (node `i` owns the contiguous rank block of size `n_i`), the mapping is
/// represented as a permutation between ranks and grid positions: rank `r`
/// owns grid position `position_of_rank(r)`, and consequently that position
/// is located on node `alloc.node_of_rank(r)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mapping {
    dims: Dims,
    num_nodes: usize,
    /// `position_of_rank[r]` = row-major index of the grid position owned by rank `r`.
    position_of_rank: Vec<usize>,
    /// Inverse permutation: `rank_of_position[x]` = rank owning grid position `x`.
    rank_of_position: Vec<usize>,
    /// `node_of_position[x]` = compute node that grid position `x` resides on.
    node_of_position: Vec<usize>,
}

impl Mapping {
    /// Builds a mapping from the new coordinates computed for every rank
    /// (the natural output of the paper's distributed algorithms).
    ///
    /// Fails if the coordinates do not form a permutation of the grid cells.
    pub fn from_rank_coords(problem: &MappingProblem, coords: &[Coord]) -> Result<Self, MapError> {
        let dims = problem.dims();
        let p = dims.volume();
        if coords.len() != p {
            return Err(MapError::InvalidResult(format!(
                "expected {p} coordinates, got {}",
                coords.len()
            )));
        }
        let mut position_of_rank = Vec::with_capacity(p);
        for (r, c) in coords.iter().enumerate() {
            if !dims.contains(c) {
                return Err(MapError::InvalidResult(format!(
                    "rank {r} was assigned out-of-grid coordinate {c:?}"
                )));
            }
            position_of_rank.push(dims.rank_of(c));
        }
        Self::from_positions(problem, position_of_rank)
    }

    /// Builds a mapping from the linear grid position assigned to every rank.
    pub fn from_positions(
        problem: &MappingProblem,
        position_of_rank: Vec<usize>,
    ) -> Result<Self, MapError> {
        let dims = problem.dims().clone();
        let alloc = problem.alloc();
        let p = dims.volume();
        if position_of_rank.len() != p {
            return Err(MapError::InvalidResult(format!(
                "expected {p} positions, got {}",
                position_of_rank.len()
            )));
        }
        let mut rank_of_position = vec![usize::MAX; p];
        for (r, &x) in position_of_rank.iter().enumerate() {
            if x >= p {
                return Err(MapError::InvalidResult(format!(
                    "rank {r} was assigned out-of-range position {x}"
                )));
            }
            if rank_of_position[x] != usize::MAX {
                return Err(MapError::InvalidResult(format!(
                    "position {x} assigned to both rank {} and rank {r}",
                    rank_of_position[x]
                )));
            }
            rank_of_position[x] = r;
        }
        // each node owns a contiguous rank range
        let mut node_of_position = vec![0usize; p];
        for node in 0..alloc.num_nodes() {
            for &x in &position_of_rank[alloc.ranks_of_node(node)] {
                node_of_position[x] = node;
            }
        }
        Ok(Mapping {
            dims,
            num_nodes: alloc.num_nodes(),
            position_of_rank,
            rank_of_position,
            node_of_position,
        })
    }

    /// The identity (blocked) mapping: rank `r` owns grid position `r`.
    pub fn identity(problem: &MappingProblem) -> Self {
        let p = problem.num_processes();
        Self::from_positions(problem, (0..p).collect()).expect("identity is always valid")
    }

    /// Builds a mapping directly from a `position → node` assignment.
    ///
    /// Ranks of each node are assigned to the node's positions in increasing
    /// position order.  Fails if the per-node position counts do not match
    /// the allocation sizes.
    pub fn from_node_of_position(
        problem: &MappingProblem,
        node_of_position: &[usize],
    ) -> Result<Self, MapError> {
        let alloc = problem.alloc();
        let p = problem.num_processes();
        if node_of_position.len() != p {
            return Err(MapError::InvalidResult(format!(
                "expected {p} node assignments, got {}",
                node_of_position.len()
            )));
        }
        let mut counts = vec![0usize; alloc.num_nodes()];
        for &nd in node_of_position {
            if nd >= alloc.num_nodes() {
                return Err(MapError::InvalidResult(format!("node {nd} out of range")));
            }
            counts[nd] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            if c != alloc.node_size(i) {
                return Err(MapError::InvalidResult(format!(
                    "node {i} received {c} positions but hosts {} processes",
                    alloc.node_size(i)
                )));
            }
        }
        // Hand the node's positions to its ranks in increasing order.
        let mut next_rank: Vec<usize> = (0..alloc.num_nodes())
            .map(|i| alloc.ranks_of_node(i).start)
            .collect();
        let mut position_of_rank = vec![usize::MAX; p];
        for (x, &nd) in node_of_position.iter().enumerate() {
            let r = next_rank[nd];
            next_rank[nd] += 1;
            position_of_rank[r] = x;
        }
        Self::from_positions(problem, position_of_rank)
    }

    /// Grid dimensions of the mapping.
    pub fn dims(&self) -> &Dims {
        &self.dims
    }

    /// Number of compute nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of processes / grid positions.
    pub fn num_processes(&self) -> usize {
        self.position_of_rank.len()
    }

    /// The linear grid position owned by `rank`.
    #[inline]
    pub fn position_of_rank(&self, rank: usize) -> usize {
        self.position_of_rank[rank]
    }

    /// The grid coordinate owned by `rank`.
    pub fn coord_of_rank(&self, rank: usize) -> Coord {
        self.dims.coord_of(self.position_of_rank[rank])
    }

    /// The rank owning the given linear grid position.
    #[inline]
    pub fn rank_of_position(&self, position: usize) -> usize {
        self.rank_of_position[position]
    }

    /// The compute node on which the given linear grid position resides.
    #[inline]
    pub fn node_of_position(&self, position: usize) -> usize {
        self.node_of_position[position]
    }

    /// The compute node of a grid coordinate.
    pub fn node_of_coord(&self, coord: &[usize]) -> usize {
        self.node_of_position[self.dims.rank_of(coord)]
    }

    /// The full `position → node` assignment.
    pub fn node_of_position_slice(&self) -> &[usize] {
        &self.node_of_position
    }

    /// The full `rank → position` permutation.
    pub fn position_of_rank_slice(&self) -> &[usize] {
        &self.position_of_rank
    }

    /// The new MPI rank of a process after reordering: the row-major rank of
    /// its new coordinate (as `MPI_Cart_create` with `reorder = 1` would
    /// return).
    #[inline]
    pub fn new_rank_of(&self, old_rank: usize) -> usize {
        self.position_of_rank[old_rank]
    }

    /// The old rank of the process that ends up with `new_rank` after
    /// reordering.
    #[inline]
    pub fn old_rank_of(&self, new_rank: usize) -> usize {
        self.rank_of_position[new_rank]
    }

    /// Checks that the mapping respects the allocation: node `i` owns exactly
    /// `n_i` grid positions.
    pub fn respects_allocation(&self, alloc: &NodeAllocation) -> bool {
        if alloc.num_nodes() != self.num_nodes {
            return false;
        }
        let mut counts = vec![0usize; self.num_nodes];
        for &nd in &self.node_of_position {
            counts[nd] += 1;
        }
        counts
            .iter()
            .enumerate()
            .all(|(i, &c)| c == alloc.node_size(i))
    }

    /// Returns the number of positions each node owns.
    pub fn node_loads(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_nodes];
        for &nd in &self.node_of_position {
            counts[nd] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::MappingProblem;
    use proptest::prelude::*;
    use stencil_grid::{Dims, NodeAllocation, Stencil};

    fn problem(d0: usize, d1: usize, nodes: usize, per: usize) -> MappingProblem {
        MappingProblem::new(
            Dims::from_slice(&[d0, d1]),
            Stencil::nearest_neighbor(2),
            NodeAllocation::homogeneous(nodes, per),
        )
        .unwrap()
    }

    #[test]
    fn identity_mapping_is_blocked() {
        let p = problem(4, 4, 4, 4);
        let m = Mapping::identity(&p);
        assert_eq!(m.num_processes(), 16);
        assert_eq!(m.num_nodes(), 4);
        for r in 0..16 {
            assert_eq!(m.position_of_rank(r), r);
            assert_eq!(m.rank_of_position(r), r);
            assert_eq!(m.node_of_position(r), r / 4);
            assert_eq!(m.new_rank_of(r), r);
            assert_eq!(m.old_rank_of(r), r);
        }
        assert!(m.respects_allocation(p.alloc()));
        assert_eq!(m.node_loads(), vec![4, 4, 4, 4]);
    }

    #[test]
    fn from_rank_coords_builds_permutation() {
        let p = problem(2, 2, 2, 2);
        // transpose the grid
        let coords = vec![vec![0, 0], vec![1, 0], vec![0, 1], vec![1, 1]];
        let m = Mapping::from_rank_coords(&p, &coords).unwrap();
        assert_eq!(m.coord_of_rank(1), vec![1, 0]);
        assert_eq!(m.position_of_rank(1), 2);
        assert_eq!(m.rank_of_position(2), 1);
        // node of position (1,0): owned by rank 1 which lives on node 0
        assert_eq!(m.node_of_coord(&[1, 0]), 0);
        assert_eq!(m.node_of_coord(&[0, 1]), 1);
    }

    #[test]
    fn from_rank_coords_rejects_bad_input() {
        let p = problem(2, 2, 2, 2);
        // wrong length
        assert!(Mapping::from_rank_coords(&p, &[vec![0, 0]]).is_err());
        // out of grid
        let coords = vec![vec![0, 0], vec![0, 1], vec![1, 0], vec![2, 0]];
        assert!(Mapping::from_rank_coords(&p, &coords).is_err());
        // duplicate
        let coords = vec![vec![0, 0], vec![0, 1], vec![1, 0], vec![0, 0]];
        assert!(matches!(
            Mapping::from_rank_coords(&p, &coords),
            Err(MapError::InvalidResult(_))
        ));
    }

    #[test]
    fn from_positions_rejects_out_of_range() {
        let p = problem(2, 2, 2, 2);
        assert!(Mapping::from_positions(&p, vec![0, 1, 2, 7]).is_err());
        assert!(Mapping::from_positions(&p, vec![0, 1, 2]).is_err());
    }

    #[test]
    fn from_node_of_position_respects_allocation() {
        let p = problem(2, 2, 2, 2);
        let m = Mapping::from_node_of_position(&p, &[1, 0, 0, 1]).unwrap();
        assert!(m.respects_allocation(p.alloc()));
        assert_eq!(m.node_of_position(0), 1);
        assert_eq!(m.node_of_position(1), 0);
        // ranks 0,1 live on node 0 and must own positions 1 and 2
        assert_eq!(m.position_of_rank(0), 1);
        assert_eq!(m.position_of_rank(1), 2);
        // unbalanced assignment is rejected
        assert!(Mapping::from_node_of_position(&p, &[0, 0, 0, 1]).is_err());
        assert!(Mapping::from_node_of_position(&p, &[0, 0, 1, 5]).is_err());
        assert!(Mapping::from_node_of_position(&p, &[0, 0, 1]).is_err());
    }

    #[test]
    fn heterogeneous_allocation_node_of_position() {
        let prob = MappingProblem::new(
            Dims::from_slice(&[3, 2]),
            Stencil::nearest_neighbor(2),
            NodeAllocation::heterogeneous(vec![4, 2]).unwrap(),
        )
        .unwrap();
        let m = Mapping::identity(&prob);
        assert_eq!(m.node_of_position(3), 0);
        assert_eq!(m.node_of_position(4), 1);
        assert_eq!(m.node_loads(), vec![4, 2]);
        assert!(m.respects_allocation(prob.alloc()));
        assert!(!m.respects_allocation(&NodeAllocation::homogeneous(2, 3)));
        assert!(!m.respects_allocation(&NodeAllocation::homogeneous(3, 2)));
    }

    proptest! {
        #[test]
        fn prop_random_permutation_roundtrips(seed in 0u64..500) {
            use rand::prelude::*;
            use rand::seq::SliceRandom;
            let p = problem(4, 6, 6, 4);
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut positions: Vec<usize> = (0..24).collect();
            positions.shuffle(&mut rng);
            let m = Mapping::from_positions(&p, positions.clone()).unwrap();
            for (r, &pos) in positions.iter().enumerate() {
                prop_assert_eq!(m.position_of_rank(r), pos);
                prop_assert_eq!(m.rank_of_position(pos), r);
                prop_assert_eq!(m.old_rank_of(m.new_rank_of(r)), r);
            }
            prop_assert!(m.respects_allocation(p.alloc()));
        }
    }
}
