//! The `MPIX_Cart_stencil_comm` analogue: a stencil-aware, *reordered*
//! Cartesian communicator built on the message-passing runtime.
//!
//! Creation follows the paper's distributed scheme: for the rank-local
//! algorithms (the three new ones and no reordering, see
//! [`Algorithm::rank_local`]) every rank computes its own new coordinate
//! locally; for the sequential baselines (Nodecart, the VieM-style mapper)
//! rank 0 computes the permutation and scatters it.  An allgather then makes
//! the inverse permutation known to everybody so that neighborhood
//! collectives can route messages to the *old* ranks (threads) that own the
//! neighboring grid positions.

use crate::runtime::Process;
use stencil_grid::{Coord, Dims, NodeAllocation, Stencil};
use stencil_mapping::{Algorithm, MappingProblem};

/// A reordered, stencil-aware Cartesian communicator.
#[derive(Debug, Clone)]
pub struct StencilComm {
    dims: Dims,
    periodic: bool,
    stencil: Stencil,
    old_rank: usize,
    new_rank: usize,
    /// For every grid position (new rank), the old rank (thread) owning it.
    old_of_position: Vec<usize>,
    /// Destination grid positions, one per applicable stencil offset.
    destinations: Vec<usize>,
    /// Source grid positions, matched to the destinations (see
    /// [`Process::neighbor_alltoall`]).
    sources: Vec<usize>,
}

impl StencilComm {
    /// Creates the reordered communicator.  Mirrors
    /// `MPIX_Cart_stencil_comm(oldcomm, ndims, dims, periods, reorder, stencil, k, &cartcomm)`.
    pub fn create(
        process: &mut Process,
        dims: Dims,
        periodic: bool,
        stencil: Stencil,
        alloc: NodeAllocation,
        reorder: Algorithm,
        seed: u64,
    ) -> Self {
        assert_eq!(
            dims.volume(),
            process.size(),
            "grid volume must equal the communicator size"
        );
        let problem =
            MappingProblem::with_periodicity(dims.clone(), stencil.clone(), alloc, periodic)
                .expect("consistent communicator arguments");

        // --- compute this rank's new position -------------------------------
        let my_position = match reorder.rank_local() {
            Some(mapper) => dims.rank_of(&mapper.remap_rank(&problem, process.rank())),
            None => {
                // sequential algorithms: rank 0 computes, then scatters
                const SCATTER_TAG: u64 = (1 << 59) + 11;
                if process.rank() == 0 {
                    let mapping = reorder
                        .mapper(seed)
                        .compute(&problem)
                        .expect("mapper applicable to this instance");
                    for dest in 1..process.size() {
                        process.send(
                            dest,
                            SCATTER_TAG,
                            &mapping.position_of_rank(dest).to_le_bytes(),
                        );
                    }
                    mapping.position_of_rank(0)
                } else {
                    let data = process.recv(0, SCATTER_TAG);
                    usize::from_le_bytes(data.as_slice().try_into().expect("8-byte payload"))
                }
            }
        };

        // --- make the permutation globally known -----------------------------
        let position_of_old = process.allgather_usize(my_position);
        let mut old_of_position = vec![usize::MAX; dims.volume()];
        for (old, &pos) in position_of_old.iter().enumerate() {
            assert!(
                old_of_position[pos] == usize::MAX,
                "reordering must be a permutation"
            );
            old_of_position[pos] = old;
        }

        // --- derive the neighbor lists of the distributed graph -------------
        let my_coord = dims.coord_of(my_position);
        let mut destinations = Vec::with_capacity(stencil.k());
        let mut sources = Vec::with_capacity(stencil.k());
        for off in stencil.offsets() {
            if let Some(c) = dims.offset_coord(&my_coord, off, periodic) {
                let t = dims.rank_of(&c);
                if t != my_position {
                    destinations.push(t);
                }
            }
            let neg: Vec<i64> = off.iter().map(|&x| -x).collect();
            if let Some(c) = dims.offset_coord(&my_coord, &neg, periodic) {
                let t = dims.rank_of(&c);
                if t != my_position {
                    sources.push(t);
                }
            }
        }

        StencilComm {
            dims,
            periodic,
            stencil,
            old_rank: process.rank(),
            new_rank: my_position,
            old_of_position,
            destinations,
            sources,
        }
    }

    /// The grid dimensions.
    pub fn dims(&self) -> &Dims {
        &self.dims
    }

    /// The stencil the communicator was created with.
    pub fn stencil(&self) -> &Stencil {
        &self.stencil
    }

    /// Whether the grid wraps around.
    pub fn periodic(&self) -> bool {
        self.periodic
    }

    /// The calling process' rank in the *old* (world) communicator.
    pub fn old_rank(&self) -> usize {
        self.old_rank
    }

    /// The calling process' rank in the reordered communicator (equal to its
    /// row-major grid position).
    pub fn new_rank(&self) -> usize {
        self.new_rank
    }

    /// The calling process' grid coordinate after reordering.
    pub fn coords(&self) -> Coord {
        self.dims.coord_of(self.new_rank)
    }

    /// The old rank (thread) that owns a given grid position / new rank.
    pub fn old_rank_of_position(&self, position: usize) -> usize {
        self.old_of_position[position]
    }

    /// Outgoing neighbor positions (new ranks), one per in-grid stencil
    /// offset, in stencil order.
    pub fn destinations(&self) -> &[usize] {
        &self.destinations
    }

    /// Incoming neighbor positions (new ranks) matched to
    /// [`StencilComm::destinations`].
    pub fn sources(&self) -> &[usize] {
        &self.sources
    }

    /// Number of outgoing neighbors.
    pub fn out_degree(&self) -> usize {
        self.destinations.len()
    }

    /// Neighborhood all-to-all over the reordered topology
    /// (`MPI_Neighbor_alltoall`): `send[i]` goes to the process owning
    /// `destinations()[i]`; the result holds one chunk per entry of
    /// `sources()`.
    pub fn neighbor_alltoall(&self, process: &mut Process, send: &[Vec<u8>]) -> Vec<Vec<u8>> {
        assert_eq!(send.len(), self.destinations.len());
        let dest_old: Vec<usize> = self
            .destinations
            .iter()
            .map(|&p| self.old_of_position[p])
            .collect();
        let src_old: Vec<usize> = self
            .sources
            .iter()
            .map(|&p| self.old_of_position[p])
            .collect();
        process.neighbor_alltoall(&dest_old, &src_old, send)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Runtime;
    use stencil_grid::{Dims, NodeAllocation, Stencil};

    fn run_exchange(reorder: Algorithm) {
        // 6x4 grid on 4 nodes x 6 processes; every process sends its new rank
        // to each neighbor and checks that what it receives matches the
        // sender's position on the grid.
        let results = Runtime::run(24, move |mut p| {
            let comm = StencilComm::create(
                &mut p,
                Dims::from_slice(&[6, 4]),
                false,
                Stencil::nearest_neighbor(2),
                NodeAllocation::homogeneous(4, 6),
                reorder,
                3,
            );
            let send: Vec<Vec<u8>> = comm
                .destinations()
                .iter()
                .map(|_| (comm.new_rank() as u32).to_le_bytes().to_vec())
                .collect();
            let recv = comm.neighbor_alltoall(&mut p, &send);
            // verify: the chunk received from sources()[i] carries exactly
            // that position
            for (i, chunk) in recv.iter().enumerate() {
                let got = u32::from_le_bytes(chunk.as_slice().try_into().unwrap()) as usize;
                assert_eq!(got, comm.sources()[i]);
            }
            (comm.old_rank(), comm.new_rank())
        });
        // the new ranks form a permutation
        let mut new_ranks: Vec<usize> = results.iter().map(|&(_, n)| n).collect();
        new_ranks.sort_unstable();
        assert_eq!(new_ranks, (0..24).collect::<Vec<_>>());
    }

    #[test]
    fn exchange_correct_without_reordering() {
        run_exchange(Algorithm::Blocked);
    }

    #[test]
    fn exchange_correct_with_hyperplane() {
        run_exchange(Algorithm::Hyperplane);
    }

    #[test]
    fn exchange_correct_with_kdtree() {
        run_exchange(Algorithm::KdTree);
    }

    #[test]
    fn exchange_correct_with_stencil_strips() {
        run_exchange(Algorithm::StencilStrips);
    }

    #[test]
    fn exchange_correct_with_nodecart_scatter_path() {
        run_exchange(Algorithm::Nodecart);
    }

    #[test]
    fn periodic_communicator_has_full_neighborhood() {
        let results = Runtime::run(16, |mut p| {
            let comm = StencilComm::create(
                &mut p,
                Dims::from_slice(&[4, 4]),
                true,
                Stencil::nearest_neighbor(2),
                NodeAllocation::homogeneous(4, 4),
                Algorithm::KdTree,
                0,
            );
            comm.out_degree()
        });
        assert!(results.iter().all(|&d| d == 4));
    }

    #[test]
    fn new_rank_matches_library_mapping() {
        // The communicator's permutation must agree with the library-level
        // CartStencilComm (pure computation).
        use stencil_mapping::CartStencilComm;
        let lib = CartStencilComm::create(
            Dims::from_slice(&[6, 4]),
            false,
            Stencil::nearest_neighbor(2),
            NodeAllocation::homogeneous(4, 6),
            Algorithm::StencilStrips,
            0,
        )
        .unwrap();
        let results = Runtime::run(24, |mut p| {
            let comm = StencilComm::create(
                &mut p,
                Dims::from_slice(&[6, 4]),
                false,
                Stencil::nearest_neighbor(2),
                NodeAllocation::homogeneous(4, 6),
                Algorithm::StencilStrips,
                0,
            );
            comm.new_rank()
        });
        for (old_rank, &new_rank) in results.iter().enumerate() {
            assert_eq!(new_rank, lib.new_rank_of(old_rank));
        }
    }
}
