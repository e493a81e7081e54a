//! # stencil-grid
//!
//! Cartesian process grids, stencil communication patterns and the induced
//! communication graphs, as defined in Section II of
//! *"Efficient Process-to-Node Mapping Algorithms for Stencil Computations"*
//! (Hunold et al., IEEE CLUSTER 2020).
//!
//! The crate provides the vocabulary types shared by every other crate in the
//! workspace:
//!
//! * [`Dims`] — the dimension sizes `D = [d_0, …, d_{d-1}]` of a Cartesian
//!   process grid together with row-major rank/coordinate conversions,
//! * [`Stencil`] — a `k`-neighborhood given as relative offset vectors,
//!   including constructors for the three stencils used throughout the paper
//!   (nearest neighbor, component, nearest neighbor with hops),
//! * [`CartGraph`] — the Cartesian communication graph induced by a grid and
//!   a stencil (optionally with periodic boundaries),
//! * [`NodeAllocation`] — the `N × n` (or heterogeneous) allocation of
//!   processes to compute nodes handed to the application by the scheduler,
//! * [`dims_create()`] — an `MPI_Dims_create`-style balanced factorisation used
//!   to build the grids of the experimental evaluation.
//!
//! # Example
//!
//! ```
//! use stencil_grid::{Dims, Stencil, CartGraph, NodeAllocation};
//!
//! // The headline instance of the paper: a 50 x 48 grid on 50 nodes with
//! // 48 processes each, communicating in a nearest-neighbor pattern.
//! let dims = Dims::new(vec![50, 48]).unwrap();
//! let stencil = Stencil::nearest_neighbor(2);
//! let graph = CartGraph::build(&dims, &stencil, false);
//! let alloc = NodeAllocation::homogeneous(50, 48);
//!
//! assert_eq!(dims.volume(), 2400);
//! assert_eq!(alloc.total_processes(), 2400);
//! assert_eq!(graph.num_vertices(), 2400);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod alloc;
pub mod coords;
pub mod dims;
pub mod dims_create;
pub mod graph;
pub mod stencil;

pub use alloc::NodeAllocation;
pub use coords::{coord_to_rank, rank_to_coord, Coord};
pub use dims::Dims;
pub use dims_create::{dims_create, prime_factors};
pub use graph::CartGraph;
pub use stencil::{NamedStencil, Offset, Stencil};

/// Crate-wide error type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GridError {
    /// A dimension size of zero was supplied.
    ZeroDimension,
    /// An empty dimension list was supplied.
    EmptyDims,
    /// The stencil dimensionality does not match the grid dimensionality.
    DimensionMismatch {
        /// Dimensionality expected by the grid.
        expected: usize,
        /// Dimensionality found in the offending object.
        found: usize,
    },
    /// A node allocation does not cover the requested number of processes.
    AllocationMismatch {
        /// Number of grid cells (processes) required.
        required: usize,
        /// Number of processes provided by the allocation.
        provided: usize,
    },
    /// A stencil without any offsets was supplied where a non-empty one is
    /// required.
    EmptyStencil,
}

impl std::fmt::Display for GridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridError::ZeroDimension => write!(f, "dimension sizes must be positive"),
            GridError::EmptyDims => write!(f, "at least one dimension is required"),
            GridError::DimensionMismatch { expected, found } => write!(
                f,
                "dimension mismatch: expected {expected} dimensions, found {found}"
            ),
            GridError::AllocationMismatch { required, provided } => write!(
                f,
                "allocation provides {provided} processes but the grid has {required} cells"
            ),
            GridError::EmptyStencil => write!(f, "stencil must contain at least one offset"),
        }
    }
}

impl std::error::Error for GridError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = GridError::DimensionMismatch {
            expected: 2,
            found: 3,
        };
        assert!(e.to_string().contains("expected 2"));
        let e = GridError::AllocationMismatch {
            required: 100,
            provided: 90,
        };
        assert!(e.to_string().contains("90"));
        assert!(GridError::ZeroDimension.to_string().contains("positive"));
        assert!(GridError::EmptyDims.to_string().contains("dimension"));
        assert!(GridError::EmptyStencil.to_string().contains("offset"));
    }
}
