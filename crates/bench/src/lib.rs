//! # stencil-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! evaluation section of the paper.  The heavy lifting lives in this library
//! crate so that the command-line binaries (`figure6_7`, `figure8`,
//! `figure9`, `tables`, `perf_baseline`) share the same code, and so that
//! integration tests can exercise the harness on shrunk instances.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod figures;
pub mod perfcheck;
pub mod report;
pub mod timing;

pub use figures::{
    Figure67Config, Figure67Row, Figure8Config, Figure8Row, ScoreRow, TableConfig, TableRow,
};
pub use report::{format_markdown_table, format_seconds};
pub use timing::{time_instantiations, InstantiationTiming};

use stencil_grid::{Dims, NodeAllocation};
use stencil_mapping::analysis::StencilKind;
use stencil_mapping::MappingProblem;

/// Returns the value following `flag` in an argument list — the shared
/// minimal flag parsing of the benchmark binaries (`perf_baseline`,
/// `perf_check`, `loadgen`, the figure emitters).
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// The two throughput-experiment scales of the paper: 50 nodes (50×48 grid)
/// and 100 nodes (75×64 grid), both with 48 processes per node.
pub fn paper_throughput_instance(nodes: usize, stencil: StencilKind) -> MappingProblem {
    let per_node = 48usize;
    let dims = stencil_grid::dims_create(nodes * per_node, 2);
    MappingProblem::new(
        Dims::new(dims).expect("valid dims"),
        stencil.build(2),
        NodeAllocation::homogeneous(nodes, per_node),
    )
    .expect("consistent paper instance")
}

/// A shrunk variant of the throughput instance for fast tests and `--quick`
/// runs: 8 nodes with 12 processes each.
pub fn quick_throughput_instance(stencil: StencilKind) -> MappingProblem {
    let dims = stencil_grid::dims_create(8 * 12, 2);
    MappingProblem::new(
        Dims::new(dims).expect("valid dims"),
        stencil.build(2),
        NodeAllocation::homogeneous(8, 12),
    )
    .expect("consistent quick instance")
}

/// Builds the stencil used by the figure-9 instantiation benchmark (the
/// largest nearest-neighbor instance of Section VI-D, i.e. N = 100).
pub fn figure9_instance() -> MappingProblem {
    paper_throughput_instance(100, StencilKind::NearestNeighbor)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_instances_have_expected_shapes() {
        let p50 = paper_throughput_instance(50, StencilKind::NearestNeighbor);
        assert_eq!(p50.dims().as_slice(), &[50, 48]);
        assert_eq!(p50.num_nodes(), 50);
        let p100 = paper_throughput_instance(100, StencilKind::Component);
        assert_eq!(p100.dims().as_slice(), &[75, 64]);
        assert_eq!(p100.num_nodes(), 100);
        let quick = quick_throughput_instance(StencilKind::NearestNeighborHops);
        assert_eq!(quick.num_processes(), 96);
        assert_eq!(figure9_instance().num_processes(), 4800);
    }
}
