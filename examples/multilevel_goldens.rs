//! Regenerates the golden cut sizes asserted by `tests/multilevel_goldens.rs`.
//!
//! The goldens pin the end-to-end multilevel pipeline (coarsening → initial
//! bisection → FM projection → recursive bisection) on a fixed instance set,
//! complementing `fm_goldens` which pins the refinement stage alone.  They
//! were captured from the flat-array coarsening rework (PR 10); the
//! regression test asserts the pipeline never cuts worse than these numbers.
//! Run with:
//!
//! ```text
//! cargo run --release --example multilevel_goldens
//! ```
//!
//! and compare the printed table against the `GOLDENS` constant in the test.

use stencilmap::partition::{partition, Graph, PartitionConfig};

/// Vertex/edge weighting of a golden instance.
#[derive(Clone, Copy, Debug)]
pub enum Weighting {
    /// Unit vertex and edge weights.
    Unit,
    /// Vertex `v` weighs `1 + (v % 3)`; unit edge weights.
    VertexMod3,
    /// Unit vertex weights; horizontal edges weigh 3, vertical edges 1
    /// (heavy-edge matching must prefer rows).
    HeavyRows,
}

/// The fixed instance set: `(rows, cols, parts, seed, weighting)` grid
/// partitioning problems.  Instances are large enough that every one runs
/// through multiple coarsening levels (coarsening stops at 48 vertices).
pub const INSTANCES: &[(u32, u32, usize, u64, Weighting)] = &[
    (40, 40, 8, 1, Weighting::Unit),
    (40, 40, 8, 5, Weighting::Unit),
    (64, 32, 16, 2, Weighting::Unit),
    (48, 48, 12, 3, Weighting::Unit),
    (60, 40, 10, 4, Weighting::Unit),
    (32, 32, 8, 1, Weighting::VertexMod3),
    (48, 32, 12, 6, Weighting::VertexMod3),
    (56, 44, 7, 2, Weighting::VertexMod3),
    (40, 40, 8, 7, Weighting::HeavyRows),
];

/// Builds the `rows x cols` 4-point grid graph of a golden instance.
pub fn instance_graph(rows: u32, cols: u32, weighting: Weighting) -> Graph {
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            let v = r * cols + c;
            if c + 1 < cols {
                let w = match weighting {
                    Weighting::HeavyRows => 3,
                    _ => 1,
                };
                edges.push((v, v + 1, w));
            }
            if r + 1 < rows {
                edges.push((v, v + cols, 1));
            }
        }
    }
    let mut g = Graph::from_edges((rows * cols) as usize, &edges);
    if let Weighting::VertexMod3 = weighting {
        for v in 0..g.num_vertices() {
            g.set_vertex_weight(v, 1 + (v % 3) as u32);
        }
    }
    g
}

/// Fair-share part sizes: total vertex weight split as evenly as integer
/// targets allow (the first `total % parts` parts get one extra unit).
pub fn fair_sizes(g: &Graph, parts: usize) -> Vec<usize> {
    let total = g.total_vertex_weight() as usize;
    (0..parts)
        .map(|i| total / parts + usize::from(i < total % parts))
        .collect()
}

fn main() {
    println!("// (rows, cols, parts, seed, weighting, cut)");
    for &(rows, cols, parts, seed, weighting) in INSTANCES {
        let g = instance_graph(rows, cols, weighting);
        let sizes = fair_sizes(&g, parts);
        let cfg = PartitionConfig::new(sizes.clone()).with_seed(seed);
        let assignment = partition(&g, &cfg).unwrap();
        let weights = g.part_weights(&assignment, parts);
        let max_dev = weights
            .iter()
            .zip(&sizes)
            .map(|(&w, &s)| (w as i64 - s as i64).unsigned_abs())
            .max()
            .unwrap();
        println!(
            "({rows}, {cols}, {parts}, {seed}, Weighting::{weighting:?}, {}), // max part-size deviation {max_dev}",
            g.cut(&assignment)
        );
    }
}
