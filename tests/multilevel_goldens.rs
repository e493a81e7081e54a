//! Golden regression suite for the end-to-end multilevel pipeline.
//!
//! `fm_goldens` pins the refinement stage; this suite pins the whole
//! pipeline — coarsening, initial bisection, FM projection and recursive
//! bisection — on a fixed instance set that includes non-unit vertex weights
//! and non-unit edge weights, so a coarsening rework cannot silently trade
//! quality for speed.  The `GOLDENS` table records the cuts produced by the
//! flat-array coarsening of PR 10; future implementations must never cut
//! worse than these numbers, and part sizes must stay exact.
//!
//! Regenerate the current implementation's numbers with
//! `cargo run --release --example multilevel_goldens`; the goldens are
//! historical and must not be bumped upwards.
//!
//! The suite also property-checks the hierarchy retention policy: retained
//! levels must shrink geometrically, so the peak retained memory of
//! `coarsen_hierarchy` stays O(n + m) regardless of instance shape or seed.

use stencilmap::partition::coarsen::coarsen_hierarchy;
use stencilmap::partition::{partition, Graph, PartitionConfig, Workspace};

use proptest::prelude::*;

/// Vertex/edge weighting of a golden instance.
#[derive(Clone, Copy, Debug)]
enum Weighting {
    /// Unit vertex and edge weights.
    Unit,
    /// Vertex `v` weighs `1 + (v % 3)`; unit edge weights.
    VertexMod3,
    /// Unit vertex weights; horizontal edges weigh 3, vertical edges 1
    /// (heavy-edge matching must prefer rows).
    HeavyRows,
}

/// `(rows, cols, parts, seed, weighting, cut)` — cuts recorded from the
/// flat-array coarsening rework (PR 10).  Must match the instance list in
/// `examples/multilevel_goldens.rs`.  Every instance is large enough to run
/// through multiple coarsening levels (coarsening stops at 48 vertices).
const GOLDENS: &[(u32, u32, usize, u64, Weighting, u64)] = &[
    (40, 40, 8, 1, Weighting::Unit, 160),
    (40, 40, 8, 5, Weighting::Unit, 160),
    (64, 32, 16, 2, Weighting::Unit, 288),
    (48, 48, 12, 3, Weighting::Unit, 258),
    (60, 40, 10, 4, Weighting::Unit, 232),
    (32, 32, 8, 1, Weighting::VertexMod3, 138),
    (48, 32, 12, 6, Weighting::VertexMod3, 219),
    (56, 44, 7, 2, Weighting::VertexMod3, 182),
    (40, 40, 8, 7, Weighting::HeavyRows, 240),
];

/// Builds the `rows x cols` 4-point grid graph of a golden instance.
fn instance_graph(rows: u32, cols: u32, weighting: Weighting) -> Graph {
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
fn fair_sizes(g: &Graph, parts: usize) -> Vec<usize> {
    let total = g.total_vertex_weight() as usize;
    (0..parts)
        .map(|i| total / parts + usize::from(i < total % parts))
        .collect()
}

#[test]
fn multilevel_pipeline_is_never_worse_than_recorded_goldens() {
    for &(rows, cols, parts, seed, weighting, golden_cut) in GOLDENS {
        let g = instance_graph(rows, cols, weighting);
        let sizes = fair_sizes(&g, parts);
        let cfg = PartitionConfig::new(sizes.clone()).with_seed(seed);
        let assignment = partition(&g, &cfg).unwrap();
        // exact part sizes must hold, including on weighted vertices
        let weights = g.part_weights(&assignment, parts);
        assert!(
            weights
                .iter()
                .zip(&sizes)
                .all(|(&w, &s)| w == s as u64),
            "{rows}x{cols}/{parts} seed {seed} ({weighting:?}): sizes {weights:?} != targets {sizes:?}"
        );
        let cut = g.cut(&assignment);
        assert!(
            cut <= golden_cut,
            "{rows}x{cols} into {parts} parts, seed {seed} ({weighting:?}): \
             cut {cut} worse than recorded golden {golden_cut}"
        );
    }
}

#[test]
fn heavy_rows_golden_respects_edge_weights() {
    // sanity for the HeavyRows instance: cutting a horizontal edge costs 3,
    // so a good partition prefers row-aligned parts; the golden cut must be
    // strictly below the naive column-strip cut (40 rows x 7 boundaries x 3
    // would be the all-horizontal worst case among balanced strip layouts)
    let &(rows, cols, parts, seed, weighting, golden_cut) = GOLDENS
        .iter()
        .find(|g| matches!(g.4, Weighting::HeavyRows))
        .expect("HeavyRows instance present");
    let g = instance_graph(rows, cols, weighting);
    let cfg = PartitionConfig::new(fair_sizes(&g, parts)).with_seed(seed);
    let assignment = partition(&g, &cfg).unwrap();
    let vertical_strip_cut = (rows * (parts as u32 - 1) * 3) as u64;
    assert!(
        g.cut(&assignment) < vertical_strip_cut,
        "cut {} should beat the vertical-strip layout {vertical_strip_cut}",
        g.cut(&assignment)
    );
    assert!(g.cut(&assignment) <= golden_cut);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// Retained hierarchy levels shrink geometrically (each retained level
    /// has at most ~0.45x the previous level's vertices, the documented
    /// retention policy), so the peak retained memory of `coarsen_hierarchy`
    /// — all level graphs plus their projection maps — is O(n + m).
    #[test]
    fn prop_hierarchy_retained_memory_is_linear(
        rows in 6u32..40,
        cols in 6u32..40,
        seed in 0u64..1000,
        target in 10usize..40,
    ) {
        let g = instance_graph(rows, cols, Weighting::Unit);
        let n = g.num_vertices();
        let m = g.num_edges();
        let levels = coarsen_hierarchy(&g, target, seed, false, &mut Workspace::new());
        // geometric decrease: every retained level except possibly the last
        // (which may stall near the target) shrinks below the retention
        // fraction of its predecessor
        let mut prev = n;
        for (i, level) in levels.iter().enumerate() {
            let ln = level.graph.num_vertices();
            let goal = ((prev as f64 * 0.45).ceil() as usize).max(target);
            prop_assert!(
                ln <= goal || i == levels.len() - 1,
                "level {i} retains {ln} vertices, retention goal {goal} (prev {prev})"
            );
            prop_assert!(ln < prev, "level {i} did not shrink: {ln} >= {prev}");
            prev = ln;
        }
        // O(n + m) peak: the sum over retained levels is bounded by the
        // geometric series n / (1 - 0.45) ~= 1.82n (slack 2x for stalls)
        let retained_vertices: usize =
            levels.iter().map(|l| l.graph.num_vertices()).sum();
        let retained_edges: usize =
            levels.iter().map(|l| l.graph.num_edges()).sum();
        let retained_maps: usize =
            levels.iter().map(|l| l.fine_to_coarse.len()).sum();
        prop_assert!(retained_vertices <= 2 * n, "{retained_vertices} vs n = {n}");
        prop_assert!(retained_edges <= 2 * m, "{retained_edges} vs m = {m}");
        // each level's projection map has the *finer* level's length, so the
        // total is bounded by n + retained_vertices
        prop_assert!(retained_maps <= n + retained_vertices);
    }
}
