//! Multilevel recursive bisection into parts of exact, arbitrary sizes.
//!
//! The entry point is [`partition`]: the vertex set is recursively split in
//! two, each bisection being solved with the multilevel pipeline (coarsening
//! → greedy initial bisection → gain-bucket FM refinement projected back
//! through the hierarchy, see [`crate::fm`]).  Target part sizes are
//! arbitrary, which is required to respect heterogeneous node allocations
//! (`n_i` processes per node).
//!
//! # Parallelism
//!
//! The two halves of every bisection are independent sub-problems; they are
//! executed with [`rayon::join`] whenever the sub-problem is large enough
//! ([`PartitionConfig::parallel`], on by default), and coarsening inside a
//! bisection additionally runs its propose-then-commit matching and per-row
//! contraction in parallel on large levels.  Every parallel branch owns its
//! own [`Workspace`], part assignments are written into disjoint slots of a
//! shared atomic array, and all seeds derive deterministically from the
//! parent seed — so the result is **identical for every thread count**
//! (including fully sequential execution with `RAYON_NUM_THREADS=1`).
//!
//! # Allocation and memory
//!
//! All per-level scratch lives in a [`Workspace`] threaded through the
//! pipeline; a steady-state multilevel run only allocates the retained
//! outputs (the coarse graphs of the hierarchy and the final assignment).
//! The recursion itself is allocation-free in steady state too: each node
//! splits its vertex list in place (left half) plus one buffer recycled
//! through the workspace pool (right half), the bisection side array is a
//! single reused workspace buffer, and hierarchy levels are dropped as soon
//! as the projection passes through them, so with geometrically shrinking
//! levels (see [`crate::coarsen`]) peak retained memory is O(n).

use std::sync::atomic::{AtomicU32, Ordering};

use crate::bisect::greedy_bisection;
use crate::coarsen::coarsen_hierarchy;
use crate::fm::fm_refine;
use crate::workspace::Workspace;
use crate::Graph;

/// Sub-problems below this vertex count are recursed sequentially; spawning a
/// task (plus its fresh workspace) costs more than the bisection itself.
const PARALLEL_THRESHOLD: usize = 1 << 11;

/// Coarsening of a bisection stops once the graph has at most this many
/// vertices.
const COARSEN_THRESHOLD: usize = 48;

/// Random seed vertices tried by the initial bisection.
const BISECTION_ATTEMPTS: usize = 6;

/// Maximum FM passes per hierarchy level (the refiner cycles through its
/// deterministic tie-breaking variants within this budget and stops early
/// once all of them are stale).
const FM_PASSES: usize = 12;

/// Configuration of the multilevel partitioner.
#[derive(Debug, Clone)]
pub struct PartitionConfig {
    /// Exact target sizes (summed vertex weight) of every part.
    pub target_sizes: Vec<usize>,
    /// Seed for all randomised components.
    pub seed: u64,
    /// Whether the independent halves of each bisection may run on separate
    /// threads.  The result does not depend on this flag (or on the thread
    /// count); disable it to benchmark the sequential baseline.
    pub parallel: bool,
}

impl PartitionConfig {
    /// Creates a parallel configuration with the default seed.
    pub fn new(target_sizes: Vec<usize>) -> Self {
        PartitionConfig {
            target_sizes,
            seed: 0xC0FFEE,
            parallel: true,
        }
    }

    /// Sets the random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables or disables parallel recursion (the result is unaffected).
    pub fn with_parallel(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }
}

/// Errors reported by [`partition`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// The target sizes do not sum to the total vertex weight of the graph.
    SizeMismatch {
        /// Sum of the requested part sizes.
        requested: u64,
        /// Total vertex weight of the graph.
        available: u64,
    },
    /// No parts were requested.
    NoParts,
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::SizeMismatch {
                requested,
                available,
            } => write!(
                f,
                "target sizes sum to {requested} but the graph has total vertex weight {available}"
            ),
            PartitionError::NoParts => write!(f, "at least one part is required"),
        }
    }
}

impl std::error::Error for PartitionError {}

/// Partitions `graph` into `cfg.target_sizes.len()` parts of exactly the
/// requested sizes (for unit vertex weights), minimising the edge cut.
/// Returns the part index of every vertex.
pub fn partition(graph: &Graph, cfg: &PartitionConfig) -> Result<Vec<u32>, PartitionError> {
    if cfg.target_sizes.is_empty() {
        return Err(PartitionError::NoParts);
    }
    let requested: u64 = cfg.target_sizes.iter().map(|&s| s as u64).sum();
    let available = graph.total_vertex_weight();
    if requested != available {
        return Err(PartitionError::SizeMismatch {
            requested,
            available,
        });
    }
    // Parallel branches write disjoint entries; atomics make that shared
    // write sound without locking (relaxed ordering suffices — the scope
    // join provides the synchronisation edge).
    let assignment: Vec<AtomicU32> = (0..graph.num_vertices())
        .map(|_| AtomicU32::new(0))
        .collect();
    let all: Vec<u32> = (0..graph.num_vertices() as u32).collect();
    let part_ids: Vec<u32> = (0..cfg.target_sizes.len() as u32).collect();
    let mut ws = Workspace::new();
    recurse(graph, cfg, all, &part_ids, &assignment, cfg.seed, &mut ws);
    Ok(assignment.into_iter().map(AtomicU32::into_inner).collect())
}

/// Recursively bisects the sub-problem consisting of `vertices` (global ids,
/// ascending) and the parts `part_ids` (indices into `cfg.target_sizes`).
///
/// Takes ownership of `vertices`: the left half is split off in place and
/// the buffer is recycled through the workspace pool once the sub-problem
/// bottoms out, so the sequential spine of the recursion reuses a bounded
/// set of vertex-list buffers instead of allocating two fresh ones per node.
/// A sub-problem without vertices (its parts all have size zero) assigns
/// nothing.
fn recurse(
    graph: &Graph,
    cfg: &PartitionConfig,
    mut vertices: Vec<u32>,
    part_ids: &[u32],
    assignment: &[AtomicU32],
    seed: u64,
    ws: &mut Workspace,
) {
    if part_ids.len() == 1 || vertices.is_empty() {
        for &v in &vertices {
            assignment[v as usize].store(part_ids[0], Ordering::Relaxed);
        }
        ws.recycle(vertices);
        return;
    }
    // split the parts into two groups of roughly equal total size
    let mid = part_ids.len() / 2;
    let (left_ids, right_ids) = part_ids.split_at(mid);
    let left_target: u64 = left_ids
        .iter()
        .map(|&p| cfg.target_sizes[p as usize] as u64)
        .sum();

    // build the subgraph induced by `vertices` and bisect it; the subgraph
    // drops before recursing so only one induced level is live at a time
    let mut side = std::mem::take(&mut ws.side);
    {
        let sub = induced_subgraph(graph, &vertices, ws);
        multilevel_bisection(&sub, left_target, cfg, seed, ws, &mut side);
    }

    // split in place: the left half compacts into `vertices`, the right half
    // fills a pooled buffer
    let mut right_vertices = ws.take_spare();
    let mut keep = 0usize;
    for local in 0..vertices.len() {
        let global = vertices[local];
        if side[local] == 0 {
            vertices[keep] = global;
            keep += 1;
        } else {
            right_vertices.push(global);
        }
    }
    vertices.truncate(keep);
    ws.side = side;
    let left_vertices = vertices;

    let left_seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    let right_seed = seed.wrapping_mul(6364136223846793005).wrapping_add(2);
    let big_enough = left_vertices.len().min(right_vertices.len()) >= PARALLEL_THRESHOLD;
    if cfg.parallel && big_enough {
        rayon::join(
            || {
                recurse(
                    graph,
                    cfg,
                    left_vertices,
                    left_ids,
                    assignment,
                    left_seed,
                    ws,
                )
            },
            || {
                let mut right_ws = Workspace::new();
                recurse(
                    graph,
                    cfg,
                    right_vertices,
                    right_ids,
                    assignment,
                    right_seed,
                    &mut right_ws,
                )
            },
        );
    } else {
        recurse(
            graph,
            cfg,
            left_vertices,
            left_ids,
            assignment,
            left_seed,
            ws,
        );
        recurse(
            graph,
            cfg,
            right_vertices,
            right_ids,
            assignment,
            right_seed,
            ws,
        );
    }
}

/// Bisects `graph` into parts of weight `target0` / rest using the multilevel
/// pipeline, writing the side of every vertex into `out`.
///
/// Hierarchy levels are dropped as soon as the projection has passed through
/// them, so the peak retained memory is the (geometrically shrinking)
/// unprojected suffix of the hierarchy — O(n) overall.
fn multilevel_bisection(
    graph: &Graph,
    target0: u64,
    cfg: &PartitionConfig,
    seed: u64,
    ws: &mut Workspace,
    out: &mut Vec<u32>,
) {
    let mut levels = coarsen_hierarchy(graph, COARSEN_THRESHOLD, seed, cfg.parallel, ws);
    // initial bisection on the coarsest graph
    let coarsest = levels.last().map(|l| &l.graph).unwrap_or(graph);
    greedy_bisection(coarsest, target0, BISECTION_ATTEMPTS, seed, ws, out);
    let mut cut = fm_refine(coarsest, out, target0, FM_PASSES, false, None, ws);
    // project back through the hierarchy, refining at every level; popping
    // drops each level right after its projection (drop-as-you-project)
    let mut finer_part = std::mem::take(&mut ws.part_a);
    while let Some(level) = levels.pop() {
        let finer: &Graph = levels.last().map(|l| &l.graph).unwrap_or(graph);
        finer_part.clear();
        finer_part.extend((0..finer.num_vertices()).map(|v| out[level.fine_to_coarse[v] as usize]));
        // Projection preserves the cut exactly (contraction sums parallel
        // edge weights), so each level starts from the coarser level's
        // refined cut instead of an O(E) recomputation.  Only the finest
        // level gets the full refinement budget.
        let interior = !levels.is_empty();
        cut = fm_refine(
            finer,
            &mut finer_part,
            target0,
            FM_PASSES,
            interior,
            Some(cut),
            ws,
        );
        std::mem::swap(out, &mut finer_part);
    }
    ws.part_a = finer_part;
}

/// Builds the subgraph induced by `vertices` (edges with both endpoints
/// inside, global ids ascending) directly in CSR form.
///
/// The global→local id table persists in the workspace at full graph size and
/// is cleared lazily (only the entries of the previous induction are reset),
/// so induction at every recursion node costs `O(|sub| + |edges(sub)|)`.  A
/// counting pass sizes the arrays exactly, so no over-allocation outlives
/// the node.
fn induced_subgraph(graph: &Graph, vertices: &[u32], ws: &mut Workspace) -> Graph {
    debug_assert!(vertices.windows(2).all(|w| w[0] < w[1]));
    if ws.global_to_local.len() != graph.num_vertices() {
        Workspace::reset(&mut ws.global_to_local, graph.num_vertices(), u32::MAX);
    }
    for (local, &global) in vertices.iter().enumerate() {
        ws.global_to_local[global as usize] = local as u32;
    }

    let m = vertices.len();
    let mut edge_count = 0usize;
    for &global in vertices {
        for &u in graph.neighbors(global as usize) {
            if ws.global_to_local[u as usize] != u32::MAX {
                edge_count += 1;
            }
        }
    }
    let mut xadj = Vec::with_capacity(m + 1);
    let mut adjncy = Vec::with_capacity(edge_count);
    let mut adjwgt = Vec::with_capacity(edge_count);
    let mut vwgt = Vec::with_capacity(m);
    xadj.push(0usize);
    for &global in vertices {
        for (u, w) in graph.edges_of(global as usize) {
            let lu = ws.global_to_local[u as usize];
            if lu != u32::MAX {
                adjncy.push(lu);
                adjwgt.push(w);
            }
        }
        xadj.push(adjncy.len());
        vwgt.push(graph.vertex_weight(global as usize));
    }

    // lazy reset: only touched entries
    for &global in vertices {
        ws.global_to_local[global as usize] = u32::MAX;
    }
    Graph::from_csr(xadj, adjncy, adjwgt, vwgt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{grid_graph, path_graph};
    use proptest::prelude::*;

    #[test]
    fn partition_respects_exact_sizes() {
        let g = grid_graph(6, 8);
        let cfg = PartitionConfig::new(vec![12, 12, 12, 12]);
        let parts = partition(&g, &cfg).unwrap();
        let w = g.part_weights(&parts, 4);
        assert_eq!(w, vec![12, 12, 12, 12]);
    }

    #[test]
    fn partition_supports_heterogeneous_sizes() {
        let g = grid_graph(5, 5);
        let cfg = PartitionConfig::new(vec![10, 8, 7]);
        let parts = partition(&g, &cfg).unwrap();
        assert_eq!(g.part_weights(&parts, 3), vec![10, 8, 7]);
        // zero-size parts, including sub-problems left with no vertices
        let g = path_graph(10);
        for sizes in [
            vec![10, 0, 0],
            vec![0, 0, 0, 10],
            vec![5, 0, 5],
            vec![0, 0, 10],
        ] {
            let parts = partition(&g, &PartitionConfig::new(sizes.clone())).unwrap();
            let expected: Vec<u64> = sizes.iter().map(|&s| s as u64).collect();
            assert_eq!(g.part_weights(&parts, sizes.len()), expected);
        }
    }

    #[test]
    fn partition_quality_on_path_is_optimal() {
        // Partitioning a path of 24 into 4 parts of 6: optimal cut = 3.
        let g = path_graph(24);
        let cfg = PartitionConfig::new(vec![6, 6, 6, 6]);
        let parts = partition(&g, &cfg).unwrap();
        assert_eq!(g.part_weights(&parts, 4), vec![6, 6, 6, 6]);
        assert!(g.cut(&parts) <= 5, "cut = {}", g.cut(&parts));
    }

    #[test]
    fn partition_quality_on_grid_is_reasonable() {
        // 8x8 grid into 4 parts of 16: optimal (4x4 blocks) cut = 32 edges.
        let g = grid_graph(8, 8);
        let cfg = PartitionConfig::new(vec![16, 16, 16, 16]);
        let parts = partition(&g, &cfg).unwrap();
        assert_eq!(g.part_weights(&parts, 4), vec![16, 16, 16, 16]);
        let cut = g.cut(&parts);
        assert!(cut <= 48, "cut = {cut}");
    }

    #[test]
    fn partition_single_part_is_trivial() {
        let g = path_graph(5);
        let cfg = PartitionConfig::new(vec![5]);
        let parts = partition(&g, &cfg).unwrap();
        assert!(parts.iter().all(|&p| p == 0));
        assert_eq!(g.cut(&parts), 0);
    }

    #[test]
    fn partition_rejects_bad_configs() {
        let g = path_graph(4);
        assert_eq!(
            partition(&g, &PartitionConfig::new(vec![])),
            Err(PartitionError::NoParts)
        );
        assert_eq!(
            partition(&g, &PartitionConfig::new(vec![3, 3])),
            Err(PartitionError::SizeMismatch {
                requested: 6,
                available: 4
            })
        );
        assert!(PartitionError::NoParts.to_string().contains("at least one"));
        assert!(PartitionError::SizeMismatch {
            requested: 6,
            available: 4
        }
        .to_string()
        .contains("6"));
    }

    #[test]
    fn induced_subgraph_extracts_edges() {
        let g = grid_graph(3, 3);
        let mut ws = Workspace::new();
        let sub = induced_subgraph(&g, &[0, 1, 3, 4], &mut ws);
        assert_eq!(sub.num_vertices(), 4);
        // edges inside the 2x2 corner: (0,1), (0,3), (1,4), (3,4)
        assert_eq!(sub.num_edges(), 4);
        assert!(sub.is_symmetric());
        // lazy reset leaves the table clean for the next induction
        let sub2 = induced_subgraph(&g, &[4, 5, 7, 8], &mut ws);
        assert_eq!(sub2.num_edges(), 4);
    }

    #[test]
    fn partition_is_deterministic_for_a_seed() {
        let g = grid_graph(6, 6);
        let a = partition(&g, &PartitionConfig::new(vec![12, 12, 12]).with_seed(5)).unwrap();
        let b = partition(&g, &PartitionConfig::new(vec![12, 12, 12]).with_seed(5)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_and_sequential_agree() {
        // 72x64 grid into 12 parts of 384: the top split leaves 2304
        // vertices on each side, so both halves cross PARALLEL_THRESHOLD and
        // the parallel run recurses on two threads (the right half with a
        // fresh workspace), while the sequential run reuses one workspace.
        // Both must produce the identical assignment for the same seed.
        let g = grid_graph(72, 64);
        let sizes = vec![384usize; 12];
        assert!(g.num_vertices() / 2 >= PARALLEL_THRESHOLD);
        let par = partition(&g, &PartitionConfig::new(sizes.clone()).with_seed(3)).unwrap();
        let seq = partition(
            &g,
            &PartitionConfig::new(sizes)
                .with_seed(3)
                .with_parallel(false),
        )
        .unwrap();
        assert_eq!(par, seq);
        assert_eq!(g.part_weights(&par, 12), vec![384u64; 12]);
    }

    #[test]
    fn parallel_and_sequential_agree_above_coarsening_par_threshold() {
        // 150x120 = 18000 vertices crosses the parallel matching/contraction
        // threshold inside coarsening; assignments must still be identical.
        let g = grid_graph(150, 120);
        let sizes = vec![3000usize; 6];
        let par = partition(&g, &PartitionConfig::new(sizes.clone()).with_seed(4)).unwrap();
        let seq = partition(
            &g,
            &PartitionConfig::new(sizes)
                .with_seed(4)
                .with_parallel(false),
        )
        .unwrap();
        assert_eq!(par, seq);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_partition_sizes_always_exact(
            rows in 2u32..7, cols in 2u32..7,
            cuts in proptest::collection::vec(0usize..1000, 1..5), seed in 0u64..20,
        ) {
            let g = grid_graph(rows, cols);
            let total = (rows * cols) as usize;
            // unequal sizes summing to `total`: the gaps between sorted cut
            // points in 0..=total, with extra weight on both ends so that
            // runs of zero-size parts come up
            let mut cuts: Vec<usize> = cuts
                .iter()
                .map(|&c| (c % (total + 9)).saturating_sub(4).min(total))
                .collect();
            cuts.sort_unstable();
            let (mut sizes, mut prev) = (Vec::new(), 0);
            for c in cuts.into_iter().chain([total]) {
                sizes.push(c - prev);
                prev = c;
            }
            let cfg = PartitionConfig::new(sizes.clone()).with_seed(seed);
            let assignment = partition(&g, &cfg).unwrap();
            let w = g.part_weights(&assignment, sizes.len());
            let expected: Vec<u64> = sizes.iter().map(|&s| s as u64).collect();
            prop_assert_eq!(w, expected);
        }
    }
}
