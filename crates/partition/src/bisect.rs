//! Initial bisection by greedy graph growing.
//!
//! A region is grown from a seed vertex, always absorbing the frontier vertex
//! with the highest gain (edge weight towards the region minus edge weight
//! away from it), until the region reaches the requested weight.  Several
//! random seeds are tried and the bisection with the smallest cut is kept.
//!
//! Frontier selection uses the same dense gain-bucket queue as FM refinement
//! ([`crate::bucket::BucketQueue`], in its smallest-id tie-breaking mode).
//! For gains within the dense bucket range — always the case short of
//! pathological edge weights that trip `gain_bucket_bound`'s O(n + E) cap,
//! where clamping merges the extreme buckets — this selects exactly the
//! vertex the linear frontier scan it replaced would have picked.  Gain
//! maintenance per absorption drops from O(frontier) to O(degree); the
//! extraction itself still walks the top bucket (the frontier vertices
//! sharing the best gain).
//!
//! Scratch state (region flags, gains, the frontier queue, candidate
//! partitions) lives in a [`Workspace`] and the result goes into a
//! caller-owned buffer, so repeated bisections allocate nothing once the
//! buffers have grown.

use crate::fm::gain_bucket_bound;
use crate::workspace::Workspace;
use crate::Graph;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Grows part 0 to (approximately, exactly for unit weights) `target0` total
/// vertex weight, trying `attempts` random seed vertices, and writes the
/// partition with the smallest cut into `out` (refilled, its capacity
/// reused).
pub(crate) fn greedy_bisection(
    graph: &Graph,
    target0: u64,
    attempts: usize,
    seed: u64,
    ws: &mut Workspace,
    out: &mut Vec<u32>,
) {
    let n = graph.num_vertices();
    assert!(n > 0, "cannot bisect an empty graph");
    let gain_bound = gain_bucket_bound(graph);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut best_cut: Option<u64> = None;
    for _ in 0..attempts.max(1) {
        let start = rng.gen_range(0..n);
        grow_from(graph, target0, start, gain_bound, ws);
        let cut = graph.cut(&ws.grow_part);
        if best_cut.is_none_or(|bc| cut < bc) {
            best_cut = Some(cut);
            out.clone_from(&ws.grow_part);
        }
    }
}

/// Grows part 0 from a single start vertex into `ws.grow_part`.
fn grow_from(graph: &Graph, target0: u64, start: usize, gain_bound: i64, ws: &mut Workspace) {
    let n = graph.num_vertices();
    Workspace::reset(&mut ws.grow_part, n, 1u32);
    if target0 == 0 {
        return;
    }
    Workspace::reset(&mut ws.in_region, n, false);
    // gain of absorbing v = (weight towards region) - (weight away from it);
    // frontier membership is tracked by the bucket queue itself
    Workspace::reset(&mut ws.gain, n, 0i64);
    ws.bq0.reset(n, gain_bound);
    let mut weight0 = 0u64;

    absorb(graph, start, ws, &mut weight0);
    while weight0 < target0 {
        // pick the frontier vertex with the highest gain (ties: lowest id);
        // if the frontier is empty (disconnected graph) take any outside vertex.
        let next = ws
            .bq0
            .pop_max_min_id()
            .map(|(v, _)| v)
            .or_else(|| (0..n).find(|&v| !ws.in_region[v]));
        match next {
            Some(v) => absorb(graph, v, ws, &mut weight0),
            None => break,
        }
    }
}

/// Moves `v` into the region and updates the frontier gains.
fn absorb(graph: &Graph, v: usize, ws: &mut Workspace, weight0: &mut u64) {
    ws.grow_part[v] = 0;
    ws.in_region[v] = true;
    ws.bq0.remove(v);
    *weight0 += graph.vertex_weight(v) as u64;
    for (u, w) in graph.edges_of(v) {
        let u = u as usize;
        if ws.in_region[u] {
            continue;
        }
        if ws.bq0.contains(u) {
            ws.gain[u] += 2 * w as i64;
            ws.bq0.update(u, ws.gain[u]);
        } else {
            // entering the frontier: gain starts at -(total incident weight)
            let total: i64 = graph.edge_weights(u).iter().map(|&x| x as i64).sum();
            ws.gain[u] = 2 * w as i64 - total;
            ws.bq0.insert(u, ws.gain[u]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{bisection, grid_graph, path_graph};

    #[test]
    fn bisection_hits_exact_target_with_unit_weights() {
        let g = grid_graph(6, 6);
        let part = bisection(&g, 18, 4, 11);
        let w = g.part_weights(&part, 2);
        assert_eq!(w[0], 18);
        assert_eq!(w[1], 18);
    }

    #[test]
    fn bisection_of_path_is_contiguous_and_cheap() {
        let g = path_graph(10);
        let part = bisection(&g, 5, 8, 3);
        assert_eq!(g.part_weights(&part, 2), vec![5, 5]);
        // the optimal cut of a path bisection is 1; greedy growing finds it
        assert_eq!(g.cut(&part), 1);
    }

    #[test]
    fn bisection_of_grid_is_near_optimal() {
        // 8x8 grid split in half: optimal cut is 8; greedy growing from a
        // corner should find something close (allow small slack).
        let g = grid_graph(8, 8);
        let part = bisection(&g, 32, 10, 5);
        assert_eq!(g.part_weights(&part, 2)[0], 32);
        assert!(g.cut(&part) <= 12, "cut = {}", g.cut(&part));
    }

    #[test]
    fn zero_target_leaves_everything_in_part1() {
        let g = path_graph(4);
        let part = bisection(&g, 0, 2, 0);
        assert!(part.iter().all(|&p| p == 1));
    }

    #[test]
    fn full_target_absorbs_everything() {
        let g = path_graph(4);
        let part = bisection(&g, 4, 2, 0);
        assert!(part.iter().all(|&p| p == 0));
        assert_eq!(g.cut(&part), 0);
    }

    #[test]
    fn works_on_disconnected_graphs() {
        // two disjoint edges
        let g = Graph::from_edges(4, &[(0, 1, 1), (2, 3, 1)]);
        let part = bisection(&g, 2, 4, 9);
        assert_eq!(g.part_weights(&part, 2), vec![2, 2]);
    }

    #[test]
    fn respects_vertex_weights() {
        let mut g = path_graph(4);
        g.set_vertex_weight(0, 3);
        // target 3 should be reachable by absorbing just vertex 0 (or a
        // combination); the grown weight must be at least the target.
        let part = bisection(&g, 3, 4, 2);
        assert!(g.part_weights(&part, 2)[0] >= 3);
    }

    #[test]
    fn workspace_reuse_is_deterministic() {
        let g = grid_graph(9, 9);
        let mut ws = Workspace::new();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        greedy_bisection(&g, 40, 4, 3, &mut ws, &mut a);
        greedy_bisection(&g, 40, 4, 3, &mut ws, &mut b);
        assert_eq!(a, b);
        assert_eq!(a, bisection(&g, 40, 4, 3));
    }
}
