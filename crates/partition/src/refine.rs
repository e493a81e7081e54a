//! Parallel k-way pairwise-swap local search.
//!
//! After the recursive bisection produced a k-way partition, a randomised
//! local search swaps pairs of vertices between parts whenever this reduces
//! the edge cut.  This mirrors the local-search configuration the paper uses
//! for VieM: "we allowed swaps between any connected pair of vertices, i.e.,
//! we considered the largest search space".
//!
//! # Parallel sweep with deterministic conflict resolution
//!
//! Each round runs in two phases:
//!
//! 1. **Propose** — one O(V + E) pass over the round-start partition
//!    bounds, for every boundary vertex `v`, the largest gain any swap of
//!    `v` can have (see `collect_proposers`); a vertex whose bound is not
//!    positive cannot propose and is skipped.  Every other boundary vertex
//!    evaluates its candidate partners (neighbors in other parts plus
//!    `RANDOM_PROBES` random probes) against the same snapshot and proposes
//!    its best positive-gain swap.  Candidate randomness comes from a
//!    per-vertex ChaCha8 stream derived from `(seed, round, v)`, so
//!    proposals — and the bound — are a pure function of the snapshot:
//!    trivially parallel and order-independent, and skipping a vertex only
//!    skips work whose answer is known to be "no proposal".
//! 2. **Commit** — proposals are grouped by the (unordered) pair of parts
//!    they exchange, and the part pairs are colored with a round-robin
//!    tournament schedule so that every color is a set of *disjoint* pairs.
//!    Colors are swept in ascending order; within a color the pairs commit
//!    concurrently under `rayon`.  A commit re-validates its swap against the
//!    live partition (parts unchanged, gain still positive) before applying
//!    it.
//!
//! Concurrent commits cannot interfere: a worker for pair `{a, b}` only
//! rewrites assignments inside `{a, b}`, and an edge towards any
//! concurrently-swapped vertex connects two *different* pairs of the same
//! color — such an edge is cut before and after either swap, so its gain
//! contribution is zero no matter how the stores interleave.  Every quantity
//! a worker computes is therefore independent of scheduling, which makes the
//! result **identical for every thread count** (and identical to the fully
//! sequential sweep selected by [`RefineConfig::parallel`] `= false`).
//!
//! Swapping two vertices never changes part sizes, so the exact balance of
//! the partition is preserved by construction.

use crate::Graph;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};

/// Number of random swap probes tried per proposing vertex and round, in
/// addition to its cross-part neighbors.  They are kept for byte identity,
/// not for quality: on the benchmark's seven p = 4800 viem shapes × 14
/// seeds, 0 probes left 97 of 98 refined partitions byte-identical, and in
/// the last one the probes found 2 swaps worth a cut of 2 (3293 → 3291).
const RANDOM_PROBES: usize = 8;

/// A proposed swap `(v, u)` between the parts of vertices `v` and `u`.
type Proposal = (u32, u32);

/// The proposals of one part pair, keyed by the (sorted) pair.
type PairGroup = ((u32, u32), Vec<Proposal>);

/// Result of the k-way refinement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefineStats {
    /// Edge cut before refinement.
    pub cut_before: u64,
    /// Edge cut after refinement.
    pub cut_after: u64,
    /// Number of swaps applied.
    pub swaps: u64,
}

/// Configuration of [`refine_kway_with`].
#[derive(Debug, Clone)]
pub struct RefineConfig {
    /// Full sweeps over the boundary vertices (each sweep proposes and
    /// commits swaps for every boundary vertex); sweeps stop early when no
    /// improving swap is found.
    pub rounds: usize,
    /// Seed of the per-vertex probe streams.
    pub seed: u64,
    /// Whether the propose phase and the disjoint part-pairs of each commit
    /// color may run on separate threads.  The result does not depend on
    /// this flag (or on the thread count); disable it to benchmark the
    /// sequential baseline.
    pub parallel: bool,
}

impl RefineConfig {
    /// Creates a parallel configuration with the given effort and seed.
    pub fn new(rounds: usize, seed: u64) -> Self {
        RefineConfig {
            rounds,
            seed,
            parallel: true,
        }
    }

    /// Enables or disables parallel execution (the result is unaffected).
    pub fn with_parallel(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }
}

/// Refines a k-way partition in place by pairwise vertex swaps, running the
/// parallel sweep described in the [module documentation](self).
pub fn refine_kway(graph: &Graph, part: &mut [u32], rounds: usize, seed: u64) -> RefineStats {
    refine_kway_with(graph, part, &RefineConfig::new(rounds, seed))
}

/// [`refine_kway`] with an explicit [`RefineConfig`].
pub fn refine_kway_with(graph: &Graph, part: &mut [u32], cfg: &RefineConfig) -> RefineStats {
    let n = graph.num_vertices();
    assert_eq!(part.len(), n);
    let cut_before = graph.cut(part);
    let num_parts = part.iter().max().map_or(0, |&p| p as usize + 1);
    if num_parts < 2 {
        return RefineStats {
            cut_before,
            cut_after: cut_before,
            swaps: 0,
        };
    }
    // Shared atomic view of the partition: the propose phase reads it with no
    // writers present, and commit workers write only entries of their own
    // disjoint part pair (relaxed ordering suffices — the phase boundaries
    // provide the synchronisation edges).
    let parts: Vec<AtomicU32> = part.iter().map(|&p| AtomicU32::new(p)).collect();
    let num_colors = pair_colors(num_parts);
    let mut swaps = 0u64;

    let (mut boundary, mut proposers) = (Vec::new(), Vec::new());
    for round in 0..cfg.rounds {
        // --- propose ---------------------------------------------------
        collect_proposers(graph, &*parts, num_parts, &mut boundary, &mut proposers);
        #[cfg(debug_assertions)]
        debug_check_skipped_proposers(graph, &parts, &boundary, &proposers, cfg.seed, round);
        if proposers.is_empty() {
            break;
        }
        let propose = |&v: &u32| propose_swap(graph, &parts, v as usize, cfg.seed, round);
        let proposals: Vec<Option<(u32, u32)>> = if cfg.parallel {
            proposers.par_iter().map(propose).collect()
        } else {
            proposers.iter().map(propose).collect()
        };

        // --- group by part pair, then by color --------------------------
        // BTreeMap iteration keeps the pair order deterministic; proposals
        // stay in ascending-vertex order within a pair.
        let mut by_pair: BTreeMap<(u32, u32), Vec<Proposal>> = BTreeMap::new();
        for (v, u) in proposals.into_iter().flatten() {
            let pv = parts[v as usize].load(Ordering::Relaxed);
            let pu = parts[u as usize].load(Ordering::Relaxed);
            by_pair
                .entry((pv.min(pu), pv.max(pu)))
                .or_default()
                .push((v, u));
        }
        let mut per_color: Vec<Vec<PairGroup>> = vec![Vec::new(); num_colors];
        for (pair, group) in by_pair {
            per_color[pair_color(pair, num_parts)].push((pair, group));
        }

        // --- commit, color by color -------------------------------------
        let mut round_swaps = 0u64;
        for color in per_color {
            let commit = |(pair, group): PairGroup| commit_pair(graph, &parts, pair, &group);
            let counts: Vec<u64> = if cfg.parallel {
                color.into_par_iter().map(commit).collect()
            } else {
                color.into_iter().map(commit).collect()
            };
            round_swaps += counts.iter().sum::<u64>();
        }
        if round_swaps == 0 {
            break;
        }
        swaps += round_swaps;
    }

    for (slot, p) in part.iter_mut().zip(&parts) {
        *slot = p.load(Ordering::Relaxed);
    }
    RefineStats {
        cut_before,
        cut_after: graph.cut(part),
        swaps,
    }
}

/// Collects the vertices of the round snapshot that may propose a swap:
/// boundary vertices (a neighbor in another part) whose gain bound is
/// positive.  `boundary` receives every boundary vertex with its bound term
/// `out`, `proposers` the survivors, both in ascending order.
///
/// Swapping `v` (in part `P`) with `u` (in part `Q != P`) gains
/// `w(v,Q) - int(v) + w(u,P) - int(u)`, minus twice their shared edge
/// weight, where `w(x,R)` is the weight from `x` into part `R` and `int(x)`
/// the weight inside its own part.  So every swap of `v`, with any partner
/// (neighbor or random probe), gains at most `out[v] + into[P]`, where
/// `out[v]` is the largest `w(v,Q)` over other parts minus `int(v)`, and
/// `into[P]` the largest `w(u,P) - int(u)` over `u` outside `P` (floored at
/// the largest `-int(u)`, which covers every `u` with no edge into `P`).
/// When that bound is `<= 0`, [`propose_swap`] returns `None` and `v` is
/// skipped — its probe stream is never drawn.  One O(V + E) pass; the bound
/// is a pure function of the snapshot, so the result does not depend on the
/// thread count.
fn collect_proposers<P: PartView + ?Sized>(
    graph: &Graph,
    part: &P,
    num_parts: usize,
    boundary: &mut Vec<(u32, i64)>,
    proposers: &mut Vec<u32>,
) {
    boundary.clear();
    proposers.clear();
    let mut ext = vec![0i64; num_parts];
    let mut into = vec![i64::MIN; num_parts];
    let mut touched: Vec<u32> = Vec::new();
    let mut floor = i64::MIN;
    for v in 0..graph.num_vertices() {
        let pv = part.part(v);
        let mut internal = 0i64;
        for (u, w) in graph.edges_of(v) {
            let pu = part.part(u as usize);
            if pu == pv {
                internal += w as i64;
            } else {
                ext[pu as usize] += w as i64;
                touched.push(pu);
            }
        }
        floor = floor.max(-internal);
        if touched.is_empty() {
            continue;
        }
        let mut out = 0i64;
        for &q in &touched {
            let to_q = ext[q as usize];
            out = out.max(to_q);
            into[q as usize] = into[q as usize].max(to_q - internal);
        }
        for &q in &touched {
            ext[q as usize] = 0;
        }
        touched.clear();
        boundary.push((v as u32, out - internal));
    }
    proposers.extend(
        boundary
            .iter()
            .filter(|&&(v, out)| out + into[part.part(v as usize) as usize].max(floor) > 0)
            .map(|&(v, _)| v),
    );
}

/// Debug-build invariant: every boundary vertex [`collect_proposers`]
/// skipped would have proposed nothing.  Skipped above 256 vertices to keep
/// debug test runs fast.
#[cfg(debug_assertions)]
fn debug_check_skipped_proposers(
    graph: &Graph,
    parts: &[AtomicU32],
    boundary: &[(u32, i64)],
    proposers: &[u32],
    seed: u64,
    round: usize,
) {
    if graph.num_vertices() > 256 {
        return;
    }
    let mut kept = proposers.iter().peekable();
    for &(v, _) in boundary {
        if kept.next_if_eq(&&v).is_none() {
            assert_eq!(
                propose_swap(graph, parts, v as usize, seed, round),
                None,
                "vertex {v} was skipped but has a positive-gain swap"
            );
        }
    }
}

/// Evaluates the candidate partners of boundary vertex `v` against the
/// round-start partition and returns its best positive-gain swap, if any.
fn propose_swap(
    graph: &Graph,
    parts: &[AtomicU32],
    v: usize,
    seed: u64,
    round: usize,
) -> Option<(u32, u32)> {
    let n = graph.num_vertices();
    let pv = parts[v].load(Ordering::Relaxed);
    let mut rng = probe_rng(seed, round, v);
    let mut best: Option<(u32, i64)> = None;
    let consider = |u: usize, best: &mut Option<(u32, i64)>| {
        if parts[u].load(Ordering::Relaxed) == pv {
            return;
        }
        let gain = swap_gain_view(graph, parts, v, u);
        if gain > 0 && best.is_none_or(|(_, bg)| gain > bg) {
            *best = Some((u as u32, gain));
        }
    };
    for &u in graph.neighbors(v) {
        consider(u as usize, &mut best);
    }
    for _ in 0..RANDOM_PROBES {
        let u = rng.gen_range(0..n);
        consider(u, &mut best);
    }
    best.map(|(u, _)| (v as u32, u))
}

/// Re-validates and applies the proposals of one part pair against the live
/// partition; returns the number of swaps applied.
fn commit_pair(
    graph: &Graph,
    parts: &[AtomicU32],
    (a, b): (u32, u32),
    group: &[(u32, u32)],
) -> u64 {
    let mut applied = 0u64;
    for &(v, u) in group {
        let (v, u) = (v as usize, u as usize);
        let pv = parts[v].load(Ordering::Relaxed);
        let pu = parts[u].load(Ordering::Relaxed);
        // an earlier color (or an earlier commit of this pair) may have moved
        // either endpoint out of the pair
        if !((pv == a && pu == b) || (pv == b && pu == a)) {
            continue;
        }
        if swap_gain_view(graph, parts, v, u) > 0 {
            parts[v].store(pu, Ordering::Relaxed);
            parts[u].store(pv, Ordering::Relaxed);
            applied += 1;
        }
    }
    applied
}

/// The number of colors of the round-robin pair schedule for `k` parts: one
/// less than `k` rounded up to even.
fn pair_colors(k: usize) -> usize {
    (k + (k & 1)).saturating_sub(1).max(1)
}

/// The color of part pair `(a, b)`, `a < b`, under the circle-method
/// round-robin schedule over `k` parts: within one color every part occurs
/// in at most one pair.
fn pair_color((a, b): (u32, u32), k: usize) -> usize {
    debug_assert!(a < b && (b as usize) < k);
    let k_even = k + (k & 1);
    let m = k_even - 1; // odd number of "rotating" players
    if b as usize == k_even - 1 {
        // the fixed player meets player `a` in round `a`
        a as usize
    } else {
        // rotating players i, j meet in the round r with i + j ≡ 2r (mod m)
        let inv2 = m.div_ceil(2); // 2 * inv2 ≡ 1 (mod m) for odd m
        ((a as usize + b as usize) * inv2) % m
    }
}

/// The deterministic probe stream of boundary vertex `v` in `round`:
/// independent ChaCha8 streams per `(seed, round, vertex)` (PR 1 re-seeded
/// every round from the same position, so all rounds probed the same
/// partners).
pub(crate) fn probe_rng(seed: u64, round: usize, v: usize) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(splitmix(splitmix(splitmix(seed) ^ round as u64) ^ v as u64))
}

/// SplitMix64 finaliser, used to decorrelate the probe-stream coordinates.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform read access to a partition, so the gain computation serves both
/// the plain public API and the atomic view used by the parallel sweep.
trait PartView {
    fn part(&self, v: usize) -> u32;
}

impl PartView for [u32] {
    #[inline]
    fn part(&self, v: usize) -> u32 {
        self[v]
    }
}

impl PartView for [AtomicU32] {
    #[inline]
    fn part(&self, v: usize) -> u32 {
        self[v].load(Ordering::Relaxed)
    }
}

/// The reduction of the edge cut obtained by swapping the part assignments of
/// vertices `a` and `b` (positive = improvement).
pub fn swap_gain(graph: &Graph, part: &[u32], a: usize, b: usize) -> i64 {
    swap_gain_view(graph, part, a, b)
}

fn swap_gain_view<P: PartView + ?Sized>(graph: &Graph, part: &P, a: usize, b: usize) -> i64 {
    if a == b || part.part(a) == part.part(b) {
        return 0;
    }
    let pa = part.part(a);
    let pb = part.part(b);
    let mut gain = 0i64;
    for (u, w) in graph.edges_of(a) {
        let u = u as usize;
        if u == b {
            // the edge a-b stays cut after the swap
            continue;
        }
        // before: cut if pu != pa; after: cut if pu != pb
        gain += cut_delta(part.part(u), pa, pb, w);
    }
    for (u, w) in graph.edges_of(b) {
        let u = u as usize;
        if u == a {
            continue;
        }
        gain += cut_delta(part.part(u), pb, pa, w);
    }
    gain
}

/// Contribution to the gain of one edge incident to a swapped vertex that
/// moves from part `from` to part `to`, with the other endpoint in `pu`.
#[inline]
fn cut_delta(pu: u32, from: u32, to: u32, w: u32) -> i64 {
    let before = (pu != from) as i64;
    let after = (pu != to) as i64;
    (before - after) * w as i64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioner::{partition, PartitionConfig};
    use crate::testutil::{grid_graph, path_graph};
    use proptest::prelude::*;

    #[test]
    fn swap_gain_detects_obvious_improvement() {
        // path 0-1-2-3 with parts [0,1,0,1]: swapping 1 and 2 removes 2 cut edges
        let g = path_graph(4);
        let part = vec![0u32, 1, 0, 1];
        assert_eq!(g.cut(&part), 3);
        let gain = swap_gain(&g, &part, 1, 2);
        assert_eq!(gain, 2);
        // swapping same-part vertices is a no-op
        assert_eq!(swap_gain(&g, &part, 0, 2), 0);
        assert_eq!(swap_gain(&g, &part, 1, 1), 0);
    }

    #[test]
    fn refine_fixes_interleaved_path() {
        let g = path_graph(8);
        let mut part = vec![0u32, 1, 0, 1, 0, 1, 0, 1];
        let stats = refine_kway(&g, &mut part, 10, 1);
        assert_eq!(stats.cut_before, 7);
        assert!(stats.cut_after < stats.cut_before);
        assert_eq!(stats.cut_after, g.cut(&part));
        // part sizes preserved
        assert_eq!(g.part_weights(&part, 2), vec![4, 4]);
    }

    #[test]
    fn refine_preserves_part_sizes_on_grid() {
        let g = grid_graph(8, 8);
        let cfg = PartitionConfig::new(vec![16; 4]).with_seed(3);
        let mut part = partition(&g, &cfg).unwrap();
        let before_sizes = g.part_weights(&part, 4);
        let stats = refine_kway(&g, &mut part, 5, 9);
        assert_eq!(g.part_weights(&part, 4), before_sizes);
        assert!(stats.cut_after <= stats.cut_before);
    }

    #[test]
    fn refine_improves_a_random_partition_substantially() {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let g = grid_graph(10, 10);
        // random balanced partition into 5 parts of 20
        let mut part: Vec<u32> = (0..100).map(|i| (i % 5) as u32).collect();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(4);
        part.shuffle(&mut rng);
        let before = g.cut(&part);
        let stats = refine_kway(&g, &mut part, 30, 5);
        assert!(
            stats.cut_after < before / 2,
            "{} -> {}",
            before,
            stats.cut_after
        );
        assert_eq!(g.part_weights(&part, 5), vec![20; 5]);
    }

    #[test]
    fn sequential_flag_matches_parallel_result_exactly() {
        let g = grid_graph(12, 12);
        let cfg = PartitionConfig::new(vec![24; 6]).with_seed(8);
        let base = partition(&g, &cfg).unwrap();
        let mut par = base.clone();
        let mut seq = base.clone();
        let stats_par = refine_kway_with(&g, &mut par, &RefineConfig::new(6, 11));
        let stats_seq =
            refine_kway_with(&g, &mut seq, &RefineConfig::new(6, 11).with_parallel(false));
        assert_eq!(par, seq);
        assert_eq!(stats_par, stats_seq);
    }

    #[test]
    fn probe_streams_differ_between_rounds() {
        // Regression test for the PR 1 bug where every round re-seeded the
        // probe RNG from the same stream position: the probe partners of a
        // vertex must differ between consecutive rounds.
        for v in [0usize, 3, 17] {
            let probes = |round: usize| -> Vec<usize> {
                let mut rng = probe_rng(42, round, v);
                (0..RANDOM_PROBES).map(|_| rng.gen_range(0..1000)).collect()
            };
            assert_ne!(probes(1), probes(2), "vertex {v}: round 2 repeats round 1");
            assert_ne!(probes(0), probes(1), "vertex {v}: round 1 repeats round 0");
        }
        // ... and between vertices within a round
        assert_ne!(
            {
                let mut r = probe_rng(42, 0, 1);
                r.gen_range(0..u64::MAX)
            },
            {
                let mut r = probe_rng(42, 0, 2);
                r.gen_range(0..u64::MAX)
            }
        );
    }

    #[test]
    fn pair_coloring_is_a_proper_schedule() {
        // every pair gets a color below the color count, and no two pairs of
        // the same color share a part
        for k in 2usize..14 {
            let colors = pair_colors(k);
            let mut seen: Vec<Vec<(u32, u32)>> = vec![Vec::new(); colors];
            for a in 0..k as u32 {
                for b in (a + 1)..k as u32 {
                    let c = pair_color((a, b), k);
                    assert!(c < colors, "k={k}: color {c} out of range");
                    for &(x, y) in &seen[c] {
                        assert!(
                            x != a && x != b && y != a && y != b,
                            "k={k}: pairs ({x},{y}) and ({a},{b}) share color {c}"
                        );
                    }
                    seen[c].push((a, b));
                }
            }
        }
    }

    /// The round's proposers under a plain partition.
    fn proposers_of(g: &Graph, part: &[u32], k: usize) -> (Vec<(u32, i64)>, Vec<u32>) {
        let (mut boundary, mut proposers) = (Vec::new(), Vec::new());
        collect_proposers(g, part, k, &mut boundary, &mut proposers);
        (boundary, proposers)
    }

    #[test]
    fn bound_skips_settled_vertices_and_keeps_improvable_ones() {
        // 8x8 grid in four 4x4 quadrants: no swap improves the cut, and the
        // bound proves it for every boundary vertex
        let g = grid_graph(8, 8);
        let quadrants: Vec<u32> = (0..64).map(|v| (v / 32 * 2 + v % 8 / 4) as u32).collect();
        let (boundary, proposers) = proposers_of(&g, &quadrants, 4);
        assert_eq!(boundary.len(), 28);
        assert!(proposers.is_empty(), "{proposers:?}");
        // interleaved path: both middle vertices gain 2 from their swap
        let part = vec![0u32, 1, 0, 1];
        let (_, proposers) = proposers_of(&path_graph(4), &part, 2);
        assert!(proposers.contains(&1) && proposers.contains(&2));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_refine_never_worsens_and_preserves_sizes(
            rows in 2u32..7, cols in 2u32..7, seed in 0u64..20,
        ) {
            let g = grid_graph(rows, cols);
            let n = (rows * cols) as usize;
            let parts = 3.min(n);
            let mut assignment: Vec<u32> = (0..n).map(|i| (i % parts) as u32).collect();
            let sizes_before = g.part_weights(&assignment, parts);
            let before = g.cut(&assignment);
            let stats = refine_kway(&g, &mut assignment, 4, seed);
            prop_assert!(stats.cut_after <= before);
            prop_assert_eq!(g.part_weights(&assignment, parts), sizes_before);
        }

        #[test]
        fn prop_parallel_and_sequential_refine_agree(
            rows in 3u32..8, cols in 3u32..8, parts in 2usize..6, seed in 0u64..10,
        ) {
            let g = grid_graph(rows, cols);
            let n = (rows * cols) as usize;
            let mut a: Vec<u32> = (0..n).map(|i| (i % parts) as u32).collect();
            let mut b = a.clone();
            let sp = refine_kway_with(&g, &mut a, &RefineConfig::new(3, seed));
            let ss = refine_kway_with(&g, &mut b, &RefineConfig::new(3, seed).with_parallel(false));
            prop_assert_eq!(&a, &b);
            prop_assert_eq!(sp, ss);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// The probe bound is sound: no vertex it skips has a positive-gain
        /// swap with any vertex, adjacent or not (random weighted graphs,
        /// zero-weight edges included, and random k-way partitions).
        #[test]
        fn prop_skipped_vertices_have_no_improving_swap(
            n in 2usize..41, k in 2usize..7, density in 1u32..8, seed in 0u64..1_000_000,
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut edges = Vec::new();
            for a in 0..n as u32 {
                for b in (a + 1)..n as u32 {
                    if rng.gen_range(0..8u32) < density {
                        edges.push((a, b, rng.gen_range(0..13u32)));
                    }
                }
            }
            let g = Graph::from_edges(n, &edges);
            let part: Vec<u32> = (0..n).map(|_| rng.gen_range(0..k as u32)).collect();
            let (boundary, proposers) = proposers_of(&g, &part, k);
            for &(v, _) in boundary.iter().filter(|(v, _)| !proposers.contains(v)) {
                for u in 0..n {
                    let gain = swap_gain(&g, &part, v as usize, u);
                    prop_assert!(gain <= 0, "skipped {} gains {} with {}", v, gain, u);
                }
            }
        }
    }
}
