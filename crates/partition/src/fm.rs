//! Fiduccia–Mattheyses (FM) refinement for two-way partitions.
//!
//! Starting from a balanced bisection, vertices are moved one at a time,
//! always choosing the highest-gain unlocked vertex on the side that is
//! currently at or above its target weight; every vertex moves at most once
//! per pass.  The best balanced prefix of the move sequence is kept.  Passes
//! repeat until no improvement is found.
//!
//! # Gain buckets
//!
//! Vertex selection uses one dense [`BucketQueue`](crate::bucket::BucketQueue) per side instead of the
//! linear `best_movable` scan of the original implementation: FM gains are
//! bounded by `±max_v Σ w(e)` (the maximum weighted degree), so buckets over
//! that range give O(1) selection and O(1) incremental neighbor updates per
//! move, for O(n + E) work per pass instead of O(n²).  The bucket range is
//! additionally capped at O(n + E) (`gain_bucket_bound`); graphs with
//! extreme edge weights clamp into the extreme buckets while exact gains
//! stay in the gain array, so cut accounting never drifts.  Ties inside a
//! bucket are broken LIFO (most recently updated first); the initial fill
//! inserts vertices in descending id order, so among untouched vertices the
//! lowest id is extracted first, matching the scan it replaces.  The whole
//! pass is sequential and allocation-free, hence bit-for-bit deterministic.
//!
//! # Boundary-only passes
//!
//! Only *boundary* vertices (those with at least one cut edge) enter the
//! queues: moving an interior vertex can never be the first step of an
//! improving balanced prefix that FM's single-move-per-pass discipline can
//! complete, but queueing all of them made every pass Ω(n) in queue traffic.
//! Interior vertices are queued lazily the moment a neighbor's move gives
//! them a cut edge, so the reachable move set is unchanged on the instances
//! that matter while pass cost tracks the boundary size — on a large coarse
//! grid that is O(√n) instead of O(n).  A pass also starts from the caller's
//! tracked cut instead of an O(E) `graph.cut` recomputation (the rollback at
//! the end of every pass guarantees the tracked value is exact).
//!
//! Scratch state (gains, the two bucket queues, the move journal) lives in a
//! [`Workspace`], so repeated refinement passes allocate nothing.

use crate::workspace::Workspace;
use crate::Graph;

/// Number of deterministic tie-breaking variants cycled through once a pass
/// stops improving (see [`fm_refine`]).
const TIE_BREAK_VARIANTS: u8 = 4;

/// Above this many vertices, refinement stops after the first stale pass
/// instead of cycling all tie-breaking variants: on large levels the
/// variants recover at most a fraction of a percent of cut while costing a
/// full pass each, and the multilevel pipeline's quality is pinned by the
/// golden suites on exactly the small/medium sizes where variants do help.
const VARIANT_CAP_VERTICES: usize = 4096;

/// Above [`VARIANT_CAP_VERTICES`], a pass also ends after this many moves
/// without finding a new best balanced prefix.  Without a cap every pass
/// still sweeps the whole graph (each move lazily queues its neighbors, so
/// the move wavefront crosses all of it); hill-climbs this deep essentially
/// never pay off on large levels, and the cap makes pass cost track the
/// boundary size.  Small levels keep the exhaustive sweep.
const STALL_MOVE_CAP: usize = 64;

/// Above [`VARIANT_CAP_VERTICES`], at most this many passes run per level
/// even while they keep improving.  Each large-level pass pays an O(n + E)
/// gain/boundary rebuild; past the first few passes the improvements are a
/// fraction of a percent and cheaper to recover at finer levels.
const LARGE_PASS_CAP: usize = 3;

/// Tie-break variant and pass budget on *interior* hierarchy levels (see
/// [`fm_refine`]): refinement there only guides the projection — the finest
/// level re-refines with the full budget — so interior levels settle for the
/// first two variants and fewer passes.
const INTERIOR_VARIANTS: u8 = 2;

/// Maximum passes per interior hierarchy level (see [`INTERIOR_VARIANTS`]).
const INTERIOR_PASS_CAP: usize = 6;

/// Refines a two-way partition in place.  `target0` is the required total
/// vertex weight of part 0.  Returns the cut after refinement.
///
/// The partition is first [rebalanced](rebalance) towards `target0`; with
/// unit vertex weights the refined partition then meets it exactly on
/// return.  `interior` marks an interior hierarchy level of a multilevel
/// bisection: the result is only projected further and re-refined on a finer
/// level, so a reduced variant/pass budget loses almost no final quality
/// while skipping the most expensive stale sweeps.  `cut_hint`, if given,
/// must be the exact cut of `part` (the multilevel projection preserves the
/// coarse cut); it skips the O(E) recomputation unless rebalancing moves a
/// vertex.
pub(crate) fn fm_refine(
    graph: &Graph,
    part: &mut [u32],
    target0: u64,
    max_passes: usize,
    interior: bool,
    cut_hint: Option<u64>,
    ws: &mut Workspace,
) -> u64 {
    assert_eq!(part.len(), graph.num_vertices());
    let moved = rebalance(graph, part, target0);
    let gain_bound = gain_bucket_bound(graph);
    let mut best_cut = match cut_hint {
        Some(c) if !moved => c,
        _ => graph.cut(part),
    };
    debug_assert!(graph.num_vertices() > 256 || best_cut == graph.cut(part));
    // Part-0 weight is maintained incrementally through every move and
    // rollback, so passes need no O(n) weight rescan either.
    let mut weight0: u64 = (0..graph.num_vertices())
        .filter(|&v| part[v] == 0)
        .map(|v| graph.vertex_weight(v) as u64)
        .sum();
    // Passes repeat while they improve.  When a pass fails to improve, the
    // next pass perturbs the (gain-neutral) tie-breaking — bucket fill order
    // and the side preferred at exact balance — which explores a different
    // move order at identical cost; the pass rollback keeps every variant
    // monotone in the cut.  Refinement stops when all variants are stale.
    let large = graph.num_vertices() > VARIANT_CAP_VERTICES;
    let tie_break_variants: u8 = if large {
        1
    } else if interior {
        INTERIOR_VARIANTS
    } else {
        TIE_BREAK_VARIANTS
    };
    let max_passes = if large {
        max_passes.min(LARGE_PASS_CAP)
    } else if interior {
        max_passes.min(INTERIOR_PASS_CAP)
    } else {
        max_passes
    };
    let mut variant: u8 = 0;
    let mut stale: u8 = 0;
    for _ in 0..max_passes {
        let improved = fm_pass(
            graph,
            part,
            target0,
            &mut best_cut,
            &mut weight0,
            gain_bound,
            variant,
            ws,
        );
        if improved {
            stale = 0;
        } else {
            stale += 1;
            if stale >= tie_break_variants {
                break;
            }
            variant = (variant + 1) % tie_break_variants;
        }
    }
    best_cut
}

/// The largest summed incident edge weight over all vertices — the bound of
/// the FM gain range (moving any vertex changes the cut by at most this).
pub(crate) fn max_weighted_degree(graph: &Graph) -> i64 {
    (0..graph.num_vertices())
        .map(|v| graph.edge_weights(v).iter().map(|&w| w as i64).sum())
        .max()
        .unwrap_or(0)
}

/// The dense bucket range used for refinement and graph growing: the true
/// gain bound ([`max_weighted_degree`]), capped at O(n + E) buckets so the
/// queue's memory and reset cost stay linear in the graph even for extreme
/// edge weights.  Beyond the cap, gains clamp into the extreme buckets
/// (selection degrades gracefully; exact gains are tracked in the gain
/// array, so cut accounting never drifts).
pub(crate) fn gain_bucket_bound(graph: &Graph) -> i64 {
    let cap = (4 * (graph.num_vertices() + graph.num_edges()) as i64).max(256);
    max_weighted_degree(graph).min(cap)
}

/// Greedily restores the balance constraint (part-0 weight equal to
/// `target0`) by moving the highest-gain vertices from the overweight side,
/// as long as every move strictly reduces the imbalance.  With unit vertex
/// weights this always reaches exact balance; with heavier vertices it stops
/// as close to the target as possible.  Returns whether any vertex moved
/// (which invalidates a caller-provided cut hint).
fn rebalance(graph: &Graph, part: &mut [u32], target0: u64) -> bool {
    let mut weight0: u64 = (0..graph.num_vertices())
        .filter(|&v| part[v] == 0)
        .map(|v| graph.vertex_weight(v) as u64)
        .sum();
    let mut moved = false;
    loop {
        if weight0 == target0 {
            return moved;
        }
        let (from, deficit) = if weight0 > target0 {
            (0u32, weight0 - target0)
        } else {
            (1u32, target0 - weight0)
        };
        // pick the movable vertex with the best gain whose move reduces the
        // imbalance
        let mut best: Option<(usize, i64)> = None;
        for v in 0..graph.num_vertices() {
            if part[v] != from {
                continue;
            }
            let w = graph.vertex_weight(v) as u64;
            if w == 0 || w > 2 * deficit - 1 {
                // moving v would overshoot at least as far as we are off now
                continue;
            }
            let gain: i64 = graph
                .edges_of(v)
                .map(|(u, ew)| {
                    if part[u as usize] == part[v] {
                        -(ew as i64)
                    } else {
                        ew as i64
                    }
                })
                .sum();
            if best.is_none_or(|(_, bg)| gain > bg) {
                best = Some((v, gain));
            }
        }
        match best {
            Some((v, _)) => {
                let w = graph.vertex_weight(v) as u64;
                if from == 0 {
                    weight0 -= w;
                } else {
                    weight0 += w;
                }
                part[v] = 1 - part[v];
                moved = true;
            }
            None => return moved,
        }
    }
}

/// One FM pass.  Returns whether the cut improved.
///
/// `variant` selects one of [`TIE_BREAK_VARIANTS`] gain-neutral tie-breaking
/// rules: bit 0 flips the bucket fill order (descending ids — lowest id at
/// the head — vs ascending), bit 1 flips which side is preferred when both
/// sides are movable at exact balance with equal best gains.
#[allow(clippy::too_many_arguments)]
fn fm_pass(
    graph: &Graph,
    part: &mut [u32],
    target0: u64,
    best_cut: &mut u64,
    weight0: &mut u64,
    gain_bound: i64,
    variant: u8,
    ws: &mut Workspace,
) -> bool {
    let n = graph.num_vertices();
    let Workspace {
        gain,
        boundary,
        locked,
        bq0,
        bq1,
        moves,
        ..
    } = ws;
    // gain[v] = reduction of the cut when v switches sides; a vertex is on
    // the boundary iff any incident edge is cut
    gain.clear();
    boundary.clear();
    for v in 0..n {
        let mut internal = 0i64;
        let mut external = 0i64;
        for (u, w) in graph.edges_of(v) {
            if part[u as usize] == part[v] {
                internal += w as i64;
            } else {
                external += w as i64;
            }
        }
        gain.push(external - internal);
        boundary.push(external > 0);
    }
    Workspace::reset(locked, n, false);
    // fill the per-side queues with boundary vertices only; the default
    // descending order puts the lowest id at the head among equal initial
    // gains (see the module docs)
    bq0.reset(n, gain_bound);
    bq1.reset(n, gain_bound);
    let mut fill = |v: usize| {
        if !boundary[v] {
            return;
        }
        if part[v] == 0 {
            bq0.insert(v, gain[v]);
        } else {
            bq1.insert(v, gain[v]);
        }
    };
    if variant & 1 == 0 {
        (0..n).rev().for_each(&mut fill);
    } else {
        (0..n).for_each(&mut fill);
    }
    let weight0 = &mut *weight0;
    debug_assert!(
        n > 256
            || *weight0
                == (0..n)
                    .filter(|&v| part[v] == 0)
                    .map(|v| graph.vertex_weight(v) as u64)
                    .sum::<u64>()
    );

    // The caller's tracked best cut is exact at pass entry (the previous
    // pass rolled back to the state it reported), so no O(E) recomputation.
    let mut current_cut = *best_cut as i64;
    debug_assert!(n > 256 || current_cut == graph.cut(part) as i64);
    let start_cut = *best_cut;
    moves.clear();
    let mut best_prefix: Option<usize> = None;
    let mut best_prefix_cut = *best_cut as i64;
    let mut moves_since_best = 0usize;

    let stall_cap = if n > VARIANT_CAP_VERTICES {
        STALL_MOVE_CAP
    } else {
        STALL_MOVE_CAP.max(n / 8)
    };
    for _ in 0..n {
        if moves_since_best >= stall_cap {
            break;
        }
        // Move from part 0 if it is over target, from part 1 if under;
        // when exactly on target pick the side offering the better gain.
        let from = if *weight0 > target0 {
            0
        } else if *weight0 < target0 {
            1
        } else {
            match (bq0.peek_max(), bq1.peek_max()) {
                (Some((_, g0)), Some((_, g1))) => {
                    let preferred = u32::from(variant & 2 != 0);
                    match g0.cmp(&g1) {
                        std::cmp::Ordering::Greater => 0,
                        std::cmp::Ordering::Less => 1,
                        std::cmp::Ordering::Equal => preferred,
                    }
                }
                (Some(_), None) => 0,
                (None, Some(_)) => 1,
                (None, None) => break,
            }
        };
        let popped = if from == 0 {
            bq0.pop_max()
        } else {
            bq1.pop_max()
        };
        let Some((v, _)) = popped else {
            break;
        };
        // apply the move (popping locks v: it can no longer be selected);
        // account with the exact gain — the queue's copy may be clamped
        current_cut -= gain[v];
        locked[v] = true;
        let to = 1 - part[v];
        if part[v] == 0 {
            *weight0 -= graph.vertex_weight(v) as u64;
        } else {
            *weight0 += graph.vertex_weight(v) as u64;
        }
        part[v] = to;
        // incremental neighbor gain updates (instead of any rescans)
        for (u, w) in graph.edges_of(v) {
            let u = u as usize;
            if part[u] == part[v] {
                // u is now on the same side as v: moving u away gets worse
                gain[u] -= 2 * w as i64;
            } else {
                gain[u] += 2 * w as i64;
            }
            let q = if part[u] == 0 { &mut *bq0 } else { &mut *bq1 };
            if q.contains(u) {
                q.update(u, gain[u]);
            } else if !locked[u] && part[u] != part[v] {
                // u was interior (unqueued + unlocked vertices always are)
                // and v's arrival on the other side gave it a cut edge:
                // queue it lazily
                q.insert(u, gain[u]);
            }
        }
        gain[v] = -gain[v];
        moves.push(v);
        #[cfg(debug_assertions)]
        debug_check_incremental_gains(graph, part, gain, locked, bq0, bq1, gain_bound);
        if *weight0 == target0 && current_cut < best_prefix_cut {
            best_prefix_cut = current_cut;
            best_prefix = Some(moves.len());
            moves_since_best = 0;
        } else {
            moves_since_best += 1;
        }
    }

    // Roll back to the best balanced prefix (or all the way if none improved).
    let keep = best_prefix.unwrap_or(0);
    for &v in moves.iter().skip(keep).rev() {
        let w = graph.vertex_weight(v) as u64;
        if part[v] == 0 {
            *weight0 -= w;
        } else {
            *weight0 += w;
        }
        part[v] = 1 - part[v];
    }
    if (best_prefix_cut as u64) < start_cut {
        *best_cut = best_prefix_cut as u64;
        true
    } else {
        false
    }
}

/// Debug-build invariant: after every applied move, the incrementally
/// maintained gains of all still-queued vertices equal gains recomputed from
/// scratch, the bucket queues store exactly those values, and every
/// unlocked *boundary* vertex is queued (the lazy-insertion invariant of
/// boundary-only passes).  Skipped above 256 vertices to keep debug test
/// runs fast.
#[cfg(debug_assertions)]
fn debug_check_incremental_gains(
    graph: &Graph,
    part: &[u32],
    gain: &[i64],
    locked: &[bool],
    bq0: &crate::bucket::BucketQueue,
    bq1: &crate::bucket::BucketQueue,
    gain_bound: i64,
) {
    let n = graph.num_vertices();
    if n > 256 {
        return;
    }
    for v in 0..n {
        let queued = if part[v] == 0 {
            bq0.contains(v)
        } else {
            bq1.contains(v)
        };
        let mut internal = 0i64;
        let mut external = 0i64;
        for (u, w) in graph.edges_of(v) {
            if part[u as usize] == part[v] {
                internal += w as i64;
            } else {
                external += w as i64;
            }
        }
        if !queued {
            assert!(
                locked[v] || external == 0,
                "unlocked boundary vertex {v} missing from its queue"
            );
            continue;
        }
        let fresh = external - internal;
        assert_eq!(
            gain[v], fresh,
            "incremental gain of vertex {v} diverged from a fresh recomputation"
        );
        let stored = if part[v] == 0 {
            bq0.gain(v)
        } else {
            bq1.gain(v)
        };
        assert_eq!(
            stored,
            Some(fresh.clamp(-gain_bound, gain_bound)),
            "bucket queue holds a stale gain for vertex {v}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{bisection, grid_graph, path_graph};
    use proptest::prelude::*;

    #[test]
    fn fm_fixes_a_bad_path_bisection() {
        let g = path_graph(8);
        // interleaved partition: cut = 7
        let mut part = vec![0u32, 1, 0, 1, 0, 1, 0, 1];
        let cut = fm_refine(&g, &mut part, 4, 10, false, None, &mut Workspace::new());
        assert_eq!(g.part_weights(&part, 2), vec![4, 4]);
        assert!(cut <= 3, "cut = {cut}");
        assert_eq!(cut, g.cut(&part));
    }

    #[test]
    fn fm_does_not_worsen_an_optimal_bisection() {
        let g = path_graph(8);
        let mut part = vec![0u32, 0, 0, 0, 1, 1, 1, 1];
        let cut = fm_refine(&g, &mut part, 4, 5, false, None, &mut Workspace::new());
        assert_eq!(cut, 1);
        assert_eq!(g.part_weights(&part, 2), vec![4, 4]);
    }

    #[test]
    fn fm_improves_grid_bisection_to_near_optimal() {
        let g = grid_graph(8, 8);
        let mut part = bisection(&g, 32, 3, 17);
        let before = g.cut(&part);
        let after = fm_refine(&g, &mut part, 32, 20, false, None, &mut Workspace::new());
        assert!(after <= before);
        assert_eq!(g.part_weights(&part, 2), vec![32, 32]);
        assert!(after <= 10, "cut = {after}");
    }

    #[test]
    fn fm_preserves_balance_even_when_no_improvement_possible() {
        let g = grid_graph(2, 2);
        let mut part = vec![0u32, 0, 1, 1];
        let cut = fm_refine(&g, &mut part, 2, 3, false, None, &mut Workspace::new());
        assert_eq!(g.part_weights(&part, 2), vec![2, 2]);
        assert_eq!(cut, g.cut(&part));
    }

    #[test]
    fn fm_with_reused_workspace_matches_fresh_workspace() {
        let g = grid_graph(6, 7);
        let mut ws = Workspace::new();
        let mut a = bisection(&g, 21, 3, 4);
        let mut b = a.clone();
        let cut_a = fm_refine(&g, &mut a, 21, 8, false, None, &mut ws);
        let cut_b = fm_refine(&g, &mut b, 21, 8, false, None, &mut Workspace::new());
        assert_eq!(cut_a, cut_b);
        assert_eq!(a, b);
        // run again with the warm workspace
        let mut c = bisection(&g, 21, 3, 4);
        let cut_c = fm_refine(&g, &mut c, 21, 8, false, None, &mut ws);
        assert_eq!(cut_c, cut_b);
    }

    #[test]
    fn max_weighted_degree_accounts_for_edge_weights() {
        let g = Graph::from_edges(4, &[(0, 1, 2), (1, 2, 5), (2, 3, 1)]);
        assert_eq!(max_weighted_degree(&g), 7); // vertex 1: 2 + 5
        assert_eq!(max_weighted_degree(&Graph::from_edges(1, &[])), 0);
    }

    #[test]
    fn fm_survives_extreme_edge_weights_via_clamping() {
        // max weighted degree ~2e9 would mean ~4e9 dense buckets; the O(n+E)
        // cap clamps the range while exact gains keep the accounting correct
        let w = 1_000_000_000u32;
        let g = Graph::from_edges(6, &[(0, 1, w), (1, 2, w), (2, 3, 1), (3, 4, w), (4, 5, w)]);
        assert_eq!(gain_bucket_bound(&g), 256);
        let mut part = vec![0u32, 1, 0, 1, 0, 1];
        let before = g.cut(&part);
        let cut = fm_refine(&g, &mut part, 3, 10, false, None, &mut Workspace::new());
        assert_eq!(g.part_weights(&part, 2), vec![3, 3]);
        assert_eq!(cut, g.cut(&part));
        assert!(cut <= before);
    }

    #[test]
    fn fm_handles_weighted_edges_within_the_gain_bound() {
        // a weighted path where the cheap cut is between the light edges
        let g = Graph::from_edges(6, &[(0, 1, 9), (1, 2, 9), (2, 3, 1), (3, 4, 9), (4, 5, 9)]);
        let mut part = vec![0u32, 1, 0, 1, 0, 1];
        let cut = fm_refine(&g, &mut part, 3, 10, false, None, &mut Workspace::new());
        assert_eq!(g.part_weights(&part, 2), vec![3, 3]);
        assert_eq!(cut, g.cut(&part));
        assert!(cut <= 1, "cut = {cut}");
    }

    proptest! {
        #[test]
        fn prop_fm_never_increases_cut_and_keeps_balance(
            rows in 2u32..7, cols in 2u32..7, seed in 0u64..50,
            interior in proptest::bool::ANY, hinted in proptest::bool::ANY,
        ) {
            let g = grid_graph(rows, cols);
            let total = (rows * cols) as u64;
            let target0 = total / 2;
            let mut part = bisection(&g, target0, 2, seed);
            let before = g.cut(&part);
            let w_before = g.part_weights(&part, 2);
            // the hint, when given, is the exact cut before refinement
            let hint = hinted.then_some(before);
            let after = fm_refine(&g, &mut part, target0, 8, interior, hint, &mut Workspace::new());
            prop_assert!(after <= before);
            prop_assert_eq!(after, g.cut(&part));
            prop_assert_eq!(g.part_weights(&part, 2), w_before);
        }

        /// Runs bucket-queue FM on random weighted graphs.  In debug builds
        /// (the default for `cargo test`) every applied move additionally
        /// verifies, inside `fm_pass`, that the incrementally maintained
        /// gains equal freshly recomputed gains and that the bucket queues
        /// mirror them exactly.
        #[test]
        fn prop_fm_incremental_gains_stay_consistent_on_weighted_graphs(
            n in 4usize..24,
            raw_edges in proptest::collection::vec(0u64..1_000_000, 4..60),
            seed in 0u64..20,
        ) {
            let edges: Vec<(u32, u32, u32)> = raw_edges
                .iter()
                .map(|&e| {
                    let u = (e % n as u64) as u32;
                    let v = ((e / n as u64) % n as u64) as u32;
                    let w = ((e / (n * n) as u64) % 9 + 1) as u32;
                    (u, v, w)
                })
                .filter(|&(u, v, _)| u != v)
                .collect();
            let g = Graph::from_edges(n, &edges);
            let target0 = (n / 2) as u64;
            let mut part = bisection(&g, target0, 2, seed);
            let before = g.cut(&part);
            let after = fm_refine(&g, &mut part, target0, 6, false, None, &mut Workspace::new());
            prop_assert!(after <= before);
            prop_assert_eq!(after, g.cut(&part));
        }
    }
}
