//! Multilevel coarsening via heavy-edge matching.
//!
//! A matching pairs adjacent vertices; every matched pair (and every
//! unmatched vertex) becomes one vertex of the next-coarser graph.  Matching
//! the heaviest incident edge first concentrates as much edge weight as
//! possible *inside* coarse vertices, which is what makes multilevel
//! partitioning effective.
//!
//! # Matching scheme
//!
//! Matching runs in *propose-then-commit* rounds (the same discipline as
//! `refine_kway`): each round, every unmatched vertex proposes its best
//! unmatched neighbor — ranked by edge weight, then by a seeded hash of the
//! undirected edge, then by vertex id — and mutual proposals commit.  The
//! ranking is a pure function of the round's snapshot, and commits only read
//! the proposal array, so sequential and parallel execution produce
//! bit-identical matchings for a given seed: parallelism only changes *who
//! computes* each entry, never its value.  Rounds repeat until a round
//! matches nothing or `MATCH_ROUNDS` is hit.  Because the hash is
//! symmetric in the edge's endpoints, both endpoints of a locally-heaviest
//! edge rank it first and match in one round, so a handful of rounds
//! suffice.  This replaces the seed implementation's RNG-shuffled visit
//! order + per-vertex scan, which was serial by construction and trashed the
//! cache (random vertex order ⇒ random CSR row order).  Mop-up rounds hash
//! only edges at least as heavy as the best so far (a lighter edge cannot
//! win).
//!
//! # Contraction
//!
//! [`contract_with`] assembles the coarse CSR directly: coarse vertices are
//! numbered by their smallest member, per-row upper bounds (sum of the two
//! members' degrees) are prefix-summed into workspace scratch, and every
//! coarse row is gathered independently into its disjoint scratch slice —
//! sorted by coarse id with an insertion step — and then merged, one pass
//! over runs of equal ids.  Rows are embarrassingly parallel, with no locks
//! and a deterministic result; the sequential path runs the same routine as
//! one chunk.  Only the returned level's exact-size arrays are allocated.
//!
//! # Overflow policy
//!
//! Coarse vertex weights and merged parallel-edge weights accumulate with
//! `saturating_add`.  This mirrors `gain_bucket_bound`'s clamping contract:
//! on (absurdly) heavy inputs the partitioner degrades deterministically —
//! weights pin at `u32::MAX`, balance targets become approximate — instead
//! of silently wrapping and corrupting balance targets and FM gains.
//!
//! # Retention policy
//!
//! [`coarsen_hierarchy_with`] composes successive matchings until the graph
//! has shrunk to `RETAIN_SHRINK` of the previous *retained* level before
//! keeping a level, so hierarchy levels decrease geometrically and total
//! retained memory stays O(n) even on graphs where single matchings shrink
//! poorly.  Progress is judged from the matched-pair count *before*
//! contracting (a matching that pairs <5% of vertices stalls the hierarchy
//! without paying for a contraction).

use crate::workspace::Workspace;
use crate::Graph;
use rayon::prelude::*;

/// The result of one coarsening step.
#[derive(Debug, Clone)]
pub struct CoarseLevel {
    /// The coarser graph.
    pub graph: Graph,
    /// For every fine vertex, the coarse vertex it was merged into.
    pub fine_to_coarse: Vec<u32>,
}

/// Maximum propose-then-commit rounds per matching.  Mutual heavy-edge
/// proposals match in round one; later rounds only mop up chains of
/// hash-order conflicts, so the cap is rarely reached.
const MATCH_ROUNDS: usize = 8;

/// Keep composing matchings into one retained hierarchy level until the
/// graph has shrunk to this fraction of the previous retained level.  A
/// perfect matching halves the graph, so most retained levels are one or two
/// matchings; the geometric decrease bounds total retained memory by
/// `n / (1 - RETAIN_SHRINK)` vertices.
const RETAIN_SHRINK: f64 = 0.45;

/// Below this many vertices the parallel paths fall back to sequential code
/// (identical results either way; the threshold only avoids fork overhead).
const PAR_MIN_VERTICES: usize = 1 << 14;

/// Rows per parallel contraction/matching task.
const PAR_CHUNK: usize = 1 << 12;

#[inline]
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded tie-break key of an undirected edge; symmetric in `u`/`v` so both
/// endpoints rank their shared edge identically.
#[inline]
fn edge_key(seed: u64, u: u32, v: u32) -> u64 {
    let (a, b) = if u < v { (u, v) } else { (v, u) };
    splitmix64(seed ^ (((a as u64) << 32) | b as u64))
}

/// Round-1 proposal: every vertex is still unmatched, so no partner checks
/// are needed, and the tie-break key is the XOR of the endpoints' per-round
/// random draws (symmetric, like [`edge_key`], but one load + XOR per edge
/// instead of a hash).  Pure function of the round snapshot.
#[inline]
fn propose_round1(graph: &Graph, rand: &[u64], u: usize) -> u32 {
    let ru = rand[u];
    // best (weight, key, id) so far; `u32::MAX` (never a vertex id) = none
    let (mut best_w, mut best_key, mut best_v) = (0u32, 0u64, u32::MAX);
    for (v, w) in graph.edges_of(u) {
        let vi = v as usize;
        if vi == u {
            continue;
        }
        let key = ru ^ rand[vi];
        if best_v == u32::MAX || (w, key, v) > (best_w, best_key, best_v) {
            (best_w, best_key, best_v) = (w, key, v);
        }
    }
    best_v
}

/// One vertex's proposal for a mop-up round: its best unmatched neighbor
/// by (weight, seeded edge hash, id), or `u32::MAX` if none.  Pure function
/// of the round snapshot — the parallel and sequential paths both call this.
#[inline]
fn propose_for(graph: &Graph, partner: &[u32], seed: u64, u: usize) -> u32 {
    if partner[u] as usize != u {
        return u32::MAX;
    }
    let (mut best_w, mut best_key, mut best_v) = (0u32, 0u64, u32::MAX);
    for (v, w) in graph.edges_of(u) {
        let vi = v as usize;
        // an edge lighter than the best cannot win: skip its hash
        if vi == u || partner[vi] as usize != vi || (best_v != u32::MAX && w < best_w) {
            continue;
        }
        let key = edge_key(seed, u as u32, v);
        if best_v == u32::MAX || (w, key, v) > (best_w, best_key, best_v) {
            (best_w, best_key, best_v) = (w, key, v);
        }
    }
    best_v
}

/// Commits mutual proposals for `partner[base..base + chunk.len()]`.
/// Reads only the (frozen) proposal array, so commit order is irrelevant.
#[inline]
fn commit_chunk(chunk: &mut [u32], proposal: &[u32], base: usize) {
    for (i, p) in chunk.iter_mut().enumerate() {
        let u = base + i;
        let v = proposal[u];
        if v != u32::MAX && proposal[v as usize] == u as u32 {
            *p = v;
        }
    }
}

/// Computes a heavy-edge matching of `graph` by seeded propose-then-commit
/// rounds (see the [module documentation](self)).
///
/// Returns, for every vertex, its matched partner (or itself if unmatched).
pub fn heavy_edge_matching(graph: &Graph, seed: u64) -> Vec<u32> {
    heavy_edge_matching_with(graph, seed, &mut Workspace::new())
}

/// [`heavy_edge_matching`] with caller-provided scratch buffers.
///
/// The returned vector is *taken from* the workspace's partner buffer (so
/// the result can outlive further workspace use).  To keep repeated calls
/// allocation-free, hand it back when done — `ws.partner = partner;` — as
/// [`coarsen_hierarchy_with`] does; otherwise each call allocates a fresh
/// partner vector.
pub fn heavy_edge_matching_with(graph: &Graph, seed: u64, ws: &mut Workspace) -> Vec<u32> {
    heavy_edge_matching_impl(graph, seed, false, ws).0
}

/// Matching engine shared by the sequential and parallel entry points.
/// Returns the partner array and the number of matched pairs, which is
/// exactly the shrinkage the contraction will achieve
/// (`coarse_n = n - pairs`).
pub(crate) fn heavy_edge_matching_impl(
    graph: &Graph,
    seed: u64,
    parallel: bool,
    ws: &mut Workspace,
) -> (Vec<u32>, usize) {
    let n = graph.num_vertices();
    let mut partner = std::mem::take(&mut ws.partner);
    partner.clear();
    partner.extend(0..n as u32);
    let mut worklist = ws.take_spare();
    // Every proposal slot this round reads is written first (round 1 writes
    // all n; later rounds only read slots of worklist vertices, which they
    // rewrote), so the buffer only needs the length, not a refill.  Same for
    // the per-vertex random draws, refreshed in full below.
    Workspace::ensure_len(&mut ws.proposal, n);
    Workspace::ensure_len(&mut ws.rand, n);
    let Workspace { proposal, rand, .. } = ws;
    let proposal = &mut proposal[..n];
    let rand = &mut rand[..n];
    let par = parallel && n >= PAR_MIN_VERTICES;

    // Round 1 proposes for every vertex (in parallel on large graphs).
    let round_seed = splitmix64(seed);
    if par {
        rand.par_chunks_mut(PAR_CHUNK)
            .enumerate()
            .for_each(|(ci, chunk)| {
                let base = ci * PAR_CHUNK;
                for (i, slot) in chunk.iter_mut().enumerate() {
                    *slot = splitmix64(round_seed ^ (base + i) as u64);
                }
            });
        let rand_ref: &[u64] = rand;
        proposal
            .par_chunks_mut(PAR_CHUNK)
            .enumerate()
            .for_each(|(ci, chunk)| {
                let base = ci * PAR_CHUNK;
                for (i, slot) in chunk.iter_mut().enumerate() {
                    *slot = propose_round1(graph, rand_ref, base + i);
                }
            });
    } else {
        for (v, slot) in rand.iter_mut().enumerate() {
            *slot = splitmix64(round_seed ^ v as u64);
        }
        for (u, slot) in proposal.iter_mut().enumerate() {
            *slot = propose_round1(graph, rand, u);
        }
    }
    if par {
        let proposal_ref: &[u32] = proposal;
        partner
            .par_chunks_mut(PAR_CHUNK)
            .enumerate()
            .for_each(|(ci, chunk)| commit_chunk(chunk, proposal_ref, ci * PAR_CHUNK));
    } else {
        commit_chunk(&mut partner, proposal, 0);
    }

    // Later rounds only mop up hash-order conflicts among the (shrinking)
    // unmatched residue, so they propose and commit over a worklist instead
    // of rescanning all n vertices.  Stale `proposal` entries of matched
    // vertices are never read: a committed proposal always names an
    // unmatched-at-snapshot vertex, i.e. one whose entry this round rewrote.
    // The worklist is filtered in ascending vertex order, so the sequential
    // mop-up is deterministic and independent of the round-1 parallelism.
    worklist.clear();
    worklist.extend(
        partner
            .iter()
            .enumerate()
            .filter(|&(u, &p)| p as usize == u)
            .map(|(u, _)| u as u32),
    );
    let mut pairs = (n - worklist.len()) / 2;
    for round in 1..MATCH_ROUNDS {
        if worklist.is_empty() {
            break;
        }
        let round_seed = splitmix64(seed ^ round as u64);
        for &u in &worklist {
            proposal[u as usize] = propose_for(graph, &partner, round_seed, u as usize);
        }
        let mut matched_any = false;
        for &u in &worklist {
            let v = proposal[u as usize];
            if v != u32::MAX && proposal[v as usize] == u {
                partner[u as usize] = v;
                matched_any = true;
                if u < v {
                    pairs += 1;
                }
            }
        }
        if !matched_any {
            break;
        }
        worklist.retain(|&u| partner[u as usize] == u);
    }
    ws.recycle(worklist);
    (partner, pairs)
}

/// Contracts a matching into a coarser graph.  Vertex weights are summed and
/// parallel coarse edges are merged by summing their weights, both with
/// saturation (see the [module documentation](self) for the overflow
/// policy).  `partner` must be symmetric (`partner[partner[u]] == u`), as
/// produced by [`heavy_edge_matching`].
pub fn contract(graph: &Graph, partner: &[u32]) -> CoarseLevel {
    contract_with(graph, partner, &mut Workspace::new())
}

/// [`contract`] with caller-provided scratch buffers.
///
/// The coarse CSR is assembled directly: per-row upper bounds (sum of both
/// members' degrees) are prefix-summed into workspace scratch, every coarse
/// row is gathered and duplicate-merged inside its own disjoint scratch
/// slice, and the exact-size result arrays are the only allocations.
pub fn contract_with(graph: &Graph, partner: &[u32], ws: &mut Workspace) -> CoarseLevel {
    contract_impl(graph, partner, false, ws)
}

/// Gathers and duplicate-merges the coarse rows `c0..c0 + cdeg.len()` into
/// `adj`/`wgt` (scratch slices covering exactly those rows' upper-bound
/// ranges).  Each row is independent, so disjoint chunks run in parallel;
/// the sequential path passes all rows as one chunk.
#[allow(clippy::too_many_arguments)]
fn fill_rows(
    graph: &Graph,
    partner: &[u32],
    fine_to_coarse: &[u32],
    rep: &[u32],
    row_offsets: &[usize],
    c0: usize,
    adj: &mut [u32],
    wgt: &mut [u32],
    cdeg: &mut [u32],
) {
    let base = row_offsets[c0];
    for (i, out_deg) in cdeg.iter_mut().enumerate() {
        let c = c0 + i;
        let cu = c as u32;
        let row = row_offsets[c] - base..row_offsets[c + 1] - base;
        let (adj, wgt) = (&mut adj[row.clone()], &mut wgt[row]);
        let r = rep[c] as usize;
        let p = partner[r] as usize;
        let members = [r, p];
        let member_count = if p == r { 1 } else { 2 };
        // Gather the row sorted by coarse id with an insertion step (rows
        // are short: bounded by the two members' degrees), so parallel
        // edges end up adjacent ...
        let mut len = 0usize;
        for &m in &members[..member_count] {
            for (v, w) in graph.edges_of(m) {
                let cv = fine_to_coarse[v as usize];
                if cv == cu {
                    continue;
                }
                let mut j = len;
                while j > 0 && adj[j - 1] > cv {
                    adj[j] = adj[j - 1];
                    wgt[j] = wgt[j - 1];
                    j -= 1;
                }
                adj[j] = cv;
                wgt[j] = w;
                len += 1;
            }
        }
        // ... then merge each run of equal ids.  Saturating addition of
        // non-negative weights is order-independent, so the merged weight
        // does not depend on the gather order.
        let mut merged = 0usize;
        for j in 0..len {
            if merged > 0 && adj[merged - 1] == adj[j] {
                wgt[merged - 1] = wgt[merged - 1].saturating_add(wgt[j]);
            } else {
                adj[merged] = adj[j];
                wgt[merged] = wgt[j];
                merged += 1;
            }
        }
        *out_deg = merged as u32;
    }
}

/// Contraction engine shared by the sequential and parallel entry points.
pub(crate) fn contract_impl(
    graph: &Graph,
    partner: &[u32],
    parallel: bool,
    ws: &mut Workspace,
) -> CoarseLevel {
    let n = graph.num_vertices();
    debug_assert!(
        (0..n).all(|u| partner[partner[u] as usize] as usize == u),
        "contract requires a symmetric matching"
    );

    // Number coarse vertices by their smallest member (ascending), recording
    // one representative per coarse vertex.
    let Workspace {
        rep,
        row_offsets,
        scratch_adj,
        scratch_wgt,
        cdeg,
        ..
    } = ws;
    let mut fine_to_coarse: Vec<u32> = Vec::with_capacity(n);
    rep.clear();
    for (u, &pu) in partner[..n].iter().enumerate() {
        let p = pu as usize;
        if p >= u {
            fine_to_coarse.push(rep.len() as u32);
            rep.push(u as u32);
        } else {
            let c = fine_to_coarse[p];
            fine_to_coarse.push(c);
        }
    }
    let cn = rep.len();

    // Coarse vertex weights, saturating (overflow policy: degrade to
    // pinned weights rather than wrap).
    let mut vwgt: Vec<u32> = Vec::with_capacity(cn);
    vwgt.extend(rep.iter().map(|&r| {
        let p = partner[r as usize];
        let w = graph.vertex_weight(r as usize);
        if p == r {
            w
        } else {
            w.saturating_add(graph.vertex_weight(p as usize))
        }
    }));

    // Upper-bound row extents (sum of both members' degrees), prefix-summed
    // into workspace scratch so every row owns a disjoint slice.
    row_offsets.clear();
    row_offsets.reserve(cn + 1);
    row_offsets.push(0);
    let mut total = 0usize;
    for &r in rep.iter() {
        let p = partner[r as usize] as usize;
        let mut ub = graph.neighbors(r as usize).len();
        if p != r as usize {
            ub += graph.neighbors(p).len();
        }
        total += ub;
        row_offsets.push(total);
    }
    // `fill_rows` writes every scratch cell before reading it (the merged
    // prefix of each row) and assigns every `cdeg` entry, so the buffers only
    // need capacity, not a zero-fill — skipping the O(E) memset per level.
    Workspace::ensure_len(scratch_adj, total);
    Workspace::ensure_len(scratch_wgt, total);
    Workspace::ensure_len(cdeg, cn);
    let scratch_adj = &mut scratch_adj[..total];
    let scratch_wgt = &mut scratch_wgt[..total];
    let cdeg = &mut cdeg[..cn];

    // Gather + merge every coarse row into its scratch slice.
    if parallel && cn >= PAR_MIN_VERTICES {
        // one parallel task: (first coarse row, adj / wgt / cdeg slices)
        type RowTask<'a> = (usize, &'a mut [u32], &'a mut [u32], &'a mut [u32]);
        let mut tasks: Vec<RowTask<'_>> = Vec::new();
        let (mut adj_rest, mut wgt_rest, mut cdeg_rest) =
            (&mut *scratch_adj, &mut *scratch_wgt, &mut *cdeg);
        let mut c0 = 0usize;
        while c0 < cn {
            let rows = PAR_CHUNK.min(cn - c0);
            let split = row_offsets[c0 + rows] - row_offsets[c0];
            let (adj_chunk, rest_a) = adj_rest.split_at_mut(split);
            let (wgt_chunk, rest_w) = wgt_rest.split_at_mut(split);
            let (cdeg_chunk, rest_c) = cdeg_rest.split_at_mut(rows);
            adj_rest = rest_a;
            wgt_rest = rest_w;
            cdeg_rest = rest_c;
            tasks.push((c0, adj_chunk, wgt_chunk, cdeg_chunk));
            c0 += rows;
        }
        let (rep_ref, off_ref): (&[u32], &[usize]) = (rep, row_offsets);
        let ftc_ref: &[u32] = &fine_to_coarse;
        tasks.into_par_iter().for_each(|(c0, adj, wgt, cd)| {
            fill_rows(graph, partner, ftc_ref, rep_ref, off_ref, c0, adj, wgt, cd);
        });
    } else if cn > 0 {
        fill_rows(
            graph,
            partner,
            &fine_to_coarse,
            rep,
            row_offsets,
            0,
            scratch_adj,
            scratch_wgt,
            cdeg,
        );
    }

    // Compact the merged rows into exact-size CSR arrays.
    let mut xadj = Vec::with_capacity(cn + 1);
    xadj.push(0usize);
    let mut m = 0usize;
    for &d in cdeg.iter() {
        m += d as usize;
        xadj.push(m);
    }
    let mut adjncy = Vec::with_capacity(m);
    let mut adjwgt = Vec::with_capacity(m);
    for c in 0..cn {
        let s = row_offsets[c];
        let d = cdeg[c] as usize;
        adjncy.extend_from_slice(&scratch_adj[s..s + d]);
        adjwgt.extend_from_slice(&scratch_wgt[s..s + d]);
    }

    CoarseLevel {
        graph: Graph::from_csr(xadj, adjncy, adjwgt, vwgt),
        fine_to_coarse,
    }
}

/// Repeatedly coarsens `graph` until it has at most `target_vertices`
/// vertices or matching stops making progress (pairs less than ~5% of the
/// vertices).  Returns the hierarchy from finest (first) to coarsest (last);
/// retained levels shrink geometrically (see the retention policy in the
/// [module documentation](self)).
pub fn coarsen_hierarchy(graph: &Graph, target_vertices: usize, seed: u64) -> Vec<CoarseLevel> {
    coarsen_hierarchy_with(graph, target_vertices, seed, &mut Workspace::new())
}

/// [`coarsen_hierarchy`] with caller-provided scratch buffers.
pub fn coarsen_hierarchy_with(
    graph: &Graph,
    target_vertices: usize,
    seed: u64,
    ws: &mut Workspace,
) -> Vec<CoarseLevel> {
    coarsen_hierarchy_impl(graph, target_vertices, seed, false, ws)
}

/// Composes two consecutive coarsening steps into one hierarchy level.
fn compose(prev: CoarseLevel, next: CoarseLevel) -> CoarseLevel {
    let mut fine_to_coarse = prev.fine_to_coarse;
    for c in fine_to_coarse.iter_mut() {
        *c = next.fine_to_coarse[*c as usize];
    }
    CoarseLevel {
        graph: next.graph,
        fine_to_coarse,
    }
}

/// Hierarchy engine shared by the sequential and parallel entry points.
pub(crate) fn coarsen_hierarchy_impl(
    graph: &Graph,
    target_vertices: usize,
    seed: u64,
    parallel: bool,
    ws: &mut Workspace,
) -> Vec<CoarseLevel> {
    let mut levels: Vec<CoarseLevel> = Vec::new();
    let mut round = 0u64;
    let mut stalled = false;
    while !stalled {
        let composed = {
            let current: &Graph = levels.last().map(|l| &l.graph).unwrap_or(graph);
            if current.num_vertices() <= target_vertices {
                break;
            }
            let retain_goal = ((current.num_vertices() as f64 * RETAIN_SHRINK).ceil() as usize)
                .max(target_vertices);
            let mut composed: Option<CoarseLevel> = None;
            loop {
                let g: &Graph = composed.as_ref().map(|l| &l.graph).unwrap_or(current);
                let gn = g.num_vertices();
                if gn <= retain_goal {
                    break;
                }
                let (partner, pairs) =
                    heavy_edge_matching_impl(g, seed.wrapping_add(round), parallel, ws);
                round += 1;
                // Judge progress from the matching itself: `gn - pairs` is
                // exactly the contracted size, so a no-progress matching
                // stalls the hierarchy without paying for a contraction.
                let no_progress = (gn - pairs) as f64 > gn as f64 * 0.95;
                if no_progress {
                    ws.partner = partner;
                    stalled = true;
                    break;
                }
                let next = contract_impl(g, &partner, parallel, ws);
                ws.partner = partner;
                composed = Some(match composed {
                    None => next,
                    Some(prev) => compose(prev, next),
                });
            }
            composed
        };
        match composed {
            Some(level) => levels.push(level),
            None => break,
        }
    }
    levels
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{grid_graph, path_graph};

    #[test]
    fn matching_is_symmetric_and_valid() {
        let g = grid_graph(6, 6);
        let partner = heavy_edge_matching(&g, 42);
        for u in 0..g.num_vertices() {
            let p = partner[u] as usize;
            assert_eq!(partner[p] as usize, u, "matching must be symmetric");
            if p != u {
                assert!(
                    g.neighbors(u).contains(&(p as u32)),
                    "partners must be adjacent"
                );
            }
        }
    }

    #[test]
    fn matching_prefers_heavy_edges() {
        // triangle with one heavy edge 0-1
        let g = Graph::from_edges(3, &[(0, 1, 10), (1, 2, 1), (0, 2, 1)]);
        let partner = heavy_edge_matching(&g, 0);
        assert_eq!(partner[0], 1);
        assert_eq!(partner[1], 0);
        assert_eq!(partner[2], 2);
    }

    #[test]
    fn matching_reports_pair_count() {
        let g = grid_graph(8, 8);
        let mut ws = Workspace::new();
        let (partner, pairs) = heavy_edge_matching_impl(&g, 5, false, &mut ws);
        let expected = (0..g.num_vertices())
            .filter(|&u| (partner[u] as usize) > u)
            .count();
        assert_eq!(pairs, expected);
        assert!(pairs > 0);
    }

    #[test]
    fn matching_is_identical_with_parallel_flag() {
        // the parallel path must be bit-identical to the sequential one
        // (PAR_MIN_VERTICES normally hides it on small graphs, so force a
        // graph large enough to cross the threshold)
        let g = grid_graph(150, 120);
        assert!(g.num_vertices() >= super::PAR_MIN_VERTICES);
        let mut ws = Workspace::new();
        let (seq, seq_pairs) = heavy_edge_matching_impl(&g, 11, false, &mut ws);
        let (par, par_pairs) = heavy_edge_matching_impl(&g, 11, true, &mut ws);
        assert_eq!(seq, par);
        assert_eq!(seq_pairs, par_pairs);
    }

    #[test]
    fn contract_preserves_total_vertex_weight() {
        let g = grid_graph(5, 4);
        let partner = heavy_edge_matching(&g, 1);
        let level = contract(&g, &partner);
        assert_eq!(level.graph.total_vertex_weight(), g.total_vertex_weight());
        assert!(level.graph.num_vertices() < g.num_vertices());
        assert!(level.graph.num_vertices() >= g.num_vertices() / 2);
        // mapping covers every fine vertex
        assert!(level
            .fine_to_coarse
            .iter()
            .all(|&c| (c as usize) < level.graph.num_vertices()));
        assert!(level.graph.is_symmetric());
    }

    #[test]
    fn contract_matches_edge_list_construction() {
        // the direct-CSR contraction must agree with the reference
        // construction via Graph::from_edges
        let g = grid_graph(7, 5);
        let partner = heavy_edge_matching(&g, 9);
        let level = contract(&g, &partner);
        let mut edges = Vec::new();
        for u in 0..g.num_vertices() {
            let cu = level.fine_to_coarse[u];
            for (v, w) in g.edges_of(u) {
                let cv = level.fine_to_coarse[v as usize];
                if cu < cv {
                    edges.push((cu, cv, w));
                }
            }
        }
        let mut reference = Graph::from_edges(level.graph.num_vertices(), &edges);
        for u in 0..g.num_vertices() {
            let cu = level.fine_to_coarse[u] as usize;
            reference.set_vertex_weight(cu, level.graph.vertex_weight(cu));
        }
        assert_eq!(level.graph, reference);
    }

    #[test]
    fn contract_is_identical_with_parallel_flag() {
        let g = grid_graph(150, 120);
        let mut ws = Workspace::new();
        let (partner, _) = heavy_edge_matching_impl(&g, 3, false, &mut ws);
        let seq = contract_impl(&g, &partner, false, &mut ws);
        let par = contract_impl(&g, &partner, true, &mut ws);
        assert_eq!(seq.graph, par.graph);
        assert_eq!(seq.fine_to_coarse, par.fine_to_coarse);
    }

    #[test]
    fn contract_path_preserves_cut_structure() {
        let g = path_graph(8);
        let partner = heavy_edge_matching(&g, 3);
        let level = contract(&g, &partner);
        // a path stays connected after contraction
        assert!(level.graph.num_edges() >= level.graph.num_vertices() - 1);
    }

    #[test]
    fn contract_saturates_instead_of_wrapping() {
        // Regression test for the u32 accumulation overflow: two matched
        // vertices of weight 3e9 each (sum 6e9 > u32::MAX) used to wrap to
        // 1_705_032_704; the documented policy is saturation.  Likewise two
        // parallel coarse edges of weight 3e9 each must merge by saturation.
        let mut g = Graph::from_edges(
            4,
            &[
                (0, 1, 1),
                (0, 2, 3_000_000_000),
                (1, 2, 3_000_000_000),
                (2, 3, 1),
            ],
        );
        g.set_vertex_weight(0, 3_000_000_000);
        g.set_vertex_weight(1, 3_000_000_000);
        // match 0-1 and 2-3 explicitly
        let partner = vec![1, 0, 3, 2];
        let level = contract(&g, &partner);
        assert_eq!(level.graph.num_vertices(), 2);
        // vertex weight saturates, not wraps
        assert_eq!(level.graph.vertex_weight(0), u32::MAX);
        // the two parallel edges {0,1}-{2,3} (from 0-2 and 1-2) merge with
        // saturation
        let (_, w) = level.graph.edges_of(0).next().unwrap();
        assert_eq!(w, u32::MAX);
    }

    /// A `rows x cols` grid with vertex weights cycling 1, 2, 3 and heavy
    /// rows: every third row's edges weigh 3e9, so the parallel coarse edges
    /// a contraction merges there saturate.
    fn heavy_row_graph(rows: u32, cols: u32) -> Graph {
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let v = r * cols + c;
                let w = if r % 3 == 0 { 3_000_000_000 } else { 1 + c % 3 };
                if c + 1 < cols {
                    edges.push((v, v + 1, w));
                }
                if r + 1 < rows {
                    edges.push((v, v + cols, w));
                }
            }
        }
        let mut g = Graph::from_edges((rows * cols) as usize, &edges);
        for u in 0..g.num_vertices() {
            g.set_vertex_weight(u, (u % 3) as u32 + 1);
        }
        g
    }

    /// FNV-1a over 200 seeds' matchings (partner array, pair count) and
    /// contractions (coarse vertex weights, rows, fine-to-coarse map), and
    /// the number of saturated coarse edge weights seen.
    fn matching_and_contraction_fingerprint(g: &Graph) -> (u64, usize) {
        let fnv = |h: u64, x: u64| (h ^ x).wrapping_mul(0x100_0000_01b3);
        let (mut h, mut saturated) = (0xcbf2_9ce4_8422_2325, 0);
        let mut ws = Workspace::new();
        for seed in 0..200 {
            let (partner, pairs) = heavy_edge_matching_impl(g, seed, false, &mut ws);
            h = partner
                .iter()
                .fold(fnv(h, pairs as u64), |h, &p| fnv(h, p as u64));
            let level = contract_impl(g, &partner, false, &mut ws);
            ws.partner = partner;
            let coarse = &level.graph;
            for c in 0..coarse.num_vertices() {
                h = fnv(h, coarse.vertex_weight(c) as u64);
                for (v, w) in coarse.edges_of(c) {
                    h = fnv(fnv(h, v as u64), w as u64);
                    saturated += (w == u32::MAX) as usize;
                }
                h = fnv(h, u64::MAX);
            }
            h = level
                .fine_to_coarse
                .iter()
                .fold(h, |h, &c| fnv(h, c as u64));
        }
        (h, saturated)
    }

    #[test]
    fn matching_and_contraction_bytes_are_pinned() {
        // recorded before the matching and contraction kernels were
        // rewritten: every tie-break and every merged weight must survive
        let (grid, _) = matching_and_contraction_fingerprint(&grid_graph(24, 20));
        assert_eq!(grid, 0xa158_b4f2_e879_4282);
        let (heavy, saturated) = matching_and_contraction_fingerprint(&heavy_row_graph(21, 19));
        assert_eq!(heavy, 0xecb3_4436_bdfb_3442);
        assert!(saturated > 0, "the heavy rows must exercise saturation");
    }

    #[test]
    fn hierarchy_reaches_target() {
        let g = grid_graph(16, 16);
        let levels = coarsen_hierarchy(&g, 30, 7);
        assert!(!levels.is_empty());
        let coarsest = &levels.last().unwrap().graph;
        assert!(
            coarsest.num_vertices() <= 40,
            "got {}",
            coarsest.num_vertices()
        );
        assert_eq!(coarsest.total_vertex_weight(), 256);
    }

    #[test]
    fn hierarchy_levels_shrink_geometrically() {
        // retained levels must shrink by at least RETAIN_SHRINK (except a
        // possible final stalled level), keeping total memory O(n)
        let g = grid_graph(40, 40);
        let levels = coarsen_hierarchy(&g, 25, 2);
        let mut prev = g.num_vertices();
        for (i, level) in levels.iter().enumerate() {
            let n = level.graph.num_vertices();
            let goal = ((prev as f64 * RETAIN_SHRINK).ceil() as usize).max(25);
            assert!(
                n <= goal || i == levels.len() - 1,
                "level {i} has {n} vertices, retain goal {goal}"
            );
            prev = n;
        }
        let total: usize = levels.iter().map(|l| l.graph.num_vertices()).sum();
        assert!(total <= 3 * g.num_vertices());
    }

    #[test]
    fn hierarchy_stalls_without_progress_before_contracting() {
        // an edgeless graph cannot be matched at all: the hierarchy must
        // stop via the matched-pair-count check (before paying for any
        // contraction) and return no levels
        let g = Graph::from_edges(64, &[]);
        let levels = coarsen_hierarchy(&g, 8, 1);
        assert!(levels.is_empty());
    }

    #[test]
    fn hierarchy_composes_fine_to_coarse_consistently() {
        // when a retained level composes several matchings, fine_to_coarse
        // must still map every fine vertex onto the retained coarse graph
        // with conserved vertex weight
        let g = grid_graph(32, 32);
        let levels = coarsen_hierarchy(&g, 20, 9);
        let mut fine_n = g.num_vertices();
        let mut fine_weights: Vec<u64> = (0..fine_n).map(|u| g.vertex_weight(u) as u64).collect();
        for level in &levels {
            assert_eq!(level.fine_to_coarse.len(), fine_n);
            let cn = level.graph.num_vertices();
            let mut sums = vec![0u64; cn];
            for (u, &c) in level.fine_to_coarse.iter().enumerate() {
                assert!((c as usize) < cn);
                sums[c as usize] += fine_weights[u];
            }
            for (c, &s) in sums.iter().enumerate() {
                assert_eq!(s, level.graph.vertex_weight(c) as u64);
            }
            fine_n = cn;
            fine_weights = sums;
        }
    }

    #[test]
    fn hierarchy_on_tiny_graph_is_empty_or_small() {
        let g = path_graph(3);
        let levels = coarsen_hierarchy(&g, 10, 0);
        assert!(levels.is_empty());
    }

    #[test]
    fn hierarchy_reuses_one_workspace_across_levels() {
        let g = grid_graph(20, 20);
        let mut ws = Workspace::new();
        let a = coarsen_hierarchy_with(&g, 16, 5, &mut ws);
        let b = coarsen_hierarchy_with(&g, 16, 5, &mut ws);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.graph, y.graph);
            assert_eq!(x.fine_to_coarse, y.fine_to_coarse);
        }
    }
}
