//! Mapping quality metrics: `Jsum`, `Jmax` and per-node communication loads.
//!
//! Following Section II of the paper, the cost function
//! `σ(u, v) ∈ {0, 1}` indicates whether the directed communication edge
//! `(u, v)` of the Cartesian graph crosses a compute-node boundary.
//! `Jsum = Σ_{(u,v) ∈ E} σ(u,v)` is the total amount of inter-node
//! communication and `Jmax` is the number of outgoing inter-node edges of the
//! *bottleneck* node (the node with the most outgoing inter-node edges).
//!
//! Two evaluators are provided:
//!
//! * [`evaluate`] walks a materialised [`CartGraph`] (CSR) — use it when the
//!   graph already exists for other purposes,
//! * [`evaluate_streaming`] enumerates the stencil neighbors of every grid
//!   position on the fly from [`Dims`] + [`Stencil`], so figure-scale runs
//!   score a mapping in `O(p)` memory without ever materialising the
//!   `O(p·k)` graph.  Both evaluators agree bit for bit.

use crate::mapping::Mapping;
use rayon::prelude::*;
use stencil_grid::{CartGraph, Dims, Stencil};

/// The communication cost of a mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MappingCost {
    /// Total number of directed inter-node communication edges (`Jsum`).
    pub j_sum: u64,
    /// Outgoing inter-node edges of the bottleneck node (`Jmax`).
    pub j_max: u64,
    /// Outgoing inter-node edges of every node (`j_max = max(per_node_egress)`).
    pub per_node_egress: Vec<u64>,
}

impl MappingCost {
    /// Index of the bottleneck node.
    pub fn bottleneck_node(&self) -> usize {
        self.per_node_egress
            .iter()
            .enumerate()
            .max_by_key(|&(_, &e)| e)
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Average egress per node.
    pub fn mean_egress(&self) -> f64 {
        if self.per_node_egress.is_empty() {
            0.0
        } else {
            self.j_sum as f64 / self.per_node_egress.len() as f64
        }
    }

    /// Reduction of this cost relative to a reference cost (typically the
    /// blocked mapping), as used in Fig. 8 of the paper:
    /// `(Jsum_self / Jsum_ref, Jmax_self / Jmax_ref)`.
    ///
    /// Values below 1 mean an improvement over the reference.  If the
    /// reference cost is zero, the reduction is reported as 1 when this cost
    /// is also zero and as infinity otherwise.
    pub fn reduction_over(&self, reference: &MappingCost) -> (f64, f64) {
        (
            ratio(self.j_sum, reference.j_sum),
            ratio(self.j_max, reference.j_max),
        )
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        if a == 0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        a as f64 / b as f64
    }
}

/// Evaluates the communication cost of a mapping on the given Cartesian
/// communication graph.
///
/// # Panics
///
/// Panics if the graph and the mapping were built for different grid sizes.
pub fn evaluate(graph: &CartGraph, mapping: &Mapping) -> MappingCost {
    assert_eq!(
        graph.num_vertices(),
        mapping.num_processes(),
        "graph and mapping must describe the same grid"
    );
    let mut per_node_egress = vec![0u64; mapping.num_nodes()];
    let mut j_sum = 0u64;
    for u in 0..graph.num_vertices() {
        let nu = mapping.node_of_position(u);
        for &v in graph.neighbors(u) {
            let nv = mapping.node_of_position(v as usize);
            if nu != nv {
                j_sum += 1;
                per_node_egress[nu] += 1;
            }
        }
    }
    let j_max = per_node_egress.iter().copied().max().unwrap_or(0);
    MappingCost {
        j_sum,
        j_max,
        per_node_egress,
    }
}

/// Evaluates the communication cost of a mapping directly from the grid
/// dimensions and the stencil, without materialising the `O(p·k)`
/// communication graph.
///
/// Neighbors are enumerated on the fly (offsets applied to each position's
/// coordinate with periodic wrap-around when requested); self-targets are
/// dropped exactly as [`CartGraph::try_build`] drops them, so the result is
/// bit-for-bit identical to [`evaluate`] on the corresponding graph.  The
/// position range is scored in parallel chunks, each with its own dense
/// per-node egress accumulator, and the chunk accumulators are merged at
/// the end — `O(p)` work, `O(p)` memory, deterministic for every thread
/// count.  Each chunk walks its positions with an odometer coordinate.  An
/// *interior* position, where every offset lands inside the grid without
/// wrapping, reaches each neighbour by a precomputed linear rank delta;
/// boundary positions apply the offsets coordinate-wise.
///
/// # Panics
///
/// Panics if the stencil dimensionality does not match the grid or the
/// mapping was built for a different grid size.
pub fn evaluate_streaming(
    dims: &Dims,
    stencil: &Stencil,
    periodic: bool,
    mapping: &Mapping,
) -> MappingCost {
    stencil
        .check_dims(dims)
        .expect("stencil and grid dimensionality must match");
    let p = dims.volume();
    assert_eq!(
        p,
        mapping.num_processes(),
        "grid and mapping must describe the same number of processes"
    );
    let num_nodes = mapping.num_nodes();
    let chunk_size = (p / (rayon::current_num_threads() * 4).max(1))
        .clamp(1024, 1 << 16)
        .min(p.max(1));
    let num_chunks = p.div_ceil(chunk_size).max(1);

    let sizes = dims.as_slice();
    let offsets = stencil.offsets();
    let nodes = mapping.node_of_position_slice();
    // how far the stencil reaches below and above a coordinate, per dim:
    // coordinate x of dim i is interior when below[i] <= x < sizes[i] - above[i]
    let mut below = vec![0usize; sizes.len()];
    let mut above = vec![0usize; sizes.len()];
    for off in offsets {
        for (i, &o) in off.iter().enumerate() {
            below[i] = below[i].max(o.min(0).unsigned_abs() as usize);
            above[i] = above[i].max(o.max(0) as usize);
        }
    }
    // an offset reaching past a whole dim leaves no interior position, so
    // its delta is never read and may wrap
    let mut stride = 1isize;
    let mut deltas = vec![0isize; offsets.len()];
    for i in (0..sizes.len()).rev() {
        for (delta, off) in deltas.iter_mut().zip(offsets) {
            *delta = delta.wrapping_add((off[i] as isize).wrapping_mul(stride));
        }
        stride *= sizes[i] as isize;
    }

    let partials: Vec<Vec<u64>> = (0..num_chunks)
        .into_par_iter()
        .map(|c| {
            let lo = c * chunk_size;
            let hi = ((c + 1) * chunk_size).min(p);
            let mut egress = vec![0u64; num_nodes];
            let mut coord = vec![0usize; sizes.len()];
            stencil_grid::coords::rank_to_coord_into(lo, sizes, &mut coord);
            for u in lo..hi {
                let nu = nodes[u];
                let interior = (0..sizes.len())
                    .all(|i| coord[i] >= below[i] && coord[i] + above[i] < sizes[i]);
                if interior {
                    for &delta in &deltas {
                        if nodes[(u as isize + delta) as usize] != nu {
                            egress[nu] += 1;
                        }
                    }
                } else {
                    for off in offsets {
                        if let Some(v) = dims.rank_after_offset(&coord, off, periodic) {
                            if v != u && nodes[v] != nu {
                                egress[nu] += 1;
                            }
                        }
                    }
                }
                // the odometer steps to position u + 1
                for i in (0..sizes.len()).rev() {
                    coord[i] += 1;
                    if coord[i] < sizes[i] {
                        break;
                    }
                    coord[i] = 0;
                }
            }
            egress
        })
        .collect();

    let mut per_node_egress = vec![0u64; num_nodes];
    for partial in &partials {
        for (total, x) in per_node_egress.iter_mut().zip(partial) {
            *total += x;
        }
    }
    let j_sum = per_node_egress.iter().sum();
    let j_max = per_node_egress.iter().copied().max().unwrap_or(0);
    MappingCost {
        j_sum,
        j_max,
        per_node_egress,
    }
}

/// Per-node traffic matrix entry: number of directed edges from `from` to `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeTraffic {
    /// Source compute node.
    pub from: usize,
    /// Destination compute node.
    pub to: usize,
    /// Number of directed communication edges between the two nodes.
    pub edges: u64,
}

/// Computes the inter-node traffic matrix (sparse, only non-zero entries) of
/// a mapping.  Used by the cluster simulator to derive link loads.
///
/// The accumulation walks the positions grouped by their source node (every
/// node owns a contiguous rank block, so its positions are enumerated via the
/// rank permutation) and accumulates one dense per-node row at a time —
/// `O(N)` scratch reused across rows instead of a hash map keyed by node
/// pairs.  Entries come out sorted by `(from, to)` by construction.
pub fn node_traffic(graph: &CartGraph, mapping: &Mapping) -> Vec<NodeTraffic> {
    assert_eq!(
        graph.num_vertices(),
        mapping.num_processes(),
        "graph and mapping must describe the same grid"
    );
    let num_nodes = mapping.num_nodes();
    let mut row = vec![0u64; num_nodes];
    let mut touched: Vec<usize> = Vec::new();
    let mut out: Vec<NodeTraffic> = Vec::new();
    for from in 0..num_nodes {
        for rank in mapping_ranks_of_node(mapping, from) {
            let u = mapping.position_of_rank(rank);
            for &v in graph.neighbors(u) {
                let to = mapping.node_of_position(v as usize);
                if to != from {
                    if row[to] == 0 {
                        touched.push(to);
                    }
                    row[to] += 1;
                }
            }
        }
        touched.sort_unstable();
        for &to in &touched {
            out.push(NodeTraffic {
                from,
                to,
                edges: row[to],
            });
            row[to] = 0;
        }
        touched.clear();
    }
    out
}

/// The contiguous rank range owned by `node` (ranks are allocated to nodes in
/// blocks; see `NodeAllocation`).  Derived from the mapping itself so the
/// metrics module needs no allocation argument.
fn mapping_ranks_of_node(mapping: &Mapping, node: usize) -> std::ops::Range<usize> {
    // Scan is avoided: node blocks are contiguous in rank space, so binary
    // search the boundaries via node_of_position(position_of_rank(r)).
    let p = mapping.num_processes();
    let node_of_rank = |r: usize| mapping.node_of_position(mapping.position_of_rank(r));
    let start = partition_point(p, |r| node_of_rank(r) < node);
    let end = partition_point(p, |r| node_of_rank(r) <= node);
    start..end
}

/// First index in `0..p` for which `pred` turns false (`pred` must be
/// monotone).
fn partition_point(p: usize, pred: impl Fn(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (0usize, p);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Counts, for every process (grid position), how many of its communication
/// partners live on a different node.  The maximum of this vector is the
/// per-process inter-node degree used by the communication time model.
pub fn per_process_offnode_degree(graph: &CartGraph, mapping: &Mapping) -> Vec<u32> {
    (0..graph.num_vertices())
        .map(|u| {
            let nu = mapping.node_of_position(u);
            graph
                .neighbors(u)
                .iter()
                .filter(|&&v| mapping.node_of_position(v as usize) != nu)
                .count() as u32
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::Blocked;
    use crate::problem::{Mapper, MappingProblem};
    use proptest::prelude::*;
    use stencil_grid::{Dims, NodeAllocation, Stencil};

    fn paper_headline_problem() -> (MappingProblem, CartGraph) {
        let p = MappingProblem::new(
            Dims::from_slice(&[50, 48]),
            Stencil::nearest_neighbor(2),
            NodeAllocation::homogeneous(50, 48),
        )
        .unwrap();
        let g = CartGraph::build(p.dims(), p.stencil(), false);
        (p, g)
    }

    #[test]
    fn blocked_cost_matches_paper_figure6_nearest_neighbor() {
        // Fig. 6 (left column, top): Standard (blocked) Jsum = 4704, Jmax = 96.
        let (p, g) = paper_headline_problem();
        let m = Blocked.compute(&p).unwrap();
        let c = evaluate(&g, &m);
        assert_eq!(c.j_sum, 4704);
        assert_eq!(c.j_max, 96);
    }

    #[test]
    fn blocked_cost_matches_paper_figure6_hops_and_component() {
        // Fig. 6 middle/bottom: Standard Jsum = 13824 (hops), 4704 (component).
        let dims = Dims::from_slice(&[50, 48]);
        let alloc = NodeAllocation::homogeneous(50, 48);
        let hops = MappingProblem::new(
            dims.clone(),
            Stencil::nearest_neighbor_with_hops(2),
            alloc.clone(),
        )
        .unwrap();
        let g = CartGraph::build(hops.dims(), hops.stencil(), false);
        let c = evaluate(&g, &Blocked.compute(&hops).unwrap());
        assert_eq!(c.j_sum, 13824);
        assert_eq!(c.j_max, 288);

        let comp = MappingProblem::new(dims, Stencil::component(2), alloc).unwrap();
        let g = CartGraph::build(comp.dims(), comp.stencil(), false);
        let c = evaluate(&g, &Blocked.compute(&comp).unwrap());
        assert_eq!(c.j_sum, 4704);
        assert_eq!(c.j_max, 96);
    }

    #[test]
    fn blocked_cost_matches_paper_figure7_blocked_scores() {
        // Fig. 7 (N = 100, grid 75 x 64): Standard Jsum = 9622? The paper
        // reports 9622 for nearest neighbor.  Our blocked mapping assigns
        // ranks row-major over a 75x64 grid with 48 ranks per node, which is
        // exactly the "Standard" mapping of the paper.
        let p = MappingProblem::new(
            Dims::from_slice(&[75, 64]),
            Stencil::nearest_neighbor(2),
            NodeAllocation::homogeneous(100, 48),
        )
        .unwrap();
        let g = CartGraph::build(p.dims(), p.stencil(), false);
        let c = evaluate(&g, &Blocked.compute(&p).unwrap());
        assert_eq!(c.j_sum, 9622);
        // component stencil: Standard Jsum = 9472
        let p2 = MappingProblem::new(
            Dims::from_slice(&[75, 64]),
            Stencil::component(2),
            NodeAllocation::homogeneous(100, 48),
        )
        .unwrap();
        let g2 = CartGraph::build(p2.dims(), p2.stencil(), false);
        let c2 = evaluate(&g2, &Blocked.compute(&p2).unwrap());
        assert_eq!(c2.j_sum, 9472);
        assert_eq!(c2.j_max, 96);
        // nearest neighbor with hops: Standard Jsum = 28182, Jmax = 290
        let p3 = MappingProblem::new(
            Dims::from_slice(&[75, 64]),
            Stencil::nearest_neighbor_with_hops(2),
            NodeAllocation::homogeneous(100, 48),
        )
        .unwrap();
        let g3 = CartGraph::build(p3.dims(), p3.stencil(), false);
        let c3 = evaluate(&g3, &Blocked.compute(&p3).unwrap());
        assert_eq!(c3.j_sum, 28182);
        assert_eq!(c3.j_max, 290);
        let _ = c;
    }

    #[test]
    fn jsum_is_sum_of_per_node_egress() {
        let (p, g) = paper_headline_problem();
        let c = evaluate(&g, &Blocked.compute(&p).unwrap());
        assert_eq!(c.per_node_egress.iter().sum::<u64>(), c.j_sum);
        assert_eq!(c.per_node_egress.iter().copied().max().unwrap(), c.j_max);
        assert!(c.mean_egress() > 0.0);
    }

    #[test]
    fn single_node_has_zero_cost() {
        let p = MappingProblem::new(
            Dims::from_slice(&[4, 4]),
            Stencil::nearest_neighbor(2),
            NodeAllocation::homogeneous(1, 16),
        )
        .unwrap();
        let g = CartGraph::build(p.dims(), p.stencil(), false);
        let c = evaluate(&g, &Blocked.compute(&p).unwrap());
        assert_eq!(c.j_sum, 0);
        assert_eq!(c.j_max, 0);
        assert_eq!(c.bottleneck_node(), 0);
    }

    #[test]
    fn reduction_over_blocked() {
        let a = MappingCost {
            j_sum: 50,
            j_max: 5,
            per_node_egress: vec![5, 45],
        };
        let b = MappingCost {
            j_sum: 100,
            j_max: 10,
            per_node_egress: vec![10, 90],
        };
        let (rs, rm) = a.reduction_over(&b);
        assert!((rs - 0.5).abs() < 1e-12);
        assert!((rm - 0.5).abs() < 1e-12);
        let zero = MappingCost {
            j_sum: 0,
            j_max: 0,
            per_node_egress: vec![0, 0],
        };
        assert_eq!(zero.reduction_over(&zero), (1.0, 1.0));
        assert_eq!(a.reduction_over(&zero), (f64::INFINITY, f64::INFINITY));
        assert_eq!(b.bottleneck_node(), 1);
    }

    #[test]
    fn node_traffic_is_symmetric_for_symmetric_stencils() {
        let (p, g) = paper_headline_problem();
        let m = Blocked.compute(&p).unwrap();
        let t = node_traffic(&g, &m);
        let total: u64 = t.iter().map(|e| e.edges).sum();
        assert_eq!(total, evaluate(&g, &m).j_sum);
        for e in &t {
            let rev = t
                .iter()
                .find(|x| x.from == e.to && x.to == e.from)
                .expect("reverse traffic entry");
            assert_eq!(rev.edges, e.edges);
        }
    }

    #[test]
    fn per_process_offnode_degree_sums_to_jsum() {
        let (p, g) = paper_headline_problem();
        let m = Blocked.compute(&p).unwrap();
        let deg = per_process_offnode_degree(&g, &m);
        let total: u64 = deg.iter().map(|&d| d as u64).sum();
        assert_eq!(total, evaluate(&g, &m).j_sum);
        // In the blocked mapping of the 50x48 NN instance each process has at
        // most 2 off-node neighbors (up/down).
        assert!(deg.iter().all(|&d| d <= 2));
    }

    #[test]
    fn streaming_scores_offsets_far_past_the_grid_like_csr() {
        // |offset| × stride overflows i64 here; no position is interior
        let p = MappingProblem::new(
            Dims::from_slice(&[2, 2048]),
            Stencil::new(
                2,
                vec![vec![9_000_000_000_000_000, 0], vec![0, 1], vec![0, -1]],
            )
            .unwrap(),
            NodeAllocation::homogeneous(4, 1024),
        )
        .unwrap();
        let mapping = Blocked.compute(&p).unwrap();
        for periodic in [false, true] {
            let g = CartGraph::build(p.dims(), p.stencil(), periodic);
            let streaming = evaluate_streaming(p.dims(), p.stencil(), periodic, &mapping);
            assert_eq!(evaluate(&g, &mapping), streaming);
        }
    }

    #[test]
    fn streaming_matches_csr_on_paper_instances() {
        let (p, g) = paper_headline_problem();
        for mapping in [
            Blocked.compute(&p).unwrap(),
            crate::hyperplane::Hyperplane::default()
                .compute(&p)
                .unwrap(),
            crate::stencil_strips::StencilStrips.compute(&p).unwrap(),
        ] {
            let csr = evaluate(&g, &mapping);
            let streaming = evaluate_streaming(p.dims(), p.stencil(), false, &mapping);
            assert_eq!(csr, streaming);
        }
    }

    #[test]
    fn streaming_matches_csr_periodic() {
        let p = MappingProblem::with_periodicity(
            Dims::from_slice(&[6, 5]),
            Stencil::nearest_neighbor_with_hops(2),
            NodeAllocation::homogeneous(6, 5),
            true,
        )
        .unwrap();
        let g = CartGraph::build(p.dims(), p.stencil(), true);
        let m = Blocked.compute(&p).unwrap();
        assert_eq!(
            evaluate(&g, &m),
            evaluate_streaming(p.dims(), p.stencil(), true, &m)
        );
    }

    #[test]
    #[should_panic(expected = "dimensionality")]
    fn streaming_rejects_mismatched_stencil() {
        let (p, _) = paper_headline_problem();
        let m = Blocked.compute(&p).unwrap();
        evaluate_streaming(p.dims(), &Stencil::nearest_neighbor(3), false, &m);
    }

    proptest! {
        #[test]
        fn prop_jmax_bounds(nodes in 2usize..6, per in 2usize..6) {
            let p = MappingProblem::new(
                Dims::from_slice(&[nodes, per]),
                Stencil::nearest_neighbor(2),
                NodeAllocation::homogeneous(nodes, per),
            ).unwrap();
            let g = CartGraph::build(p.dims(), p.stencil(), false);
            let c = evaluate(&g, &Blocked.compute(&p).unwrap());
            // Jmax <= Jsum <= N * Jmax
            prop_assert!(c.j_max <= c.j_sum);
            prop_assert!(c.j_sum <= c.j_max * nodes as u64);
        }
    }
}
