//! The Stencil Strips algorithm (Section V-C).
//!
//! The grid is partitioned into *strips* that run along the largest grid
//! dimension.  The widths of the strips in the remaining dimensions are
//! chosen close to the side lengths of an optimally scaled bounding box of
//! the stencil (e.g. `√n × √n` blocks for the 2-d nearest-neighbor stencil),
//! using the *distortion factors* `α_i = e_i / ᵈᵇ√V_b` derived from the
//! stencil extents.  Ranks are assigned consecutively along the strips, with
//! the traversal direction alternating from strip to strip (serpentine /
//! boustrophedon order, Fig. 5) so that the processes of one node always form
//! a coherent block even when nodes straddle strip boundaries.
//!
//! The per-rank computation needs the strip geometry (`O(k·d)` for the
//! distortion factors) plus a walk over the strips to locate the rank's
//! strip; the number of strips is small (`O(p / n)` at most).  A full table
//! builds the geometry once per chunk of ranks and resumes each rank's walk
//! at the previous rank's strip (see [`MapWorkspace`]), so consecutive ranks
//! cost amortised `O(d)` each.

use crate::problem::{MapWorkspace, MappingProblem, RankLocalMapper};
use stencil_grid::Stencil;

/// The Stencil Strips mapping algorithm.
#[derive(Debug, Clone, Copy, Default)]
pub struct StencilStrips;

/// Precomputed strip geometry for a mapping problem.  Exposed for tests and
/// diagnostics; the mapper caches it per workspace.
#[derive(Debug, Clone, PartialEq)]
pub struct StripLayout {
    /// Index of the largest dimension (the direction the strips run along).
    pub along: usize,
    /// For every dimension except `along`: the strip widths in that dimension.
    /// `widths[i]` is empty for `i == along`.
    pub widths: Vec<Vec<usize>>,
    /// Real-valued target strip lengths `s_i` (diagnostic; `0` for `along`).
    pub target_lengths: Vec<f64>,
    /// Distortion factors `α_i`.
    pub distortion: Vec<f64>,
}

impl StripLayout {
    /// Computes the strip layout for a grid, stencil and node size `n`.
    pub fn new(dims: &[usize], stencil: &Stencil, n: usize) -> Self {
        let d = dims.len();
        let along = dims
            .iter()
            .enumerate()
            .max_by_key(|&(i, &s)| (s, std::cmp::Reverse(i)))
            .map(|(i, _)| i)
            .unwrap_or(0);

        let distortion = distortion_factors(stencil);
        let n = n.max(1) as f64;

        // Real-valued target strip lengths, computed for every dimension
        // except the one the strips run along (Section V-C):
        //   s_i = (α_i · n / Π_{j already fixed} s_j)^(1 / (d − i)).
        let mut target_lengths = vec![0.0f64; d];
        let mut prod_so_far = 1.0f64;
        let mut fixed = 0usize;
        for i in 0..d {
            if i == along {
                continue;
            }
            let exponent = 1.0 / (d - fixed) as f64;
            let raw = (distortion[i] * n / prod_so_far).max(0.0).powf(exponent);
            let s = raw.max(1.0).min(dims[i] as f64);
            target_lengths[i] = s;
            prod_so_far *= s;
            fixed += 1;
        }

        // Integral strip widths: ⌊d_i / s_i⌋ strips; the remainder is
        // absorbed by widening the trailing strips by one (the paper widens
        // only the last strip; spreading the remainder is the same idea with
        // better balance).
        let mut widths = vec![Vec::new(); d];
        for i in 0..d {
            if i == along {
                continue;
            }
            let s = target_lengths[i];
            let count = ((dims[i] as f64 / s).floor() as usize).clamp(1, dims[i]);
            let base = dims[i] / count;
            let rem = dims[i] % count;
            let mut w = Vec::with_capacity(count);
            for j in 0..count {
                w.push(base + usize::from(j >= count - rem));
            }
            widths[i] = w;
        }

        StripLayout {
            along,
            widths,
            target_lengths,
            distortion,
        }
    }

    /// Number of strips along every non-`along` dimension.
    pub fn strip_counts(&self) -> Vec<usize> {
        self.widths
            .iter()
            .enumerate()
            .map(|(i, w)| if i == self.along { 1 } else { w.len() })
            .collect()
    }

    /// Total number of strips.
    pub fn num_strips(&self) -> usize {
        self.widths
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != self.along)
            .map(|(_, w)| w.len())
            .product()
    }

    /// Decodes the `t`-th strip of the serpentine traversal into per-dimension
    /// strip indices (only meaningful for dimensions other than `along`).
    #[cfg(test)]
    fn strip_indices(&self, t: usize) -> Vec<usize> {
        let mut digits = Vec::new();
        self.strip_indices_into(t, &mut digits);
        digits
    }

    /// Allocation-free variant of [`StripLayout::strip_indices`] writing into
    /// a reused buffer.
    fn strip_indices_into(&self, t: usize, digits: &mut Vec<usize>) {
        let d = self.widths.len();
        digits.clear();
        digits.resize(d, 0);
        // Row-major decode (first dimension slowest) …
        let mut rem = t;
        for i in (0..d).rev() {
            let count = if i == self.along {
                1
            } else {
                self.widths[i].len()
            };
            digits[i] = rem % count;
            rem /= count;
        }
        // … then reflect digits whose more significant digits have odd sum,
        // producing a boustrophedon path over the strip grid.
        let mut parity = 0usize;
        for (i, digit) in digits.iter_mut().enumerate() {
            let count = if i == self.along {
                1
            } else {
                self.widths[i].len()
            };
            let original = *digit;
            if parity % 2 == 1 {
                *digit = count - 1 - *digit;
            }
            parity += original;
        }
    }

    /// Cross-section area of the strip with the given per-dimension indices.
    fn strip_area(&self, indices: &[usize]) -> usize {
        let mut area = 1usize;
        for (i, w) in self.widths.iter().enumerate() {
            if i == self.along {
                continue;
            }
            area *= w[indices[i]];
        }
        area
    }
}

/// The strip of the serpentine walk that held the previous rank: its
/// position `strip` in the walk, its strip index in every dimension followed
/// by its first coordinate in every dimension (`indices`, `2d` entries), the
/// first rank it holds and its cross-section `area` (`0`: no strip yet).
#[derive(Debug, Default)]
pub(crate) struct StripCursor {
    strip: usize,
    indices: Vec<usize>,
    first: usize,
    area: usize,
}

impl RankLocalMapper for StencilStrips {
    fn local_name(&self) -> &str {
        "Stencil Strips"
    }

    fn remap_rank_into(
        &self,
        problem: &MappingProblem,
        rank: usize,
        ws: &mut MapWorkspace,
        out: &mut [usize],
    ) {
        let dims = problem.dims().as_slice();
        // The strip geometry only depends on the problem, not the rank; a
        // workspace serves exactly one problem, so compute it once and reuse
        // it for every rank of the chunk.
        let layout = ws.strips.get_or_insert_with(|| {
            StripLayout::new(dims, problem.stencil(), problem.node_size_parameter())
        });
        rank_to_coord_into(dims, layout, rank, &mut ws.strip_cursor, out);
    }
}

/// Decodes the coordinate of `rank` under a strip layout into `out`.  The
/// walk to `rank`'s strip starts at `at`'s strip unless `rank` lies before
/// it (or `at` holds no strip yet), and leaves `at` on `rank`'s strip,
/// reusing its buffers.
fn rank_to_coord_into(
    dims: &[usize],
    layout: &StripLayout,
    rank: usize,
    at: &mut StripCursor,
    out: &mut [usize],
) {
    let along = layout.along;
    let len_along = dims[along];
    let num_strips = layout.num_strips();

    // Locate the strip containing `rank` by walking the serpentine order.
    let mut moved = at.area == 0 || rank < at.first;
    if moved {
        at.indices.reserve(2 * dims.len());
        layout.strip_indices_into(0, &mut at.indices);
        at.strip = 0;
        at.first = 0;
        at.area = layout.strip_area(&at.indices);
    }
    loop {
        let volume = at.area * len_along;
        if rank < at.first + volume || at.strip + 1 == num_strips {
            break;
        }
        at.first += volume;
        at.strip += 1;
        layout.strip_indices_into(at.strip, &mut at.indices);
        at.area = layout.strip_area(&at.indices);
        moved = true;
    }
    if moved {
        // the strip's first coordinate in every dimension, once per strip
        for i in 0..dims.len() {
            let first = layout.widths[i][..at.indices[i]].iter().sum();
            at.indices.push(first);
        }
    }
    let local = rank - at.first;

    // Position along the strip (slab index) and within the cross-section.
    let slab = (local / at.area).min(len_along - 1);
    let mut cross = local % at.area;

    // Alternate the traversal direction along the strip per Fig. 5 so that
    // consecutive strips hand over at the same end of the grid.
    let pos_along = if at.strip.is_multiple_of(2) {
        slab
    } else {
        len_along - 1 - slab
    };

    // Decode the cross-section index (row-major over the non-`along` dims).
    out.fill(0);
    out[along] = pos_along;
    for i in (0..dims.len()).rev() {
        if i == along {
            continue;
        }
        let w = layout.widths[i][at.indices[i]];
        out[i] = at.indices[dims.len() + i] + cross % w;
        cross /= w;
    }
}

/// The distortion factors `α_i = e_i / ᵈᵇ√V_b` of Section V-C, where `e_i`
/// are the stencil extents, `db` the number of non-zero extents and `V_b` the
/// bounding-box volume (zero extents contribute a factor of one).
pub fn distortion_factors(stencil: &Stencil) -> Vec<f64> {
    let ext = stencil.extents();
    let db = ext.iter().filter(|&&e| e != 0).count().max(1);
    let vb: f64 = ext
        .iter()
        .map(|&e| if e == 0 { 1.0 } else { e as f64 })
        .product();
    let root = vb.powf(1.0 / db as f64);
    ext.iter().map(|&e| e as f64 / root).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::Blocked;
    use crate::metrics::evaluate;
    use crate::problem::{Mapper, MappingProblem};
    use proptest::prelude::*;
    use stencil_grid::{CartGraph, Dims, NodeAllocation, Stencil};

    fn problem(dims: &[usize], nodes: usize, per: usize, stencil: Stencil) -> MappingProblem {
        MappingProblem::new(
            Dims::from_slice(dims),
            stencil,
            NodeAllocation::homogeneous(nodes, per),
        )
        .unwrap()
    }

    #[test]
    fn distortion_factors_match_paper_definitions() {
        // nearest neighbor 2-d: extents [2,2], Vb = 4, db = 2 -> alpha = [1,1]
        let a = distortion_factors(&Stencil::nearest_neighbor(2));
        assert!((a[0] - 1.0).abs() < 1e-12 && (a[1] - 1.0).abs() < 1e-12);
        // hops: extents [6,2], Vb = 12, db = 2 -> alpha = [6/sqrt(12), 2/sqrt(12)]
        let a = distortion_factors(&Stencil::nearest_neighbor_with_hops(2));
        assert!((a[0] - 6.0 / 12f64.sqrt()).abs() < 1e-12);
        assert!((a[1] - 2.0 / 12f64.sqrt()).abs() < 1e-12);
        // component: extents [2,0], Vb = 2, db = 1 -> alpha = [1, 0]
        let a = distortion_factors(&Stencil::component(2));
        assert!((a[0] - 1.0).abs() < 1e-12);
        assert_eq!(a[1], 0.0);
    }

    #[test]
    fn layout_for_headline_instance_gives_square_blocks() {
        // 50x48, n = 48, nearest neighbor: strips run along dim 0 (size 50),
        // the target strip width is sqrt(48) ~ 6.93 -> 6 strips of width 8,
        // so every node becomes a 6 x 8 block.
        let layout = StripLayout::new(&[50, 48], &Stencil::nearest_neighbor(2), 48);
        assert_eq!(layout.along, 0);
        assert_eq!(layout.widths[1], vec![8, 8, 8, 8, 8, 8]);
        assert!((layout.target_lengths[1] - 48f64.sqrt()).abs() < 1e-9);
        assert_eq!(layout.num_strips(), 6);
    }

    #[test]
    fn layout_for_component_stencil_gives_unit_strips() {
        let layout = StripLayout::new(&[50, 48], &Stencil::component(2), 48);
        assert_eq!(layout.along, 0);
        assert_eq!(layout.widths[1].len(), 48);
        assert!(layout.widths[1].iter().all(|&w| w == 1));
    }

    #[test]
    fn matches_paper_scores_nearest_neighbor() {
        // Paper Fig. 6: Stencil Strips Jsum = 1244, Jmax = 28 on 50x48/N=50.
        // The Jsum is a known deviation whose cause is open.
        let prob = problem(&[50, 48], 50, 48, Stencil::nearest_neighbor(2));
        let g = CartGraph::build(prob.dims(), prob.stencil(), false);
        let cost = evaluate(&g, &StencilStrips.compute(&prob).unwrap());
        assert_eq!((cost.j_sum, cost.j_max), (1252, 28));
        let blocked = evaluate(&g, &Blocked.compute(&prob).unwrap());
        assert!(cost.j_sum * 3 < blocked.j_sum);
    }

    #[test]
    fn finds_optimal_mapping_for_component_stencil() {
        // Paper: Stencil Strips (like k-d tree) finds the optimal mapping for
        // the component stencil: Jsum = 96, Jmax = 2 (N=50) / 192, 2 (N=100).
        let prob = problem(&[50, 48], 50, 48, Stencil::component(2));
        let g = CartGraph::build(prob.dims(), prob.stencil(), false);
        let cost = evaluate(&g, &StencilStrips.compute(&prob).unwrap());
        assert_eq!(cost.j_sum, 96);
        assert_eq!(cost.j_max, 2);

        let prob = problem(&[75, 64], 100, 48, Stencil::component(2));
        let g = CartGraph::build(prob.dims(), prob.stencil(), false);
        let cost = evaluate(&g, &StencilStrips.compute(&prob).unwrap());
        assert_eq!(cost.j_sum, 192);
        assert_eq!(cost.j_max, 2);
    }

    #[test]
    fn improves_hops_stencil() {
        // Paper: Stencil Strips Jsum = 3868, Jmax = 88 (hops, N=50).
        let prob = problem(&[50, 48], 50, 48, Stencil::nearest_neighbor_with_hops(2));
        let g = CartGraph::build(prob.dims(), prob.stencil(), false);
        let cost = evaluate(&g, &StencilStrips.compute(&prob).unwrap());
        let blocked = evaluate(&g, &Blocked.compute(&prob).unwrap());
        assert!(cost.j_sum < blocked.j_sum / 2);
        assert!(cost.j_sum < 5000, "Jsum = {}", cost.j_sum);
    }

    #[test]
    fn serpentine_keeps_straddling_nodes_coherent() {
        // With strips of width 1 (component stencil) the hand-over between
        // strips must happen at the same end of the grid: the last cell of
        // strip t and the first cell of strip t+1 share the same position
        // along the strip direction.
        let prob = problem(&[6, 4], 4, 6, Stencil::component(2));
        let m = StencilStrips.compute(&prob).unwrap();
        // ranks 5 and 6 are consecutive and live in adjacent strips
        let a = m.coord_of_rank(5);
        let b = m.coord_of_rank(6);
        assert_eq!(
            a[0], b[0],
            "hand-over must be at the same row: {a:?} vs {b:?}"
        );
        assert_eq!((a[1] as i64 - b[1] as i64).abs(), 1);
    }

    #[test]
    fn valid_on_three_dimensions_and_odd_sizes() {
        let prob = problem(&[7, 6, 5], 10, 21, Stencil::nearest_neighbor(3));
        let m = StencilStrips.compute(&prob).unwrap();
        assert!(m.respects_allocation(prob.alloc()));

        let prob = problem(&[13, 11], 13, 11, Stencil::nearest_neighbor_with_hops(2));
        let m = StencilStrips.compute(&prob).unwrap();
        assert!(m.respects_allocation(prob.alloc()));
    }

    #[test]
    fn heterogeneous_allocation_still_valid() {
        let prob = MappingProblem::new(
            Dims::from_slice(&[6, 5]),
            Stencil::nearest_neighbor(2),
            NodeAllocation::heterogeneous(vec![12, 10, 8]).unwrap(),
        )
        .unwrap();
        let m = StencilStrips.compute(&prob).unwrap();
        assert!(m.respects_allocation(prob.alloc()));
    }

    proptest! {
        #[test]
        fn prop_valid_permutation(
            d0 in 1usize..10, d1 in 1usize..10, div in 1usize..6,
        ) {
            let p = d0 * d1;
            if p % div == 0 {
                let prob = problem(&[d0, d1], p / div, div, Stencil::nearest_neighbor(2));
                let m = StencilStrips.compute(&prob).unwrap();
                prop_assert!(m.respects_allocation(prob.alloc()));
            }
        }

        #[test]
        fn prop_strip_widths_cover_dimensions(
            d0 in 2usize..40, d1 in 2usize..40, n in 1usize..50,
        ) {
            let layout = StripLayout::new(&[d0, d1], &Stencil::nearest_neighbor(2), n);
            for (i, w) in layout.widths.iter().enumerate() {
                if i == layout.along {
                    prop_assert!(w.is_empty());
                } else {
                    prop_assert_eq!(w.iter().sum::<usize>(), [d0, d1][i]);
                    prop_assert!(w.iter().all(|&x| x >= 1));
                }
            }
        }

        #[test]
        fn prop_serpentine_strip_order_is_a_path(
            k0 in 1usize..5, k1 in 1usize..5,
        ) {
            // consecutive strips differ by exactly one in exactly one index
            let layout = StripLayout {
                along: 2,
                widths: vec![vec![1; k0], vec![1; k1], vec![]],
                target_lengths: vec![1.0, 1.0, 0.0],
                distortion: vec![1.0, 1.0, 1.0],
            };
            let total = k0 * k1;
            for t in 0..total.saturating_sub(1) {
                let a = layout.strip_indices(t);
                let b = layout.strip_indices(t + 1);
                let diff: usize = a.iter().zip(&b)
                    .map(|(x, y)| if x == y { 0 } else { 1 })
                    .sum();
                prop_assert_eq!(diff, 1, "strips {:?} -> {:?}", a, b);
            }
        }
    }
}
