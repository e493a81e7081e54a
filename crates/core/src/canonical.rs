//! Canonical forms of mapping requests for caching.
//!
//! Many mapping requests are *equivalent up to a relabeling of the grid
//! dimensions*: permuting the dimension sizes and every stencil offset with
//! the same permutation is an isomorphism of the Cartesian communication
//! graph, so a mapping computed for one representative solves all of them —
//! the node assignment only has to be transported through the coordinate
//! relabeling.  Likewise, the *order* in which stencil offsets are listed
//! never changes the communication graph (it is a set of edges), although it
//! can steer tie-breaking inside the randomised algorithms.
//!
//! [`canonicalize`] picks a deterministic representative of each equivalence
//! class: the dimension permutation whose `(dims, sorted offsets)` pair is
//! lexicographically smallest, with the offsets sorted within the permuted
//! stencil.  A cache keyed by the canonical form (see the `stencil-serve`
//! crate) therefore serves every member of the class from one entry, and all
//! members receive *consistent* answers (identical cost, node tables equal up
//! to the relabeling).
//!
//! The search tries all `d!` permutations, which is perfectly cheap for the
//! dimensionalities stencil codes use (`d ≤ 4` in the paper); beyond
//! [`MAX_CANONICAL_NDIMS`] dimensions only the offset order is normalised and
//! the identity permutation is kept.

use std::cmp::Ordering;

use crate::mapping::Mapping;
use crate::problem::{MapError, MappingProblem};
use stencil_grid::{Dims, NamedStencil, Stencil};

/// Dimensionality up to which the permutation search is exhaustive. `8! =
/// 40320` candidate permutations is still far cheaper than any mapping
/// computation; above that the identity permutation is used.
pub const MAX_CANONICAL_NDIMS: usize = 8;

/// The canonical representative of a mapping-request equivalence class,
/// together with the relabeling that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct Canonical {
    /// Canonicalised dimension sizes.
    pub dims: Dims,
    /// Canonicalised stencil (offsets permuted alongside the dimensions and
    /// sorted lexicographically).
    pub stencil: Stencil,
    /// The dimension relabeling: canonical dimension `i` is original
    /// dimension `perm[i]`.
    pub perm: Vec<usize>,
}

/// Entries [`Restore::for_each`] gathers from a permuted table before
/// handing them out as one run.
pub const RESTORE_RUN: usize = 512;

/// Most offsets a named stencil has on [`MAX_CANONICAL_NDIMS`] dims: the
/// hops stencil's `2d + 4`.
const MAX_NAMED_OFFSETS: usize = 2 * MAX_CANONICAL_NDIMS + 4;

impl Canonical {
    /// Whether the canonical form kept the original dimension order (the
    /// stencil offset order may still have changed).
    pub fn is_identity_permutation(&self) -> bool {
        self.perm.iter().enumerate().all(|(i, &p)| i == p)
    }

    /// How a table on the canonical grid reads in the `original` grid's
    /// row-major order.
    ///
    /// # Panics
    ///
    /// Panics if `original` is not a permutation of the canonical dims, or
    /// `perm` is not the identity on more than [`MAX_CANONICAL_NDIMS`]
    /// dimensions (which [`canonicalize`] never produces).
    pub fn restore(&self, original: &Dims) -> Restore {
        let d = self.dims.ndims();
        assert_eq!(original.ndims(), d, "dimensionality");
        assert_eq!(original.volume(), self.dims.volume(), "grid volume");
        if self.is_identity_permutation() {
            return Restore::identity(original.volume());
        }
        assert!(
            d <= MAX_CANONICAL_NDIMS,
            "a dimension permutation over more than {MAX_CANONICAL_NDIMS} dims"
        );
        let restore = Restore::permuted(self.dims.as_slice(), &self.perm);
        if let Some(s) = &restore.strides {
            assert_eq!(&s.sizes[..d], original.as_slice(), "original dims");
        }
        restore
    }

    /// Transports a `position → value` table computed on the canonical grid
    /// back to the original grid: entry `x` of the result describes original
    /// grid position `x`.  Collects the runs of [`Restore::for_each`].
    ///
    /// # Panics
    ///
    /// As [`Canonical::restore`], and if `canonical_table` does not cover
    /// the grid.
    pub fn restore_positions<T: Copy>(&self, original: &Dims, canonical_table: &[T]) -> Vec<T> {
        let mut out = Vec::with_capacity(canonical_table.len());
        self.restore(original)
            .for_each(canonical_table, |run| out.extend_from_slice(run));
        out
    }

    /// The canonical grid position holding original grid position `x` —
    /// the single-entry counterpart of [`Canonical::restore_positions`]:
    /// `restore_positions(original, table)[x] ==
    /// table[canonical_index_of(original, x)]` for every `x`.  This is what
    /// point queries use to read individual entries of a canonically cached
    /// table in O(d) without materialising the restored table.
    ///
    /// # Panics
    ///
    /// As [`Canonical::restore`], and if `x` is outside the grid.
    pub fn canonical_index_of(&self, original: &Dims, x: usize) -> usize {
        self.restore(original).index_of(x)
    }

    /// Rebuilds a [`Mapping`] for the *original* problem from a
    /// `position → node` table computed on the canonical grid.
    pub fn restore_mapping(
        &self,
        original: &MappingProblem,
        canonical_node_of_position: &[usize],
    ) -> Result<Mapping, MapError> {
        let restored = self.restore_positions(original.dims(), canonical_node_of_position);
        Mapping::from_node_of_position(original, &restored)
    }
}

/// How a table on the canonical grid reads in a request's own dimension
/// order: the restoring walk and the point lookups of a canonical form,
/// held inline, so an answer can be written from a cached canonical table
/// without allocating.  From [`Canonical::restore`] or
/// [`NamedCanonical::restore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Restore {
    volume: usize,
    /// `None` for the identity permutation, whose restored table is the
    /// canonical one.
    strides: Option<Strides>,
}

/// Per original dimension `j`: its size, and `weight[j]`, the canonical
/// row-major stride of the canonical axis holding original dimension `j`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Strides {
    d: usize,
    sizes: [usize; MAX_CANONICAL_NDIMS],
    weight: [usize; MAX_CANONICAL_NDIMS],
}

impl Restore {
    fn identity(volume: usize) -> Restore {
        Restore {
            volume,
            strides: None,
        }
    }

    /// The relabeling of canonical `dims` where canonical dimension `i` is
    /// original dimension `perm[i]` (`perm.len() ≤ MAX_CANONICAL_NDIMS`).
    fn permuted(dims: &[usize], perm: &[usize]) -> Restore {
        let volume = dims.iter().product();
        if perm.iter().enumerate().all(|(i, &p)| i == p) {
            return Restore::identity(volume);
        }
        let d = dims.len();
        let mut s = Strides {
            d,
            sizes: [0; MAX_CANONICAL_NDIMS],
            weight: [0; MAX_CANONICAL_NDIMS],
        };
        let mut stride = 1usize;
        for i in (0..d).rev() {
            s.sizes[perm[i]] = dims[i];
            s.weight[perm[i]] = stride;
            stride *= dims[i];
        }
        Restore {
            volume,
            strides: Some(s),
        }
    }

    /// Whether the restored table is the canonical one.
    pub fn is_identity(&self) -> bool {
        self.strides.is_none()
    }

    /// Visits a `position → value` table computed on the canonical grid in
    /// the original grid's row-major order, as consecutive non-empty runs:
    /// the runs concatenated are the restored table (entry `x` describes
    /// original grid position `x`), so a writer can stream it slice by
    /// slice without materialising it.  The identity permutation is one
    /// run, the table itself.  Otherwise an odometer walks the outer
    /// original dimensions, and the innermost one is a strided run through
    /// the canonical table, gathered into a stack buffer of
    /// [`RESTORE_RUN`] entries that is handed out whenever it fills and
    /// once at the end.
    ///
    /// # Panics
    ///
    /// Panics if `canonical_table` does not cover the grid.
    pub fn for_each<T: Copy>(&self, canonical_table: &[T], mut f: impl FnMut(&[T])) {
        assert_eq!(canonical_table.len(), self.volume, "table length");
        let Some(Strides { d, sizes, weight }) = self.strides else {
            f(canonical_table);
            return;
        };
        let (inner_len, inner_stride) = (sizes[d - 1], weight[d - 1]);
        // a volume is at least 1, so entry 0 exists to fill the buffer
        let mut buf = [canonical_table[0]; RESTORE_RUN];
        let mut filled = 0;
        let mut coord = [0usize; MAX_CANONICAL_NDIMS];
        // canonical index of the current original row's first entry
        let mut row = 0usize;
        loop {
            let mut done = 0;
            while done < inner_len {
                let n = (RESTORE_RUN - filled).min(inner_len - done);
                // the `n` entries this pass gathers, `inner_stride` apart
                // (indexing read faster than `step_by` here)
                let src =
                    &canonical_table[row + done * inner_stride..][..(n - 1) * inner_stride + 1];
                for (k, slot) in buf[filled..filled + n].iter_mut().enumerate() {
                    *slot = src[k * inner_stride];
                }
                (filled, done) = (filled + n, done + n);
                if filled == RESTORE_RUN {
                    f(&buf);
                    filled = 0;
                }
            }
            // odometer over the outer original dimensions: bumping digit
            // `i` moves the canonical index by `weight[i]`, a rollover
            // rewinds it by `sizes[i] * weight[i]`
            let mut i = d - 1;
            loop {
                if i == 0 {
                    if filled > 0 {
                        f(&buf[..filled]);
                    }
                    return;
                }
                i -= 1;
                coord[i] += 1;
                row += weight[i];
                if coord[i] < sizes[i] {
                    break;
                }
                coord[i] = 0;
                row -= sizes[i] * weight[i];
            }
        }
    }

    /// The canonical grid position holding original grid position `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is outside the grid.
    pub fn index_of(&self, x: usize) -> usize {
        assert!(x < self.volume, "position outside the grid");
        let Some(Strides { d, sizes, weight }) = self.strides else {
            return x;
        };
        let mut rest = x;
        let mut index = 0;
        for j in (0..d).rev() {
            index += rest % sizes[j] * weight[j];
            rest /= sizes[j];
        }
        index
    }
}

/// Computes the canonical representative of `(dims, stencil)`.
///
/// Deterministic: equivalent inputs (any consistent permutation of the
/// dimensions, any order of the stencil offsets) produce identical canonical
/// dims and stencils.  Among tied permutations the lexicographically smallest
/// one wins, so the result never depends on iteration order.
pub fn canonicalize(dims: &Dims, stencil: &Stencil) -> Canonical {
    let d = dims.ndims();
    debug_assert_eq!(stencil.ndims(), d, "stencil and dims must agree");
    let (perm, offsets) = if d <= MAX_CANONICAL_NDIMS {
        let (perm, offsets) = search(dims.as_slice(), |perm| permuted_offsets(stencil, perm));
        (perm[..d].to_vec(), offsets)
    } else {
        ((0..d).collect(), None)
    };
    let offsets = offsets.unwrap_or_else(|| permuted_offsets(stencil, &perm));
    Canonical {
        dims: Dims::new(perm.iter().map(|&i| dims.size(i)).collect())
            .expect("permuted dims stay valid"),
        stencil: Stencil::new(d, offsets).expect("permuted stencil stays valid"),
        perm,
    }
}

/// The permutation search of [`canonicalize`] over `sizes.len() ≤`
/// [`MAX_CANONICAL_NDIMS`] dims: the lexicographically first permutation
/// minimising `(permuted sizes, offsets(perm))`, where `offsets` builds a
/// candidate's sorted permuted offsets.  Lexicographic enumeration keeps
/// ties deterministic, and the sizes compare first, so `offsets` runs only
/// on a tie.  Returns the permutation (its first `sizes.len()` entries) and
/// the winner's offsets when they were built.
fn search<O: Ord>(
    sizes: &[usize],
    offsets: impl Fn(&[usize]) -> O,
) -> ([usize; MAX_CANONICAL_NDIMS], Option<O>) {
    let d = sizes.len();
    let mut best = [0; MAX_CANONICAL_NDIMS];
    best.iter_mut().enumerate().for_each(|(i, p)| *p = i);
    let mut best_offsets = None;
    let mut perm = best;
    let size = |&i: &usize| sizes[i];
    while next_permutation(&mut perm[..d]) {
        match perm[..d].iter().map(size).cmp(best[..d].iter().map(size)) {
            Ordering::Greater => {}
            Ordering::Less => {
                best = perm;
                best_offsets = None;
            }
            Ordering::Equal => {
                let kept = best_offsets.get_or_insert_with(|| offsets(&best[..d]));
                let cand = offsets(&perm[..d]);
                if cand < *kept {
                    *kept = cand;
                    best = perm;
                }
            }
        }
    }
    (best, best_offsets)
}

/// The offsets of `stencil` with their coordinates permuted by `perm`
/// (coordinate `i` of a result is coordinate `perm[i]` of the original),
/// sorted.
fn permuted_offsets(stencil: &Stencil, perm: &[usize]) -> Vec<Vec<i64>> {
    let mut offsets: Vec<Vec<i64>> = stencil
        .offsets()
        .iter()
        .map(|o| perm.iter().map(|&i| o[i]).collect())
        .collect();
    offsets.sort_unstable();
    offsets
}

/// [`canonicalize`] of a named stencil on at most [`MAX_CANONICAL_NDIMS`]
/// dims, held inline: the same canonical dims, flattened stencil and
/// permutation, found by the same search without allocating.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NamedCanonical {
    d: usize,
    k: usize,
    perm: [usize; MAX_CANONICAL_NDIMS],
    dims: [usize; MAX_CANONICAL_NDIMS],
    /// The sorted permuted offsets, `k` rows of `d` entries.
    stencil: [i64; MAX_NAMED_OFFSETS * MAX_CANONICAL_NDIMS],
}

/// A named stencil's permuted offsets, sorted, as [`offset_key`]s.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct NamedRows([i64; MAX_NAMED_OFFSETS]);

/// The offset `step · 1_at` (`step` nonzero, `|step| < 64`) as a key that
/// orders as the offset rows do: a row with a negative step is less than
/// every row with a positive one; negative rows order by position, then
/// step; positive rows by position descending, then step.  (At the first
/// position where two such rows differ, one of them holds its step and the
/// other zero.)  Sorted key lists therefore compare as the sorted row lists
/// of [`permuted_offsets`] do.
fn offset_key(at: usize, step: i64) -> i64 {
    let (class, position) = if step < 0 {
        (0, at)
    } else {
        (1, MAX_CANONICAL_NDIMS - at)
    };
    (class << 16) | (position as i64) << 8 | (step + 64)
}

impl NamedCanonical {
    /// The canonical dimension sizes (`canonicalize(..).dims`).
    pub fn dims(&self) -> &[usize] {
        &self.dims[..self.d]
    }

    /// The canonical stencil, flattened (`canonicalize(..).stencil.to_flat()`).
    pub fn stencil_flat(&self) -> &[i64] {
        &self.stencil[..self.k * self.d]
    }

    /// The dimension relabeling (`canonicalize(..).perm`).
    pub fn perm(&self) -> &[usize] {
        &self.perm[..self.d]
    }

    /// How a table on the canonical grid reads in the request's own
    /// dimension order.
    pub fn restore(&self) -> Restore {
        Restore::permuted(self.dims(), self.perm())
    }
}

/// [`canonicalize`]`(sizes, stencil.build(sizes.len()))` for a named
/// stencil, without allocating; `None` for more than
/// [`MAX_CANONICAL_NDIMS`] dims, no dims, or a component stencil on fewer
/// than two.
pub fn canonicalize_named(sizes: &[usize], stencil: NamedStencil) -> Option<NamedCanonical> {
    let d = sizes.len();
    if d == 0 || d > MAX_CANONICAL_NDIMS || (stencil == NamedStencil::Component && d < 2) {
        return None;
    }
    let mut axis_steps = [(0, 0); MAX_NAMED_OFFSETS];
    let mut k = 0;
    for axis_step in stencil.axis_steps(d) {
        axis_steps[k] = axis_step;
        k += 1;
    }
    let rows = |perm: &[usize]| {
        // permuted coordinate `i` is original coordinate `perm[i]`, so an
        // offset along original `axis` lands where `perm` holds it
        let mut at = [0; MAX_CANONICAL_NDIMS];
        perm.iter().enumerate().for_each(|(i, &axis)| at[axis] = i);
        let mut rows = NamedRows([0; MAX_NAMED_OFFSETS]);
        for (row, &(axis, step)) in rows.0.iter_mut().zip(&axis_steps[..k]) {
            *row = offset_key(at[axis], step);
        }
        rows.0[..k].sort_unstable();
        rows
    };
    let (perm, best) = search(sizes, rows);
    let best = best.unwrap_or_else(|| rows(&perm[..d]));
    let mut canon = NamedCanonical {
        d,
        k,
        perm,
        dims: [0; MAX_CANONICAL_NDIMS],
        stencil: [0; MAX_NAMED_OFFSETS * MAX_CANONICAL_NDIMS],
    };
    for i in 0..d {
        canon.dims[i] = sizes[perm[i]];
    }
    for (row, &key) in canon.stencil.chunks_exact_mut(d).zip(&best.0[..k]) {
        let step = (key & 0xff) - 64;
        let at = (key >> 8 & 0xff) as usize;
        row[if step < 0 {
            at
        } else {
            MAX_CANONICAL_NDIMS - at
        }] = step;
    }
    Some(canon)
}

/// Advances `perm` to the next lexicographic permutation; returns `false`
/// after the last one.
fn next_permutation(perm: &mut [usize]) -> bool {
    let n = perm.len();
    if n < 2 {
        return false;
    }
    let Some(i) = (0..n - 1).rev().find(|&i| perm[i] < perm[i + 1]) else {
        return false;
    };
    let j = (i + 1..n).rev().find(|&j| perm[j] > perm[i]).unwrap();
    perm.swap(i, j);
    perm[i + 1..].reverse();
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hyperplane::Hyperplane;
    use crate::metrics::evaluate_streaming;
    use crate::problem::Mapper;
    use proptest::prelude::*;
    use stencil_grid::NodeAllocation;

    /// Applies `perm` (canonical dim `i` = original dim `perm[i]`) to a
    /// dims/stencil pair, producing an equivalent request.
    fn permute_request(dims: &Dims, stencil: &Stencil, perm: &[usize]) -> (Dims, Stencil) {
        let p_dims: Vec<usize> = perm.iter().map(|&i| dims.size(i)).collect();
        let p_offsets: Vec<Vec<i64>> = stencil
            .offsets()
            .iter()
            .map(|o| perm.iter().map(|&i| o[i]).collect())
            .collect();
        (
            Dims::new(p_dims).unwrap(),
            Stencil::new(dims.ndims(), p_offsets).unwrap(),
        )
    }

    /// `canonicalize` as it was first written: every permutation builds
    /// its permuted dims and sorted offsets, and the smallest pair wins.
    fn reference_canonicalize(dims: &Dims, stencil: &Stencil) -> Canonical {
        let d = dims.ndims();
        type Candidate = (Vec<usize>, Vec<Vec<i64>>, Vec<usize>);
        let mut best: Option<Candidate> = None;
        let mut consider = |perm: &[usize]| {
            let cand_dims: Vec<usize> = perm.iter().map(|&i| dims.size(i)).collect();
            let mut cand_offsets: Vec<Vec<i64>> = stencil
                .offsets()
                .iter()
                .map(|o| perm.iter().map(|&i| o[i]).collect())
                .collect();
            cand_offsets.sort_unstable();
            let better = match &best {
                None => true,
                Some((bd, bo, _)) => (&cand_dims, &cand_offsets) < (bd, bo),
            };
            if better {
                best = Some((cand_dims, cand_offsets, perm.to_vec()));
            }
        };
        let mut perm: Vec<usize> = (0..d).collect();
        loop {
            consider(&perm);
            if d > MAX_CANONICAL_NDIMS || !next_permutation(&mut perm) {
                break;
            }
        }
        let (cand_dims, cand_offsets, perm) = best.expect("at least one permutation considered");
        Canonical {
            dims: Dims::new(cand_dims).unwrap(),
            stencil: Stencil::new(d, cand_offsets).unwrap(),
            perm,
        }
    }

    /// Position `x`'s entry of the restored table, from coordinates: the
    /// definition the odometer must agree with.
    fn restored_by_coordinates(c: &Canonical, original: &Dims, table: &[u32]) -> Vec<u32> {
        (0..original.volume())
            .map(|x| {
                let coord = original.coord_of(x);
                let canon: Vec<usize> = c.perm.iter().map(|&j| coord[j]).collect();
                table[c.dims.rank_of(&canon)]
            })
            .collect()
    }

    #[test]
    fn next_permutation_enumerates_all() {
        let mut p = vec![0, 1, 2];
        let mut seen = vec![p.clone()];
        while next_permutation(&mut p) {
            seen.push(p.clone());
        }
        assert_eq!(seen.len(), 6);
        assert_eq!(seen[0], vec![0, 1, 2]);
        assert_eq!(seen[5], vec![2, 1, 0]);
        let mut single = vec![0];
        assert!(!next_permutation(&mut single));
    }

    #[test]
    fn canonical_form_sorts_dims_for_symmetric_stencils() {
        // Nearest neighbor is symmetric under any dimension relabeling, so
        // the canonical dims are simply the sorted sizes.
        let c = canonicalize(&Dims::from_slice(&[48, 50]), &Stencil::nearest_neighbor(2));
        assert_eq!(c.dims.as_slice(), &[48, 50]);
        let c2 = canonicalize(&Dims::from_slice(&[50, 48]), &Stencil::nearest_neighbor(2));
        assert_eq!(c2.dims.as_slice(), &[48, 50]);
        assert_eq!(c.stencil, c2.stencil);
    }

    #[test]
    fn offset_order_does_not_change_canonical_form() {
        let dims = Dims::from_slice(&[6, 5]);
        let a = Stencil::new(2, vec![vec![1, 0], vec![0, 1], vec![-1, 0], vec![0, -1]]).unwrap();
        let b = Stencil::new(2, vec![vec![0, -1], vec![-1, 0], vec![0, 1], vec![1, 0]]).unwrap();
        let ca = canonicalize(&dims, &a);
        let cb = canonicalize(&dims, &b);
        assert_eq!(ca.dims, cb.dims);
        assert_eq!(ca.stencil, cb.stencil);
        assert_eq!(ca.perm, cb.perm);
    }

    #[test]
    fn asymmetric_stencil_breaks_dims_ties() {
        // The hops stencil communicates more along dimension 0; permuting
        // the square grid must still produce one canonical stencil.
        let dims = Dims::from_slice(&[6, 6]);
        let s = Stencil::nearest_neighbor_with_hops(2);
        let (p_dims, p_stencil) = permute_request(&dims, &s, &[1, 0]);
        let ca = canonicalize(&dims, &s);
        let cb = canonicalize(&p_dims, &p_stencil);
        assert_eq!(ca.dims, cb.dims);
        assert_eq!(ca.stencil, cb.stencil);
    }

    #[test]
    fn restore_positions_is_identity_for_identity_perm() {
        let dims = Dims::from_slice(&[2, 3]);
        let c = Canonical {
            dims: dims.clone(),
            stencil: Stencil::nearest_neighbor(2),
            perm: vec![0, 1],
        };
        assert!(c.is_identity_permutation());
        let table: Vec<u32> = (0..6).collect();
        assert_eq!(c.restore_positions(&dims, &table), table);
    }

    #[test]
    fn restore_positions_transposes() {
        // canonical [2,3] grid, original [3,2]: perm = [1,0].
        let c = Canonical {
            dims: Dims::from_slice(&[2, 3]),
            stencil: Stencil::nearest_neighbor(2),
            perm: vec![1, 0],
        };
        let original = Dims::from_slice(&[3, 2]);
        // canonical table indexed row-major on [2,3]
        let table = vec![0u32, 1, 2, 3, 4, 5];
        let restored = c.restore_positions(&original, &table);
        // original position (r, c) on [3,2] maps to canonical (c, r) on [2,3]
        for (x, &value) in restored.iter().enumerate() {
            let coord = original.coord_of(x);
            let canon_pos = coord[1] * 3 + coord[0];
            assert_eq!(value, table[canon_pos]);
        }
    }

    #[test]
    fn canonical_index_of_agrees_with_restore_positions() {
        for (dims, stencil) in [
            (Dims::from_slice(&[3, 4]), Stencil::nearest_neighbor(2)),
            (
                Dims::from_slice(&[4, 2, 3]),
                Stencil::nearest_neighbor_with_hops(3),
            ),
            (Dims::from_slice(&[5, 3]), Stencil::component(2)),
        ] {
            for perm_dims in [false, true] {
                let (o_dims, o_stencil) = if perm_dims {
                    let perm: Vec<usize> = (0..dims.ndims()).rev().collect();
                    permute_request(&dims, &stencil, &perm)
                } else {
                    (dims.clone(), stencil.clone())
                };
                let c = canonicalize(&o_dims, &o_stencil);
                let table: Vec<u32> = (0..c.dims.volume() as u32).collect();
                let restored = c.restore_positions(&o_dims, &table);
                for x in 0..o_dims.volume() {
                    assert_eq!(restored[x], table[c.canonical_index_of(&o_dims, x)]);
                }
            }
        }
    }

    #[test]
    fn named_canonical_form_equals_canonicalize_on_every_small_tie() {
        // every size vector over {1, 2, 3} on up to 4 dims, and all-equal
        // sizes (every permutation ties) on 5 to 8
        let mut shapes: Vec<Vec<usize>> = (1..=4u32)
            .flat_map(|d| {
                (0..3usize.pow(d))
                    .map(move |code| (0..d).map(|i| code / 3usize.pow(i) % 3 + 1).collect())
            })
            .collect();
        shapes.extend((5..=8).map(|d| vec![2; d]));
        for sizes in shapes {
            for named in [
                NamedStencil::NearestNeighbor,
                NamedStencil::NearestNeighborWithHops,
                NamedStencil::Component,
            ] {
                let Some(inline) = canonicalize_named(&sizes, named) else {
                    assert!(named == NamedStencil::Component && sizes.len() < 2);
                    continue;
                };
                let dims = Dims::new(sizes.clone()).unwrap();
                let owned = canonicalize(&dims, &named.build(sizes.len()));
                assert_eq!(inline.dims(), owned.dims.as_slice(), "{sizes:?} {named:?}");
                assert_eq!(
                    inline.stencil_flat(),
                    owned.stencil.to_flat(),
                    "{sizes:?} {named:?}"
                );
                assert_eq!(inline.perm(), owned.perm.as_slice(), "{sizes:?} {named:?}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every permutation of a request canonicalises to the same
        /// representative — the property the serve cache relies on.
        #[test]
        fn prop_permuted_requests_share_canonical_form(
            sizes in proptest::collection::vec(1usize..7, 2..4),
            stencil_choice in 0u8..3,
            perm_seed in 0usize..24,
        ) {
            let dims = Dims::new(sizes).unwrap();
            let d = dims.ndims();
            let stencil = match stencil_choice % 3 {
                0 => Stencil::nearest_neighbor(d),
                1 => Stencil::nearest_neighbor_with_hops(d),
                _ => Stencil::component(d),
            };
            // pick the perm_seed-th permutation of 0..d
            let mut perm: Vec<usize> = (0..d).collect();
            for _ in 0..perm_seed {
                if !next_permutation(&mut perm) {
                    perm = (0..d).collect();
                }
            }
            let (p_dims, p_stencil) = permute_request(&dims, &stencil, &perm);
            let ca = canonicalize(&dims, &stencil);
            let cb = canonicalize(&p_dims, &p_stencil);
            prop_assert_eq!(&ca.dims, &cb.dims);
            prop_assert_eq!(&ca.stencil, &cb.stencil);
        }

        /// The dims-first search picks the exhaustive construction's
        /// representative and permutation.  Sizes repeat often (drawn from
        /// 1..4), so dims tie and the offsets decide; explicit stencils
        /// make the offsets asymmetric.
        #[test]
        fn prop_canonicalize_matches_the_exhaustive_construction(
            sizes in proptest::collection::vec(1usize..4, 1..6),
            stencil_choice in 0u8..4,
            raw_offsets in proptest::collection::vec(
                proptest::collection::vec(-2i64..3, 5..6), 1..6),
        ) {
            let dims = Dims::new(sizes).unwrap();
            let d = dims.ndims();
            let explicit: Vec<Vec<i64>> =
                raw_offsets.iter().map(|o| o[..d].to_vec()).collect();
            let stencil = match stencil_choice {
                0 => Stencil::nearest_neighbor(d),
                1 => Stencil::nearest_neighbor_with_hops(d),
                2 if d >= 2 => Stencil::component(d),
                _ => match Stencil::new(d, explicit) {
                    Ok(s) => s,
                    Err(_) => Stencil::nearest_neighbor(d),
                },
            };
            prop_assert_eq!(canonicalize(&dims, &stencil), reference_canonicalize(&dims, &stencil));
        }

        /// The inline search over a named stencil finds `canonicalize`'s
        /// dims, flattened stencil and permutation, and restores alike, on
        /// 1–8 dims whose sizes repeat often (drawn from 1..4, so dims tie
        /// and the offsets decide).
        #[test]
        fn prop_named_canonical_form_equals_canonicalize(
            sizes in proptest::collection::vec(1usize..4, 1..9),
            named in 0usize..3,
        ) {
            let named = [
                NamedStencil::NearestNeighbor,
                NamedStencil::NearestNeighborWithHops,
                NamedStencil::Component,
            ][named];
            let dims = Dims::new(sizes.clone()).unwrap();
            let Some(inline) = canonicalize_named(&sizes, named) else {
                prop_assert!(named == NamedStencil::Component && sizes.len() < 2);
                return Ok(());
            };
            let owned = canonicalize(&dims, &named.build(sizes.len()));
            prop_assert_eq!(inline.dims(), owned.dims.as_slice());
            prop_assert_eq!(inline.stencil_flat().to_vec(), owned.stencil.to_flat());
            prop_assert_eq!(inline.perm(), owned.perm.as_slice());
            prop_assert_eq!(inline.restore(), owned.restore(&dims));
        }

        /// The odometer's runs, concatenated (and through
        /// `restore_positions`), and `canonical_index_of` agree with the
        /// coordinate definition in every permutation of 1–5-D dims,
        /// identity included.  One canonical size may be about as long as
        /// the gather buffer or longer (the others 1–3), so innermost runs
        /// end inside, at and past its end, and the last run may hold a
        /// single entry.
        #[test]
        fn prop_restore_and_index_follow_the_coordinates(
            sizes in proptest::collection::vec(1usize..6, 1..6),
            perm_seed in 0usize..120,
            long in 0usize..6,
            long_at in 0usize..5,
        ) {
            let d = sizes.len();
            let mut sizes = sizes;
            let long = [0, 700, 1100, RESTORE_RUN - 1, RESTORE_RUN, RESTORE_RUN + 1][long];
            if long > 0 {
                sizes.iter_mut().for_each(|s| *s = (*s - 1) % 3 + 1);
                sizes[long_at % d] = long;
            }
            let mut perm: Vec<usize> = (0..d).collect();
            for _ in 0..perm_seed {
                if !next_permutation(&mut perm) {
                    perm = (0..d).collect();
                }
            }
            let dims = Dims::new(sizes).unwrap();
            let c = Canonical {
                stencil: Stencil::nearest_neighbor(d),
                perm: perm.clone(),
                dims: dims.clone(),
            };
            let original =
                Dims::new((0..d).map(|j| dims.size(perm.iter().position(|&p| p == j).unwrap())).collect())
                    .unwrap();
            let table: Vec<u32> = (0..dims.volume() as u32).map(|x| x.wrapping_mul(2654435761)).collect();
            let want = restored_by_coordinates(&c, &original, &table);
            let mut runs: Vec<Vec<u32>> = Vec::new();
            c.restore(&original).for_each(&table, |run| runs.push(run.to_vec()));
            prop_assert_eq!(&runs.concat(), &want);
            prop_assert_eq!(&c.restore_positions(&original, &table), &want);
            // one run for the identity, else full buffers and one
            // non-empty remainder
            let lens: Vec<usize> = runs.iter().map(Vec::len).collect();
            if c.is_identity_permutation() {
                prop_assert_eq!(lens, vec![want.len()]);
            } else {
                let (last, full) = lens.split_last().unwrap();
                prop_assert!(full.iter().all(|&n| n == RESTORE_RUN), "{:?}", lens);
                prop_assert!((1..=RESTORE_RUN).contains(last), "{:?}", lens);
            }
            for (x, &w) in want.iter().enumerate() {
                prop_assert_eq!(table[c.canonical_index_of(&original, x)], w);
            }
        }

        /// A mapping computed on the canonical problem transports back to a
        /// valid mapping of the original problem with identical cost.
        #[test]
        fn prop_restored_mapping_is_valid_and_cost_preserving(
            sizes in proptest::collection::vec(2usize..7, 2..4),
            nodes in 2usize..5,
            periodic in proptest::bool::ANY,
        ) {
            let p: usize = sizes.iter().product();
            if p.is_multiple_of(nodes) {
                let dims = Dims::new(sizes).unwrap();
                let stencil = Stencil::nearest_neighbor_with_hops(dims.ndims());
                let alloc = NodeAllocation::homogeneous(nodes, p / nodes);
                let original = MappingProblem::with_periodicity(
                    dims.clone(), stencil.clone(), alloc.clone(), periodic).unwrap();
                let canon = canonicalize(&dims, &stencil);
                let canon_problem = MappingProblem::with_periodicity(
                    canon.dims.clone(), canon.stencil.clone(), alloc, periodic).unwrap();
                let canon_mapping = Hyperplane::default().compute(&canon_problem).unwrap();
                let restored = canon
                    .restore_mapping(&original, canon_mapping.node_of_position_slice())
                    .unwrap();
                prop_assert!(restored.respects_allocation(original.alloc()));
                let canon_cost = evaluate_streaming(
                    &canon.dims, &canon.stencil, periodic, &canon_mapping);
                let restored_cost = evaluate_streaming(
                    original.dims(), original.stencil(), periodic, &restored);
                prop_assert_eq!(canon_cost.j_sum, restored_cost.j_sum);
                prop_assert_eq!(canon_cost.j_max, restored_cost.j_max);
            }
        }
    }
}
