//! Stencil communication patterns (`k`-neighborhoods).
//!
//! A stencil is a list of relative coordinate offsets
//! `S = {R_0, …, R_{k-1}}`; every process communicates with the processes at
//! `coord + R_i` for each offset.  The paper studies three concrete stencils
//! (Fig. 2) which are provided as constructors, but all algorithms accept
//! arbitrary `k`-neighborhoods.

use crate::{Dims, GridError};

/// A relative offset vector `R = [R_0, …, R_{d-1}]`.
pub type Offset = Vec<i64>;

/// A `k`-neighborhood: the set of relative communication targets of every
/// process in the grid.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Stencil {
    ndims: usize,
    offsets: Vec<Offset>,
}

/// The paper's three named stencils (Fig. 2).  Every offset of one is a
/// unit vector times a step, so each is a list of `(axis, step)` pairs:
/// its constructor ([`Stencil::nearest_neighbor`] and the others) builds
/// the offsets from that list, and an allocation-free canonical form can
/// read it without building them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NamedStencil {
    /// [`Stencil::nearest_neighbor`].
    NearestNeighbor,
    /// [`Stencil::nearest_neighbor_with_hops`].
    NearestNeighborWithHops,
    /// [`Stencil::component`].
    Component,
}

impl NamedStencil {
    /// The offsets on `ndims` dimensions, in the order the constructor lists
    /// them, as `(axis, step)`: the offset `step · 1_axis`.
    pub fn axis_steps(self, ndims: usize) -> impl Iterator<Item = (usize, i64)> {
        let (axes, hops): (usize, &[i64]) = match self {
            NamedStencil::NearestNeighbor => (ndims, &[]),
            NamedStencil::NearestNeighborWithHops => (ndims, &[2, 3]),
            NamedStencil::Component => (ndims.saturating_sub(1), &[]),
        };
        (0..axes)
            .flat_map(|axis| [(axis, 1), (axis, -1)])
            .chain(hops.iter().flat_map(|&a| [(0, a), (0, -a)]))
    }

    /// The stencil on `ndims` dimensions (panics where its constructor does).
    pub fn build(self, ndims: usize) -> Stencil {
        match self {
            NamedStencil::NearestNeighbor => Stencil::nearest_neighbor(ndims),
            NamedStencil::NearestNeighborWithHops => Stencil::nearest_neighbor_with_hops(ndims),
            NamedStencil::Component => Stencil::component(ndims),
        }
    }
}

impl Stencil {
    /// Creates a stencil from explicit offsets.
    ///
    /// All offsets must have length `ndims`; the zero offset (self
    /// communication) and duplicate offsets are removed.
    pub fn new(ndims: usize, offsets: Vec<Offset>) -> Result<Self, GridError> {
        if ndims == 0 {
            return Err(GridError::EmptyDims);
        }
        for o in &offsets {
            if o.len() != ndims {
                return Err(GridError::DimensionMismatch {
                    expected: ndims,
                    found: o.len(),
                });
            }
        }
        let mut cleaned: Vec<Offset> = Vec::with_capacity(offsets.len());
        for o in offsets {
            if o.iter().all(|&x| x == 0) {
                continue;
            }
            if !cleaned.contains(&o) {
                cleaned.push(o);
            }
        }
        if cleaned.is_empty() {
            return Err(GridError::EmptyStencil);
        }
        Ok(Stencil {
            ndims,
            offsets: cleaned,
        })
    }

    /// Creates a stencil from a flattened offset list, mirroring the
    /// `MPIX_Cart_stencil_comm` interface of the paper (Listing 1):
    /// `flat` has length `k * ndims`, holding `k` offsets back to back.
    pub fn from_flat(ndims: usize, flat: &[i64]) -> Result<Self, GridError> {
        if ndims == 0 || !flat.len().is_multiple_of(ndims) {
            return Err(GridError::DimensionMismatch {
                expected: ndims,
                found: flat.len(),
            });
        }
        let offsets = flat.chunks(ndims).map(|c| c.to_vec()).collect();
        Self::new(ndims, offsets)
    }

    /// The *nearest neighbor* stencil (Fig. 2a):
    /// `S = {±1_i | 0 ≤ i < d}` — one neighbor in each direction of each
    /// dimension.  This is the stencil implied by MPI Cartesian topologies.
    pub fn nearest_neighbor(ndims: usize) -> Self {
        Self::from_axis_steps(NamedStencil::NearestNeighbor, ndims)
    }

    /// The *component* stencil (Fig. 2b):
    /// `S = {±1_i | 0 ≤ i < d-1}` — nearest neighbors in every dimension
    /// except the last one.  For two dimensions this is a one-dimensional
    /// chain along dimension 0.
    pub fn component(ndims: usize) -> Self {
        assert!(
            ndims >= 2,
            "component stencil requires at least 2 dimensions"
        );
        Self::from_axis_steps(NamedStencil::Component, ndims)
    }

    /// A one-dimensional component stencil communicating along an arbitrary
    /// dimension `dim`, used e.g. by the NP-hardness gadget of Theorem IV.3
    /// (`S = {−1_1, 1_1}`).
    pub fn component_along(ndims: usize, dim: usize) -> Self {
        assert!(dim < ndims);
        let mut plus = vec![0i64; ndims];
        plus[dim] = 1;
        let mut minus = vec![0i64; ndims];
        minus[dim] = -1;
        Stencil {
            ndims,
            offsets: vec![plus, minus],
        }
    }

    /// The *nearest neighbor with hops* stencil (Fig. 2c):
    /// `S = {±1_i | 0 ≤ i < d} ∪ {±a·1_0 | a ∈ {2, 3}}` — nearest neighbors
    /// plus two- and three-hop neighbors along the first dimension.
    pub fn nearest_neighbor_with_hops(ndims: usize) -> Self {
        Self::from_axis_steps(NamedStencil::NearestNeighborWithHops, ndims)
    }

    fn from_axis_steps(named: NamedStencil, ndims: usize) -> Self {
        let offsets = named
            .axis_steps(ndims)
            .map(|(axis, step)| {
                let mut offset = vec![0i64; ndims];
                offset[axis] = step;
                offset
            })
            .collect();
        Stencil { ndims, offsets }
    }

    /// Number of dimensions of the stencil offsets.
    #[inline]
    pub fn ndims(&self) -> usize {
        self.ndims
    }

    /// Number of neighbors `k` described by the stencil.
    #[inline]
    pub fn k(&self) -> usize {
        self.offsets.len()
    }

    /// The offsets of the stencil.
    #[inline]
    pub fn offsets(&self) -> &[Offset] {
        &self.offsets
    }

    /// Returns the flattened offset list (`k * ndims` entries), the inverse of
    /// [`Stencil::from_flat`].
    pub fn to_flat(&self) -> Vec<i64> {
        self.offsets.iter().flatten().copied().collect()
    }

    /// Checks whether the stencil is symmetric, i.e. for every offset `R` the
    /// stencil also contains `-R`.  All paper stencils are symmetric.
    pub fn is_symmetric(&self) -> bool {
        self.offsets.iter().all(|o| {
            let neg: Offset = o.iter().map(|&x| -x).collect();
            self.offsets.contains(&neg)
        })
    }

    /// Validates that the stencil dimensionality matches a grid.
    pub fn check_dims(&self, dims: &Dims) -> Result<(), GridError> {
        if dims.ndims() != self.ndims {
            Err(GridError::DimensionMismatch {
                expected: dims.ndims(),
                found: self.ndims,
            })
        } else {
            Ok(())
        }
    }

    /// The value of Eq. (2) of the paper for every dimension `j`:
    /// `Σ_i cos²(angle(R_i, e_j)) = Σ_i R_{i,j}² / ‖R_i‖²`.
    ///
    /// Small values mean the stencil communicates little along dimension `j`
    /// (the dimension is "orthogonal" to the stencil) which makes `j` a good
    /// candidate for a hyperplane cut.
    pub fn cos2_sums(&self) -> Vec<f64> {
        let mut sums = Vec::new();
        self.cos2_sums_into(&mut sums);
        sums
    }

    /// Allocation-free variant of [`Stencil::cos2_sums`]: clears `out` and
    /// fills it with the per-dimension sums, reusing its capacity.
    pub fn cos2_sums_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.ndims, 0.0);
        for o in &self.offsets {
            let norm2: f64 = o.iter().map(|&x| (x * x) as f64).sum();
            if norm2 == 0.0 {
                continue;
            }
            for j in 0..self.ndims {
                out[j] += (o[j] * o[j]) as f64 / norm2;
            }
        }
    }

    /// The amount of communication across each dimension `j` used by the k-d
    /// tree algorithm: `f_j = |{R ∈ S : R_j ≠ 0}|`.
    pub fn comm_across(&self) -> Vec<usize> {
        let mut f = Vec::new();
        self.comm_across_into(&mut f);
        f
    }

    /// Allocation-free variant of [`Stencil::comm_across`]: clears `out` and
    /// fills it with the per-dimension counts, reusing its capacity.
    pub fn comm_across_into(&self, out: &mut Vec<usize>) {
        out.clear();
        out.resize(self.ndims, 0);
        for o in &self.offsets {
            for j in 0..self.ndims {
                if o[j] != 0 {
                    out[j] += 1;
                }
            }
        }
    }

    /// The extension `e_i = max R_i − min R_i` of the stencil along every
    /// dimension (Section V-C), i.e. the side lengths of the bounding box.
    pub fn extents(&self) -> Vec<u64> {
        let mut ext = vec![0u64; self.ndims];
        for j in 0..self.ndims {
            let max = self.offsets.iter().map(|o| o[j]).max().unwrap_or(0);
            let min = self.offsets.iter().map(|o| o[j]).min().unwrap_or(0);
            ext[j] = (max - min) as u64;
        }
        ext
    }

    /// Maximum absolute offset component, a measure of the stencil radius.
    pub fn radius(&self) -> u64 {
        self.offsets
            .iter()
            .flat_map(|o| o.iter().map(|x| x.unsigned_abs()))
            .max()
            .unwrap_or(0)
    }

    /// The dimensions sorted by preference for a hyperplane cut: ascending
    /// value of Eq. (2), ties broken by descending dimension size.
    pub fn preferred_cut_order(&self, dims: &Dims) -> Vec<usize> {
        let sums = self.cos2_sums();
        let mut order: Vec<usize> = (0..self.ndims).collect();
        order.sort_by(|&a, &b| {
            sums[a]
                .partial_cmp(&sums[b])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| dims.size(b).cmp(&dims.size(a)))
                .then_with(|| a.cmp(&b))
        });
        order
    }
}

impl std::fmt::Display for Stencil {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (i, o) in self.offsets.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{o:?}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn named_stencils_list_their_offsets_in_constructor_order() {
        assert_eq!(
            Stencil::nearest_neighbor_with_hops(2).offsets(),
            &[
                vec![1, 0],
                vec![-1, 0],
                vec![0, 1],
                vec![0, -1],
                vec![2, 0],
                vec![-2, 0],
                vec![3, 0],
                vec![-3, 0]
            ]
        );
        assert_eq!(
            Stencil::component(3).offsets(),
            &[vec![1, 0, 0], vec![-1, 0, 0], vec![0, 1, 0], vec![0, -1, 0]]
        );
        for named in [
            NamedStencil::NearestNeighbor,
            NamedStencil::NearestNeighborWithHops,
            NamedStencil::Component,
        ] {
            for ndims in 2..6 {
                let built = named.build(ndims);
                assert_eq!(built.k(), named.axis_steps(ndims).count());
                for (offset, (axis, step)) in built.offsets().iter().zip(named.axis_steps(ndims)) {
                    let mut want = vec![0; ndims];
                    want[axis] = step;
                    assert_eq!(offset, &want, "{named:?} on {ndims} dims");
                }
            }
        }
    }

    #[test]
    fn nearest_neighbor_has_2d_offsets() {
        let s = Stencil::nearest_neighbor(2);
        assert_eq!(s.k(), 4);
        assert!(s.offsets().contains(&vec![1, 0]));
        assert!(s.offsets().contains(&vec![-1, 0]));
        assert!(s.offsets().contains(&vec![0, 1]));
        assert!(s.offsets().contains(&vec![0, -1]));
        let s3 = Stencil::nearest_neighbor(3);
        assert_eq!(s3.k(), 6);
        assert!(s3.is_symmetric());
    }

    #[test]
    fn component_excludes_last_dimension() {
        let s = Stencil::component(2);
        assert_eq!(s.k(), 2);
        assert!(s.offsets().contains(&vec![1, 0]));
        assert!(s.offsets().contains(&vec![-1, 0]));
        let s3 = Stencil::component(3);
        assert_eq!(s3.k(), 4);
        assert!(s3.offsets().iter().all(|o| o[2] == 0));
    }

    #[test]
    fn component_along_selects_dimension() {
        let s = Stencil::component_along(2, 1);
        assert_eq!(s.k(), 2);
        assert!(s.offsets().contains(&vec![0, 1]));
        assert!(s.offsets().contains(&vec![0, -1]));
    }

    #[test]
    fn hops_adds_two_and_three_hops_along_dim0() {
        let s = Stencil::nearest_neighbor_with_hops(2);
        assert_eq!(s.k(), 8);
        for a in [2i64, 3, -2, -3] {
            assert!(s.offsets().contains(&vec![a, 0]));
        }
        assert!(s.is_symmetric());
    }

    #[test]
    fn new_rejects_bad_input_and_dedups() {
        assert!(Stencil::new(0, vec![]).is_err());
        assert!(Stencil::new(2, vec![vec![1]]).is_err());
        // only the zero offset -> empty stencil error
        assert_eq!(
            Stencil::new(2, vec![vec![0, 0]]),
            Err(GridError::EmptyStencil)
        );
        let s = Stencil::new(2, vec![vec![1, 0], vec![1, 0], vec![0, 0], vec![0, 1]]).unwrap();
        assert_eq!(s.k(), 2);
    }

    #[test]
    fn flat_roundtrip() {
        let s = Stencil::nearest_neighbor_with_hops(2);
        let flat = s.to_flat();
        assert_eq!(flat.len(), s.k() * 2);
        let s2 = Stencil::from_flat(2, &flat).unwrap();
        assert_eq!(s, s2);
        assert!(Stencil::from_flat(2, &[1, 0, 1]).is_err());
        assert!(Stencil::from_flat(0, &[]).is_err());
    }

    #[test]
    fn cos2_sums_nearest_neighbor_is_uniform() {
        let s = Stencil::nearest_neighbor(2);
        let sums = s.cos2_sums();
        assert!((sums[0] - 2.0).abs() < 1e-12);
        assert!((sums[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cos2_sums_component_prefers_last_dim_for_cut() {
        let s = Stencil::component(2); // communicates along dim 0 only
        let sums = s.cos2_sums();
        assert!(sums[0] > sums[1]);
        assert_eq!(sums[1], 0.0);
        // the preferred cut dimension is dim 1 (orthogonal to communication)
        let dims = Dims::from_slice(&[6, 6]);
        assert_eq!(s.preferred_cut_order(&dims)[0], 1);
    }

    #[test]
    fn preferred_cut_order_ties_broken_by_size() {
        let s = Stencil::nearest_neighbor(2);
        let dims = Dims::from_slice(&[5, 4]);
        // equal cos2 sums -> larger dimension first
        assert_eq!(s.preferred_cut_order(&dims), vec![0, 1]);
        let dims = Dims::from_slice(&[4, 9]);
        assert_eq!(s.preferred_cut_order(&dims), vec![1, 0]);
    }

    #[test]
    fn comm_across_counts_nonzero_components() {
        let s = Stencil::nearest_neighbor_with_hops(2);
        // dim 0: ±1, ±2, ±3 -> 6 offsets; dim 1: ±1 -> 2 offsets
        assert_eq!(s.comm_across(), vec![6, 2]);
        let c = Stencil::component(2);
        assert_eq!(c.comm_across(), vec![2, 0]);
    }

    #[test]
    fn extents_and_radius() {
        let s = Stencil::nearest_neighbor(2);
        assert_eq!(s.extents(), vec![2, 2]);
        assert_eq!(s.radius(), 1);
        let h = Stencil::nearest_neighbor_with_hops(2);
        assert_eq!(h.extents(), vec![6, 2]);
        assert_eq!(h.radius(), 3);
        let c = Stencil::component(2);
        assert_eq!(c.extents(), vec![2, 0]);
    }

    #[test]
    fn check_dims_validates_dimensionality() {
        let s = Stencil::nearest_neighbor(2);
        assert!(s.check_dims(&Dims::from_slice(&[4, 4])).is_ok());
        assert!(s.check_dims(&Dims::from_slice(&[4, 4, 4])).is_err());
    }

    #[test]
    fn display_lists_offsets() {
        let s = Stencil::component(2);
        let txt = s.to_string();
        assert!(txt.contains("[1, 0]"));
        assert!(txt.contains("[-1, 0]"));
    }

    proptest! {
        #[test]
        fn prop_paper_stencils_are_symmetric(d in 1usize..5) {
            prop_assert!(Stencil::nearest_neighbor(d).is_symmetric());
            prop_assert!(Stencil::nearest_neighbor_with_hops(d).is_symmetric());
            if d >= 2 {
                prop_assert!(Stencil::component(d).is_symmetric());
            }
        }

        #[test]
        fn prop_cos2_sums_total_equals_k(d in 1usize..5) {
            // Each offset contributes exactly 1 across all dimensions
            // (sum of cos^2 over an orthonormal basis is 1).
            let s = Stencil::nearest_neighbor_with_hops(d);
            let total: f64 = s.cos2_sums().iter().sum();
            prop_assert!((total - s.k() as f64).abs() < 1e-9);
        }

        #[test]
        fn prop_flat_roundtrip_random(
            d in 1usize..4,
            raw in proptest::collection::vec(-3i64..4, 1..24)
        ) {
            let usable = raw.len() - raw.len() % d;
            if usable >= d {
                let flat = &raw[..usable];
                if let Ok(s) = Stencil::from_flat(d, flat) {
                    let s2 = Stencil::from_flat(d, &s.to_flat()).unwrap();
                    prop_assert_eq!(s, s2);
                }
            }
        }
    }
}
