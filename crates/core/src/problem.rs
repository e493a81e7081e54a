//! The mapping problem definition and the mapper traits.

use crate::mapping::Mapping;
use rayon::prelude::*;
use stencil_grid::{Coord, Dims, GridError, NodeAllocation, Stencil};

/// Errors returned by mapping algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapError {
    /// The underlying grid/stencil/allocation combination is inconsistent.
    Grid(GridError),
    /// The algorithm is not applicable to the given instance
    /// (e.g. `Nodecart` when the node size cannot be factored into the grid).
    NotApplicable(String),
    /// The algorithm produced an invalid reordering (internal error).
    InvalidResult(String),
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapError::Grid(e) => write!(f, "invalid mapping problem: {e}"),
            MapError::NotApplicable(s) => write!(f, "algorithm not applicable: {s}"),
            MapError::InvalidResult(s) => write!(f, "algorithm produced an invalid result: {s}"),
        }
    }
}

impl std::error::Error for MapError {}

impl From<GridError> for MapError {
    fn from(e: GridError) -> Self {
        MapError::Grid(e)
    }
}

/// A complete instance of the process-to-node mapping problem:
/// a Cartesian grid, a stencil (`k`-neighborhood), the scheduler's node
/// allocation and the boundary condition.
#[derive(Debug, Clone, PartialEq)]
pub struct MappingProblem {
    dims: Dims,
    stencil: Stencil,
    alloc: NodeAllocation,
    periodic: bool,
}

impl MappingProblem {
    /// Creates a mapping problem with non-periodic boundaries.
    pub fn new(dims: Dims, stencil: Stencil, alloc: NodeAllocation) -> Result<Self, MapError> {
        Self::with_periodicity(dims, stencil, alloc, false)
    }

    /// Creates a mapping problem, optionally with periodic (torus) boundaries.
    pub fn with_periodicity(
        dims: Dims,
        stencil: Stencil,
        alloc: NodeAllocation,
        periodic: bool,
    ) -> Result<Self, MapError> {
        stencil.check_dims(&dims)?;
        alloc.check_total(dims.volume())?;
        Ok(MappingProblem {
            dims,
            stencil,
            alloc,
            periodic,
        })
    }

    /// The grid dimension sizes.
    pub fn dims(&self) -> &Dims {
        &self.dims
    }

    /// The stencil (`k`-neighborhood).
    pub fn stencil(&self) -> &Stencil {
        &self.stencil
    }

    /// The node allocation handed out by the scheduler.
    pub fn alloc(&self) -> &NodeAllocation {
        &self.alloc
    }

    /// Whether the grid wraps around (torus).
    pub fn periodic(&self) -> bool {
        self.periodic
    }

    /// Total number of processes `p`.
    pub fn num_processes(&self) -> usize {
        self.dims.volume()
    }

    /// Number of compute nodes `N`.
    pub fn num_nodes(&self) -> usize {
        self.alloc.num_nodes()
    }

    /// The node-size parameter `n` handed to algorithms that need one
    /// (exact for homogeneous allocations, the mean otherwise; see §V-A).
    pub fn node_size_parameter(&self) -> usize {
        self.alloc.representative_size()
    }
}

/// A process-to-node mapping algorithm.
///
/// A mapper consumes a [`MappingProblem`] and produces a [`Mapping`], i.e. a
/// permutation assigning every rank a grid position (and therefore every
/// grid position a compute node).
pub trait Mapper: Send + Sync {
    /// Human-readable algorithm name as used in the paper's figures.
    fn name(&self) -> &str;

    /// Computes the full mapping for the given problem.
    fn compute(&self, problem: &MappingProblem) -> Result<Mapping, MapError>;
}

/// Per-worker scratch reused across the ranks of one chunk of a parallel
/// mapping computation.
///
/// Rank-local mappers need a few small per-rank buffers (bisection frames,
/// cut orders, strip indices) plus per-problem precomputations (the stencil
/// strip layout, communication counts, the node-size parameter).
/// Allocating them per rank dominated the mapping hot loop in the seed
/// implementation; a `MapWorkspace` owns them instead, so computing a full
/// mapping performs no per-rank heap allocation.  Every worker chunk creates
/// one workspace and reuses it for all of its ranks.
///
/// A workspace also remembers where the previous rank's computation ended:
/// the recursive bisection frames of Hyperplane and k-d tree, and the strip
/// Stencil Strips' walk stopped at.  The next rank resumes from the deepest
/// frame, or the strip, that still contains it, so the consecutive ranks of
/// a chunk cost amortised `O(d)` each; a rank in any other order gives the
/// same result as with a fresh workspace.  A fresh workspace per rank is
/// the paper's single-rank algorithm.
///
/// A workspace serves **exactly one** `(mapper, problem)` pair: the cached
/// per-problem precomputations (strip layout, cos² sums, communication
/// counts) and the remembered descent are keyed by nothing and would
/// silently go stale if the same workspace were reused for a different
/// problem.  Create a fresh workspace per computation, as the blanket
/// [`Mapper`] implementation does.
#[derive(Debug, Default)]
pub struct MapWorkspace {
    /// The previous rank's recursive bisection (Hyperplane, k-d tree).
    pub(crate) descent: Descent,
    /// Node-size parameter `n` (Hyperplane), read once per workspace.
    pub(crate) node_size: usize,
    /// Per-dimension stencil communication counts (k-d tree).
    pub(crate) comm: Vec<usize>,
    /// Per-dimension cos² sums of the stencil (hyperplane), cached per
    /// workspace because they do not depend on the rank.
    pub(crate) cos2: Vec<f64>,
    /// Preferred cut order scratch; between ranks, the cut order of the
    /// previous rank's leaf (hyperplane).
    pub(crate) order: Vec<usize>,
    /// Cached strip layout (stencil strips), valid for the current problem.
    pub(crate) strips: Option<crate::stencil_strips::StripLayout>,
    /// The strip that held the previous rank (stencil strips).
    pub(crate) strip_cursor: crate::stencil_strips::StripCursor,
}

impl MapWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        MapWorkspace::default()
    }
}

/// A recursive bisection of the grid, kept from one rank to the next: the
/// frames from the root (the whole grid) down to the leaf that held the
/// previous rank.
///
/// `state` holds the deepest frame's sub-grid sizes and origin (`2d`
/// entries), then one record of [`SPLIT`] entries per level below the root:
/// the frame's first rank and one past its last rank, its cut dimension in
/// the parent, and the parent's size and origin along it, which restore
/// the parent when the frame is popped.  The root owns every rank, and so
/// does the upper child of a frame that does, so an out-of-range rank
/// descends along the upper side, as it does from the root.
#[derive(Debug, Default)]
pub(crate) struct Descent {
    state: Vec<usize>,
    ndims: usize,
}

/// Entries per level in [`Descent::state`].
const SPLIT: usize = 5;

impl Descent {
    /// Moves the descent to `rank`: pops frames until the deepest one owns
    /// `rank`, then bisects it until the sub-grid holds at most
    /// `leaf_volume` cells.  `split(sizes)` names the cut dimension and the
    /// size of its lower part; the lower part owns the lower ranks.
    ///
    /// Returns whether the leaf is new, i.e. not the previous rank's.
    pub(crate) fn resume(
        &mut self,
        dims: &[usize],
        rank: usize,
        leaf_volume: usize,
        mut split: impl FnMut(&[usize]) -> (usize, usize),
    ) -> bool {
        let d = dims.len();
        let mut new_leaf = self.state.is_empty();
        if new_leaf {
            self.ndims = d;
            // room for 16 levels; a deeper descent grows the buffer
            self.state.reserve(2 * d + 16 * SPLIT);
            self.state.extend_from_slice(dims);
            self.state.resize(2 * d, 0);
        }
        while self.state.len() > 2 * d {
            let level = self.state.len() - SPLIT;
            let record = &self.state[level..];
            if (record[0]..record[1]).contains(&rank) {
                break;
            }
            let (dim, size, origin) = (record[2], record[3], record[4]);
            self.state[dim] = size;
            self.state[d + dim] = origin;
            self.state.truncate(level);
        }
        let (mut first, mut end) = self.owner();
        let mut vol: usize = self.state[..d].iter().product();
        while vol > leaf_volume {
            new_leaf = true;
            let (dim, lower) = split(&self.state[..d]);
            let (size, origin) = (self.state[dim], self.state[d + dim]);
            // the other sizes' product rather than `vol / size`: no division
            let lower_vol = (0..d)
                .filter(|&i| i != dim)
                .fold(lower, |v, i| v * self.state[i]);
            if rank - first < lower_vol {
                end = first + lower_vol;
                self.state[dim] = lower;
                vol = lower_vol;
            } else {
                first += lower_vol;
                self.state[dim] = size - lower;
                self.state[d + dim] = origin + lower;
                vol -= lower_vol;
            }
            self.state
                .extend_from_slice(&[first, end, dim, size, origin]);
        }
        new_leaf
    }

    /// The rank range of the deepest frame.
    fn owner(&self) -> (usize, usize) {
        if self.state.len() > 2 * self.ndims {
            let level = self.state.len() - SPLIT;
            (self.state[level], self.state[level + 1])
        } else {
            (0, usize::MAX)
        }
    }

    /// The leaf's sub-grid sizes, its origin and the offset of `rank` in
    /// its ranks.
    pub(crate) fn leaf(&self, rank: usize) -> (&[usize], &[usize], usize) {
        let d = self.ndims;
        (
            &self.state[..d],
            &self.state[d..2 * d],
            rank - self.owner().0,
        )
    }
}

/// A mapper whose result can be computed *per rank*, independently of all
/// other ranks — the "fully distributed" property the paper requires of its
/// algorithms (Section V): every process derives its own new coordinate from
/// the grid, the stencil and its rank alone.
pub trait RankLocalMapper: Send + Sync {
    /// Human-readable algorithm name.
    fn local_name(&self) -> &str;

    /// Computes the new grid coordinate of `rank` on its own — the paper's
    /// single-rank algorithm: a fresh [`MapWorkspace`], then
    /// [`RankLocalMapper::remap_rank_into`].
    fn remap_rank(&self, problem: &MappingProblem, rank: usize) -> Coord {
        let mut out = vec![0usize; problem.dims().ndims()];
        self.remap_rank_into(problem, rank, &mut MapWorkspace::new(), &mut out);
        out
    }

    /// Writes the new grid coordinate of `rank` into `out` (length `ndims`),
    /// reusing the scratch buffers of `ws`, so the parallel full-mapping
    /// computation performs no per-rank allocation and resumes from where
    /// `ws` left the previous rank.  The result never depends on which ranks
    /// `ws` has seen.
    ///
    /// `ws` must not be reused across different problems or mappers — cached
    /// per-problem state (e.g. the strip layout) is not validated against
    /// the arguments.  See [`MapWorkspace`].
    fn remap_rank_into(
        &self,
        problem: &MappingProblem,
        rank: usize,
        ws: &mut MapWorkspace,
        out: &mut [usize],
    );
}

/// Every rank-local mapper is a full mapper: the complete mapping is obtained
/// by evaluating the rank-local computation for every rank (in parallel,
/// mirroring the fact that on a real machine every process runs the
/// computation concurrently).
///
/// The rank range is split into contiguous chunks; each chunk owns one
/// [`MapWorkspace`] and writes grid positions straight into its slice of the
/// position table, so the full mapping is computed without per-rank
/// allocation.  Results are identical for every thread count.
impl<T: RankLocalMapper> Mapper for T {
    fn name(&self) -> &str {
        self.local_name()
    }

    fn compute(&self, problem: &MappingProblem) -> Result<Mapping, MapError> {
        let p = problem.num_processes();
        let d = problem.dims().ndims();
        let chunk_size = (p / (rayon::current_num_threads() * 4).max(1))
            .clamp(256, 1 << 16)
            .min(p.max(1));
        let mut positions = vec![0usize; p];
        positions
            .par_chunks_mut(chunk_size)
            .enumerate()
            .for_each(|(chunk_index, chunk)| {
                let mut ws = MapWorkspace::new();
                let mut coord = vec![0usize; d];
                let base = chunk_index * chunk_size;
                for (i, slot) in chunk.iter_mut().enumerate() {
                    self.remap_rank_into(problem, base + i, &mut ws, &mut coord);
                    // usize::MAX marks an out-of-grid coordinate; it is
                    // rejected by the permutation validation below.
                    *slot = if problem.dims().contains(&coord) {
                        problem.dims().rank_of(&coord)
                    } else {
                        usize::MAX
                    };
                }
            });
        Mapping::from_positions(problem, positions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_grid::{Dims, NodeAllocation, Stencil};

    fn small_problem() -> MappingProblem {
        MappingProblem::new(
            Dims::from_slice(&[4, 4]),
            Stencil::nearest_neighbor(2),
            NodeAllocation::homogeneous(4, 4),
        )
        .unwrap()
    }

    #[test]
    fn problem_accessors() {
        let p = small_problem();
        assert_eq!(p.num_processes(), 16);
        assert_eq!(p.num_nodes(), 4);
        assert_eq!(p.node_size_parameter(), 4);
        assert!(!p.periodic());
        assert_eq!(p.dims().as_slice(), &[4, 4]);
        assert_eq!(p.stencil().k(), 4);
        assert_eq!(p.alloc().num_nodes(), 4);
    }

    #[test]
    fn problem_rejects_mismatched_allocation() {
        let err = MappingProblem::new(
            Dims::from_slice(&[4, 4]),
            Stencil::nearest_neighbor(2),
            NodeAllocation::homogeneous(3, 4),
        );
        assert!(matches!(err, Err(MapError::Grid(_))));
    }

    #[test]
    fn problem_rejects_mismatched_stencil() {
        let err = MappingProblem::new(
            Dims::from_slice(&[4, 4]),
            Stencil::nearest_neighbor(3),
            NodeAllocation::homogeneous(4, 4),
        );
        assert!(err.is_err());
    }

    #[test]
    fn heterogeneous_node_size_parameter_is_mean() {
        let p = MappingProblem::new(
            Dims::from_slice(&[4, 4]),
            Stencil::nearest_neighbor(2),
            NodeAllocation::heterogeneous(vec![6, 4, 6]).unwrap(),
        )
        .unwrap();
        assert_eq!(p.node_size_parameter(), 5);
    }

    #[test]
    fn error_display() {
        let e = MapError::NotApplicable("n does not factor".into());
        assert!(e.to_string().contains("not applicable"));
        let e = MapError::InvalidResult("dup".into());
        assert!(e.to_string().contains("invalid result"));
        let e: MapError = stencil_grid::GridError::EmptyDims.into();
        assert!(e.to_string().contains("invalid mapping problem"));
    }

    /// A trivial rank-local mapper used to exercise the blanket impl.
    struct Identity;
    impl RankLocalMapper for Identity {
        fn local_name(&self) -> &str {
            "Identity"
        }
        fn remap_rank_into(
            &self,
            problem: &MappingProblem,
            rank: usize,
            _ws: &mut MapWorkspace,
            out: &mut [usize],
        ) {
            out.copy_from_slice(&problem.dims().coord_of(rank));
        }
    }

    #[test]
    fn blanket_impl_builds_full_mapping() {
        let p = small_problem();
        let m = Identity.compute(&p).unwrap();
        assert_eq!(Mapper::name(&Identity), "Identity");
        for r in 0..p.num_processes() {
            assert_eq!(m.position_of_rank(r), r);
        }
    }
}
