//! A reusable scratch arena for the multilevel partitioning pipeline.
//!
//! Every stage of the pipeline (matching, contraction, graph growing, FM
//! refinement, subgraph induction) needs a handful of per-vertex scratch
//! vectors.  Allocating them per level — the seed implementation did — puts
//! an allocator round-trip in every hot loop.  A [`Workspace`] owns all of
//! these buffers; they are cleared and resized per use but keep their
//! capacity, so a full multilevel run performs no per-level scratch
//! allocation once the buffers have grown to the finest level's size.
//!
//! No workspace is shared between threads: every parallel branch of the
//! recursive bisection owns its own workspace (the left branch inherits the
//! parent's, the right branch starts a fresh one), so no locking is needed
//! and results stay deterministic.

use crate::bucket::BucketQueue;

/// Scratch buffers shared by all stages of the multilevel pipeline.
///
/// See the [module documentation](self) for the reuse contract.  All buffers
/// are implementation details; user code only constructs the workspace and
/// passes it to a stage such as [`crate::coarsen::coarsen_hierarchy`].
#[derive(Debug, Default)]
pub struct Workspace {
    /// Matched partner per vertex (taken/returned to avoid double borrows).
    pub(crate) partner: Vec<u32>,
    /// Proposed partner per vertex for one propose-then-commit matching
    /// round (`u32::MAX` = no proposal).
    pub(crate) proposal: Vec<u32>,
    /// Per-vertex random draw for one matching round; edges tie-break on the
    /// XOR of their endpoints' draws (symmetric, O(n) per round to refresh
    /// instead of a per-edge hash).
    pub(crate) rand: Vec<u64>,
    /// Representative (smallest member id) per coarse vertex.
    pub(crate) rep: Vec<u32>,
    /// Scratch prefix-sum offsets (contraction upper-bound row starts).
    pub(crate) row_offsets: Vec<usize>,
    /// Contraction scratch: gathered coarse neighbor ids per row.
    pub(crate) scratch_adj: Vec<u32>,
    /// Contraction scratch: gathered coarse edge weights per row.
    pub(crate) scratch_wgt: Vec<u32>,
    /// Merged (deduplicated) degree per coarse vertex.
    pub(crate) cdeg: Vec<u32>,
    /// Region membership flags for greedy graph growing.
    pub(crate) in_region: Vec<bool>,
    /// Gain per vertex (graph growing and FM refinement).
    pub(crate) gain: Vec<i64>,
    /// Boundary flag per vertex (FM fills its queues from these only).
    pub(crate) boundary: Vec<bool>,
    /// Moved-this-pass flag per vertex (FM move locking).
    pub(crate) locked: Vec<bool>,
    /// Candidate partition of the current growing attempt.
    pub(crate) grow_part: Vec<u32>,
    /// Gain-bucket queue of part-0 vertices for FM passes; also reused as the
    /// frontier queue of greedy graph growing.
    pub(crate) bq0: BucketQueue,
    /// Gain-bucket queue of part-1 vertices for FM passes.
    pub(crate) bq1: BucketQueue,
    /// Move journal of the current FM pass.
    pub(crate) moves: Vec<usize>,
    /// Global→local vertex ids for subgraph induction (full graph size,
    /// reset lazily: only entries touched by the last induction are cleared).
    pub(crate) global_to_local: Vec<u32>,
    /// Ping/pong partition buffer for hierarchy projection.
    pub(crate) part_a: Vec<u32>,
    /// Bisection side per sub-problem vertex (taken/returned by the
    /// recursive bisection so every tree node reuses one buffer).
    pub(crate) side: Vec<u32>,
    /// Pool of retired vertex-list buffers, recycled by the recursion so the
    /// sequential spine performs no per-node list allocation in steady state.
    pub(crate) spare: Vec<Vec<u32>>,
}

/// Cap on the recycled-buffer pool; beyond this, retired buffers are freed.
const SPARE_POOL_CAP: usize = 64;

impl Workspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Clears `buf` and resizes it to `n` copies of `value`, reusing its
    /// capacity.
    pub(crate) fn reset<T: Clone>(buf: &mut Vec<T>, n: usize, value: T) {
        buf.clear();
        buf.resize(n, value);
    }

    /// Grows `buf` to at least `n` elements without clearing: existing
    /// contents are preserved (and arbitrary), so callers must write before
    /// they read.  Used by stages that fully overwrite their scratch — it
    /// skips the O(n) refill that [`Workspace::reset`] would pay.
    pub(crate) fn ensure_len<T: Clone + Default>(buf: &mut Vec<T>, n: usize) {
        if buf.len() < n {
            buf.resize(n, T::default());
        }
    }

    /// Takes a cleared vertex-list buffer from the recycle pool (or a fresh
    /// one when the pool is empty).
    pub(crate) fn take_spare(&mut self) -> Vec<u32> {
        self.spare.pop().unwrap_or_default()
    }

    /// Returns a retired vertex-list buffer to the recycle pool, keeping its
    /// capacity for the next [`Workspace::take_spare`].
    pub(crate) fn recycle(&mut self, mut buf: Vec<u32>) {
        if self.spare.len() < SPARE_POOL_CAP {
            buf.clear();
            self.spare.push(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_reuses_capacity() {
        let mut ws = Workspace::new();
        Workspace::reset(&mut ws.gain, 100, 0);
        assert_eq!(ws.gain.len(), 100);
        let cap = ws.gain.capacity();
        Workspace::reset(&mut ws.gain, 50, 7);
        assert_eq!(ws.gain.len(), 50);
        assert!(ws.gain.iter().all(|&g| g == 7));
        assert_eq!(ws.gain.capacity(), cap, "capacity must be retained");
    }

    #[test]
    fn spare_pool_recycles_capacity() {
        let mut ws = Workspace::new();
        let mut buf = ws.take_spare();
        buf.extend(0..100);
        let cap = buf.capacity();
        ws.recycle(buf);
        let again = ws.take_spare();
        assert!(again.is_empty());
        assert_eq!(again.capacity(), cap, "pool must retain capacity");
    }
}
