//! A cache hit's answer is written from the cached entry into the caller's
//! output buffer: once warm, a verbose or compact table hit allocates no
//! more than a cost-only hit of the same entry (plus 1 KiB of slack), so
//! no table-sized restore, varint or base64 buffer is built on the way.
//! Into an empty buffer, no single allocation exceeds twice the answer
//! plus one slice's reservation, so a buffer a worker keeps holds no
//! table-sized reservation either.
//!
//! Its own test binary, because it installs a counting global allocator.
//! It counts bytes requested by this thread, not time, so it is
//! deterministic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use stencil_grid::{Dims, Stencil};
use stencil_mapping::canonical::canonicalize;
use stencil_serve::service::{MappingService, ServiceConfig};

/// Counts the bytes each thread asks the system allocator for.
struct Counting;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
    /// The largest single allocation (or reallocation's new size) so far.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: allocations during thread teardown go uncounted
    let _ = ALLOCATED.try_with(|a| a.set(a.get() + bytes));
    let _ = LARGEST.try_with(|l| l.set(l.get().max(bytes)));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// A p = 4800 table line of the hops stencil on 100 nodes: `[64,75]` is the
/// canonical order of its key, `[75,64]` a permuted request for the same
/// entry.
fn hops_line(dims: [usize; 2], extra: &str) -> String {
    format!(
        r#"{{"dims":[{},{}],"stencil":"hops","nodes":100,"algorithm":"hyperplane"{extra}}}"#,
        dims[0], dims[1]
    )
}

#[test]
fn table_hits_allocate_no_more_than_a_cost_only_hit() {
    const SLACK: usize = 1024;
    let service = MappingService::new(&ServiceConfig::default());
    let mut out = String::new();
    let mut allocated = |line: &str| {
        out.clear();
        let before = ALLOCATED.with(Cell::get);
        service.handle_line_into(line, false, &mut out);
        assert!(out.contains(r#""status":"ok""#), "{out}");
        ALLOCATED.with(Cell::get) - before
    };
    // p = 4800 on 100 nodes: [64,75] is the canonical order of the hops
    // stencil's key, [75,64] a permuted request for the same entry
    let hops = Stencil::nearest_neighbor_with_hops(2);
    for (dims, identity) in [([64, 75], true), ([75, 64], false)] {
        let canon = canonicalize(&Dims::from_slice(&dims), &hops);
        assert_eq!(canon.is_identity_permutation(), identity, "{dims:?}");
        let cost_only = hops_line(dims, r#","want_mapping":false"#);
        let verbose = hops_line(dims, "");
        let compact = hops_line(dims, r#","encoding":"compact""#);
        // warm-up: computes the entry, memoises its compact encoding and
        // grows the output buffer to the longest answer
        for l in [&verbose, &compact, &cost_only, &verbose, &compact] {
            allocated(l);
        }
        let base = allocated(&cost_only);
        for l in [&verbose, &compact] {
            let bytes = allocated(l);
            assert!(
                bytes <= base + SLACK,
                "{l}: {bytes} B allocated, a cost-only hit {base} B"
            );
        }
    }
}

#[test]
fn a_permuted_table_hit_reserves_no_more_than_twice_its_answer() {
    // the restoring walk's runs hold at most 512 entries, and the digit
    // writer reserves 11 B per entry of a run (ten digits and a comma)
    const SLICE_RESERVATION: usize = 512 * 11;
    let service = MappingService::new(&ServiceConfig::default());
    let dims = [75, 64];
    let hops = Stencil::nearest_neighbor_with_hops(2);
    assert!(!canonicalize(&Dims::from_slice(&dims), &hops).is_identity_permutation());
    for line in [
        hops_line(dims, ""),
        hops_line(dims, r#","encoding":"compact""#),
    ] {
        // the first answer computes the entry (and memoises nothing a
        // permuted answer reads)
        let mut warm = String::new();
        service.handle_line_into(&line, false, &mut warm);
        let mut out = String::new();
        LARGEST.with(|l| l.set(0));
        service.handle_line_into(&line, false, &mut out);
        let largest = LARGEST.with(Cell::get);
        assert!(out.contains(r#""cached":true"#), "{out}");
        assert!(
            largest <= 2 * out.len() + SLICE_RESERVATION,
            "{line}: a {largest} B allocation for a {} B answer",
            out.len()
        );
    }
}
