//! A full table of a rank-local mapper allocates per chunk, never per rank:
//! every chunk of the parallel computation reuses one `MapWorkspace`, so a
//! table four times larger, split into the same number of chunks, makes at
//! most a handful more heap allocations (a deeper bisection grows its frame
//! buffers a few times).  The process counts every allocation with its own
//! global allocator, which is why this binary holds a single test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use stencilmap::prelude::*;

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made while `mapper` computes the table of a `side × side`
/// nearest-neighbour grid on nodes of 16 processes.
fn allocations(mapper: &dyn Mapper, side: usize) -> usize {
    let problem = MappingProblem::new(
        Dims::from_slice(&[side, side]),
        Stencil::nearest_neighbor(2),
        NodeAllocation::homogeneous(side * side / 16, 16),
    )
    .unwrap();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mapping = mapper.compute(&problem).unwrap();
    let made = ALLOCATIONS.load(Ordering::Relaxed) - before;
    drop(mapping);
    made
}

#[test]
fn a_full_table_allocates_per_chunk_not_per_rank() {
    // p = 4096 and p = 16384 split into the same number of chunks at one to
    // four threads; rayon reads the count once, on its first use below
    let threads = std::env::var("RAYON_NUM_THREADS").ok();
    if !matches!(threads.as_deref(), Some("1" | "2" | "3" | "4")) {
        std::env::set_var("RAYON_NUM_THREADS", "2");
    }
    let mappers: [Box<dyn Mapper>; 5] = [
        Box::new(Hyperplane::default()),
        Box::new(KdTree),
        Box::new(StencilStrips),
        Box::new(Nodecart),
        Box::new(Blocked),
    ];
    for mapper in &mappers {
        // the first computation also pays for one-time set-up
        allocations(mapper.as_ref(), 64);
        let small = allocations(mapper.as_ref(), 64);
        let large = allocations(mapper.as_ref(), 128);
        assert!(
            large <= small + 64,
            "{}: {small} allocations for p = 4096, {large} for p = 16384",
            mapper.name()
        );
    }
}
