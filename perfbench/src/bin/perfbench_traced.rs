//! Traced runs (`--trace 1`): the same benchmark linked with a counting
//! global allocator, so per-layer allocation counts are exact while the
//! end-to-end binary carries no counting cost.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::Ordering;

use nf_perfbench::ALLOC_EVENTS;

/// Counts every allocation event (`alloc`, `alloc_zeroed`, `realloc`);
/// frees are not events.
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    std::process::exit(nf_perfbench::main(true));
}
