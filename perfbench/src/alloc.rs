//! A counting wrapper around the system allocator. The benchmark binary
//! installs it, and a traced run reports `bench.allocs_per_msg` from it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations (and reallocations) so far, across all threads. A
/// statistic only: it publishes no other data, so `Relaxed` suffices.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The counting allocator. Zero-sized; the count is global.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter update does not
// touch the allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as in `alloc`. Forwarding keeps `System`'s zeroed
        // allocation, which leaves fresh pages untouched; the default
        // method would write every byte.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc`/`realloc` above, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System`; the caller's obligations pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap allocations observed so far; stays 0 unless [`CountingAlloc`] is
/// the global allocator.
pub fn allocation_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}
