//! Heap-allocation counting for the benchmark.
//!
//! [`CountingAlloc`] wraps the system allocator and counts every
//! `alloc`/`realloc` call. A binary opts in by declaring it as its global
//! allocator:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: cmap_obs::alloc::CountingAlloc = cmap_obs::alloc::CountingAlloc;
//! ```
//!
//! [`allocations`] then reports the process-wide count; in binaries that
//! did not install the wrapper it stays 0 and readers must treat the
//! figure as "not measured". `benchmark/` installs it (wrapped, in its
//! `heap.rs`) to measure `allocs_per_sim_s`.
//!
//! The count is a relaxed monotone meter: it orders nothing, never feeds
//! back into simulation behaviour, and is read only at figure boundaries
//! by the benchmark driver.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

// cmap-analyze: allow(shared-state) — relaxed monotonic allocation meter for the benchmark; never read by simulation state
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// A [`System`]-backed allocator that counts allocation calls.
pub struct CountingAlloc;

// SAFETY-adjacent note: the wrapper adds only a relaxed counter bump on the
// allocation path — no locking, no allocation of its own — so it cannot
// recurse or change allocator semantics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocation calls since process start (0 when [`CountingAlloc`] is not
/// the global allocator of the running binary).
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrapper_counts_and_allocates() {
        // The test binary does not install the wrapper globally; exercise
        // it directly.
        let a = CountingAlloc;
        let before = allocations();
        let layout = Layout::from_size_align(64, 8).expect("layout");
        // SAFETY: layout is non-zero-size; the pointer is freed with the
        // same layout below.
        unsafe {
            let p = a.alloc(layout);
            assert!(!p.is_null());
            a.dealloc(p, layout);
            let p = a.alloc_zeroed(layout);
            assert!(!p.is_null());
            assert_eq!(*p, 0);
            a.dealloc(p, layout);
        }
        assert!(allocations() >= before + 2);
    }
}
