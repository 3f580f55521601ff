//! Live heap bytes of the process, exact and deterministic for a seed.
//!
//! Resident-set size is what a user sees, but it mixes what the program
//! holds with what the allocator has not handed back. The `mem` layer of
//! the ledger reports both: bytes the program holds (this meter) say
//! whether a dropped world really left something allocated, RSS says what
//! that cost the host.

use std::alloc::{GlobalAlloc, Layout};
use std::sync::atomic::{AtomicUsize, Ordering};

use cmap_obs::alloc::CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// [`CountingAlloc`] (allocation calls, for `allocs_per_sim_s`) plus
/// live-byte and peak-byte meters. Relaxed counters only: they order
/// nothing and never feed back into the simulation.
pub struct TrackingAlloc;

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `CountingAlloc`, itself a
// thin wrapper over `System`; the meters touch no allocator state and do
// not allocate.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        CountingAlloc.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        CountingAlloc.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= layout.size() {
            grew(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        CountingAlloc.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        CountingAlloc.dealloc(ptr, layout)
    }
}

/// Heap bytes currently allocated.
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Most heap bytes allocated at once since [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Restart the peak meter from the current level.
pub fn reset_peak() {
    PEAK.store(live_bytes(), Ordering::Relaxed);
}
