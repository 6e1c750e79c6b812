//! A counting global allocator: the measurement instrument behind the
//! zero-alloc steady-state guarantee.
//!
//! Install it in a binary with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: qn_bench::counting_alloc::CountingAlloc =
//!     qn_bench::counting_alloc::CountingAlloc;
//! ```
//!
//! then bracket the region of interest with [`snapshot`] and read the
//! delta. Counters are process-global atomics, so measurements are only
//! attributable when the measured region runs single-threaded
//! (`tests/contracts.rs` runs without the libtest harness and pins the
//! worker pool to one thread).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);

/// Forwarding wrapper around [`System`] that counts every allocation call
/// and allocated byte (deallocations are counted separately; `realloc`
/// counts as one allocation of the new size).
pub struct CountingAlloc;

// SAFETY: pure forwarding to `System`; the counters are lock-free atomics
// and touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.fetch_add(1, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

/// Point-in-time reading of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    /// Allocation calls (`alloc` + `alloc_zeroed` + `realloc`) so far.
    pub allocations: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// Deallocation calls so far.
    pub frees: u64,
}

impl Snapshot {
    /// Counter deltas since `earlier` (`self` must be the later snapshot).
    ///
    /// # Panics
    ///
    /// Panics in debug builds (wrapping in release) if `earlier` was taken
    /// **after** `self` — the counters are monotone, so a negative delta
    /// always means the snapshots were swapped at the call site.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            allocations: self.allocations - earlier.allocations,
            bytes: self.bytes - earlier.bytes,
            frees: self.frees - earlier.frees,
        }
    }
}

/// Reads the current counters.
pub fn snapshot() -> Snapshot {
    Snapshot {
        allocations: ALLOCS.load(Ordering::Relaxed),
        bytes: ALLOC_BYTES.load(Ordering::Relaxed),
        frees: FREES.load(Ordering::Relaxed),
    }
}
