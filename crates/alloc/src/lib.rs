//! A tracking global allocator for per-phase heap measurement.
//!
//! The paper's space story is table bytes — the engine's own accounting of
//! what lives in call and answer tables. That number deliberately excludes
//! everything else the process allocates: parser ASTs, arenas, worklists,
//! report strings. [`TrackingAlloc`] closes the gap: a zero-dependency
//! wrapper over [`std::alloc::System`] that counts live bytes, peak live
//! bytes, and cumulative allocations with relaxed atomics, so a benchmark
//! row can report *process heap* next to *table bytes*.
//!
//! The allocator is opt-in. Nothing in the workspace installs it by
//! default; a binary that wants tracking declares
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: tablog_alloc::TrackingAlloc = tablog_alloc::TrackingAlloc;
//! ```
//!
//! Three binaries do: the `e2e` benchmark (`crates/bench/src/bin/e2e`), for
//! its `peak_heap_mb` metric and per-layer heap, the root package's
//! `tests/forest_footprint.rs`, which bounds the engine's peak heap and
//! allocation count on two suite rows, and this crate's own
//! `tests/counters.rs`, a harness-less binary so that no test-runner
//! thread allocates while it checks the counters. Code that *measures* uses [`HeapScope`]:
//! `begin` resets the peak to the current live level, `measure` reports the
//! delta. When the tracking allocator is not installed every counter stays
//! zero, [`is_tracking`] reports `false`, and `measure` returns `None` — so
//! measurement sites need no feature gates of their own.
//!
//! Caveats, by construction:
//!
//! * **Scopes do not nest.** The peak is a single process-global watermark;
//!   `begin` resets it. Sequential, non-overlapping phases measure
//!   correctly; interleaved scopes see each other's allocations.
//! * **Parallel work contaminates.** The counters are process-wide, so a
//!   scope around one analysis measures every thread's traffic. Both
//!   installers measure one analysis at a time on a single thread.
//! * **Numbers are requested bytes**, not allocator-internal footprint:
//!   `size` as passed to `alloc`, excluding fragmentation and metadata.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Bytes currently live (allocated minus deallocated).
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// High-water mark of [`LIVE`] since the last [`reset_peak`].
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Cumulative bytes ever allocated.
static TOTAL_ALLOCATED: AtomicU64 = AtomicU64::new(0);
/// Cumulative allocation calls.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// A [`GlobalAlloc`] forwarding to [`System`] while maintaining the live /
/// peak / cumulative counters. Install with `#[global_allocator]`.
pub struct TrackingAlloc;

impl TrackingAlloc {
    #[inline]
    fn on_alloc(size: usize) {
        TOTAL_ALLOCATED.fetch_add(size as u64, Ordering::Relaxed);
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }

    #[inline]
    fn on_dealloc(size: usize) {
        LIVE.fetch_sub(size, Ordering::Relaxed);
    }
}

// SAFETY: delegates every allocation verbatim to `System`; the counter
// updates are lock-free atomics and never allocate themselves.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            Self::on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        Self::on_dealloc(layout.size());
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            Self::on_alloc(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // Count the grow/shrink as one alloc of the new size plus a
            // free of the old: LIVE moves by the delta, PEAK sees the new
            // level, TOTAL_ALLOCATED accrues the new block.
            Self::on_alloc(new_size);
            Self::on_dealloc(layout.size());
        }
        p
    }
}

/// A point-in-time reading of the allocator counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Bytes currently live.
    pub live_bytes: usize,
    /// Peak live bytes since the last [`reset_peak`].
    pub peak_bytes: usize,
    /// Cumulative bytes ever allocated.
    pub total_allocated: u64,
    /// Cumulative allocation calls.
    pub allocations: u64,
}

/// Reads the counters. All zeros unless [`TrackingAlloc`] is installed.
pub fn stats() -> HeapStats {
    HeapStats {
        live_bytes: LIVE.load(Ordering::Relaxed),
        peak_bytes: PEAK.load(Ordering::Relaxed),
        total_allocated: TOTAL_ALLOCATED.load(Ordering::Relaxed),
        allocations: ALLOCS.load(Ordering::Relaxed),
    }
}

/// Whether [`TrackingAlloc`] is installed as the global allocator, judged
/// by whether it has ever observed an allocation (any running program
/// allocates long before measurement code runs).
pub fn is_tracking() -> bool {
    TOTAL_ALLOCATED.load(Ordering::Relaxed) > 0
}

/// Resets the peak watermark to the current live level, starting a new
/// peak-measurement window.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// The heap cost of one measured phase, from [`HeapScope::measure`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HeapDelta {
    /// Bytes allocated during the phase (cumulative, counting frees).
    pub allocated_bytes: u64,
    /// Allocation calls during the phase.
    pub allocations: u64,
    /// Peak live bytes observed during the phase — the process-heap
    /// analogue of the paper's table-space columns. Absolute, not relative
    /// to the phase start: it is the high-water mark the process needed
    /// while the phase ran.
    pub peak_bytes: usize,
}

/// Scope guard for one sequential measurement phase: [`HeapScope::begin`]
/// resets the peak window and snapshots the cumulative counters,
/// [`HeapScope::measure`] reports the deltas. Phases must not nest or
/// overlap (see the crate docs).
#[derive(Clone, Copy, Debug)]
pub struct HeapScope {
    start: HeapStats,
}

impl HeapScope {
    /// Opens a measurement window at the current heap state.
    pub fn begin() -> Self {
        reset_peak();
        HeapScope { start: stats() }
    }

    /// Closes the window: `Some(delta)` when the tracking allocator is
    /// installed, `None` otherwise (so callers can skip reporting).
    pub fn measure(&self) -> Option<HeapDelta> {
        if !is_tracking() {
            return None;
        }
        let now = stats();
        Some(HeapDelta {
            allocated_bytes: now.total_allocated - self.start.total_allocated,
            allocations: now.allocations - self.start.allocations,
            peak_bytes: now.peak_bytes,
        })
    }
}
