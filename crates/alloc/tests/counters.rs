//! Checks of the tracking allocator's counters. They read process-global
//! live and peak bytes, so they run one after another in a plain `main`
//! (`harness = false`): no test-harness thread allocates while they
//! measure.

use tablog_alloc::{is_tracking, reset_peak, stats, HeapScope, TrackingAlloc};

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

fn tracking_is_detected_and_counters_move() {
    // The runtime itself has long since allocated.
    assert!(is_tracking());
    let before = stats();
    let v: Vec<u8> = Vec::with_capacity(1 << 16);
    let after = stats();
    drop(v);
    assert!(after.total_allocated >= before.total_allocated + (1 << 16) as u64);
    assert!(after.allocations > before.allocations);
    assert!(after.live_bytes >= before.live_bytes + (1 << 16));
}

fn scope_measures_a_phase_and_its_peak() {
    let scope = HeapScope::begin();
    let v: Vec<u8> = vec![0; 1 << 20];
    drop(v);
    let delta = scope.measure().expect("tracking allocator installed");
    assert!(delta.allocated_bytes >= (1 << 20) as u64);
    assert!(delta.allocations >= 1);
    // The megabyte was live at some point inside the window, so the
    // peak must have reached at least that far above the start.
    assert!(delta.peak_bytes >= (1 << 20));
}

fn reset_peak_starts_a_fresh_window() {
    let v: Vec<u8> = vec![0; 1 << 18];
    drop(v);
    reset_peak();
    // After the reset the peak equals live (no traffic in between
    // beyond what the assertion machinery itself allocates).
    let s = stats();
    assert!(s.peak_bytes <= s.live_bytes + (1 << 16));
}

fn live_bytes_fall_when_memory_is_freed() {
    let scope_live = stats().live_bytes;
    let v: Vec<u8> = vec![0; 1 << 20];
    let held = stats().live_bytes;
    drop(v);
    let released = stats().live_bytes;
    assert!(held >= scope_live + (1 << 20));
    assert!(released < held);
}

fn main() {
    let checks: [(&str, fn()); 4] = [
        (
            "tracking_is_detected_and_counters_move",
            tracking_is_detected_and_counters_move,
        ),
        (
            "scope_measures_a_phase_and_its_peak",
            scope_measures_a_phase_and_its_peak,
        ),
        (
            "reset_peak_starts_a_fresh_window",
            reset_peak_starts_a_fresh_window,
        ),
        (
            "live_bytes_fall_when_memory_is_freed",
            live_bytes_fall_when_memory_is_freed,
        ),
    ];
    for (name, check) in checks {
        check();
        println!("test {name} ... ok");
    }
}
