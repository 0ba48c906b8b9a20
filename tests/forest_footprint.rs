//! Heap footprint of the derivation forest, pinned under the tracking
//! allocator.
//!
//! Table space is pinned exactly by `tests/golden/suite_tables.txt`; this
//! test pins the heap the engine needs *around* those tables — arena
//! nodes, the hash-cons index, derivation-node keys and consumers — on the
//! two suite rows where it dominates. The peak is process-global, so the
//! test has a binary of its own and a single `#[test]`: nothing else may
//! allocate while it measures.

use tablog_core::depthk::DepthKAnalyzer;
use tablog_core::groundness::EntryPoint;
use tablog_core::strictness::StrictnessAnalyzer;
use tablog_suite::{depthk_benchmarks, fun_benchmark};
use tablog_syntax::parse_program;

#[global_allocator]
static ALLOC: tablog_alloc::TrackingAlloc = tablog_alloc::TrackingAlloc;

const MIB: usize = 1 << 20;

/// Runs `f` and returns its result with the peak of live heap bytes above
/// the level at which it started.
fn measured<R>(f: impl FnOnce() -> R) -> (R, usize) {
    assert!(tablog_alloc::is_tracking(), "tracking allocator installed");
    let start = tablog_alloc::stats().live_bytes;
    tablog_alloc::reset_peak();
    let r = f();
    (r, tablog_alloc::stats().peak_bytes - start)
}

#[test]
fn forest_heap_stays_within_its_bounds() {
    // Depth-k (k = 1) on `read` from its suite entry: the workload with the
    // worst heap-to-table ratio.
    let read = depthk_benchmarks()
        .into_iter()
        .find(|b| b.name == "read")
        .expect("read is a depth-k benchmark");
    let (table_bytes, peak) = measured(|| {
        let program = parse_program(read.source).unwrap();
        let entry = EntryPoint::parse(read.entry).unwrap();
        DepthKAnalyzer::new(1)
            .analyze_with_entries(&program, std::slice::from_ref(&entry))
            .unwrap()
            .table_bytes()
    });
    assert_eq!(table_bytes, 145_984, "depth-k read table bytes");
    assert!(
        peak <= 12 * MIB,
        "depth-k read peaked at {:.2} MiB above start (bound 12 MiB)",
        peak as f64 / MIB as f64
    );

    // Strictness on `pcprove`: insert-heavy tables.
    let pcprove = fun_benchmark("pcprove").expect("pcprove is a strictness benchmark");
    let (table_bytes, peak) = measured(|| {
        StrictnessAnalyzer::new()
            .analyze_source(pcprove.source)
            .unwrap()
            .table_bytes()
    });
    assert_eq!(table_bytes, 160_168, "strictness pcprove table bytes");
    assert!(
        peak <= 3 * MIB,
        "strictness pcprove peaked at {:.2} MiB above start (bound 3 MiB)",
        peak as f64 / MIB as f64
    );
}
