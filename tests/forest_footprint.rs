//! Heap footprint and allocation count of the derivation forest, pinned
//! under the tracking allocator.
//!
//! Table space is pinned exactly by `tests/golden/suite_tables.txt`; this
//! test pins the heap the engine needs *around* those tables — arena
//! nodes, the hash-cons index, derivation-node keys and consumers — on the
//! two suite rows where it dominates, how many allocations a run makes
//! (resolution steps read clauses and nodes in place, so they allocate
//! little), and how many arena nodes it interns (exactly the canonical
//! calls, answers and derivation nodes of the run, nothing more). The
//! counters are process-global, so the test has a binary of its own and a
//! single `#[test]`: nothing else may allocate while it measures.

use tablog_core::depthk::DepthKAnalyzer;
use tablog_core::groundness::EntryPoint;
use tablog_core::strictness::StrictnessAnalyzer;
use tablog_suite::{depthk_benchmarks, fun_benchmark};
use tablog_syntax::parse_program;

#[global_allocator]
static ALLOC: tablog_alloc::TrackingAlloc = tablog_alloc::TrackingAlloc;

const MIB: usize = 1 << 20;

/// Arena nodes interned by depth-k `read` and strictness `pcprove`: the
/// values of the `Term`-copying engine this step path replaced, which
/// interned the same canonical tuples.
const READ_ARENA_NODES: usize = 102_808;
const PCPROVE_ARENA_NODES: usize = 9_086;

/// Runs `f` and returns its result with the peak of live heap bytes above
/// the level at which it started and the number of allocations it made.
fn measured<R>(f: impl FnOnce() -> R) -> (R, usize, u64) {
    assert!(tablog_alloc::is_tracking(), "tracking allocator installed");
    let start = tablog_alloc::stats();
    tablog_alloc::reset_peak();
    let r = f();
    let end = tablog_alloc::stats();
    (
        r,
        end.peak_bytes - start.live_bytes,
        end.allocations - start.allocations,
    )
}

#[test]
fn forest_heap_stays_within_its_bounds() {
    // Depth-k (k = 1) on `read` from its suite entry: the workload with the
    // worst heap-to-table ratio.
    let read = depthk_benchmarks()
        .into_iter()
        .find(|b| b.name == "read")
        .expect("read is a depth-k benchmark");
    let (report, peak, allocs) = measured(|| {
        let program = parse_program(read.source).unwrap();
        let entry = EntryPoint::parse(read.entry).unwrap();
        DepthKAnalyzer::new(1)
            .analyze_with_entries(&program, std::slice::from_ref(&entry))
            .unwrap()
    });
    assert_eq!(report.table_bytes(), 145_984, "depth-k read table bytes");
    assert_eq!(
        report.arena.nodes, READ_ARENA_NODES,
        "depth-k read arena nodes"
    );
    assert!(
        peak <= 12 * MIB,
        "depth-k read peaked at {:.2} MiB above start (bound 12 MiB)",
        peak as f64 / MIB as f64
    );
    assert!(
        allocs <= 500_000,
        "depth-k read made {allocs} allocations (bound 500 000)"
    );

    // Strictness on `pcprove`: insert-heavy tables.
    let pcprove = fun_benchmark("pcprove").expect("pcprove is a strictness benchmark");
    let (report, peak, allocs) = measured(|| {
        StrictnessAnalyzer::new()
            .analyze_source(pcprove.source)
            .unwrap()
    });
    assert_eq!(
        report.table_bytes(),
        160_168,
        "strictness pcprove table bytes"
    );
    assert_eq!(
        report.arena.nodes, PCPROVE_ARENA_NODES,
        "strictness pcprove arena nodes"
    );
    assert!(
        peak <= 3 * MIB,
        "strictness pcprove peaked at {:.2} MiB above start (bound 3 MiB)",
        peak as f64 / MIB as f64
    );
    assert!(
        allocs <= 100_000,
        "strictness pcprove made {allocs} allocations (bound 100 000)"
    );
}
