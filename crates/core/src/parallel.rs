//! Parallel multi-program analysis.
//!
//! Every engine session owns its term arena ([`tablog_term::TermArena`])
//! and `Engine` is `Send`, so distinct programs can be analyzed on distinct
//! threads with no shared evaluation state — only the process-wide symbol
//! table is shared, and it is lock-protected. The driver here is
//! deliberately dependency-free: a [`std::thread::scope`] worker pool
//! pulling indices off an atomic counter, which is all a suite of a few
//! dozen benchmark programs needs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Analyzes many programs concurrently: applies `analyze` to every item of
/// `programs` on up to `jobs` worker threads and returns the results in
/// input order, so parallel output is byte-comparable with a sequential
/// run. This is the multi-program driver behind `tablog --jobs N`.
///
/// `jobs <= 1` (or a single item) runs inline on the calling thread, so
/// sequential and parallel callers share one code path. Workers claim items
/// through an atomic cursor, which keeps long-running items from stalling
/// the queue behind them. Each `analyze` call must build its own engine
/// session (analyzers do — every run constructs a fresh `Engine`, whose
/// arena lives and dies with that run). If `analyze` panics on any item
/// the panic propagates to the caller once the scope joins.
pub fn analyze_many<T, R, F>(jobs: usize, programs: &[T], analyze: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let jobs = jobs.clamp(1, programs.len().max(1));
    if jobs == 1 {
        return programs.iter().map(analyze).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = programs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= programs.len() {
                    break;
                }
                let r = analyze(&programs[i]);
                *slots[i].lock().unwrap() = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .unwrap()
                .expect("every claimed slot is filled before the scope joins")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::depthk::DepthKAnalyzer;
    use crate::groundness::GroundnessAnalyzer;

    #[test]
    fn analyze_many_preserves_input_order() {
        let items: Vec<usize> = (0..64).collect();
        let got = analyze_many(8, &items, |&i| i * 2);
        assert_eq!(got, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_job_runs_inline() {
        let items = [1, 2, 3];
        let got = analyze_many(1, &items, |&i| i + 1);
        assert_eq!(got, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let items: [u8; 0] = [];
        assert!(analyze_many(4, &items, |_| 0).is_empty());
    }

    const PROGRAMS: [&str; 4] = [
        "app([], Ys, Ys). app([X|Xs], Ys, [X|Zs]) :- app(Xs, Ys, Zs).",
        "rev([], []). rev([X|Xs], R) :- rev(Xs, T), app(T, [X], R).
         app([], Ys, Ys). app([X|Xs], Ys, [X|Zs]) :- app(Xs, Ys, Zs).",
        "p(a). q(X) :- p(X). r(X, Y) :- q(X), Y = f(X).",
        "len([], 0). len([_|T], N) :- len(T, M), N is M + 1.",
    ];

    fn groundness_fingerprint(report: &crate::groundness::GroundnessReport) -> Vec<String> {
        report
            .predicates()
            .map(|p| format!("{}/{} {:?}", p.name, p.arity, p.definitely_ground))
            .collect()
    }

    /// ≥4 engines running concurrently on distinct programs reach exactly
    /// the results of a sequential run — the tentpole's isolation claim.
    #[test]
    fn concurrent_engines_match_sequential_results() {
        let an = GroundnessAnalyzer::new();
        let sequential: Vec<Vec<String>> = PROGRAMS
            .iter()
            .map(|src| groundness_fingerprint(&an.analyze_source(src).unwrap()))
            .collect();
        let parallel: Vec<Vec<String>> = analyze_many(4, &PROGRAMS, |src| {
            groundness_fingerprint(&GroundnessAnalyzer::new().analyze_source(src).unwrap())
        });
        assert_eq!(sequential, parallel);

        // Same property for the hook-driven depth-k analyzer, whose
        // truncation hooks mutate the session arena from worker threads.
        let dk_seq: Vec<usize> = PROGRAMS
            .iter()
            .map(|src| {
                DepthKAnalyzer::new(2)
                    .analyze_source(src)
                    .unwrap()
                    .predicates()
                    .map(|p| p.answers.len())
                    .sum()
            })
            .collect();
        let dk_par: Vec<usize> = analyze_many(4, &PROGRAMS, |src| {
            DepthKAnalyzer::new(2)
                .analyze_source(src)
                .unwrap()
                .predicates()
                .map(|p| p.answers.len())
                .sum()
        });
        assert_eq!(dk_seq, dk_par);
    }

    /// Regression test for the PR 3 cross-run leak: evaluation terms live
    /// in per-session arenas now, so repeated analyses must not grow the
    /// process-global compat arena.
    #[test]
    fn repeated_analyses_do_not_grow_the_global_arena() {
        let an = GroundnessAnalyzer::new();
        // Warm up once: symbol interning and any compat-arena use by
        // analyzer setup happen on the first run.
        an.analyze_source(PROGRAMS[0]).unwrap();
        let before = tablog_term::arena_stats();
        for _ in 0..5 {
            for src in &PROGRAMS {
                an.analyze_source(src).unwrap();
            }
        }
        let after = tablog_term::arena_stats();
        assert_eq!(
            before.nodes, after.nodes,
            "global arena grew across runs: {before:?} -> {after:?}"
        );
        assert_eq!(before.interned_bytes, after.interned_bytes);
    }
}
