//! Profiling integration, one loop over the analyses by name: each
//! analysis's `profile` flag must yield a `MetricsReport` with the three
//! phases whose rollups agree with the analysis's own counters, and with
//! span recording on its phase spans must land in the caller's sink.

use std::sync::Arc;
use tablog_core::depthk::DepthKAnalyzer;
use tablog_core::direct::DirectAnalyzer;
use tablog_core::groundness::GroundnessAnalyzer;
use tablog_core::strictness::StrictnessAnalyzer;
use tablog_core::{lookup, run, Analysis, Input, Outcome, Run, NAMES};
use tablog_engine::{CountingSink, EngineOptions, TableStats};
use tablog_trace::{MetricsReport, SpanRecorder};

const APPEND: &str = "
    app([], Ys, Ys).
    app([X|Xs], Ys, [X|Zs]) :- app(Xs, Ys, Zs).
";

/// Unbounded list growth: depth-1 truncation must kick in both on calls
/// (the recursive call's argument deepens) and on answers.
const GROW: &str = "
    grow(nil).
    grow(c(X)) :- grow(X).
";

const AP: &str = "
    ap(nil, ys) = ys;
    ap(x : xs, ys) = x : ap(xs, ys);
";

/// Each analysis's program and the abstract predicate that must have a
/// metrics row.
fn case(name: &str) -> (&'static str, &'static str) {
    match name {
        "ground" | "direct" => (APPEND, "gp$app/3"),
        "depthk" => (GROW, "ak$grow/1"),
        "strict" => (AP, "sp$ap/3"),
        other => panic!("no case for {other}"),
    }
}

fn analyze(name: &str, options: EngineOptions, profile: bool) -> Run<Box<dyn Outcome>> {
    let (src, _) = case(name);
    lookup(name, options, profile, 1)
        .expect("every listed name resolves")
        .analyze_text(src, &[])
        .unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// A result's own counters, which its metrics must agree with.
enum Counters {
    Engine(TableStats),
    Worklist { pairs: usize, iterations: usize },
}

/// Runs `an` on `src`, returning the profile and the result's counters.
fn profiled<A: Analysis>(
    an: &A,
    src: &str,
    counters: impl Fn(&A::Result) -> Counters,
) -> (MetricsReport, Counters) {
    let r = run(an, Input::Source(src), &[]).unwrap();
    let counters = counters(&r.result);
    (r.metrics.expect("profile=true yields metrics"), counters)
}

/// The analysis called `name`, profiled, run on its concrete analyzer so
/// its result's counters stay typed.
fn counted(name: &str) -> (MetricsReport, Counters) {
    let (src, _) = case(name);
    match name {
        "ground" => profiled(
            &GroundnessAnalyzer {
                profile: true,
                ..Default::default()
            },
            src,
            |r| Counters::Engine(r.stats),
        ),
        "direct" => profiled(
            &DirectAnalyzer {
                profile: true,
                ..Default::default()
            },
            src,
            |r| Counters::Worklist {
                pairs: r.pairs,
                iterations: r.iterations,
            },
        ),
        "depthk" => profiled(
            &DepthKAnalyzer {
                profile: true,
                ..DepthKAnalyzer::new(1)
            },
            src,
            |r| Counters::Engine(r.stats),
        ),
        "strict" => profiled(
            &StrictnessAnalyzer {
                profile: true,
                ..Default::default()
            },
            src,
            |r| Counters::Engine(r.stats),
        ),
        other => panic!("no analyzer for {other}"),
    }
}

#[test]
fn metrics_match_each_analysis_counters() {
    for name in NAMES {
        let (_, row_key) = case(name);
        let (m, counters) = counted(name);
        let phases: Vec<&str> = m.phases.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(phases, ["preprocess", "analysis", "collection"], "{name}");
        let t = m.totals();
        let row = m
            .pred(row_key)
            .unwrap_or_else(|| panic!("{name}: {row_key} row"));
        let stats = match counters {
            Counters::Worklist { pairs, iterations } => {
                assert_eq!(t.subgoals, pairs as u64);
                assert_eq!(t.completed, pairs as u64);
                assert!(t.clause_resolutions >= iterations as u64);
                assert!(row.subgoals >= 1);
                continue;
            }
            Counters::Engine(stats) => stats,
        };
        assert_eq!(t.subgoals, stats.subgoals as u64, "{name}");
        assert_eq!(t.answers, stats.answers as u64, "{name}");
        assert_eq!(
            t.duplicate_answers, stats.duplicate_answers as u64,
            "{name}"
        );
        assert_eq!(
            t.clause_resolutions, stats.clause_resolutions as u64,
            "{name}"
        );
        assert_eq!(t.table_bytes, stats.table_bytes as u64, "{name}");
        assert!(row.subgoals > 0 && row.answers > 0, "{name}");
        if name == "depthk" {
            assert!(
                t.calls_abstracted > 0 || t.answers_widened > 0,
                "depth-1 truncation should fire: {t:?}"
            );
            assert!(t.answers_widened > 0, "widening rewrites deep answers");
            // The hook events land on the abstract predicate's row.
            assert!(row.answers_widened > 0);
        }
    }
}

#[test]
fn profile_off_means_no_metrics() {
    for name in NAMES {
        assert!(
            analyze(name, EngineOptions::default(), false)
                .metrics
                .is_none(),
            "{name}"
        );
    }
}

#[test]
fn profiling_composes_with_a_user_trace_sink() {
    for name in ["ground", "depthk", "strict"] {
        let counter = Arc::new(CountingSink::new());
        let options = EngineOptions {
            trace: Some(counter.clone()),
            ..Default::default()
        };
        let m = analyze(name, options, true)
            .metrics
            .expect("metrics present");
        // Both observers saw the same event stream.
        assert_eq!(counter.count("new_subgoal"), m.totals().subgoals, "{name}");
        assert_eq!(counter.count("answer_insert"), m.totals().answers, "{name}");
        assert!(counter.total() > 0, "{name}");
    }
}

#[test]
fn phase_spans_land_in_the_callers_sink() {
    let span_names = |rec: &SpanRecorder| -> Vec<String> {
        let tree = rec.snapshot();
        tree.rollup_by_name().into_iter().map(|(n, _)| n).collect()
    };
    for profile in [false, true] {
        for name in NAMES {
            let rec = Arc::new(SpanRecorder::new());
            let options = EngineOptions {
                trace: Some(rec.clone()),
                record_spans: true,
                ..Default::default()
            };
            let run = analyze(name, options, profile);
            let seen = span_names(&rec);
            for phase in ["analysis", "collection"] {
                assert!(
                    seen.iter().any(|n| n == phase),
                    "{name} (profile={profile}): no {phase} span in {seen:?}"
                );
                if let Some(m) = &run.metrics {
                    let in_report = m.spans.rollup_by_name();
                    assert!(in_report.iter().any(|(n, _)| n == phase), "{name}");
                }
            }
        }
    }
}
