//! Shared measurement harness for the paper-table reproduction.
//!
//! Every row of the paper's Tables 1–4 is regenerated by a function here,
//! and the `paper_tables` binary prints them. Times will not match a 1996
//! SPARCstation — what is expected to reproduce is the *shape*:
//! preprocessing dominating analysis, totals below compilation time, small
//! table space, and the relative standing of the general-purpose engine
//! against the special-purpose comparators. Repeated-run timings with
//! spreads come from the `e2e` benchmark (`src/bin/e2e/`), not from here.

use std::time::{Duration, Instant};
use tablog_core::depthk::{DepthKAnalyzer, DepthKResult};
use tablog_core::direct::DirectAnalyzer;
use tablog_core::groundness::{compile_time, EntryPoint, GroundnessAnalyzer, GroundnessResult};
use tablog_core::strictness::{StrictnessAnalyzer, StrictnessResult};
use tablog_core::{run, Analysis, Input};
use tablog_engine::{LoadMode, MetricsReport};
use tablog_suite::{depthk_benchmarks, fun_benchmarks, logic_benchmarks, LogicBenchmark};

/// One row of a paper table.
#[derive(Clone, Debug)]
pub struct Row {
    /// Benchmark name.
    pub program: String,
    /// Source lines.
    pub lines: usize,
    /// Preprocessing time (read + transform + load).
    pub preprocess: Duration,
    /// Fixpoint evaluation time.
    pub analysis: Duration,
    /// Result extraction time.
    pub collection: Duration,
    /// Plain compilation time of the source program (no analysis).
    pub compile: Duration,
    /// Table space in bytes.
    pub table_bytes: usize,
    /// Per-predicate engine metrics when the workload ran profiled.
    pub metrics: Option<MetricsReport>,
}

impl Row {
    /// Total analysis time.
    pub fn total(&self) -> Duration {
        self.preprocess + self.analysis + self.collection
    }

    /// The paper's "Compile time increase": total analysis time as a
    /// percentage of plain compilation time.
    pub fn compile_increase_pct(&self) -> f64 {
        if self.compile.is_zero() {
            return 0.0;
        }
        100.0 * self.total().as_secs_f64() / self.compile.as_secs_f64()
    }
}

/// One row per `(name, lines, source, entry)` benchmark: `analysis` runs
/// on the source text (so preprocessing includes the read), from the entry
/// when there is one; `table_bytes` reads the result's table space and
/// `compile` measures the plain compilation baseline.
fn rows<'a, A: Analysis>(
    analysis: &A,
    benchmarks: impl IntoIterator<Item = (&'a str, usize, &'a str, Option<&'a str>)>,
    table_bytes: fn(&A::Result) -> usize,
    compile: fn(&str) -> Duration,
) -> Vec<Row> {
    benchmarks
        .into_iter()
        .map(|(name, lines, source, entry)| {
            let entries: Vec<EntryPoint> = entry
                .map(|e| EntryPoint::parse(e).expect("suite entries parse"))
                .into_iter()
                .collect();
            let report = run(analysis, Input::Source(source), &entries).expect("suite analyzes");
            Row {
                program: name.to_owned(),
                lines,
                preprocess: report.timings.preprocess,
                analysis: report.timings.analysis,
                collection: report.timings.collection,
                compile: compile(source),
                table_bytes: table_bytes(&report),
                metrics: report.metrics,
            }
        })
        .collect()
}

fn logic(benchmarks: &[LogicBenchmark]) -> impl Iterator<Item = (&str, usize, &str, Option<&str>)> {
    benchmarks
        .iter()
        .map(|b| (b.name, b.lines(), b.source, Some(b.entry)))
}

fn compile_dynamic(src: &str) -> Duration {
    compile_time(src, LoadMode::Dynamic).expect("compiles")
}

/// Runs the Table 1 workload: Prop groundness, goal-directed from each
/// benchmark's entry point, dynamic loading, builtin `iff`. With `profile`,
/// each row carries the engine's per-predicate metrics.
///
/// # Panics
///
/// Panics if a benchmark fails to parse or analyze — the integration test
/// suite guards against that.
pub fn table1_rows(profile: bool) -> Vec<Row> {
    let an = GroundnessAnalyzer {
        profile,
        ..GroundnessAnalyzer::new()
    };
    rows(
        &an,
        logic(&logic_benchmarks()),
        GroundnessResult::table_bytes,
        compile_dynamic,
    )
}

/// One comparison row of Table 2: total time on the tabled engine vs. the
/// hand-coded direct analyzer (the GAIA stand-in).
#[derive(Clone, Debug)]
pub struct VsRow {
    /// Benchmark name.
    pub program: String,
    /// Total time, declarative analysis on the tabled engine.
    pub tabled: Duration,
    /// Total time, special-purpose direct analyzer.
    pub direct: Duration,
}

/// Runs the Table 2 workload.
///
/// # Panics
///
/// As [`table1_rows`].
pub fn table2_rows() -> Vec<VsRow> {
    let suite = logic_benchmarks();
    let none = |_: &str| Duration::ZERO;
    let tabled = rows(&GroundnessAnalyzer::new(), logic(&suite), |_| 0, none);
    let direct = rows(&DirectAnalyzer::new(), logic(&suite), |_| 0, none);
    let vs = |(t, d): (Row, Row)| VsRow {
        tabled: t.total(),
        direct: d.total(),
        program: t.program,
    };
    tabled.into_iter().zip(direct).map(vs).collect()
}

/// Runs the Table 3 workload: strictness analysis of the functional suite.
/// The "compile" column is the frontend's parse + translate + load time
/// with no evaluation (the analog of the paper's comparison against plain
/// compilation).
///
/// # Panics
///
/// As [`table1_rows`].
pub fn table3_rows(profile: bool) -> Vec<Row> {
    let an = StrictnessAnalyzer {
        profile,
        ..StrictnessAnalyzer::new()
    };
    let benchmarks = fun_benchmarks();
    let suite = benchmarks
        .iter()
        .map(|b| (b.name, b.lines(), b.source, None));
    rows(&an, suite, StrictnessResult::table_bytes, |src| {
        let t = Instant::now();
        let prog = tablog_funlang::parse_fun_program(src).expect("parses");
        let rules = tablog_core::strictness::translate_program(&prog).expect("translates");
        let mut db = tablog_engine::Database::new(LoadMode::Dynamic);
        for r in rules {
            db.assert_clause(r.head, r.body).expect("loads");
        }
        t.elapsed()
    })
}

/// The truncation depth the Table 4 harness uses.
pub const TABLE4_K: usize = 1;

/// Runs the Table 4 workload: depth-k groundness (goal-directed, k = 1)
/// on the nine benchmarks the paper's Table 4 lists. Profiled rows include
/// the `calls_abstracted` / `answers_widened` truncation counts.
///
/// # Panics
///
/// As [`table1_rows`].
pub fn table4_rows(profile: bool) -> Vec<Row> {
    let an = DepthKAnalyzer {
        profile,
        ..DepthKAnalyzer::new(TABLE4_K)
    };
    rows(
        &an,
        logic(&depthk_benchmarks()),
        DepthKResult::table_bytes,
        compile_dynamic,
    )
}

/// Formats a duration in fractional milliseconds.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_twelve_rows_and_sane_shape() {
        let rows = table1_rows(false);
        assert_eq!(rows.len(), 12);
        for r in &rows {
            assert!(r.table_bytes > 0, "{}", r.program);
            assert!(r.total() > Duration::ZERO, "{}", r.program);
            assert!(r.metrics.is_none(), "{}", r.program);
        }
    }

    #[test]
    fn table2_has_both_engines() {
        let rows = table2_rows();
        assert_eq!(rows.len(), 12);
        for r in &rows {
            assert!(
                r.tabled > Duration::ZERO && r.direct > Duration::ZERO,
                "{}",
                r.program
            );
        }
    }

    #[test]
    fn table3_has_ten_rows() {
        assert_eq!(table3_rows(false).len(), 10);
    }

    #[test]
    fn table4_has_nine_rows() {
        assert_eq!(table4_rows(false).len(), 9);
    }

    #[test]
    fn profiled_rows_carry_consistent_metrics() {
        for r in table1_rows(true) {
            let m = r.metrics.as_ref().expect("profiled row has metrics");
            assert_eq!(
                m.totals().table_bytes,
                r.table_bytes as u64,
                "{}",
                r.program
            );
        }
    }
}
