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
use tablog_core::depthk::DepthKAnalyzer;
use tablog_core::direct::DirectAnalyzer;
use tablog_core::groundness::{compile_time, EntryPoint, GroundnessAnalyzer};
use tablog_core::strictness::StrictnessAnalyzer;
use tablog_engine::{LoadMode, MetricsReport};
use tablog_suite::{depthk_benchmarks, fun_benchmarks, logic_benchmarks};
use tablog_syntax::parse_program;

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

/// Runs the Table 1 workload: Prop groundness, goal-directed from each
/// benchmark's entry point, dynamic loading, builtin `iff`. With `profile`,
/// each row carries the engine's per-predicate metrics.
///
/// # Panics
///
/// Panics if a benchmark fails to parse or analyze — the integration test
/// suite guards against that.
pub fn table1_rows(profile: bool) -> Vec<Row> {
    logic_benchmarks()
        .iter()
        .map(|b| {
            let program = parse_program(b.source).expect("suite parses");
            let entry = EntryPoint::parse(b.entry).expect("suite entries parse");
            let mut an = GroundnessAnalyzer::new();
            an.profile = profile;
            let report = an
                .analyze_with_entries(&program, std::slice::from_ref(&entry))
                .expect("suite analyzes");
            Row {
                program: b.name.to_owned(),
                lines: b.lines(),
                preprocess: report.timings.preprocess,
                analysis: report.timings.analysis,
                collection: report.timings.collection,
                compile: compile_time(b.source, LoadMode::Dynamic).expect("compiles"),
                table_bytes: report.table_bytes(),
                metrics: report.metrics,
            }
        })
        .collect()
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
    logic_benchmarks()
        .iter()
        .map(|b| {
            let program = parse_program(b.source).expect("suite parses");
            let entry = EntryPoint::parse(b.entry).expect("entries parse");
            let tabled = GroundnessAnalyzer::new()
                .analyze_with_entries(&program, std::slice::from_ref(&entry))
                .expect("tabled analyzes");
            let direct = DirectAnalyzer::new()
                .analyze_with_entries(&program, std::slice::from_ref(&entry))
                .expect("direct analyzes");
            VsRow {
                program: b.name.to_owned(),
                tabled: tabled.timings.total(),
                direct: direct.timings.total(),
            }
        })
        .collect()
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
    fun_benchmarks()
        .iter()
        .map(|b| {
            let mut an = StrictnessAnalyzer::new();
            an.profile = profile;
            let report = an.analyze_source(b.source).expect("suite analyzes");
            // Compile proxy: parse + translate + load, no evaluation.
            let t = Instant::now();
            let prog = tablog_funlang::parse_fun_program(b.source).expect("parses");
            let rules = tablog_core::strictness::translate_program(&prog).expect("translates");
            let mut db = tablog_engine::Database::new(LoadMode::Dynamic);
            for r in &rules {
                db.assert_clause(r.head.clone(), r.body.clone())
                    .expect("loads");
            }
            let compile = t.elapsed();
            Row {
                program: b.name.to_owned(),
                lines: b.lines(),
                preprocess: report.timings.preprocess,
                analysis: report.timings.analysis,
                collection: report.timings.collection,
                compile,
                table_bytes: report.table_bytes(),
                metrics: report.metrics,
            }
        })
        .collect()
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
    depthk_benchmarks()
        .iter()
        .map(|b| {
            let program = parse_program(b.source).expect("suite parses");
            let entry = EntryPoint::parse(b.entry).expect("entries parse");
            let mut an = DepthKAnalyzer::new(TABLE4_K);
            an.profile = profile;
            let report = an
                .analyze_with_entries(&program, std::slice::from_ref(&entry))
                .expect("depth-k analyzes");
            Row {
                program: b.name.to_owned(),
                lines: b.lines(),
                preprocess: report.timings.preprocess,
                analysis: report.timings.analysis,
                collection: report.timings.collection,
                compile: compile_time(b.source, LoadMode::Dynamic).expect("compiles"),
                table_bytes: report.table_bytes(),
                metrics: report.metrics,
            }
        })
        .collect()
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
