//! Regenerates every table of the paper in the same row/column layout.
//!
//! Usage: `paper_tables [--table 1|2|3|4] [--profile]` (default: all four
//! tables). With `--profile`, each row of Tables 1, 3 and 4 is followed by
//! the engine's per-evaluation counters (subgoals, answers, duplicates,
//! resolutions, and the hook counts where the analysis uses truncation).
//! Any other argument prints the usage to stderr and exits with status 2.

use std::process::ExitCode;
use tablog_bench::{ms, Row, TABLE4_K};

const USAGE: &str = "usage: paper_tables [--table 1|2|3|4] [--profile]";

/// What to print: one table (`None` means all four) and whether to profile.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Options {
    table: Option<u32>,
    profile: bool,
}

/// Parses the command line (without the program name). Each flag may
/// appear at most once; anything unrecognised is an error.
fn parse_args<S: AsRef<str>>(args: &[S]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter().map(AsRef::as_ref);
    while let Some(arg) = it.next() {
        match arg {
            "--profile" if !opts.profile => opts.profile = true,
            "--table" if opts.table.is_none() => {
                opts.table = match it.next() {
                    Some(n @ ("1" | "2" | "3" | "4")) => n.parse().ok(),
                    Some(other) => return Err(format!("--table expects 1-4, got {other:?}")),
                    None => return Err("--table needs a value".to_owned()),
                };
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(opts)
}

fn print_row_table(title: &str, rows: &[Row]) {
    println!("\n{title}");
    println!(
        "{:<12} {:>6} {:>10} {:>10} {:>10} {:>10} {:>9} {:>12}",
        "Program", "lines", "Preproc", "Analysis", "Collect", "Total", "Comp.%", "Table(bytes)"
    );
    for r in rows {
        println!(
            "{:<12} {:>6} {:>8}ms {:>8}ms {:>8}ms {:>8}ms {:>8.1} {:>12}",
            r.program,
            r.lines,
            ms(r.preprocess),
            ms(r.analysis),
            ms(r.collection),
            ms(r.total()),
            r.compile_increase_pct(),
            r.table_bytes
        );
        if let Some(m) = &r.metrics {
            let t = m.totals();
            let mut line = format!(
                "{:<12}   subgoals={} answers={} dups={} resolutions={}",
                "", t.subgoals, t.answers, t.duplicate_answers, t.clause_resolutions
            );
            if t.calls_abstracted + t.answers_widened > 0 {
                line.push_str(&format!(
                    " abstracted={} widened={}",
                    t.calls_abstracted, t.answers_widened
                ));
            }
            println!("{line}");
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("paper_tables: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let want = |n| opts.table.is_none() || opts.table == Some(n);
    if want(1) {
        print_row_table(
            "Table 1: Performance of Prop-based groundness analysis (tabled engine)",
            &tablog_bench::table1_rows(opts.profile),
        );
    }
    if want(2) {
        println!(
            "\nTable 2: Total analysis time, tabled engine vs. direct analyzer (GAIA stand-in)"
        );
        println!(
            "{:<12} {:>12} {:>12} {:>8}",
            "Program", "tabled", "direct", "ratio"
        );
        for r in tablog_bench::table2_rows() {
            println!(
                "{:<12} {:>10}ms {:>10}ms {:>8.2}",
                r.program,
                ms(r.tabled),
                ms(r.direct),
                r.tabled.as_secs_f64() / r.direct.as_secs_f64().max(1e-9)
            );
        }
    }
    if want(3) {
        print_row_table(
            "Table 3: Performance of strictness analysis",
            &tablog_bench::table3_rows(opts.profile),
        );
    }
    if want(4) {
        print_row_table(
            &format!("Table 4: Groundness analysis with term-depth abstraction (k = {TABLE4_K})"),
            &tablog_bench::table4_rows(opts.profile),
        );
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_table_and_profile_in_any_order() {
        assert_eq!(parse_args::<&str>(&[]), Ok(Options::default()));
        for n in 1..=4u32 {
            let v = n.to_string();
            assert_eq!(
                parse_args(&["--table", v.as_str()]),
                Ok(Options {
                    table: Some(n),
                    profile: false
                })
            );
        }
        let both = Options {
            table: Some(3),
            profile: true,
        };
        assert_eq!(parse_args(&["--table", "3", "--profile"]), Ok(both));
        assert_eq!(parse_args(&["--profile", "--table", "3"]), Ok(both));
    }

    #[test]
    fn rejects_everything_else() {
        for bad in [
            &["--table", "7"][..],
            &["--table", "9"],
            &["--table", "0"],
            &["--table", "two"],
            &["--table"],
            &["--tabel", "2"],
            &["--json"],
            &["--jobs", "4"],
            &["--profile", "--profile"],
            &["--table", "1", "--table", "2"],
            &["2"],
        ] {
            assert!(parse_args(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
