//! Integration tests: run every analyzer over the full benchmark suite and
//! cross-check the implementations against each other — the tabled engine
//! vs. the hand-coded direct analyzer vs. the magic-sets bottom-up route,
//! and each scheduling strategy against depth-first. The deterministic
//! table-space figures of the Table 1/3/4 rows are pinned by
//! `tests/golden/suite_tables.txt`; re-bless an intentional change with
//! `UPDATE_GOLDEN=1 cargo test --test analysis_suite`.

use std::path::PathBuf;
use tablog_core::analyze_many;
use tablog_core::depthk::DepthKAnalyzer;
use tablog_core::direct::DirectAnalyzer;
use tablog_core::groundness::{
    transform_program, EntryPoint, GroundnessAnalyzer, GroundnessReport, IffMode,
};
use tablog_core::strictness::StrictnessAnalyzer;
use tablog_engine::Scheduling;
use tablog_magic::BottomUp;
use tablog_suite::{depthk_benchmarks, fun_benchmarks, logic_benchmarks};
use tablog_syntax::parse_program;

#[test]
fn groundness_completes_on_every_table1_benchmark() {
    for b in logic_benchmarks() {
        let report = GroundnessAnalyzer::new()
            .analyze_source(b.source)
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        assert!(report.predicates().count() > 0, "{}", b.name);
        assert!(report.table_bytes() > 0, "{}", b.name);
    }
}

#[test]
fn tabled_and_direct_groundness_agree_on_open_calls() {
    for b in logic_benchmarks() {
        let tabled = GroundnessAnalyzer::new().analyze_source(b.source).unwrap();
        let direct = DirectAnalyzer::new().analyze_source(b.source).unwrap();
        for p in tabled.predicates() {
            let d = direct
                .output_groundness(&p.name, p.arity)
                .unwrap_or_else(|| panic!("{}: {} missing in direct", b.name, p.name));
            assert_eq!(p.prop, d.prop, "{}: {}/{}", b.name, p.name, p.arity);
        }
    }
}

#[test]
fn goal_directed_tabled_and_direct_agree() {
    for b in logic_benchmarks() {
        let program = parse_program(b.source).unwrap();
        let entry = EntryPoint::parse(b.entry).unwrap();
        let tabled = GroundnessAnalyzer::new()
            .analyze_with_entries(&program, std::slice::from_ref(&entry))
            .unwrap();
        let direct = DirectAnalyzer::new()
            .analyze_with_entries(&program, std::slice::from_ref(&entry))
            .unwrap();
        for p in tabled.predicates() {
            if p.success_rows.is_empty() {
                continue; // unreachable from the entry
            }
            let d = direct
                .output_groundness(&p.name, p.arity)
                .unwrap_or_else(|| panic!("{}: {} missing in direct", b.name, p.name));
            assert_eq!(
                p.definitely_ground, d.definitely_ground,
                "{}: {}/{}",
                b.name, p.name, p.arity
            );
        }
    }
}

/// Open calls on a wide predicate table one answer row per assignment of
/// the free arguments; collection must keep each row once, and fast.
#[test]
fn wide_open_call_collects_every_answer_row_once() {
    let vars: Vec<String> = (0..12).map(|i| format!("X{i}")).collect();
    let src = format!("p({}) :- q(X0).\nq(a).\n", vars.join(", "));
    let report = GroundnessAnalyzer::new().analyze_source(&src).unwrap();
    let p = report.output_groundness("p", 12).unwrap();
    assert_eq!(p.success_rows.len(), 2048);
    let unique: std::collections::HashSet<_> = p.success_rows.iter().collect();
    assert_eq!(unique.len(), 2048);
    let mut ground = vec![false; 12];
    ground[0] = true;
    assert_eq!(p.definitely_ground, ground);
    assert_eq!(p.prop.count(), 2048);
}

#[test]
fn iff_fact_mode_matches_builtin_mode_on_suite() {
    for b in logic_benchmarks() {
        let builtin = GroundnessAnalyzer::new().analyze_source(b.source).unwrap();
        let mut facts_analyzer = GroundnessAnalyzer::new();
        facts_analyzer.iff_mode = IffMode::Facts;
        let facts = facts_analyzer.analyze_source(b.source).unwrap();
        for p in builtin.predicates() {
            let q = facts.output_groundness(&p.name, p.arity).unwrap();
            assert_eq!(p.prop, q.prop, "{}: {}/{}", b.name, p.name, p.arity);
        }
    }
}

#[test]
fn magic_bottom_up_matches_tabled_success_sets() {
    // The bottom-up route grounds everything, so compare expanded rows.
    for b in logic_benchmarks() {
        let program = parse_program(b.source).unwrap();
        let (rules, preds) = transform_program(&program, IffMode::Builtin).unwrap();
        let mut eval = BottomUp::new(rules);
        eval.run().unwrap_or_else(|e| panic!("{}: {e}", b.name));
        let tabled = GroundnessAnalyzer::new().analyze_source(b.source).unwrap();
        for &(name, arity) in preds.keys() {
            let pname = tablog_term::sym_name(name);
            let t = tabled.output_groundness(&pname, arity).unwrap();
            let f = tablog_term::Functor {
                name: tablog_term::intern(&format!("gp${pname}")),
                arity,
            };
            let rel = eval.relation(f);
            // Expand the tabled rows (free vars -> both values) and compare
            // as sets of boolean tuples.
            let mut tabled_rows: Vec<Vec<bool>> = t.prop.rows();
            tabled_rows.sort();
            let mut magic_rows: Vec<Vec<bool>> = rel
                .iter()
                .map(|tuple| {
                    tuple
                        .iter()
                        .map(|v| *v == tablog_term::atom("true"))
                        .collect()
                })
                .collect();
            magic_rows.sort();
            magic_rows.dedup();
            assert_eq!(tabled_rows, magic_rows, "{}: {}/{}", b.name, pname, arity);
        }
    }
}

#[test]
fn strictness_completes_on_every_table3_benchmark() {
    for b in fun_benchmarks() {
        let report = StrictnessAnalyzer::new()
            .analyze_source(b.source)
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        assert!(report.functions().count() > 0, "{}", b.name);
    }
}

#[test]
fn strictness_spot_checks_on_suite() {
    use tablog_core::strictness::Demand;
    let ms = StrictnessAnalyzer::new()
        .analyze_source(tablog_suite::fun_benchmark("mergesort").unwrap().source)
        .unwrap();
    // merge fully demands both lists under full demand.
    let merge = ms.strictness("merge").unwrap();
    assert_eq!(merge.under_e, vec![Demand::E, Demand::E]);
    // msort is strict in its list.
    assert!(ms.strictness("msort").unwrap().is_strict(0));

    let qs = StrictnessAnalyzer::new()
        .analyze_source(tablog_suite::fun_benchmark("quicksort").unwrap().source)
        .unwrap();
    assert!(qs.strictness("qsort").unwrap().is_strict(0));
    // below/above are strict in the pivot and the list.
    assert!(qs.strictness("below").unwrap().is_strict(1));
}

#[test]
fn depthk_completes_on_every_table4_benchmark() {
    // Goal-directed with k = 1, as the benchmark harness runs it: open
    // calls over `read`'s dozens of character-code constants make the
    // depth-2 abstract domain combinatorially expensive.
    for b in depthk_benchmarks() {
        let program = parse_program(b.source).unwrap();
        let entry = EntryPoint::parse(b.entry).unwrap();
        let report = DepthKAnalyzer::new(1)
            .analyze_with_entries(&program, &[entry])
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        assert!(report.predicates().count() > 0, "{}", b.name);
        // Soundness spot check: the entry instantiation is respected.
        for p in report.predicates() {
            for row in &p.answers {
                assert_eq!(row.len(), p.arity, "{}: {}", b.name, p.name);
            }
        }
    }
}

/// Order-independent fingerprint of a groundness report's answer sets:
/// per predicate, the sorted success rows, sorted call patterns, and the
/// per-argument meet, plus the engine's unique-answer and subgoal counts.
/// Two schedulers computed the same fixpoint iff these are equal.
fn groundness_fingerprint(r: &GroundnessReport) -> Vec<String> {
    let rows = |rows: &[Vec<Option<bool>>]| {
        let mut v: Vec<String> = rows
            .iter()
            .map(|row| {
                row.iter()
                    .map(|b| match b {
                        Some(true) => 'g',
                        Some(false) => 'n',
                        None => '?',
                    })
                    .collect::<String>()
            })
            .collect();
        v.sort();
        v.join("|")
    };
    let mut fp: Vec<String> = r
        .predicates()
        .map(|p| {
            format!(
                "{}/{} success[{}] calls[{}] meet{:?}",
                p.name,
                p.arity,
                rows(&p.success_rows),
                rows(&p.call_patterns),
                p.definitely_ground
            )
        })
        .collect();
    fp.push(format!(
        "answers={} subgoals={}",
        r.stats.answers, r.stats.subgoals
    ));
    fp
}

#[test]
fn every_scheduler_reaches_the_depth_first_fixpoint_on_table1_queries() {
    for b in logic_benchmarks() {
        let program = parse_program(b.source).unwrap();
        let entry = EntryPoint::parse(b.entry).unwrap();
        let run = |scheduling: Scheduling, threads: usize| {
            let mut an = GroundnessAnalyzer::new();
            an.options.scheduling = scheduling;
            an.options.threads = threads;
            let report = an
                .analyze_with_entries(&program, std::slice::from_ref(&entry))
                .unwrap_or_else(|e| panic!("{} under {scheduling}: {e}", b.name));
            groundness_fingerprint(&report)
        };
        let reference = run(Scheduling::DepthFirst, 0);
        for (scheduling, threads) in [
            (Scheduling::BreadthFirst, 0),
            (Scheduling::Batched, 0),
            (Scheduling::Parallel, 2),
            (Scheduling::Parallel, 4),
        ] {
            assert_eq!(
                run(scheduling, threads),
                reference,
                "{}: {scheduling} (threads {threads}) diverged from depth_first",
                b.name
            );
        }
    }
}

/// One golden line per Table 1, 3 and 4 row: the deterministic figures of
/// the workload `paper_tables` prints (table bytes as in its `Table(bytes)`
/// column, plus the engine's unique answers and subgoals).
fn suite_table_line(
    table: u32,
    program: &str,
    table_bytes: usize,
    answers: usize,
    subgoals: usize,
) -> String {
    format!("table{table} {program:<10} table_bytes={table_bytes} answers={answers} subgoals={subgoals}")
}

/// Computes the golden lines on `jobs` worker threads, one engine session
/// per program.
fn suite_table_lines(jobs: usize) -> String {
    let table1 = analyze_many(jobs, &logic_benchmarks(), |b| {
        let program = parse_program(b.source).unwrap();
        let entry = EntryPoint::parse(b.entry).unwrap();
        let r = GroundnessAnalyzer::new()
            .analyze_with_entries(&program, std::slice::from_ref(&entry))
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        suite_table_line(
            1,
            b.name,
            r.table_bytes(),
            r.stats.answers,
            r.stats.subgoals,
        )
    });
    let table3 = analyze_many(jobs, &fun_benchmarks(), |b| {
        let r = StrictnessAnalyzer::new()
            .analyze_source(b.source)
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        suite_table_line(
            3,
            b.name,
            r.table_bytes(),
            r.stats.answers,
            r.stats.subgoals,
        )
    });
    let table4 = analyze_many(jobs, &depthk_benchmarks(), |b| {
        let program = parse_program(b.source).unwrap();
        let entry = EntryPoint::parse(b.entry).unwrap();
        let r = DepthKAnalyzer::new(1)
            .analyze_with_entries(&program, std::slice::from_ref(&entry))
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        suite_table_line(
            4,
            b.name,
            r.table_bytes(),
            r.stats.answers,
            r.stats.subgoals,
        )
    });
    let mut out = String::new();
    for line in table1.iter().chain(&table3).chain(&table4) {
        out.push_str(line);
        out.push('\n');
    }
    out
}

#[test]
fn suite_table_space_matches_golden_file() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/suite_tables.txt");
    // Blessed sequentially and checked on four workers, so a pass also
    // shows `analyze_many` reproduces the sequential rows.
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, suite_table_lines(1)).expect("write golden");
        return;
    }
    let got = suite_table_lines(4);
    let want =
        std::fs::read_to_string(&path).expect("golden file exists (UPDATE_GOLDEN=1 to create)");
    assert_eq!(
        got, want,
        "suite table space drifted from the golden file; \
         re-bless with UPDATE_GOLDEN=1 if the change is intentional"
    );
}
