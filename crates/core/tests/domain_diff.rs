//! End-to-end differential tests for the Prop-domain backends: every suite
//! program, and a stream of randomly generated programs, must produce
//! identical groundness results whether the analysis runs on the
//! enumerative truth-table backend or the BDD backend.
//!
//! This is the whole-analysis counterpart of the per-operation lockstep
//! test in `crates/domain/tests/prop_domain_diff.rs`: here the backends are
//! selected the way users select them ([`EngineOptions::domain`] /
//! [`DirectAnalyzer::domain`]) and compared on the reports the analyses
//! actually return.

use proptest::prelude::*;
use tablog_core::direct::DirectAnalyzer;
use tablog_core::groundness::{EntryPoint, GroundnessAnalyzer, GroundnessReport};
use tablog_domain::DomainKind;
use tablog_syntax::{parse_program, Program};

/// Everything observable about one predicate's tabled-analysis result, in a
/// canonical order.
type PredFp = (
    String,
    usize,
    Vec<Vec<Option<bool>>>,
    Vec<bool>,
    Vec<Vec<bool>>,
    Vec<Vec<Option<bool>>>,
);

fn tabled_fingerprint(report: &GroundnessReport) -> Vec<PredFp> {
    report
        .predicates()
        .map(|p| {
            let mut success = p.success_rows.clone();
            success.sort();
            let mut calls = p.call_patterns.clone();
            calls.sort();
            (
                p.name.clone(),
                p.arity,
                success,
                p.definitely_ground.clone(),
                p.prop.rows(),
                calls,
            )
        })
        .collect()
}

/// Parses a suite program and its entry query for a goal-directed run.
fn with_entry(src: &str, entry: &str) -> (Program, [EntryPoint; 1]) {
    let program = parse_program(src).expect("suite program parses");
    let entry = EntryPoint::parse(entry).expect("suite entry parses");
    (program, [entry])
}

/// Runs the tabled analysis with open calls, or goal-directed from `entry`.
fn run_tabled(src: &str, entry: Option<&str>, domain: DomainKind) -> Result<Vec<PredFp>, String> {
    let mut an = GroundnessAnalyzer::new();
    an.options.domain = domain;
    let report = match entry {
        None => an.analyze_source(src),
        Some(entry) => {
            let (program, entries) = with_entry(src, entry);
            an.analyze_with_entries(&program, &entries)
        }
    };
    report
        .map(|r| tabled_fingerprint(&r))
        .map_err(|e| e.to_string())
}

/// Runs the direct analysis with open calls, or goal-directed from `entry`.
fn run_direct(src: &str, entry: Option<&str>, domain: DomainKind) -> Result<Vec<String>, String> {
    let mut an = DirectAnalyzer::new();
    an.domain = domain;
    let report = match entry {
        None => an.analyze_source(src),
        Some(entry) => {
            let (program, entries) = with_entry(src, entry);
            an.analyze_with_entries(&program, &entries)
        }
    };
    report
        .map(|r| {
            r.predicates()
                .map(|p| {
                    format!(
                        "{}/{} rows{:?} meet{:?}",
                        p.name,
                        p.arity,
                        p.prop.rows(),
                        p.definitely_ground
                    )
                })
                .collect()
        })
        .map_err(|e| e.to_string())
}

/// Both analyzers agree across backends on every Table 1/2 suite program,
/// with open calls and goal-directed from the program's entry query (the
/// Table 1/2 workload).
#[test]
fn suite_programs_agree_across_backends() {
    for b in tablog_suite::logic_benchmarks() {
        for entry in [None, Some(b.entry)] {
            assert_eq!(
                run_tabled(b.source, entry, DomainKind::Table),
                run_tabled(b.source, entry, DomainKind::Bdd),
                "tabled groundness diverged on {} (entry {entry:?})",
                b.name
            );
            assert_eq!(
                run_direct(b.source, entry, DomainKind::Table),
                run_direct(b.source, entry, DomainKind::Bdd),
                "direct groundness diverged on {} (entry {entry:?})",
                b.name
            );
        }
    }
}

/// One randomly generated clause, encoded as indices into fixed pools.
#[derive(Clone, Debug)]
struct RandClause {
    /// Head predicate (index into the predicate pool).
    pred: usize,
    /// Head argument shapes, one per head-arity slot.
    head: Vec<usize>,
    /// Body atoms as `(predicate, arg shapes)`.
    body: Vec<(usize, Vec<usize>)>,
}

const PREDS: [(&str, usize); 3] = [("p", 2), ("q", 2), ("r", 3)];

/// Renders an argument shape: a shared variable, a ground constant, or a
/// compound wrapping a shared variable (so groundness of the argument
/// tracks groundness of the variable).
fn render_arg(shape: usize) -> String {
    match shape % 6 {
        0 => "X".to_string(),
        1 => "Y".to_string(),
        2 => "Z".to_string(),
        3 => "a".to_string(),
        4 => "f(X)".to_string(),
        _ => "g(Y, b)".to_string(),
    }
}

fn render_program(clauses: &[RandClause]) -> String {
    let mut src = String::new();
    // Ground every predicate somewhere so all of them have clauses even
    // when the random clauses only define a subset.
    for (name, arity) in PREDS {
        let args = vec!["a"; arity].join(", ");
        src.push_str(&format!("{name}({args}).\n"));
    }
    for c in clauses {
        let (name, arity) = PREDS[c.pred % PREDS.len()];
        let head_args: Vec<String> = (0..arity)
            .map(|i| render_arg(*c.head.get(i).unwrap_or(&3)))
            .collect();
        src.push_str(&format!("{name}({})", head_args.join(", ")));
        if !c.body.is_empty() {
            let atoms: Vec<String> = c
                .body
                .iter()
                .map(|(p, args)| {
                    let (bn, ba) = PREDS[p % PREDS.len()];
                    let rendered: Vec<String> = (0..ba)
                        .map(|i| render_arg(*args.get(i).unwrap_or(&0)))
                        .collect();
                    format!("{bn}({})", rendered.join(", "))
                })
                .collect();
            src.push_str(&format!(" :- {}", atoms.join(", ")));
        }
        src.push_str(".\n");
    }
    src
}

fn arb_clause() -> impl Strategy<Value = RandClause> {
    (
        0usize..PREDS.len(),
        prop::collection::vec(0usize..6, 3..4),
        prop::collection::vec(
            (0usize..PREDS.len(), prop::collection::vec(0usize..6, 3..4)),
            0..3,
        ),
    )
        .prop_map(|(pred, head, body)| RandClause { pred, head, body })
}

proptest! {
    /// Random programs: whatever each analyzer computes (including an
    /// error), it computes identically under both backends.
    #[test]
    fn random_programs_agree_across_backends(
        clauses in prop::collection::vec(arb_clause(), 1..6)
    ) {
        let src = render_program(&clauses);
        prop_assert_eq!(
            run_tabled(&src, None, DomainKind::Table),
            run_tabled(&src, None, DomainKind::Bdd),
            "tabled groundness diverged on:\n{}",
            src
        );
        prop_assert_eq!(
            run_direct(&src, None, DomainKind::Table),
            run_direct(&src, None, DomainKind::Bdd),
            "direct groundness diverged on:\n{}",
            src
        );
    }
}
