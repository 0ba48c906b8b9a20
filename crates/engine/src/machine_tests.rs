//! Engine-level behavior tests, carried over from the pre-split
//! `machine.rs` and extended with scheduler-strategy and `Send` coverage.

use crate::machine::flatten_conj;
use crate::{
    Database, Engine, EngineError, EngineOptions, Evaluation, LoadMode, Scheduling, Solutions,
    Unknown,
};
use std::sync::Arc;
use tablog_term::{Bindings, CanonicalTerm, Functor, Term, TermArena, Var};

fn solve(src: &str, goal: &str) -> Solutions {
    Engine::from_source(src).unwrap().solve(goal).unwrap()
}

const GRAPH: &str = "
    :- table path/2.
    path(X, Y) :- path(X, Z), edge(Z, Y).
    path(X, Y) :- edge(X, Y).
    edge(a, b). edge(b, c). edge(c, a).
";

#[test]
fn left_recursion_terminates() {
    let s = solve(GRAPH, "path(a, X)");
    let mut got: Vec<String> = s.to_strings();
    got.sort();
    assert_eq!(got, vec!["X = a", "X = b", "X = c"]);
}

#[test]
fn fully_open_call() {
    let s = solve(GRAPH, "path(X, Y)");
    assert_eq!(s.len(), 9);
}

#[test]
fn failing_goal_has_no_rows() {
    let s = solve(GRAPH, "path(a, zzz)");
    assert!(s.is_empty());
}

#[test]
fn ground_goal_succeeds_once() {
    let s = solve(GRAPH, "path(a, c)");
    assert_eq!(s.len(), 1);
    assert_eq!(s.to_strings(), vec!["true"]);
}

#[test]
fn non_tabled_append() {
    let src = "app([], Y, Y). app([H|T], Y, [H|Z]) :- app(T, Y, Z).";
    let s = solve(src, "app([1,2], [3], L)");
    assert_eq!(s.to_strings(), vec!["L = [1,2,3]"]);
}

#[test]
fn append_backwards_enumerates_splits() {
    let src = "app([], Y, Y). app([H|T], Y, [H|Z]) :- app(T, Y, Z).";
    let s = solve(src, "app(X, Y, [1,2,3])");
    assert_eq!(s.len(), 4);
}

#[test]
fn tabled_append_non_ground_answers() {
    let src = ":- table app/3.\napp([], Y, Y). app([H|T], Y, [H|Z]) :- app(T, Y, Z).";
    let e = Engine::from_source(src).unwrap();
    // Open call would run forever under SLD; tabling with variant
    // answers... would also diverge (infinitely many answers), so query
    // a bounded instance.
    let s = e.solve("app(X, Y, [1,2])").unwrap();
    assert_eq!(s.len(), 3);
}

#[test]
fn same_generation_classic() {
    let src = "
        :- table sg/2.
        sg(X, X).
        sg(X, Y) :- par(X, XP), sg(XP, YP), par(Y, YP).
        par(c1, p1). par(c2, p1). par(p1, g1). par(p2, g1).
    ";
    let s = solve(src, "sg(c1, X)");
    let mut got = s.to_strings();
    got.sort();
    assert_eq!(got, vec!["X = c1", "X = c2"]);
}

#[test]
fn mutual_recursion_tabled() {
    let src = "
        :- table even/1, odd/1.
        even(z).
        even(s(X)) :- odd(X).
        odd(s(X)) :- even(X).
    ";
    let s = solve(src, "even(s(s(z)))");
    assert_eq!(s.len(), 1);
}

#[test]
fn arithmetic_in_clause_bodies() {
    let src = "fact(0, 1). fact(N, F) :- N > 0, N1 is N - 1, fact(N1, F1), F is N * F1.";
    let s = solve(src, "fact(5, F)");
    assert_eq!(s.to_strings(), vec!["F = 120"]);
}

#[test]
fn disjunction_and_if_then_else() {
    let src = "p(1). p(2). q(X) :- (p(X) ; X = 3). r(X, Y) :- (X = 1 -> Y = one ; Y = other).";
    let s = solve(src, "q(X)");
    assert_eq!(s.len(), 3);
    let s = solve(src, "r(1, Y)");
    assert_eq!(s.to_strings(), vec!["Y = one"]);
    let s = solve(src, "r(2, Y)");
    assert_eq!(s.to_strings(), vec!["Y = other"]);
}

#[test]
fn negation_as_failure() {
    let src = "p(1). p(2). good(X) :- p(X), \\+ bad(X). bad(2).";
    let s = solve(src, "good(X)");
    assert_eq!(s.to_strings(), vec!["X = 1"]);
}

#[test]
fn unknown_predicate_errors_by_default() {
    let e = Engine::from_source("p(a).").unwrap();
    assert!(matches!(
        e.solve("nosuch(X)"),
        Err(EngineError::UnknownPredicate(_))
    ));
}

#[test]
fn unknown_predicate_can_fail_silently() {
    let mut e = Engine::from_source("p(a) . q(X) :- p(X).").unwrap();
    e.options_mut().unknown = Unknown::Fail;
    let s = e.solve("nosuch(X)").unwrap();
    assert!(s.is_empty());
}

#[test]
fn propositional_sld_loop_terminates_via_node_dedup() {
    // `loop :- loop.` repeats the same resolvent; the derivation
    // forest is a set of nodes, so the loop is detected even without
    // tabling and the query fails finitely.
    let e = Engine::from_source("loop :- loop.").unwrap();
    assert!(e.solve("loop").unwrap().is_empty());
}

#[test]
fn step_limit_catches_runaway_sld() {
    // A growing resolvent defeats node dedup; the step budget is the
    // safety net. Tripping it is graceful: the run comes back truncated
    // (with whatever answers exist — none here), not as an error.
    let mut e = Engine::from_source("loop(X) :- loop(f(X)).").unwrap();
    e.options_mut().max_steps = Some(1000);
    let s = e.solve("loop(a)").unwrap();
    assert!(s.is_empty());
    assert!(matches!(
        s.truncation().map(|t| t.reason),
        Some(crate::TruncationReason::Steps(1000))
    ));
}

#[test]
fn tabling_dedups_answers() {
    let src = ":- table p/1.\np(X) :- q(X). p(X) :- r(X). q(a). r(a).";
    let e = Engine::from_source(src).unwrap();
    let mut b = Bindings::new();
    let (g, _) = tablog_syntax::parse_term("p(Z)", &mut b).unwrap();
    let eval = e
        .evaluate(std::slice::from_ref(&g), &[g.args()[0].clone()], &b)
        .unwrap();
    // One answer in p's table, one for the root — the second derivation
    // of p(a) collapses at node level, so the table stays duplicate-free.
    assert_eq!(eval.stats().answers, 2);
    let p = eval.subgoals_of(Functor::new("p", 1));
    assert_eq!(p[0].num_answers(), 1);
}

#[test]
fn call_table_records_input_patterns() {
    let src = "
        :- table p/2, q/2.
        p(X, Y) :- q(f(X), Y).
        q(f(a), b).
    ";
    let e = Engine::from_source(src).unwrap();
    let mut b = Bindings::new();
    let (g, _) = tablog_syntax::parse_term("p(a, Y)", &mut b).unwrap();
    let eval = e.evaluate(&[g], &[], &b).unwrap();
    let calls = eval.calls_of(Functor::new("q", 2));
    assert_eq!(calls.len(), 1);
    assert_eq!(tablog_syntax::term_to_string(&calls[0]), "q(f(a),A)");
}

fn engine_with_scheduling(src: &str, scheduling: Scheduling) -> Engine {
    let opts = EngineOptions {
        scheduling,
        ..Default::default()
    };
    let program = tablog_syntax::parse_program(src).unwrap();
    let mut db = Database::new(LoadMode::Dynamic);
    db.load(&program).unwrap();
    Engine::new(db, opts)
}

#[test]
fn breadth_first_scheduling_same_answers() {
    let e = engine_with_scheduling(GRAPH, Scheduling::BreadthFirst);
    let s = e.solve("path(a, X)").unwrap();
    assert_eq!(s.len(), 3);
}

#[test]
fn batched_scheduling_same_answers() {
    let e = engine_with_scheduling(GRAPH, Scheduling::Batched);
    let s = e.solve("path(a, X)").unwrap();
    let mut got = s.to_strings();
    got.sort();
    assert_eq!(got, vec!["X = a", "X = b", "X = c"]);
}

#[test]
fn all_schedulers_agree_on_answer_sets() {
    let goals = ["path(a, X)", "path(X, Y)", "path(X, a)"];
    for goal in goals {
        let mut per_strategy: Vec<Vec<String>> = Vec::new();
        for s in [
            Scheduling::DepthFirst,
            Scheduling::BreadthFirst,
            Scheduling::Batched,
        ] {
            let e = engine_with_scheduling(GRAPH, s);
            let mut rows = e.solve(goal).unwrap().to_strings();
            rows.sort();
            per_strategy.push(rows);
        }
        assert_eq!(per_strategy[0], per_strategy[1], "{goal}");
        assert_eq!(per_strategy[0], per_strategy[2], "{goal}");
    }
}

#[test]
fn evaluation_reports_scheduler_name() {
    for (s, name) in [
        (Scheduling::DepthFirst, "depth_first"),
        (Scheduling::BreadthFirst, "breadth_first"),
        (Scheduling::Batched, "batched"),
    ] {
        let e = engine_with_scheduling(GRAPH, s);
        let mut b = Bindings::new();
        let (g, _) = tablog_syntax::parse_term("path(a, X)", &mut b).unwrap();
        let eval = e.evaluate(&[g], &[], &b).unwrap();
        assert_eq!(eval.scheduler(), name);
        assert_eq!(eval.stats().answers, 4); // 3 in path's table + 1 root
    }
}

#[test]
fn engine_and_evaluation_are_send() {
    fn assert_send<T: Send>() {}
    assert_send::<Engine>();
    assert_send::<Evaluation>();
    assert_send::<Solutions>();
}

#[test]
fn compiled_mode_same_answers_as_dynamic() {
    let src = "p(a, 1). p(b, 2). p(c, 3). look(K, V) :- p(K, V).";
    for mode in [LoadMode::Dynamic, LoadMode::Compiled] {
        let e = Engine::from_source_with(src, mode, EngineOptions::default()).unwrap();
        assert_eq!(e.solve("look(b, V)").unwrap().to_strings(), vec!["V = 2"]);
    }
}

#[test]
fn forward_subsumption_same_answers_fewer_tables() {
    let mk = |fs: bool| {
        let opts = EngineOptions {
            forward_subsumption: fs,
            ..Default::default()
        };
        let program = tablog_syntax::parse_program(GRAPH).unwrap();
        let mut db = Database::new(LoadMode::Dynamic);
        db.load(&program).unwrap();
        Engine::new(db, opts)
    };
    for fs in [false, true] {
        let e = mk(fs);
        let s = e.solve("path(a, X)").unwrap();
        assert_eq!(s.len(), 3, "fs={fs}");
    }
    // With subsumption, the specific call path(a,X) consumes from the
    // open table; distinct specific calls do not multiply subgoals.
    let e = mk(true);
    let mut b = Bindings::new();
    let (g, _) = tablog_syntax::parse_term("path(a, X), path(b, Y)", &mut b).unwrap();
    let mut goals = Vec::new();
    flatten_conj(&g, &mut goals);
    let eval = e.evaluate(&goals, &[], &b).unwrap();
    assert_eq!(eval.subgoals_of(Functor::new("path", 2)).len(), 1);
}

#[test]
fn iff_builtin_in_program() {
    // gp_ap from Figure 2(b), with $iff for the truth tables.
    let src = "
        :- table gp_ap/3.
        gp_ap(X1, X2, X3) :- '$iff'(X1), '$iff'(X2, X3).
        gp_ap(X1, X2, X3) :-
            '$iff'(X1, X, Xs), '$iff'(X3, X, Zs), gp_ap(Xs, X2, Zs).
    ";
    let s = solve(src, "gp_ap(X, Y, Z)");
    // Success set is the truth table of X ∧ Y ⇔ Z: 4 rows.
    let mut got = s.to_strings();
    got.sort();
    assert_eq!(
        got,
        vec![
            "X = false, Y = false, Z = false",
            "X = false, Y = true, Z = false",
            "X = true, Y = false, Z = false",
            "X = true, Y = true, Z = true",
        ]
    );
}

#[test]
fn answer_widening_hook_truncates() {
    // Widen every answer to the open tuple: the table keeps one answer.
    let widen: Option<crate::TermHook> = Some(Arc::new(|a: &mut TermArena, c: &CanonicalTerm| {
        let b = Bindings::new();
        let args: Vec<Term> = (0..a.tuple_len(c))
            .map(|i| Term::Var(Var(i as u32)))
            .collect();
        a.canonicalize(&b, &args)
    }));
    let opts = EngineOptions {
        answer_widening: widen,
        ..Default::default()
    };
    let program = tablog_syntax::parse_program(":- table p/1.\np(a). p(b). p(c).").unwrap();
    let mut db = Database::new(LoadMode::Dynamic);
    db.load(&program).unwrap();
    let e = Engine::new(db, opts);
    let mut b = Bindings::new();
    let (g, _) = tablog_syntax::parse_term("p(X)", &mut b).unwrap();
    let eval = e.evaluate(&[g], &[], &b).unwrap();
    let views = eval.subgoals_of(Functor::new("p", 1));
    assert_eq!(views[0].num_answers(), 1);
}

#[test]
fn stats_table_bytes_nonzero() {
    let e = Engine::from_source(GRAPH).unwrap();
    let mut b = Bindings::new();
    let (g, _) = tablog_syntax::parse_term("path(a, X)", &mut b).unwrap();
    let eval = e.evaluate(&[g], &[], &b).unwrap();
    assert!(eval.table_bytes() > 0);
    assert!(eval.stats().steps > 0);
}

#[test]
fn zero_arity_tabled_predicate() {
    let src = ":- table win/0.\nwin :- win.\n";
    let mut e = Engine::from_source(src).unwrap();
    e.options_mut().max_steps = Some(10_000);
    let s = e.solve("win").unwrap();
    assert!(s.is_empty()); // no derivation: tabling detects the loop
}

fn eval_graph(opts: EngineOptions) -> Evaluation {
    let program = tablog_syntax::parse_program(GRAPH).unwrap();
    let mut db = Database::new(LoadMode::Dynamic);
    db.load(&program).unwrap();
    let e = Engine::new(db, opts);
    let mut b = Bindings::new();
    let (g, _) = tablog_syntax::parse_term("path(X, Y)", &mut b).unwrap();
    e.evaluate(&[g], &[], &b).unwrap()
}

#[test]
fn incremental_table_bytes_agree_with_rescan() {
    let eval = eval_graph(EngineOptions::default());
    assert_eq!(eval.stats().table_bytes, eval.rescan_table_bytes());
    assert!(eval.table_bytes() > 0);
}

#[test]
fn incremental_table_bytes_agree_under_subsumption_and_widening() {
    let opts = EngineOptions {
        forward_subsumption: true,
        answer_widening: Some(Arc::new(|_: &mut TermArena, c: &CanonicalTerm| *c)),
        ..Default::default()
    };
    let eval = eval_graph(opts);
    assert_eq!(eval.stats().table_bytes, eval.rescan_table_bytes());
}

#[test]
fn incremental_table_bytes_agree_under_every_scheduler() {
    for s in [
        Scheduling::DepthFirst,
        Scheduling::BreadthFirst,
        Scheduling::Batched,
    ] {
        let opts = EngineOptions {
            scheduling: s,
            ..Default::default()
        };
        let eval = eval_graph(opts);
        assert_eq!(
            eval.stats().table_bytes,
            eval.rescan_table_bytes(),
            "scheduler {}",
            s.name()
        );
    }
}

#[test]
fn provable_aggregates_full_subcomputation_stats() {
    // The negated goal walks a tabled predicate, so the subcomputation
    // creates subgoals, answers, and clause resolutions that must all
    // surface in the outer stats, not just its steps.
    let src = "
        :- table path/2.
        path(X, Y) :- path(X, Z), edge(Z, Y).
        path(X, Y) :- edge(X, Y).
        edge(a, b). edge(b, c).
        unreachable(X, Y) :- node(X), node(Y), \\+ path(X, Y).
        node(a). node(b). node(c).
    ";
    let e = Engine::from_source(src).unwrap();
    let mut b = Bindings::new();
    let (g, _) = tablog_syntax::parse_term("unreachable(a, Y)", &mut b).unwrap();
    let eval = e.evaluate(&[g], &[], &b).unwrap();
    let outer_only = {
        // Baseline: the same query without the negated literal.
        let mut b = Bindings::new();
        let (g, _) = tablog_syntax::parse_term("node(a), node(Y)", &mut b).unwrap();
        e.evaluate(&[g], &[], &b).unwrap().stats()
    };
    let stats = eval.stats();
    assert!(
        stats.subgoals > outer_only.subgoals,
        "negation subgoals missing: {stats:?} vs baseline {outer_only:?}"
    );
    assert!(stats.answers > outer_only.answers);
    assert!(stats.clause_resolutions > outer_only.clause_resolutions);
}

#[test]
fn trace_events_mirror_table_stats() {
    let counter = Arc::new(tablog_trace::CountingSink::new());
    let opts = EngineOptions {
        trace: Some(counter.clone()),
        ..Default::default()
    };
    let eval = eval_graph(opts);
    let stats = eval.stats();
    assert_eq!(counter.count("new_subgoal"), stats.subgoals as u64);
    assert_eq!(counter.count("answer_insert"), stats.answers as u64);
    assert_eq!(
        counter.count("duplicate_answer"),
        stats.duplicate_answers as u64
    );
    assert_eq!(
        counter.count("clause_resolution"),
        stats.clause_resolutions as u64
    );
    // Every subgoal (incl. the synthetic root) completes exactly once.
    assert_eq!(counter.count("subgoal_complete"), stats.subgoals as u64);
}

#[test]
fn metrics_registry_rolls_up_per_predicate_bytes() {
    let registry = Arc::new(tablog_trace::MetricsRegistry::new());
    let opts = EngineOptions {
        trace: Some(registry.clone()),
        ..Default::default()
    };
    let eval = eval_graph(opts);
    let report = registry.snapshot();
    let total: u64 = report.totals().table_bytes;
    assert_eq!(total, eval.stats().table_bytes as u64);
    let path = report.pred("path/2").expect("path/2 row");
    assert!(path.subgoals >= 1);
    assert!(path.answers > 0);
    assert!(path.table_bytes > 0);
}

#[test]
fn arenas_are_isolated_per_evaluation() {
    // Two evaluations of the same engine get distinct arenas; dropping one
    // evaluation cannot invalidate the other's canonical terms.
    let e = Engine::from_source(GRAPH).unwrap();
    let mut b = Bindings::new();
    let (g, _) = tablog_syntax::parse_term("path(a, X)", &mut b).unwrap();
    let outs = [g.args()[1].clone()];
    let e1 = e.evaluate(std::slice::from_ref(&g), &outs, &b).unwrap();
    let e2 = e.evaluate(std::slice::from_ref(&g), &outs, &b).unwrap();
    let a1 = e1.arena().stats();
    let a2 = e2.arena().stats();
    assert_eq!(a1.nodes, a2.nodes, "identical runs intern identical terms");
    drop(e1);
    assert_eq!(e2.root_answers().len(), 3);
}

#[test]
fn unify_builtin_honours_occur_check() {
    let src = "p(Y) :- X = f(X), Y = a.";
    let plain = solve(src, "p(Y)");
    assert_eq!(plain.to_strings(), vec!["Y = a"]);
    let mut e = Engine::from_source(src).unwrap();
    e.options_mut().occur_check = true;
    assert!(e.solve("p(Y)").unwrap().is_empty());
}

#[test]
fn cyclic_bindings_are_a_typed_error() {
    for (src, goal) in [
        (":- table p/1. p(Y) :- X = f(X), Y = X.", "p(Y)"),
        (":- table r/1. r(Y) :- q(Y). q(X) :- X = f(X).", "r(Y)"),
        // Head unification alone: p(A, A) against p(X, f(X)).
        (":- table p/2. p(X, f(X)).", "p(A, A)"),
    ] {
        let err = Engine::from_source(src).unwrap().solve(goal).unwrap_err();
        let EngineError::CyclicTerm(g) = &err else {
            panic!("{goal}: expected a cyclic-term error, got {err:?}");
        };
        assert!(!g.is_empty(), "{goal}: the error names the goal");
        assert!(err.to_string().starts_with("cyclic term"), "{err}");
    }
    // With the occur check on, the same unifications simply fail.
    let mut e = Engine::from_source(":- table r/1. r(Y) :- q(Y). q(X) :- X = f(X).").unwrap();
    e.options_mut().occur_check = true;
    assert!(e.solve("r(Y)").unwrap().is_empty());
}
