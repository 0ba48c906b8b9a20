//! Depth-k groundness analysis with a non-enumerative, constraint-style
//! representation — the paper's Section 5 (Table 4).
//!
//! The abstract domain is the set of terms of depth at most `k` built from
//! the program's function symbols, a special constant γ (written `$g`)
//! denoting *all ground terms*, and variables. Abstract unification —
//! γ unifies with any term it can ground, and variable binding performs the
//! occur check — differs from the engine's syntactic unification, so it is
//! implemented at the meta level (the engine's `$absunify/2` builtin),
//! exactly as the paper implements it above XSB's native unification.
//!
//! Termination on the infinite Herbrand base comes from the engine's
//! Section-6.1 hooks: calls and answers are widened by depth-k truncation
//! before entering the tables.

use crate::analysis::{
    build, explain_tabled, functor, run, summary, Analysis, Input, Outcome, Run, Tabled,
};
use crate::error::AnalysisError;
use crate::explain::AnalysisExplanation;
use crate::groundness::{expand_disjunctions, EntryPoint, PredSet};
use crate::pipeline::PhaseTimings;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use tablog_engine::{EngineOptions, Evaluation, LoadMode, TableStats, GAMMA};
use tablog_magic::Rule;
use tablog_syntax::{parse_program, term_to_string, Program};
use tablog_term::{
    atom, intern, structure, sym_name, sym_str, CanonicalTerm, Term, TermArena, Var,
};

/// Name prefix of depth-k abstract predicates.
pub const AK_PREFIX: &str = "ak$";

/// Depth-k results for one predicate.
#[derive(Clone, Debug)]
pub struct PredDepthK {
    /// Source predicate name.
    pub name: String,
    /// Arity.
    pub arity: usize,
    /// Abstract success set: answers as depth-k terms (γ = `$g`).
    pub answers: Vec<Vec<Term>>,
    /// Per-argument verdict: ground in every answer (γ counts as ground).
    pub definitely_ground: Vec<bool>,
    /// Abstract call patterns from the call table.
    pub call_patterns: Vec<Vec<Term>>,
}

/// The collected result of a depth-k analysis run; see [`DepthKReport`].
#[derive(Clone, Debug)]
pub struct DepthKResult {
    preds: BTreeMap<(String, usize), PredDepthK>,
    /// Engine statistics, including table space.
    pub stats: TableStats,
    /// Counters of the evaluation's session arena: every call, answer and
    /// derivation node interned during the run.
    pub arena: tablog_term::ArenaStats,
}

/// The complete report of a depth-k analysis run. Its
/// [`metrics`](Run::metrics) are present iff the analyzer's
/// [`profile`](DepthKAnalyzer::profile) flag was set, and include the
/// `calls_abstracted` / `answers_widened` counts from the depth-k
/// truncation hooks.
pub type DepthKReport = Run<DepthKResult>;

impl DepthKResult {
    /// Result for one predicate.
    pub fn result(&self, name: &str, arity: usize) -> Option<&PredDepthK> {
        self.preds.get(&(name.to_owned(), arity))
    }

    /// All analyzed predicates, sorted by name.
    pub fn predicates(&self) -> impl Iterator<Item = &PredDepthK> {
        self.preds.values()
    }

    /// Total table space in bytes.
    pub fn table_bytes(&self) -> usize {
        self.stats.table_bytes
    }
}

impl Outcome for DepthKResult {
    fn render(&self, timings: &PhaseTimings) -> String {
        let mut out = String::new();
        for p in self.predicates() {
            let _ = writeln!(
                out,
                "{}/{}: ground={:?}",
                p.name, p.arity, p.definitely_ground
            );
            for row in p.answers.iter().take(8) {
                let rendered: Vec<String> = row.iter().map(term_to_string).collect();
                let _ = writeln!(out, "    ({})", rendered.join(", "));
            }
            if p.answers.len() > 8 {
                let _ = writeln!(out, "    … {} more", p.answers.len() - 8);
            }
        }
        out + &summary(timings, self.table_bytes())
    }
}

/// The depth-k analyzer.
#[derive(Clone, Debug)]
pub struct DepthKAnalyzer {
    /// Truncation depth (the paper's `k`).
    pub k: usize,
    /// Clause store mode.
    pub load_mode: LoadMode,
    /// Base engine options; the analyzer installs its own table hooks.
    pub options: EngineOptions,
    /// Collect per-predicate engine metrics and phase timings into
    /// [`Run::metrics`].
    pub profile: bool,
}

impl Default for DepthKAnalyzer {
    fn default() -> Self {
        DepthKAnalyzer {
            k: 2,
            load_mode: LoadMode::Dynamic,
            options: EngineOptions::default(),
            profile: false,
        }
    }
}

impl DepthKAnalyzer {
    /// An analyzer with the given truncation depth.
    pub fn new(k: usize) -> Self {
        DepthKAnalyzer {
            k,
            ..DepthKAnalyzer::default()
        }
    }

    /// Parses and analyzes `src` with fully open calls.
    ///
    /// # Errors
    ///
    /// Returns parse, transformation, or engine errors.
    pub fn analyze_source(&self, src: &str) -> Result<DepthKReport, AnalysisError> {
        run(self, Input::Source(src), &[])
    }

    /// Analyzes a parsed program with fully open calls.
    ///
    /// # Errors
    ///
    /// Returns transformation or engine errors.
    pub fn analyze_program(&self, program: &Program) -> Result<DepthKReport, AnalysisError> {
        run(self, Input::Parsed(program), &[])
    }

    /// Goal-directed analysis: entry arguments marked ground become γ.
    ///
    /// # Errors
    ///
    /// Returns transformation or engine errors.
    pub fn analyze_with_entries(
        &self,
        program: &Program,
        entries: &[EntryPoint],
    ) -> Result<DepthKReport, AnalysisError> {
        run(self, Input::Parsed(program), entries)
    }
}

impl Analysis for DepthKAnalyzer {
    type Program = Program;
    type Abstract = Tabled;
    type Plan = PredSet;
    type Result = DepthKResult;
    type Explanation = AnalysisExplanation;

    fn parse(src: &str) -> Result<Program, AnalysisError> {
        Ok(parse_program(src)?)
    }

    fn profile(&self) -> bool {
        self.profile
    }

    /// The analyzer's engine options with the depth-k truncation hooks
    /// installed as call abstraction and answer widening.
    fn options(&self) -> EngineOptions {
        let mut opts = self.options.clone();
        let k = self.k;
        // Subterms below the cut become γ if ground, a fresh variable
        // otherwise; the truncation works on ids inside the calling
        // engine's session arena.
        let gamma = intern(GAMMA);
        let trunc: tablog_engine::TermHook =
            Arc::new(move |a: &mut TermArena, c: &CanonicalTerm| a.truncate(c, k, gamma));
        opts.call_abstraction = Some(trunc.clone());
        opts.answer_widening = Some(trunc);
        opts
    }

    /// The transformed rules, tabling declarations, and the `$dk` driver
    /// clauses.
    fn load(
        &self,
        program: &Program,
        entries: &[EntryPoint],
    ) -> Result<(Tabled, PredSet), AnalysisError> {
        let (rules, preds) = transform_depthk(program)?;
        let tabled = Tabled::load_logic(
            self.load_mode,
            rules,
            &preds,
            AK_PREFIX,
            GAMMA,
            "$dk",
            entries,
        )?;
        Ok((tabled, preds))
    }

    fn collect(&self, _: &Program, preds: PredSet, eval: &mut Evaluation) -> DepthKResult {
        let mut out = BTreeMap::new();
        for &(name, arity) in preds.keys() {
            let views = eval.subgoals_of(functor(AK_PREFIX, name, arity));
            let mut answers: Vec<Vec<Term>> = Vec::new();
            let mut call_patterns = Vec::new();
            for v in &views {
                call_patterns.push(v.call_args().to_vec());
                for t in v.answer_tuples() {
                    let row = t.to_vec();
                    if !answers.contains(&row) {
                        answers.push(row);
                    }
                }
            }
            let definitely_ground = (0..arity)
                .map(|i| !answers.is_empty() && answers.iter().all(|r| r[i].is_ground()))
                .collect();
            out.insert(
                (sym_name(name), arity),
                PredDepthK {
                    name: sym_name(name),
                    arity,
                    answers,
                    definitely_ground,
                    call_patterns,
                },
            );
        }
        DepthKResult {
            preds: out,
            stats: eval.stats(),
            arena: eval.arena().stats(),
        }
    }

    /// Explains one depth-k answer: maps `goal` — a source-level call whose
    /// arguments are depth-k terms (write `g` for γ, the all-ground-terms
    /// constant) or variables — onto the abstract predicate `ak$p` and
    /// returns the justification trees of every matching abstract answer,
    /// evaluated with the truncation hooks in place.
    fn explain(
        &self,
        program: &Program,
        goal: &str,
        max_depth: usize,
    ) -> Result<AnalysisExplanation, AnalysisError> {
        explain_tabled(self, program, goal, max_depth, |f, args, _| {
            let args = args
                .iter()
                .map(|a| match a {
                    Term::Atom(s) if sym_str(*s) == "g" => atom(GAMMA),
                    other => other.clone(),
                })
                .collect();
            Ok(build(functor(AK_PREFIX, f.name, f.arity), args))
        })
    }
}

/// Transforms a program into its depth-k abstract version: heads become
/// all-variable with explicit `$absunify` goals, and builtins are replaced
/// by their groundness effect.
///
/// # Errors
///
/// Returns [`AnalysisError::Unsupported`] on malformed clause heads.
pub fn transform_depthk(program: &Program) -> Result<(Vec<Rule>, PredSet), AnalysisError> {
    let mut preds: PredSet = BTreeMap::new();
    for c in &program.clauses {
        let f = c
            .head
            .functor()
            .ok_or_else(|| AnalysisError::Unsupported(format!("clause head {}", c.head)))?;
        preds.insert((f.name, f.arity), ());
    }
    let defined: std::collections::HashSet<(tablog_term::Sym, usize)> =
        preds.keys().copied().collect();
    let mut rules = Vec::new();
    for c in &program.clauses {
        let f = c.head.functor().expect("checked above");
        for alt in expand_disjunctions(&c.body) {
            let head_vars: Vec<Term> = (0..f.arity)
                .map(|i| Term::Var(Var((c.nvars + i) as u32)))
                .collect();
            let mut body = Vec::new();
            for (hv, t) in head_vars.iter().zip(c.head.args()) {
                body.push(structure("$absunify", vec![hv.clone(), t.clone()]));
            }
            let mut dead = false;
            for goal in &alt {
                if !abstract_goal(goal, &defined, &mut body) {
                    dead = true;
                    break;
                }
            }
            if !dead {
                rules.push(Rule::new(
                    build(functor(AK_PREFIX, f.name, f.arity), head_vars),
                    body,
                ));
            }
        }
    }
    Ok((rules, preds))
}

/// Appends the abstract goals for one body literal; `false` means the
/// literal certainly fails.
fn abstract_goal(
    goal: &Term,
    defined: &std::collections::HashSet<(tablog_term::Sym, usize)>,
    out: &mut Vec<Term>,
) -> bool {
    let Some(f) = goal.functor() else {
        return true; // variable meta-call: no information
    };
    let name = sym_name(f.name);
    let args = goal.args();
    match (name.as_str(), f.arity) {
        ("true", 0) | ("!", 0) => true,
        ("fail", 0) | ("false", 0) => false,
        ("=", 2) => {
            out.push(structure(
                "$absunify",
                vec![args[0].clone(), args[1].clone()],
            ));
            true
        }
        ("is", 2) => {
            out.push(structure("$absground", vec![args[1].clone()]));
            out.push(structure("$absground", vec![args[0].clone()]));
            true
        }
        ("<", 2) | (">", 2) | ("=<", 2) | (">=", 2) | ("=:=", 2) | ("=\\=", 2) => {
            out.push(structure("$absground", vec![args[0].clone()]));
            out.push(structure("$absground", vec![args[1].clone()]));
            true
        }
        ("atom", 1) | ("atomic", 1) | ("number", 1) | ("integer", 1) | ("ground", 1) => {
            out.push(structure("$absground", vec![args[0].clone()]));
            true
        }
        ("\\+", 1)
        | ("not", 1)
        | ("var", 1)
        | ("nonvar", 1)
        | ("compound", 1)
        | ("\\=", 2)
        | ("==", 2)
        | ("\\==", 2)
        | ("@<", 2)
        | ("@>", 2)
        | ("@=<", 2)
        | ("@>=", 2)
        | ("functor", 3)
        | ("arg", 3)
        | ("=..", 2) => true,
        ("call", 1) => {
            if args[0].functor().is_some() && !args[0].is_var() {
                abstract_goal(&args[0], defined, out)
            } else {
                true
            }
        }
        _ => {
            if defined.contains(&(f.name, f.arity)) {
                out.push(build(functor(AK_PREFIX, f.name, f.arity), args.to_vec()));
            }
            // Unknown predicates: assume success, no bindings.
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncation_caps_term_growth() {
        let src = "
            nat(0).
            nat(s(X)) :- nat(X).
        ";
        let report = DepthKAnalyzer::new(2).analyze_source(src).unwrap();
        let nat = report.result("nat", 1).unwrap();
        // Fixpoint at depth 2: 0, s(0), s(s(0)), s(s(s(γ)))-truncated…
        assert!(nat.answers.len() <= 5, "{:?}", nat.answers);
        assert_eq!(nat.definitely_ground, vec![true]);
    }

    #[test]
    fn append_depthk_groundness() {
        let src = "
            app([], Ys, Ys).
            app([X|Xs], Ys, [X|Zs]) :- app(Xs, Ys, Zs).
        ";
        let report = DepthKAnalyzer::new(2).analyze_source(src).unwrap();
        let app = report.result("app", 3).unwrap();
        assert_eq!(app.definitely_ground, vec![false, false, false]);
        assert!(!app.answers.is_empty());
    }

    #[test]
    fn ground_facts_stay_precise_within_depth() {
        let src = "color(red). color(green). shade(X) :- color(X).";
        let report = DepthKAnalyzer::new(2).analyze_source(src).unwrap();
        let c = report.result("color", 1).unwrap();
        // Depth-1 constants survive truncation exactly.
        assert_eq!(c.answers.len(), 2);
        assert_eq!(c.definitely_ground, vec![true]);
        assert_eq!(
            report.result("shade", 1).unwrap().definitely_ground,
            vec![true]
        );
    }

    #[test]
    fn structure_beyond_k_becomes_gamma() {
        let src = "deep(f(g(h(a)))).";
        let report = DepthKAnalyzer::new(1).analyze_source(src).unwrap();
        let d = report.result("deep", 1).unwrap();
        assert_eq!(d.answers.len(), 1);
        let t = &d.answers[0][0];
        // f(γ) — the inner structure was ground, so it widens to γ.
        assert_eq!(tablog_syntax::term_to_string(t), "f('$g')");
        assert_eq!(d.definitely_ground, vec![true]);
    }

    #[test]
    fn arithmetic_grounds_through_gamma() {
        let src = "inc(X, Y) :- Y is X + 1.";
        let report = DepthKAnalyzer::new(2).analyze_source(src).unwrap();
        let g = report.result("inc", 2).unwrap();
        assert_eq!(g.definitely_ground, vec![true, true]);
    }

    #[test]
    fn entries_seed_gamma_arguments() {
        let src = "
            qs([], []).
            qs([X|Xs], S) :- qs(Xs, S0), ins(X, S0, S).
            ins(X, [], [X]).
            ins(X, [Y|Ys], [X,Y|Ys]) :- X =< Y.
            ins(X, [Y|Ys], [Y|Zs]) :- X > Y, ins(X, Ys, Zs).
        ";
        let program = parse_program(src).unwrap();
        let entries = [EntryPoint::parse("qs(g, f)").unwrap()];
        let report = DepthKAnalyzer::new(2)
            .analyze_with_entries(&program, &entries)
            .unwrap();
        let qs = report.result("qs", 2).unwrap();
        assert_eq!(qs.definitely_ground, vec![true, true]);
    }

    #[test]
    fn depthk_agrees_with_prop_on_definite_groundness_direction() {
        // Both analyses over-approximate; on this program they agree.
        let src = "p(a). q(X) :- p(X). r(X, Y) :- q(X), Y = f(X).";
        let dk = DepthKAnalyzer::new(2).analyze_source(src).unwrap();
        let prop = crate::groundness::GroundnessAnalyzer::new()
            .analyze_source(src)
            .unwrap();
        for (name, arity) in [("p", 1), ("q", 1), ("r", 2)] {
            assert_eq!(
                dk.result(name, arity).unwrap().definitely_ground,
                prop.output_groundness(name, arity)
                    .unwrap()
                    .definitely_ground,
                "{name}/{arity}"
            );
        }
    }

    #[test]
    fn timings_reported() {
        let report = DepthKAnalyzer::new(2).analyze_source("p(a).").unwrap();
        assert!(report.table_bytes() > 0);
    }
}
