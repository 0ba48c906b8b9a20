//! Strictness analysis of lazy functional programs by demand propagation —
//! the paper's Figure 3 transformation (after Sekar & Ramakrishnan).
//!
//! For each function `f/n` the translation derives a predicate
//! `sp$f(D, X1…Xn)`: when the demand on an application of `f` is `D`, the
//! answers' instantiations of `Xi` are the demands placed on the arguments.
//! Demand extents are `e` (normal form), `d` (head normal form) and `n`
//! (null); a **variable left free in an answer is a null demand** — the
//! relational encoding of "no constraint".
//!
//! Demand flows *top-down* through right-hand-side expressions (the
//! `sp$c`/`sp$f` literals come first) and *bottom-up* through left-hand-side
//! patterns (the `pm$c` literals come last) — the literal order the paper
//! singles out as the key efficiency lever of the formulation.
//!
//! Verdicts: `f` is strict in argument `i` under demand `D` iff no answer
//! of `sp$f(D, …)` leaves `Xi` free or `n`: evaluation via every equation
//! and branch places at least a head-normal-form demand on the argument.

use crate::analysis::{
    build, explain_tabled, functor, run, summary, Analysis, Input, Outcome, Run, Tabled,
};
use crate::error::AnalysisError;
use crate::explain::AnalysisExplanation;
use crate::groundness::EntryPoint;
use crate::pipeline::PhaseTimings;
use std::collections::BTreeMap;
use tablog_engine::{EngineOptions, Evaluation, LoadMode, TableStats};
use tablog_funlang::{parse_fun_program, Equation, Expr, FunProgram, Pattern};
use tablog_magic::Rule;
use tablog_term::{atom, structure, sym_name, sym_str, Functor, Term, Var};

/// A demand extent, ordered `N < D < E`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Demand {
    /// Null demand: the argument need not be evaluated.
    N,
    /// Head-normal-form demand.
    D,
    /// (Full) normal-form demand.
    E,
}

impl Demand {
    /// Meet (greatest lower bound) of two demands.
    pub fn meet(self, other: Demand) -> Demand {
        self.min(other)
    }

    /// The demand constant's name in the abstract program.
    pub fn atom_name(self) -> &'static str {
        match self {
            Demand::E => "e",
            Demand::D => "d",
            Demand::N => "n",
        }
    }
}

/// Strictness verdicts for one function.
#[derive(Clone, Debug)]
pub struct FunStrictness {
    /// Function name.
    pub name: String,
    /// Function arity.
    pub arity: usize,
    /// Per-argument demand guaranteed under an `e`-demand on the result.
    pub under_e: Vec<Demand>,
    /// Per-argument demand guaranteed under a `d`-demand on the result.
    pub under_d: Vec<Demand>,
}

impl FunStrictness {
    /// Classical strictness: under full demand, is argument `i` needed?
    pub fn is_strict(&self, i: usize) -> bool {
        self.under_e.get(i).copied().unwrap_or(Demand::N) != Demand::N
    }

    /// Renders the verdict like the paper's prose: `ap : [ee, ed]` means
    /// argument demands `e` under `e` and `d` under… etc.
    pub fn summary(&self) -> String {
        let fmt = |ds: &[Demand]| -> String {
            ds.iter()
                .map(|d| d.atom_name())
                .collect::<Vec<_>>()
                .join("")
        };
        format!(
            "{}: e->{} d->{}",
            self.name,
            fmt(&self.under_e),
            fmt(&self.under_d)
        )
    }
}

/// The collected result of a strictness analysis run; see
/// [`StrictnessReport`].
#[derive(Clone, Debug)]
pub struct StrictnessResult {
    funs: BTreeMap<String, FunStrictness>,
    /// Engine statistics, including table space.
    pub stats: TableStats,
    /// Counters of the evaluation's session arena: every call, answer and
    /// derivation node interned during the run.
    pub arena: tablog_term::ArenaStats,
}

/// The complete report of a strictness analysis run. Its
/// [`metrics`](Run::metrics) are present iff the analyzer's
/// [`profile`](StrictnessAnalyzer::profile) flag was set; their predicate
/// keys are the demand program's (`sp$f/(n+1)`, `pm$c/…`, `$sa/0`).
pub type StrictnessReport = Run<StrictnessResult>;

impl StrictnessResult {
    /// Verdicts for one function.
    pub fn strictness(&self, f: &str) -> Option<&FunStrictness> {
        self.funs.get(f)
    }

    /// All functions, sorted by name.
    pub fn functions(&self) -> impl Iterator<Item = &FunStrictness> {
        self.funs.values()
    }

    /// Total table space in bytes.
    pub fn table_bytes(&self) -> usize {
        self.stats.table_bytes
    }
}

impl Outcome for StrictnessResult {
    fn render(&self, timings: &PhaseTimings) -> String {
        let funs: String = self.functions().map(|f| f.summary() + "\n").collect();
        funs + &summary(timings, self.table_bytes())
    }
}

/// The strictness analyzer.
#[derive(Clone, Debug, Default)]
pub struct StrictnessAnalyzer {
    /// Clause store mode.
    pub load_mode: LoadMode,
    /// Engine options.
    pub options: EngineOptions,
    /// Collect per-predicate engine metrics and phase timings into
    /// [`Run::metrics`].
    pub profile: bool,
}

impl StrictnessAnalyzer {
    /// An analyzer with the default configuration.
    pub fn new() -> Self {
        StrictnessAnalyzer::default()
    }

    /// Parses and analyzes a functional program.
    ///
    /// # Errors
    ///
    /// Returns parse, translation, or engine errors.
    pub fn analyze_source(&self, src: &str) -> Result<StrictnessReport, AnalysisError> {
        run(self, Input::Source(src), &[])
    }

    /// Analyzes a parsed functional program.
    ///
    /// # Errors
    ///
    /// Returns translation or engine errors.
    pub fn analyze_program(&self, prog: &FunProgram) -> Result<StrictnessReport, AnalysisError> {
        run(self, Input::Parsed(prog), &[])
    }
}

impl Analysis for StrictnessAnalyzer {
    type Program = FunProgram;
    type Abstract = Tabled;
    type Plan = ();
    type Result = StrictnessResult;
    type Explanation = AnalysisExplanation;

    fn parse(src: &str) -> Result<FunProgram, AnalysisError> {
        Ok(parse_fun_program(src)?)
    }

    fn profile(&self) -> bool {
        self.profile
    }

    fn options(&self) -> EngineOptions {
        self.options.clone()
    }

    /// The demand-propagation database: the Figure 3 rules (all tabled),
    /// plus the `$sa` driver clauses, one per (function, demand). Every
    /// function is analyzed, so entry points play no part.
    fn load(&self, prog: &FunProgram, _: &[EntryPoint]) -> Result<(Tabled, ()), AnalysisError> {
        let mut db = Tabled::assert_rules(self.load_mode, translate_program(prog)?)?;
        db.table_all();
        let mut vc = 0u32;
        for (fname, &arity) in &prog.functions {
            for demand in ["e", "d"] {
                let mut args = vec![atom(demand)];
                args.extend((0..arity).map(|_| {
                    vc += 1;
                    Term::Var(Var(vc))
                }));
                db.assert_clause(atom("$sa"), vec![build(sp_functor(fname, arity), args)])?;
            }
        }
        db.set_tabled(Functor::new("$sa", 0), false);
        Ok((Tabled::new(db, self.load_mode, "$sa"), ()))
    }

    fn collect(&self, prog: &FunProgram, _: (), eval: &mut Evaluation) -> StrictnessResult {
        let mut funs = BTreeMap::new();
        for (fname, &arity) in &prog.functions {
            let views = eval.subgoals_of(sp_functor(fname, arity));
            let per_demand = |want: &str| -> Vec<Demand> {
                let mut verdict = vec![Demand::E; arity];
                let mut seen = false;
                for v in &views {
                    // The driver's calls have the demand bound, rest free.
                    let call = v.call_args();
                    if call.is_empty() || call[0] != atom(want) {
                        continue;
                    }
                    if !call[1..].iter().all(Term::is_var) {
                        continue;
                    }
                    seen = true;
                    for t in v.answer_tuples() {
                        for i in 0..arity {
                            verdict[i] = verdict[i].meet(term_demand(&t[i + 1]));
                        }
                    }
                }
                if !seen {
                    vec![Demand::N; arity]
                } else {
                    verdict
                }
            };
            let under_e = per_demand("e");
            let under_d = per_demand("d");
            funs.insert(
                fname.clone(),
                FunStrictness {
                    name: fname.clone(),
                    arity,
                    under_e,
                    under_d,
                },
            );
        }
        StrictnessResult {
            funs,
            stats: eval.stats(),
            arena: eval.arena().stats(),
        }
    }

    /// Explains one strictness verdict: `goal` names a function and the
    /// demand placed on its result, `f(e)` or `f(d)`, and the result is the
    /// justification tree of every answer of `sp$f(demand, X1…Xn)` — each
    /// answer being one way demand propagates to the arguments.
    fn explain(
        &self,
        prog: &FunProgram,
        goal: &str,
        max_depth: usize,
    ) -> Result<AnalysisExplanation, AnalysisError> {
        explain_tabled(self, prog, goal, max_depth, |f, args, b| {
            let name = sym_str(f.name);
            let arity = *prog.functions.get(name).ok_or_else(|| {
                AnalysisError::Unsupported(format!("unknown function {name} in goal {goal}"))
            })?;
            let demand = match args {
                [Term::Atom(s)] if matches!(sym_str(*s), "e" | "d" | "n") => Term::Atom(*s),
                _ => {
                    return Err(AnalysisError::Parse(format!(
                        "strictness goal must be {name}(e), {name}(d) or {name}(n)"
                    )))
                }
            };
            let mut args = vec![demand];
            args.extend((0..arity).map(|_| Term::Var(b.fresh_var())));
            Ok(build(sp_functor(name, arity), args))
        })
    }
}

fn term_demand(t: &Term) -> Demand {
    match t {
        Term::Atom(s) if sym_name(*s) == "e" => Demand::E,
        Term::Atom(s) if sym_name(*s) == "d" => Demand::D,
        _ => Demand::N,
    }
}

/// `sp$f/(n+1)`: the demand predicate of `f/n`.
fn sp_functor(fname: &str, arity: usize) -> Functor {
    functor("sp$", fname, arity + 1)
}

/// Translation state for one equation.
struct Ctx<'p> {
    prog: &'p FunProgram,
    next_var: u32,
    /// τ variable of each equation variable.
    tau: BTreeMap<String, Var>,
    /// Auxiliary (supplementary-tabling) rules generated for nested
    /// subexpressions; see [`translate_program`].
    aux_rules: Vec<Rule>,
    /// Shared counter for unique auxiliary predicate names.
    aux_counter: u32,
}

impl<'p> Ctx<'p> {
    fn fresh(&mut self) -> Term {
        let v = Var(self.next_var);
        self.next_var += 1;
        Term::Var(v)
    }

    fn tau_var(&mut self, x: &str) -> Term {
        if let Some(v) = self.tau.get(x) {
            return Term::Var(*v);
        }
        let v = Var(self.next_var);
        self.next_var += 1;
        self.tau.insert(x.to_owned(), v);
        Term::Var(v)
    }

    /// `E[expr]α` — demand propagation through an rhs expression.
    /// Returns the alternative goal sequences (if-then-else branches).
    fn expr(&mut self, e: &Expr, alpha: Term) -> Result<Vec<Vec<Term>>, AnalysisError> {
        match e {
            Expr::Var(x) => {
                let tau = self.tau_var(x);
                Ok(vec![vec![structure("=", vec![tau, alpha])]])
            }
            Expr::Int(_) => Ok(vec![vec![]]),
            Expr::Ctor(c, args) => {
                let alphas: Vec<Term> = (0..args.len()).map(|_| self.fresh()).collect();
                let mut head_args = vec![alpha];
                head_args.extend(alphas.iter().cloned());
                let lit = structure(&format!("sp$c_{c}"), head_args);
                self.seq(lit, args, &alphas)
            }
            Expr::App(f, args) => {
                if self.prog.arity(f) != Some(args.len()) {
                    return Err(AnalysisError::Unsupported(format!(
                        "call to unknown function {f}/{}",
                        args.len()
                    )));
                }
                let alphas: Vec<Term> = (0..args.len()).map(|_| self.fresh()).collect();
                let mut head_args = vec![alpha];
                head_args.extend(alphas.iter().cloned());
                let lit = build(sp_functor(f, args.len()), head_args);
                self.seq(lit, args, &alphas)
            }
            Expr::Prim(_, a, b) => {
                let a1 = self.fresh();
                let a2 = self.fresh();
                let lit = structure("sp$prim2", vec![alpha, a1.clone(), a2.clone()]);
                let la = self.subexpr(a, a1)?;
                let lb = self.subexpr(b, a2)?;
                Ok(cross(vec![vec![lit]], cross(la, lb)))
            }
            Expr::If(c, t, f) => {
                // The condition gets an e-demand (booleans are flat); the
                // result demand flows to whichever branch is taken.
                let lc = self.subexpr(c, atom("e"))?;
                let lt = self.subexpr(t, alpha.clone())?;
                let lf = self.subexpr(f, alpha)?;
                let mut out = cross(lc.clone(), lt);
                out.extend(cross(lc, lf));
                Ok(out)
            }
        }
    }

    fn seq(
        &mut self,
        lit: Term,
        args: &[Expr],
        alphas: &[Term],
    ) -> Result<Vec<Vec<Term>>, AnalysisError> {
        let mut alts = vec![vec![lit]];
        for (a, alpha) in args.iter().zip(alphas) {
            let sub = self.subexpr(a, alpha.clone())?;
            alts = cross(alts, sub);
        }
        Ok(alts)
    }

    /// Translates an argument subexpression. Compound subexpressions are
    /// factored into their own *tabled auxiliary predicate* — the paper's
    /// "supplementary tabling" (Section 4.2): without it, a clause for a
    /// deeply nested expression enumerates the cross product of every
    /// subtree's demand alternatives, which is exponential in the nesting
    /// depth. Tabling each subtree caps that at one table per node.
    fn subexpr(&mut self, e: &Expr, alpha: Term) -> Result<Vec<Vec<Term>>, AnalysisError> {
        match e {
            Expr::Var(_) | Expr::Int(_) => self.expr(e, alpha),
            _ => {
                let fvars = expr_vars(e);
                let name = format!("sp$x{}", self.aux_counter);
                self.aux_counter += 1;
                // Auxiliary clause: sp$xN(D, τv1…τvk) :- E[e]D.
                // Its variables are renumbered independently on assert, so
                // sharing this context's numbering is safe.
                let dvar = self.fresh();
                let tau_args: Vec<Term> = fvars.iter().map(|v| self.tau_var(v)).collect();
                let mut head_args = vec![dvar.clone()];
                head_args.extend(tau_args.iter().cloned());
                let head = structure(&name, head_args);
                let bodies = self.expr(e, dvar)?;
                for body in bodies {
                    self.aux_rules.push(Rule::new(head.clone(), body));
                }
                // Call site: sp$xN(α, τvars).
                let mut call_args = vec![alpha];
                call_args.extend(tau_args);
                Ok(vec![vec![structure(&name, call_args)]])
            }
        }
    }

    /// `P[pat]β` — demand flowing bottom-up through an lhs pattern.
    fn pattern(&mut self, p: &Pattern, beta: Term, out: &mut Vec<Term>) {
        match p {
            Pattern::Var(x) => {
                let tau = self.tau_var(x);
                out.push(structure("=", vec![tau, beta]));
            }
            Pattern::Int(_) => {
                // Matching a literal evaluates the position fully (flat).
                out.push(structure("=", vec![beta, atom("e")]));
            }
            Pattern::Ctor(c, ps) => {
                let betas: Vec<Term> = (0..ps.len()).map(|_| self.fresh()).collect();
                for (sub, b) in ps.iter().zip(&betas) {
                    self.pattern(sub, b.clone(), out);
                }
                let mut args = vec![beta];
                args.extend(betas);
                out.push(structure(&format!("pm$c_{c}"), args));
            }
        }
    }
}

fn cross(a: Vec<Vec<Term>>, b: Vec<Vec<Term>>) -> Vec<Vec<Term>> {
    let mut out = Vec::new();
    for x in &a {
        for y in &b {
            let mut v = x.clone();
            v.extend(y.iter().cloned());
            out.push(v);
        }
    }
    out
}

/// Translates a functional program into the demand-propagation logic
/// program of Figure 3 (function clauses, the `n`-demand facts, and the
/// base `sp$c_*` / `pm$c_*` / `sp$prim2` fact predicates).
///
/// # Errors
///
/// Returns [`AnalysisError::Unsupported`] on calls to unknown functions.
pub fn translate_program(prog: &FunProgram) -> Result<Vec<Rule>, AnalysisError> {
    let mut rules = Vec::new();
    let mut aux_counter = 0u32;
    for eq in &prog.equations {
        rules.extend(translate_equation(prog, eq, &mut aux_counter)?);
    }
    // n-demand clause per function: sp$f(n, X1…Xn).
    for (fname, &arity) in &prog.functions {
        let args: Vec<Term> = std::iter::once(atom("n"))
            .chain((0..arity).map(|i| Term::Var(Var(i as u32))))
            .collect();
        rules.push(Rule::new(build(sp_functor(fname, arity), args), Vec::new()));
    }
    // Base facts for constructors.
    for (c, &k) in &prog.constructors {
        rules.extend(ctor_rules(c, k));
    }
    // Primitives: strict in both arguments, flat result.
    for d in ["e", "d"] {
        rules.push(Rule::new(
            structure("sp$prim2", vec![atom(d), atom("e"), atom("e")]),
            Vec::new(),
        ));
    }
    rules.push(Rule::new(
        structure(
            "sp$prim2",
            vec![atom("n"), Term::Var(Var(0)), Term::Var(Var(1))],
        ),
        Vec::new(),
    ));
    Ok(rules)
}

fn translate_equation(
    prog: &FunProgram,
    eq: &Equation,
    aux_counter: &mut u32,
) -> Result<Vec<Rule>, AnalysisError> {
    let arity = eq.lhs.len();
    // Head: sp$f(D, X1..Xn); D = var 0, Xi = vars 1..n.
    let mut ctx = Ctx {
        prog,
        next_var: (arity + 1) as u32,
        tau: BTreeMap::new(),
        aux_rules: Vec::new(),
        aux_counter: *aux_counter,
    };
    let dvar = Term::Var(Var(0));
    let xvars: Vec<Term> = (1..=arity).map(|i| Term::Var(Var(i as u32))).collect();
    let rhs_alts = ctx.expr(&eq.rhs, dvar.clone())?;
    let mut pattern_goals = Vec::new();
    for (p, x) in eq.lhs.iter().zip(&xvars) {
        ctx.pattern(p, x.clone(), &mut pattern_goals);
    }
    let mut head_args = vec![dvar];
    head_args.extend(xvars);
    let head = build(sp_functor(&eq.fname, arity), head_args);
    *aux_counter = ctx.aux_counter;
    let mut rules: Vec<Rule> = rhs_alts
        .into_iter()
        .map(|mut body| {
            body.extend(pattern_goals.iter().cloned());
            Rule::new(head.clone(), body)
        })
        .collect();
    rules.extend(ctx.aux_rules);
    Ok(rules)
}

/// Free variables of an expression, in first-occurrence order.
fn expr_vars(e: &Expr) -> Vec<String> {
    fn go(e: &Expr, out: &mut Vec<String>) {
        match e {
            Expr::Var(x) => {
                if !out.contains(x) {
                    out.push(x.clone());
                }
            }
            Expr::Int(_) => {}
            Expr::Ctor(_, args) | Expr::App(_, args) => {
                for a in args {
                    go(a, out);
                }
            }
            Expr::Prim(_, a, b) => {
                go(a, out);
                go(b, out);
            }
            Expr::If(c, t, f) => {
                go(c, out);
                go(t, out);
                go(f, out);
            }
        }
    }
    let mut out = Vec::new();
    go(e, &mut out);
    out
}

fn ctor_rules(c: &str, k: usize) -> Vec<Rule> {
    let mut out = Vec::new();
    let spf = format!("sp$c_{c}");
    let pmf = format!("pm$c_{c}");
    // sp$c(e, e…e): full demand on the cell demands its components fully.
    out.push(Rule::new(
        structure(
            &spf,
            std::iter::once(atom("e"))
                .chain((0..k).map(|_| atom("e")))
                .collect(),
        ),
        Vec::new(),
    ));
    // sp$c(d, _…_) and sp$c(n, _…_): WHNF or no demand leaves them free.
    for d in ["d", "n"] {
        let args: Vec<Term> = std::iter::once(atom(d))
            .chain((0..k).map(|i| Term::Var(Var(i as u32))))
            .collect();
        out.push(Rule::new(structure(&spf, args), Vec::new()));
    }
    // pm$c(e, e…e): if every component ends up fully evaluated, matching
    // this pattern amounts to full evaluation of the position.
    out.push(Rule::new(
        structure(
            &pmf,
            std::iter::once(atom("e"))
                .chain((0..k).map(|_| atom("e")))
                .collect(),
        ),
        Vec::new(),
    ));
    // pm$c(d, t) for every component-demand tuple except all-e.
    let demands = ["e", "d", "n"];
    let mut idx = vec![0usize; k];
    loop {
        // Skip the all-e tuple (idx all zero when k > 0 is all-e).
        let tuple_is_all_e = idx.iter().all(|&i| i == 0);
        if k > 0 && !tuple_is_all_e {
            let args: Vec<Term> = std::iter::once(atom("d"))
                .chain(idx.iter().map(|&i| atom(demands[i])))
                .collect();
            out.push(Rule::new(structure(&pmf, args), Vec::new()));
        }
        // Next tuple.
        let mut pos = 0;
        loop {
            if pos == k {
                return out;
            }
            idx[pos] += 1;
            if idx[pos] < demands.len() {
                break;
            }
            idx[pos] = 0;
            pos += 1;
        }
        if k == 0 {
            return out;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const APPEND: &str = "
        ap(nil, ys) = ys;
        ap(x : xs, ys) = x : ap(xs, ys);
    ";

    #[test]
    fn figure4_ap_strictness() {
        let report = StrictnessAnalyzer::new().analyze_source(APPEND).unwrap();
        let ap = report.strictness("ap").unwrap();
        // Paper: sp_ap(e, X, Y) has the single solution X = e, Y = e.
        assert_eq!(ap.under_e, vec![Demand::E, Demand::E]);
        // sp_ap(d, …): {X=e, Y=d} and {X=d, Y=n} — strict (d) in the first
        // argument, not strict in the second.
        assert_eq!(ap.under_d, vec![Demand::D, Demand::N]);
        assert!(ap.is_strict(0) && ap.is_strict(1));
    }

    #[test]
    fn k_combinator_not_strict_in_second() {
        let src = "k(x, y) = x;";
        let report = StrictnessAnalyzer::new().analyze_source(src).unwrap();
        let k = report.strictness("k").unwrap();
        assert_eq!(k.under_e, vec![Demand::E, Demand::N]);
        assert!(k.is_strict(0));
        assert!(!k.is_strict(1));
    }

    #[test]
    fn head_forces_only_whnf_of_spine() {
        let src = "hd(x : xs) = x;";
        let report = StrictnessAnalyzer::new().analyze_source(src).unwrap();
        let hd = report.strictness("hd").unwrap();
        // Under e-demand: the element is fully demanded but the tail is
        // not, so the list argument as a whole gets only a d demand.
        assert_eq!(hd.under_e, vec![Demand::D]);
    }

    #[test]
    fn arithmetic_is_strict_in_both() {
        let src = "plus(x, y) = x + y;";
        let report = StrictnessAnalyzer::new().analyze_source(src).unwrap();
        let p = report.strictness("plus").unwrap();
        assert_eq!(p.under_e, vec![Demand::E, Demand::E]);
        assert_eq!(p.under_d, vec![Demand::E, Demand::E]);
    }

    #[test]
    fn if_is_strict_in_condition_only_joint_branches() {
        // Under full demand, x is always needed (condition); y only in one
        // branch; z in the other.
        let src = "pick(x, y, z) = if x == 0 then y else z;";
        let report = StrictnessAnalyzer::new().analyze_source(src).unwrap();
        let p = report.strictness("pick").unwrap();
        assert_eq!(p.under_e, vec![Demand::E, Demand::N, Demand::N]);
        assert!(p.is_strict(0));
    }

    #[test]
    fn constant_function_is_strict_in_nothing() {
        let src = "c(x) = 42;";
        let report = StrictnessAnalyzer::new().analyze_source(src).unwrap();
        let c = report.strictness("c").unwrap();
        assert_eq!(c.under_e, vec![Demand::N]);
    }

    #[test]
    fn length_demands_spine_not_elements() {
        let src = "
            len(nil) = 0;
            len(x : xs) = 1 + len(xs);
        ";
        let report = StrictnessAnalyzer::new().analyze_source(src).unwrap();
        let l = report.strictness("len").unwrap();
        // The whole spine is forced but elements never: demand d.
        assert_eq!(l.under_e, vec![Demand::D]);
    }

    #[test]
    fn sum_demands_everything() {
        let src = "
            sum(nil) = 0;
            sum(x : xs) = x + sum(xs);
        ";
        let report = StrictnessAnalyzer::new().analyze_source(src).unwrap();
        let s = report.strictness("sum").unwrap();
        assert_eq!(s.under_e, vec![Demand::E]);
    }

    #[test]
    fn mutual_recursion_strictness() {
        let src = "
            evenlen(nil) = true;
            evenlen(x : xs) = oddlen(xs);
            oddlen(nil) = false;
            oddlen(x : xs) = evenlen(xs);
        ";
        let report = StrictnessAnalyzer::new().analyze_source(src).unwrap();
        assert_eq!(
            report.strictness("evenlen").unwrap().under_e,
            vec![Demand::D]
        );
        assert_eq!(
            report.strictness("oddlen").unwrap().under_e,
            vec![Demand::D]
        );
    }

    #[test]
    fn unknown_function_is_reported() {
        let e = StrictnessAnalyzer::new().analyze_source("f(x) = g(x);");
        assert!(matches!(e, Err(AnalysisError::Unsupported(_))));
    }

    #[test]
    fn analysis_agrees_with_interpreter_on_append() {
        // Cross-check: the analysis says ap is strict in arg 1; running
        // ap(⊥, list) must then diverge, while a non-strict position is fine.
        use tablog_funlang::{eval_main, parse_fun_program, EvalError};
        let diverge = "
            ap(nil, ys) = ys;
            ap(x : xs, ys) = x : ap(xs, ys);
            bot = bot;
            main = ap(bot, nil);
        ";
        let e = eval_main(&parse_fun_program(diverge).unwrap()).unwrap_err();
        assert_eq!(e, EvalError::OutOfFuel);
        let fine = "
            k(x, y) = x;
            bot = bot;
            main = k(1, bot);
        ";
        assert_eq!(
            eval_main(&parse_fun_program(fine).unwrap())
                .unwrap()
                .to_string(),
            "1"
        );
    }

    #[test]
    fn timings_and_space_reported() {
        let report = StrictnessAnalyzer::new().analyze_source(APPEND).unwrap();
        assert!(report.table_bytes() > 0);
        assert!(report.timings.total() > std::time::Duration::ZERO);
    }

    #[test]
    fn summary_renders() {
        let report = StrictnessAnalyzer::new().analyze_source(APPEND).unwrap();
        assert_eq!(
            report.strictness("ap").unwrap().summary(),
            "ap: e->ee d->dn"
        );
    }
}
