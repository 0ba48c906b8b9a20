//! Prop-domain groundness analysis of logic programs — the paper's
//! Figure 1 transformation plus the analysis driver.
//!
//! A source program `P` is transformed into an abstract program `P♯` over
//! the boolean constants `true`/`false`: predicate `p/n` becomes `gp$p/n`,
//! each source variable `X` is tracked by a groundness variable `τX`, and
//! each head argument or body-literal argument `t` contributes the
//! constraint `iff(α, vars(t))` — `α ⇔ AND of τ`s — represented
//! enumeratively by its truth table. Evaluating `P♯` on the tabled engine
//! computes the **output groundness** (the success set of `gp$p` is the
//! truth table of `p`'s groundness formula) and, because tabling records
//! calls, the **input groundness** for free (Section 3.1).

use crate::error::AnalysisError;
use crate::explain::AnalysisExplanation;
use crate::pipeline::{PhaseTimings, Timer};
use crate::prop::PropTable;
use std::collections::{BTreeMap, HashSet};
use tablog_domain::{value_from_partial_rows, AbstractDomain, BddDomain, DomainKind, TableDomain};
use tablog_engine::{Database, Engine, EngineOptions, LoadMode, TableStats};
use tablog_magic::Rule;
use tablog_syntax::{parse_program, Program};
use tablog_term::{atom, intern, structure, sym_name, Bindings, Functor, Term, Var};
use tablog_trace::MetricsReport;

/// How `iff` constraints are represented in the abstract program.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum IffMode {
    /// The native `$iff/N` builtin, which enumerates its truth table
    /// lazily against the current bindings (the default).
    #[default]
    Builtin,
    /// Explicit fact predicates `iff$k/(k+1)` holding all `2^k` rows —
    /// the fully enumerative representation of the paper's citation \[8\].
    Facts,
}

/// Name prefix of abstract predicates.
pub const GP_PREFIX: &str = "gp$";

/// The set of `(name, arity)` pairs of source predicates seen by a
/// transformation (a `BTreeMap` keyed for deterministic order).
pub type PredSet = BTreeMap<(tablog_term::Sym, usize), ()>;

/// An entry point for goal-directed analysis: which arguments of the
/// predicate are ground at the initial call.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EntryPoint {
    /// Predicate name.
    pub name: String,
    /// Ground/unknown flags, one per argument.
    pub ground_args: Vec<bool>,
}

impl EntryPoint {
    /// Builds an entry point; `spec` holds one flag per argument
    /// (`true` = ground at call).
    pub fn new(name: &str, spec: &[bool]) -> Self {
        EntryPoint {
            name: name.to_owned(),
            ground_args: spec.to_vec(),
        }
    }

    /// Parses `"qsort(g, f)"`-style notation: `g`round / `f`ree.
    ///
    /// # Errors
    ///
    /// Fails on malformed specs.
    pub fn parse(spec: &str) -> Result<Self, AnalysisError> {
        let mut b = Bindings::new();
        let (t, _) = tablog_syntax::parse_term(spec, &mut b)
            .map_err(|e| AnalysisError::Parse(e.to_string()))?;
        let f = t
            .functor()
            .ok_or_else(|| AnalysisError::Parse(format!("bad entry spec {spec}")))?;
        let ground_args = t
            .args()
            .iter()
            .map(|a| match a {
                Term::Atom(s) if sym_name(*s) == "g" => Ok(true),
                Term::Atom(s) if sym_name(*s) == "f" => Ok(false),
                other => Err(AnalysisError::Parse(format!(
                    "entry argument must be g or f, found {other}"
                ))),
            })
            .collect::<Result<Vec<bool>, _>>()?;
        Ok(EntryPoint {
            name: sym_name(f.name),
            ground_args,
        })
    }
}

/// Groundness results for one predicate.
#[derive(Clone, Debug)]
pub struct PredGroundness {
    /// Source predicate name.
    pub name: String,
    /// Source predicate arity.
    pub arity: usize,
    /// Success set: one row per table answer; `None` marks an argument
    /// whose groundness is unconstrained in that answer.
    pub success_rows: Vec<Vec<Option<bool>>>,
    /// Per-argument meet over all answers — the paper's combined result
    /// (`p(true,false,true) ⊓ p(true,true,false) = p(true,false,false)`).
    pub definitely_ground: Vec<bool>,
    /// The output groundness formula as a truth table over the arguments.
    pub prop: PropTable,
    /// Call patterns recorded in the call table — the input groundness.
    pub call_patterns: Vec<Vec<Option<bool>>>,
}

/// The complete result of a groundness analysis run.
#[derive(Clone, Debug)]
pub struct GroundnessReport {
    preds: BTreeMap<(String, usize), PredGroundness>,
    /// Phase timings (preprocess / analysis / collection).
    pub timings: PhaseTimings,
    /// Engine statistics, including table space.
    pub stats: TableStats,
    /// Prop-domain backend the collection phase ran on (from
    /// [`EngineOptions::domain`]).
    pub domain: DomainKind,
    /// Backend-private bytes — the BDD manager's arena and memo tables
    /// under [`DomainKind::Bdd`], 0 under the enumerative backend (whose
    /// tables are charged through the engine's accounting already).
    pub domain_bytes: usize,
    /// Live BDD nodes allocated during collection (0 under
    /// [`DomainKind::Table`]).
    pub bdd_nodes: usize,
    /// Per-predicate engine metrics; present iff the analyzer's
    /// [`profile`](GroundnessAnalyzer::profile) flag was set. Predicate
    /// keys are the abstract program's (`gp$p/n`, `$ga/0`).
    pub metrics: Option<MetricsReport>,
    /// Per-worker load and message-flow attribution, `Some` exactly when
    /// the analysis ran under the parallel scheduler (see
    /// [`tablog_engine::ParallelReport`]).
    pub parallel: Option<tablog_engine::ParallelReport>,
}

impl GroundnessReport {
    /// Result for one predicate.
    pub fn output_groundness(&self, name: &str, arity: usize) -> Option<&PredGroundness> {
        self.preds.get(&(name.to_owned(), arity))
    }

    /// All analyzed predicates, sorted by name.
    pub fn predicates(&self) -> impl Iterator<Item = &PredGroundness> {
        self.preds.values()
    }

    /// Total table space in bytes (the paper's last column), including any
    /// backend-private memory so `--domain bdd` runs account the manager
    /// arena alongside the engine's tables.
    pub fn table_bytes(&self) -> usize {
        self.stats.table_bytes + self.domain_bytes
    }
}

/// The groundness analyzer: configuration + entry points into analysis.
#[derive(Clone, Debug, Default)]
pub struct GroundnessAnalyzer {
    /// Representation of `iff` constraints.
    pub iff_mode: IffMode,
    /// Clause store mode (the dynamic-vs-compiled trade-off of Section 4).
    pub load_mode: LoadMode,
    /// Engine options (scheduling, subsumption, …).
    pub options: EngineOptions,
    /// Collect per-predicate engine metrics and phase timings into
    /// [`GroundnessReport::metrics`]. Composes with an existing
    /// `options.trace` sink via fan-out.
    pub profile: bool,
}

impl GroundnessAnalyzer {
    /// An analyzer with the paper's default configuration: dynamic loading,
    /// builtin `iff`, depth-first scheduling.
    pub fn new() -> Self {
        GroundnessAnalyzer::default()
    }

    /// Parses and analyzes `src` with fully open calls (output groundness
    /// of every predicate; input patterns reflect internal calls).
    ///
    /// # Errors
    ///
    /// Returns parse, transformation, or engine errors.
    pub fn analyze_source(&self, src: &str) -> Result<GroundnessReport, AnalysisError> {
        let mut timer = Timer::start();
        let program = parse_program(src)?;
        self.analyze_program_timed(&program, &[], timer.lap())
    }

    /// Analyzes a parsed program with fully open calls.
    ///
    /// # Errors
    ///
    /// Returns transformation or engine errors.
    pub fn analyze_program(&self, program: &Program) -> Result<GroundnessReport, AnalysisError> {
        self.analyze_program_timed(program, &[], std::time::Duration::ZERO)
    }

    /// Goal-directed analysis from the given entry points: only predicates
    /// reachable from the entries are analyzed, and call patterns reflect
    /// the entry instantiation.
    ///
    /// # Errors
    ///
    /// Returns transformation or engine errors.
    pub fn analyze_with_entries(
        &self,
        program: &Program,
        entries: &[EntryPoint],
    ) -> Result<GroundnessReport, AnalysisError> {
        self.analyze_program_timed(program, entries, std::time::Duration::ZERO)
    }

    /// Builds the abstract database: the transformed rules, tabling
    /// declarations, and the `$ga` driver clauses (one per analyzed call
    /// pattern). Shared by [`analyze`](GroundnessAnalyzer::analyze_program)
    /// and [`explain`](GroundnessAnalyzer::explain).
    fn load_abstract(
        &self,
        program: &Program,
        entries: &[EntryPoint],
    ) -> Result<(Database, PredSet), AnalysisError> {
        let (rules, preds) = transform_program(program, self.iff_mode)?;
        let mut db = Database::new(self.load_mode);
        for r in &rules {
            db.assert_clause(r.head.clone(), r.body.clone())?;
        }
        for &(name, arity) in preds.keys() {
            db.set_tabled(gp_functor(name, arity), true);
        }
        let mut b = Bindings::new();
        if entries.is_empty() {
            for &(name, arity) in preds.keys() {
                let args: Vec<Term> = (0..arity).map(|_| Term::Var(b.fresh_var())).collect();
                let goal = build(gp_functor(name, arity), args);
                db.assert_clause(atom("$ga"), vec![goal])?;
            }
        } else {
            for e in entries {
                let args: Vec<Term> = e
                    .ground_args
                    .iter()
                    .map(|&g| {
                        if g {
                            atom("true")
                        } else {
                            Term::Var(b.fresh_var())
                        }
                    })
                    .collect();
                let goal = build(gp_functor(intern(&e.name), e.ground_args.len()), args);
                db.assert_clause(atom("$ga"), vec![goal])?;
            }
        }
        if self.load_mode == LoadMode::Compiled {
            db.build_indexes();
        }
        Ok((db, preds))
    }

    /// Explains one groundness answer: maps `goal` — a source-level call
    /// whose arguments are `g` (ground), `f` (possibly non-ground) or
    /// variables — onto the abstract predicate `gp$p` and returns the
    /// justification trees of every matching abstract answer.
    ///
    /// # Errors
    ///
    /// Returns parse errors (including non-`g`/`f` arguments),
    /// transformation errors, or engine errors.
    pub fn explain(
        &self,
        program: &Program,
        goal: &str,
        max_depth: usize,
    ) -> Result<AnalysisExplanation, AnalysisError> {
        let mut b = Bindings::new();
        let (t, _) = tablog_syntax::parse_term(goal, &mut b)
            .map_err(|e| AnalysisError::Parse(e.to_string()))?;
        let f = t
            .functor()
            .ok_or_else(|| AnalysisError::Parse(format!("bad goal {goal}")))?;
        let args: Vec<Term> = t
            .args()
            .iter()
            .map(|a| match a {
                Term::Atom(s) if matches!(sym_name(*s).as_str(), "g" | "true") => Ok(atom("true")),
                Term::Atom(s) if matches!(sym_name(*s).as_str(), "f" | "false") => {
                    Ok(atom("false"))
                }
                Term::Var(v) => Ok(Term::Var(*v)),
                other => Err(AnalysisError::Parse(format!(
                    "groundness goal argument must be g, f or a variable, found {other}"
                ))),
            })
            .collect::<Result<_, _>>()?;
        let (db, _) = self.load_abstract(program, &[])?;
        let engine = Engine::new(db, self.options.clone());
        let abstract_term = build(gp_functor(f.name, f.arity), args);
        crate::explain::explain_abstract(&engine, goal, &abstract_term, &b, max_depth)
    }

    fn analyze_program_timed(
        &self,
        program: &Program,
        entries: &[EntryPoint],
        parse_time: std::time::Duration,
    ) -> Result<GroundnessReport, AnalysisError> {
        let mut timer = Timer::start();
        // --- Preprocess: transform + load. ---
        let (db, preds) = self.load_abstract(program, entries)?;
        let mut options = self.options.clone();
        let registry = self
            .profile
            .then(|| crate::profile::install_registry(&mut options));
        let mut spans = crate::profile::PhaseSpans::from_options(&options);
        let mut engine = Engine::new(db, options);
        let preprocess = parse_time + timer.lap();

        // --- Analysis: evaluate to fixpoint. ---
        // The engine's own spans nest under this phase span.
        engine.options_mut().parent_span = spans.enter("analysis");
        let query = [atom("$ga")];
        let qb = Bindings::new();
        let eval = engine.evaluate(&query, &[], &qb)?.require_complete()?;
        spans.exit();
        let analysis = timer.lap();

        // --- Collection: walk the tables. ---
        spans.enter("collection");
        let domain = self.options.domain;
        // One backend instance for the whole report: under the BDD backend
        // every predicate's formula shares (and hash-conses into) a single
        // manager, which is also the unit of memory attribution.
        let mut table_backend = TableDomain;
        let mut bdd_backend = BddDomain::new();
        let mut out = BTreeMap::new();
        for (&(name, arity), _) in preds.iter() {
            let f = gp_functor(name, arity);
            let views = eval.subgoals_of(f);
            let mut success_rows = UniqueRows::default();
            let mut call_patterns = Vec::new();
            for v in &views {
                call_patterns.push(tuple_to_row(&v.call_args()));
                for t in v.answer_tuples() {
                    success_rows.push(tuple_to_row(&t));
                }
            }
            let success_rows = success_rows.rows;
            let definitely_ground = (0..arity)
                .map(|i| {
                    !success_rows.is_empty() && success_rows.iter().all(|r| r[i] == Some(true))
                })
                .collect();
            let prop = rows_to_prop(
                domain,
                &mut table_backend,
                &mut bdd_backend,
                arity,
                &success_rows,
            );
            out.insert(
                (sym_name(name), arity),
                PredGroundness {
                    name: sym_name(name),
                    arity,
                    success_rows,
                    definitely_ground,
                    prop,
                    call_patterns,
                },
            );
        }
        let domain_stats = match domain {
            DomainKind::Table => table_backend.stats(),
            DomainKind::Bdd => bdd_backend.stats(),
        };
        spans.exit();
        let collection = timer.lap();

        let timings = PhaseTimings {
            preprocess,
            analysis,
            collection,
        };
        let metrics = registry.map(|r| {
            crate::profile::finish(
                &r,
                &timings,
                engine.options().describe(),
                Some(crate::profile::engine_snapshot(&eval, domain)),
            )
        });
        Ok(GroundnessReport {
            preds: out,
            timings,
            stats: eval.stats(),
            domain,
            domain_bytes: domain_stats.bytes,
            bdd_nodes: domain_stats.nodes,
            metrics,
            parallel: eval.parallel_report().cloned(),
        })
    }
}

/// Measures the plain "compile time" baseline of the paper's tables:
/// parsing and loading the source program with no analysis.
///
/// # Errors
///
/// Returns parse or load errors.
pub fn compile_time(src: &str, mode: LoadMode) -> Result<std::time::Duration, AnalysisError> {
    let mut timer = Timer::start();
    let program = parse_program(src)?;
    let mut db = Database::new(mode);
    db.load(&program)?;
    if mode == LoadMode::Compiled {
        db.build_indexes();
    }
    Ok(timer.lap())
}

fn gp_functor(name: tablog_term::Sym, arity: usize) -> Functor {
    Functor {
        name: intern(&format!("{GP_PREFIX}{}", sym_name(name))),
        arity,
    }
}

fn build(f: Functor, args: Vec<Term>) -> Term {
    if args.is_empty() {
        Term::Atom(f.name)
    } else {
        Term::Struct(f.name, args.into())
    }
}

fn tuple_to_row(args: &[Term]) -> Vec<Option<bool>> {
    args.iter()
        .map(|t| match t {
            Term::Atom(s) if sym_name(*s) == "true" => Some(true),
            Term::Atom(s) if sym_name(*s) == "false" => Some(false),
            _ => None,
        })
        .collect()
}

/// Rows without duplicates, in first-seen order. A few rows are checked by
/// scanning, which allocates nothing; past [`UniqueRows::SCAN`] rows a hash
/// index takes over, so collecting `n` rows costs O(n), not O(n²).
#[derive(Default)]
struct UniqueRows {
    rows: Vec<Vec<Option<bool>>>,
    index: HashSet<Vec<Option<bool>>>,
}

impl UniqueRows {
    const SCAN: usize = 16;

    fn push(&mut self, row: Vec<Option<bool>>) {
        if self.rows.len() < Self::SCAN {
            if !self.rows.contains(&row) {
                self.rows.push(row);
            }
            return;
        }
        if self.index.is_empty() {
            self.index.extend(self.rows.iter().cloned());
        }
        if self.index.insert(row.clone()) {
            self.rows.push(row);
        }
    }
}

/// Builds the output-groundness formula from the table's partial success
/// rows on the selected backend and exports it as a truth table. Both
/// backends go through [`value_from_partial_rows`], so they see identical
/// inputs; the enumerative path yields exactly the bitset the
/// pre-domain-layer code computed.
fn rows_to_prop(
    domain: DomainKind,
    table_backend: &mut TableDomain,
    bdd_backend: &mut BddDomain,
    arity: usize,
    rows: &[Vec<Option<bool>>],
) -> PropTable {
    if arity > crate::prop::MAX_VARS {
        // Arity beyond truth-table capacity: report the empty formula.
        return PropTable::bottom(crate::prop::MAX_VARS);
    }
    match domain {
        DomainKind::Table => value_from_partial_rows(table_backend, arity, rows),
        DomainKind::Bdd => {
            let v = value_from_partial_rows(bdd_backend, arity, rows);
            bdd_backend.to_table(&v)
        }
    }
}

/// Transformation state for one clause.
struct Ctx {
    next_var: u32,
    body: Vec<Term>,
    iff_mode: IffMode,
    max_iff_arity: usize,
}

impl Ctx {
    fn fresh(&mut self) -> Term {
        let v = Var(self.next_var);
        self.next_var += 1;
        Term::Var(v)
    }

    /// Emits `iff(alpha, τvars(t))` — the paper's `S[t]α`.
    fn emit_iff(&mut self, alpha: Term, t: &Term) {
        let vars = t.vars();
        self.emit_iff_vars(alpha, &vars);
    }

    fn emit_iff_vars(&mut self, alpha: Term, vars: &[Var]) {
        self.max_iff_arity = self.max_iff_arity.max(vars.len());
        let mut args = vec![alpha];
        args.extend(vars.iter().map(|v| Term::Var(*v)));
        let name = match self.iff_mode {
            IffMode::Builtin => "$iff".to_owned(),
            IffMode::Facts => format!("iff${}", vars.len()),
        };
        self.body.push(structure(&name, args));
    }

    /// Constrains every variable of `t` to ground.
    fn emit_all_ground(&mut self, t: &Term) {
        for v in t.vars() {
            self.emit_iff_vars(Term::Var(v), &[]);
        }
    }
}

/// Splits `(A ; B)` disjunctions (and desugars if-then-else) so each
/// alternative becomes its own clause body.
pub(crate) fn expand_disjunctions(body: &[Term]) -> Vec<Vec<Term>> {
    let mut alts: Vec<Vec<Term>> = vec![Vec::new()];
    for goal in body {
        let choices = goal_alternatives(goal);
        let mut next = Vec::new();
        for alt in &alts {
            for c in &choices {
                let mut a = alt.clone();
                a.extend(c.clone());
                next.push(a);
            }
        }
        alts = next;
    }
    alts
}

fn goal_alternatives(goal: &Term) -> Vec<Vec<Term>> {
    if let Term::Struct(s, args) = goal {
        let name = sym_name(*s);
        if name == ";" && args.len() == 2 {
            // (C -> T ; E): groundness-wise, (C, T) or (E).
            if let Term::Struct(is, iargs) = &args[0] {
                if sym_name(*is) == "->" && iargs.len() == 2 {
                    let mut left = Vec::new();
                    for g in [&iargs[0], &iargs[1]] {
                        left.extend(flatten(g));
                    }
                    let mut out = expand_seq(&left);
                    out.extend(expand_seq(&flatten(&args[1])));
                    return out;
                }
            }
            let mut out = expand_seq(&flatten(&args[0]));
            out.extend(expand_seq(&flatten(&args[1])));
            return out;
        }
        if name == "->" && args.len() == 2 {
            let mut seq = flatten(&args[0]);
            seq.extend(flatten(&args[1]));
            return expand_seq(&seq);
        }
    }
    vec![vec![goal.clone()]]
}

fn expand_seq(goals: &[Term]) -> Vec<Vec<Term>> {
    expand_disjunctions(goals)
}

fn flatten(t: &Term) -> Vec<Term> {
    if let Term::Struct(s, args) = t {
        if sym_name(*s) == "," && args.len() == 2 {
            let mut out = flatten(&args[0]);
            out.extend(flatten(&args[1]));
            return out;
        }
    }
    vec![t.clone()]
}

/// Applies the Figure 1 transformation, returning the abstract rules and
/// the set of user predicates (with their source arities).
///
/// # Errors
///
/// Returns [`AnalysisError::Unsupported`] on clause heads that are not
/// callable.
pub fn transform_program(
    program: &Program,
    iff_mode: IffMode,
) -> Result<(Vec<Rule>, PredSet), AnalysisError> {
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
    let mut max_iff = 0usize;
    for c in &program.clauses {
        let f = c.head.functor().expect("checked above");
        for alt in expand_disjunctions(&c.body) {
            if let Some(rule) =
                transform_clause(&c.head, &alt, c.nvars, f, &defined, iff_mode, &mut max_iff)?
            {
                rules.push(rule);
            }
        }
    }

    if iff_mode == IffMode::Facts {
        rules.extend(iff_fact_rules(max_iff));
    }
    Ok((rules, preds))
}

fn transform_clause(
    head: &Term,
    body: &[Term],
    nvars: usize,
    f: Functor,
    defined: &std::collections::HashSet<(tablog_term::Sym, usize)>,
    iff_mode: IffMode,
    max_iff: &mut usize,
) -> Result<Option<Rule>, AnalysisError> {
    let mut ctx = Ctx {
        next_var: (nvars + f.arity) as u32,
        body: Vec::new(),
        iff_mode,
        max_iff_arity: 0,
    };
    // Head: gp$p(X1..Xn) with iff(Xi, vars(ti)).
    let head_vars: Vec<Term> = (0..f.arity)
        .map(|i| Term::Var(Var((nvars + i) as u32)))
        .collect();
    for (i, t) in head.args().iter().enumerate() {
        ctx.emit_iff(head_vars[i].clone(), t);
    }
    // Body.
    for goal in body {
        if !transform_goal(goal, defined, &mut ctx)? {
            // Goal can never succeed: drop the whole clause.
            return Ok(None);
        }
    }
    *max_iff = (*max_iff).max(ctx.max_iff_arity);
    Ok(Some(Rule::new(
        build(gp_functor(f.name, f.arity), head_vars),
        ctx.body,
    )))
}

/// Transforms one body goal; returns `false` if the goal certainly fails.
fn transform_goal(
    goal: &Term,
    defined: &std::collections::HashSet<(tablog_term::Sym, usize)>,
    ctx: &mut Ctx,
) -> Result<bool, AnalysisError> {
    let Some(f) = goal.functor() else {
        // A variable goal: meta-call of unknown shape; no groundness info.
        return Ok(true);
    };
    let name = sym_name(f.name);
    let args = goal.args();
    match (name.as_str(), f.arity) {
        ("true", 0) | ("!", 0) => Ok(true),
        ("fail", 0) | ("false", 0) => Ok(false),
        ("=", 2) | ("==", 2) | ("=..", 2) => {
            // Groundness of the two sides coincides.
            let alpha = ctx.fresh();
            ctx.emit_iff(alpha.clone(), &args[0]);
            ctx.emit_iff(alpha, &args[1]);
            Ok(true)
        }
        ("is", 2) => {
            // The expression must be ground to evaluate; the result is then
            // ground too.
            ctx.emit_all_ground(&args[1]);
            ctx.emit_all_ground(&args[0]);
            Ok(true)
        }
        ("<", 2) | (">", 2) | ("=<", 2) | (">=", 2) | ("=:=", 2) | ("=\\=", 2) => {
            ctx.emit_all_ground(&args[0]);
            ctx.emit_all_ground(&args[1]);
            Ok(true)
        }
        ("atom", 1) | ("atomic", 1) | ("number", 1) | ("integer", 1) | ("ground", 1) => {
            ctx.emit_all_ground(&args[0]);
            Ok(true)
        }
        ("\\+", 1)
        | ("not", 1)
        | ("var", 1)
        | ("nonvar", 1)
        | ("compound", 1)
        | ("\\=", 2)
        | ("\\==", 2)
        | ("@<", 2)
        | ("@>", 2)
        | ("@=<", 2)
        | ("@>=", 2) => {
            // No bindings exported (or no groundness information): drop.
            Ok(true)
        }
        ("functor", 3) => {
            ctx.emit_all_ground(&args[1]);
            ctx.emit_all_ground(&args[2]);
            Ok(true)
        }
        ("arg", 3) => {
            ctx.emit_all_ground(&args[0]);
            Ok(true)
        }
        ("call", 1) => {
            if args[0].functor().is_some() && !args[0].is_var() {
                transform_goal(&args[0], defined, ctx)
            } else {
                Ok(true)
            }
        }
        _ => {
            if defined.contains(&(f.name, f.arity)) {
                // User predicate: fresh α per argument, then gp$q(α…).
                let alphas: Vec<Term> = (0..f.arity).map(|_| ctx.fresh()).collect();
                for (alpha, t) in alphas.iter().zip(args) {
                    ctx.emit_iff(alpha.clone(), t);
                }
                ctx.body.push(build(gp_functor(f.name, f.arity), alphas));
                Ok(true)
            } else {
                // Unknown predicate: assume it may succeed without
                // grounding anything (sound over-approximation).
                Ok(true)
            }
        }
    }
}

/// Generates the `iff$k` fact predicates up to arity `max_k`.
fn iff_fact_rules(max_k: usize) -> Vec<Rule> {
    let mut out = Vec::new();
    for k in 0..=max_k {
        let name = format!("iff${k}");
        for mask in 0u64..(1u64 << k) {
            let ys: Vec<bool> = (0..k).map(|i| mask & (1 << i) != 0).collect();
            let x = ys.iter().all(|&b| b);
            let mut args = vec![atom(if x { "true" } else { "false" })];
            args.extend(ys.iter().map(|&b| atom(if b { "true" } else { "false" })));
            out.push(Rule::new(structure(&name, args), Vec::new()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const APPEND: &str = "
        app([], Ys, Ys).
        app([X|Xs], Ys, [X|Zs]) :- app(Xs, Ys, Zs).
    ";

    #[test]
    fn figure2_append_success_set() {
        let report = GroundnessAnalyzer::new().analyze_source(APPEND).unwrap();
        let g = report.output_groundness("app", 3).unwrap();
        // The output groundness of append is X ∧ Y ⇔ Z (paper, Section 3.1).
        let expect = PropTable::top(3).constrain_iff(2, &[0, 1]);
        assert_eq!(g.prop, expect);
        assert_eq!(g.definitely_ground, vec![false, false, false]);
    }

    #[test]
    fn facts_mode_matches_builtin_mode() {
        let builtin = GroundnessAnalyzer::new().analyze_source(APPEND).unwrap();
        let mut a = GroundnessAnalyzer::new();
        a.iff_mode = IffMode::Facts;
        let facts = a.analyze_source(APPEND).unwrap();
        let g1 = builtin.output_groundness("app", 3).unwrap();
        let g2 = facts.output_groundness("app", 3).unwrap();
        assert_eq!(g1.prop, g2.prop);
    }

    #[test]
    fn compiled_mode_matches_dynamic() {
        let mut a = GroundnessAnalyzer::new();
        a.load_mode = LoadMode::Compiled;
        let compiled = a.analyze_source(APPEND).unwrap();
        let dynamic = GroundnessAnalyzer::new().analyze_source(APPEND).unwrap();
        assert_eq!(
            compiled.output_groundness("app", 3).unwrap().prop,
            dynamic.output_groundness("app", 3).unwrap().prop
        );
    }

    #[test]
    fn ground_fact_predicates() {
        let src = "p(a). p(f(b)). q(X) :- p(X).";
        let report = GroundnessAnalyzer::new().analyze_source(src).unwrap();
        let p = report.output_groundness("p", 1).unwrap();
        assert_eq!(p.definitely_ground, vec![true]);
        let q = report.output_groundness("q", 1).unwrap();
        assert_eq!(q.definitely_ground, vec![true]);
    }

    #[test]
    fn arithmetic_grounds_results() {
        let src = "inc(X, Y) :- Y is X + 1.";
        let report = GroundnessAnalyzer::new().analyze_source(src).unwrap();
        let g = report.output_groundness("inc", 2).unwrap();
        assert_eq!(g.definitely_ground, vec![true, true]);
    }

    #[test]
    fn unification_links_groundness() {
        let src = "same(X, Y) :- X = Y.";
        let report = GroundnessAnalyzer::new().analyze_source(src).unwrap();
        let g = report.output_groundness("same", 2).unwrap();
        // X ⇔ Y.
        let expect = PropTable::top(2).constrain_iff(0, &[1]);
        assert_eq!(g.prop, expect);
    }

    #[test]
    fn disjunction_union_of_branches() {
        let src = "p(X, Y) :- (X = a ; Y = b).";
        let report = GroundnessAnalyzer::new().analyze_source(src).unwrap();
        let g = report.output_groundness("p", 2).unwrap();
        assert_eq!(g.definitely_ground, vec![false, false]);
        // Union of the branches: X ∨ Y — three rows.
        assert_eq!(g.prop.count(), 3);
    }

    #[test]
    fn failing_clause_is_dropped() {
        let src = "p(X) :- fail. p(a).";
        let report = GroundnessAnalyzer::new().analyze_source(src).unwrap();
        let g = report.output_groundness("p", 1).unwrap();
        assert_eq!(g.definitely_ground, vec![true]);
    }

    #[test]
    fn cut_and_negation_are_sound() {
        let src = "p(X) :- q(X), !, \\+ r(X). q(a). r(b).";
        let report = GroundnessAnalyzer::new().analyze_source(src).unwrap();
        let g = report.output_groundness("p", 1).unwrap();
        assert_eq!(g.definitely_ground, vec![true]);
    }

    #[test]
    fn entry_points_record_input_groundness() {
        let src = "
            qs([], []).
            qs([X|Xs], S) :- qs(Xs, S0), ins(X, S0, S).
            ins(X, [], [X]).
            ins(X, [Y|Ys], [X,Y|Ys]) :- X =< Y.
            ins(X, [Y|Ys], [Y|Zs]) :- X > Y, ins(X, Ys, Zs).
        ";
        let program = parse_program(src).unwrap();
        let entry = EntryPoint::parse("qs(g, f)").unwrap();
        let report = GroundnessAnalyzer::new()
            .analyze_with_entries(&program, &[entry])
            .unwrap();
        let ins = report.output_groundness("ins", 3).unwrap();
        // Called from qs with ground first list: ins sees ground args 1, 2.
        assert!(!ins.call_patterns.is_empty());
        for call in &ins.call_patterns {
            assert_eq!(call[0], Some(true), "{call:?}");
            assert_eq!(call[1], Some(true), "{call:?}");
        }
        let qs = report.output_groundness("qs", 2).unwrap();
        assert_eq!(qs.definitely_ground, vec![true, true]);
    }

    #[test]
    fn if_then_else_branches() {
        let src = "m(X, Y) :- (X = a -> Y = b ; Y = c).";
        let report = GroundnessAnalyzer::new().analyze_source(src).unwrap();
        let g = report.output_groundness("m", 2).unwrap();
        // Both branches ground Y; only the then-branch grounds X.
        assert_eq!(g.definitely_ground, vec![false, true]);
    }

    #[test]
    fn mutual_recursion() {
        let src = "
            even(0).
            even(s(X)) :- odd(X).
            odd(s(X)) :- even(X).
        ";
        let report = GroundnessAnalyzer::new().analyze_source(src).unwrap();
        assert_eq!(
            report
                .output_groundness("even", 1)
                .unwrap()
                .definitely_ground,
            vec![true]
        );
        assert_eq!(
            report
                .output_groundness("odd", 1)
                .unwrap()
                .definitely_ground,
            vec![true]
        );
    }

    #[test]
    fn bdd_backend_matches_table_backend() {
        let table = GroundnessAnalyzer::new().analyze_source(APPEND).unwrap();
        let mut a = GroundnessAnalyzer::new();
        a.options.domain = DomainKind::Bdd;
        let bdd = a.analyze_source(APPEND).unwrap();
        assert_eq!(table.domain, DomainKind::Table);
        assert_eq!(bdd.domain, DomainKind::Bdd);
        let gt = table.output_groundness("app", 3).unwrap();
        let gb = bdd.output_groundness("app", 3).unwrap();
        assert_eq!(gt.prop, gb.prop);
        assert_eq!(gt.definitely_ground, gb.definitely_ground);
        // The table backend charges nothing beyond the engine's tables;
        // the BDD backend accounts its manager.
        assert_eq!(table.domain_bytes, 0);
        assert_eq!(table.bdd_nodes, 0);
        assert!(bdd.bdd_nodes > 0);
        assert!(bdd.table_bytes() > bdd.stats.table_bytes);
    }

    #[test]
    fn timings_and_table_space_reported() {
        let report = GroundnessAnalyzer::new().analyze_source(APPEND).unwrap();
        assert!(report.table_bytes() > 0);
        assert!(report.timings.total() > std::time::Duration::ZERO);
    }

    #[test]
    fn entry_parse_rejects_bad_spec() {
        assert!(EntryPoint::parse("qs(g, x)").is_err());
    }

    #[test]
    fn compile_time_measures_load() {
        let d = compile_time(APPEND, LoadMode::Dynamic).unwrap();
        assert!(d > std::time::Duration::ZERO);
    }
}
