//! A hand-coded, special-purpose Prop groundness analyzer — the
//! reproduction's stand-in for GAIA in the paper's Table 2.
//!
//! Where the declarative route (module [`crate::groundness`]) *generates a
//! logic program* and hands it to the general-purpose tabled engine, this
//! module is written the way one writes a dedicated abstract interpreter:
//! a goal-directed fixpoint over `(predicate, call pattern)` pairs with an
//! explicit worklist, dependency tracking, and Prop-domain operations
//! with live-variable narrowing. Both implement exactly the same
//! analysis, so their results must coincide — one of the reproduction's
//! integration tests — and their running times are Table 2.
//!
//! The solver is generic over [`AbstractDomain`], so the same worklist
//! runs on enumerative truth tables ([`tablog_domain::TableDomain`], the
//! default) or on BDD-backed Pos ([`tablog_domain::BddDomain`]); pick the
//! backend with [`DirectAnalyzer::domain`].

use crate::analysis::{functor, run, Analysis, Explained, Input, Outcome, Run, Solve};
use crate::error::AnalysisError;
use crate::groundness::{
    check_arity, render_domain, transform_program, EntryPoint, IffMode, PredSet, GP_PREFIX,
};
use crate::pipeline::PhaseTimings;
use crate::prop::{PropTable, MAX_VARS};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::fmt::{self, Write as _};
use std::sync::Arc;
use tablog_domain::{AbstractDomain, BddDomain, DomainKind, TableDomain};
use tablog_engine::EngineOptions;
use tablog_syntax::{parse_program, Program};
use tablog_term::{sym_name, Functor, Term};
use tablog_trace::{MetricsReport, PredStats, TraceSink};

/// An abstract clause compiled to a fixed schedule of domain operations.
///
/// The evaluation table has one column per live variable. Which variables
/// are live before and after each goal depends only on the clause, so
/// lowering works out every column position, extension and narrowing once
/// and evaluation just replays them against a call pattern.
#[derive(Debug)]
struct AbsClause {
    /// Width of the result: one column per head argument.
    arity: usize,
    steps: Vec<Step>,
    /// Columns of the head arguments after the last step.
    head_cols: Vec<usize>,
}

/// One goal of a compiled clause.
#[derive(Debug)]
struct Step {
    goal: StepGoal,
    /// Fresh columns the goal's unseen variables add, appended before it.
    extend: u32,
    /// Table width once they are added.
    width: u32,
    /// Bit `c` set: column `c` is dead after the goal and is projected
    /// away, the survivors keeping their order. Meaningless when `width`
    /// is over the cap, since such a step fails before narrowing.
    dropped: u32,
}

#[derive(Debug)]
enum StepGoal {
    /// `x ⇔ y1 ∧ … ∧ yk`, over columns.
    Iff(usize, Vec<usize>),
    /// A call to a user predicate with arguments at these columns.
    Call(Functor, Vec<usize>),
}

/// Goals in the dense variable ids of one clause, before compilation.
enum AbsGoal {
    Iff(usize, Vec<usize>),
    Call(Functor, Vec<usize>),
}

impl AbsGoal {
    /// The variables the goal mentions, in argument order.
    fn vars(&self) -> impl Iterator<Item = usize> + '_ {
        let (first, rest) = match self {
            AbsGoal::Iff(x, ys) => (Some(*x), ys.as_slice()),
            AbsGoal::Call(_, args) => (None, args.as_slice()),
        };
        first.into_iter().chain(rest.iter().copied())
    }
}

type Clauses = HashMap<Functor, Vec<AbsClause>>;

/// Results of the direct analyzer for one predicate.
#[derive(Clone, Debug)]
pub struct DirectGroundness {
    /// Source predicate name.
    pub name: String,
    /// Arity.
    pub arity: usize,
    /// Output groundness formula (union over all analyzed call patterns).
    pub prop: PropTable,
    /// Per-argument meet: definitely ground on success.
    pub definitely_ground: Vec<bool>,
}

/// The collected result of a direct-analyzer run; see [`DirectReport`].
#[derive(Clone, Debug)]
pub struct DirectResult {
    preds: BTreeMap<(String, usize), DirectGroundness>,
    /// Number of `(predicate, call pattern)` pairs analyzed.
    pub pairs: usize,
    /// Worklist iterations performed.
    pub iterations: usize,
    /// The Prop-domain backend the analysis ran on.
    pub domain: DomainKind,
    /// Bytes attributed to the domain backend itself (BDD manager arena
    /// and memo tables); `0` under the enumerative table backend.
    pub domain_bytes: usize,
    /// Live BDD nodes in the backend's manager; `0` under the table
    /// backend.
    pub bdd_nodes: usize,
}

/// The complete report of a direct-analyzer run. Its
/// [`metrics`](Run::metrics) are present iff the analyzer's
/// [`profile`](DirectAnalyzer::profile) flag was set. The direct analyzer
/// has no engine, so their rows are built from its own worklist counters:
/// `subgoals` = call patterns, `clause_resolutions` = clause evaluations,
/// `completed` = pairs solved to fixpoint.
pub type DirectReport = Run<DirectResult>;

impl DirectResult {
    /// Result for one predicate.
    pub fn output_groundness(&self, name: &str, arity: usize) -> Option<&DirectGroundness> {
        self.preds.get(&(name.to_owned(), arity))
    }

    /// All analyzed predicates, sorted by name.
    pub fn predicates(&self) -> impl Iterator<Item = &DirectGroundness> {
        self.preds.values()
    }
}

impl Outcome for DirectResult {
    fn render(&self, timings: &PhaseTimings) -> String {
        let mut out = String::new();
        for p in self.predicates() {
            let _ = writeln!(
                out,
                "{}/{}: ground={:?} models={}",
                p.name,
                p.arity,
                p.definitely_ground,
                p.prop.count()
            );
        }
        let _ = writeln!(
            out,
            "pairs={} iterations={} total={:?}",
            self.pairs,
            self.iterations,
            timings.total()
        );
        out + &render_domain(self.domain, self.bdd_nodes, self.domain_bytes)
    }
}

/// The success-set rows one clause contributes at fixpoint.
#[derive(Clone, Debug)]
pub struct DirectClauseSupport {
    /// Clause position within the predicate, in source order.
    pub clause_index: usize,
    /// Rows of the clause's contribution (each `arity` long, `true` =
    /// ground).
    pub rows: Vec<Vec<bool>>,
}

/// A clause-contribution explanation of one direct-analyzer result; see
/// [`DirectAnalyzer::explain`].
#[derive(Clone, Debug)]
pub struct DirectExplanation {
    /// The goal as given (`app(g, f, f)` notation).
    pub goal: String,
    /// Predicate name.
    pub name: String,
    /// Arity.
    pub arity: usize,
    /// The fixpoint success set under the goal's call pattern.
    pub rows: Vec<Vec<bool>>,
    /// Per-clause contributions; their union is [`rows`](Self::rows).
    pub clauses: Vec<DirectClauseSupport>,
}

fn row_str(row: &[bool]) -> String {
    row.iter().map(|&b| if b { 'g' } else { 'f' }).collect()
}

impl DirectExplanation {
    /// `true` if the pattern has an empty success set.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl Explained for DirectExplanation {
    /// Renders the fixpoint rows and each clause's contribution as text.
    fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let fmt_rows = |rows: &[Vec<bool>]| -> String {
            if rows.is_empty() {
                "(none)".to_owned()
            } else {
                rows.iter()
                    .map(|r| row_str(r))
                    .collect::<Vec<_>>()
                    .join(", ")
            }
        };
        let mut out = format!(
            "goal: {}\n{}/{} fixpoint rows: {}\n",
            self.goal,
            self.name,
            self.arity,
            fmt_rows(&self.rows)
        );
        for c in &self.clauses {
            let _ = writeln!(out, "  clause #{}: {}", c.clause_index, fmt_rows(&c.rows));
        }
        out
    }

    /// Renders the explanation as one JSON object; rows are `g`/`f`
    /// strings, one character per argument.
    fn to_json(&self) -> String {
        use std::fmt::Write as _;
        use tablog_trace::json::escape;
        let push_rows = |s: &mut String, rows: &[Vec<bool>]| {
            s.push('[');
            for (i, r) in rows.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "\"{}\"", row_str(r));
            }
            s.push(']');
        };
        let mut s = format!(
            "{{\"goal\":\"{}\",\"pred\":\"{}/{}\",\"rows\":",
            escape(&self.goal),
            escape(&self.name),
            self.arity
        );
        push_rows(&mut s, &self.rows);
        s.push_str(",\"clauses\":[");
        for (i, c) in self.clauses.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{{\"index\":{},\"rows\":", c.clause_index);
            push_rows(&mut s, &c.rows);
            s.push('}');
        }
        s.push_str("]}");
        s
    }
}

type Key<D> = (Functor, <D as AbstractDomain>::Value);

/// A pattern's fixpoint rows and each clause's contribution to them.
type Explanation = (Vec<Vec<bool>>, Vec<DirectClauseSupport>);

/// The worklist fixpoint solver, generic over the Prop-domain backend.
/// `(predicate, call pattern)` pairs key the result table; since every
/// backend's `Value` is canonical (bitsets for tables, hash-consed node
/// handles for BDDs), `Eq`/`Hash` on values is semantic equality and the
/// keys behave identically across backends.
struct Solver<D: AbstractDomain> {
    domain: D,
    results: HashMap<Key<D>, D::Value>,
    deps: HashMap<Key<D>, HashSet<Key<D>>>,
    queue: VecDeque<Key<D>>,
    queued: HashSet<Key<D>>,
    iterations: usize,
    /// Per-functor counters, maintained only when profiling.
    profile: Option<BTreeMap<Functor, PredStats>>,
}

impl<D: AbstractDomain> Solver<D> {
    /// A solver over the lowered clauses that demands every entry's call
    /// pattern, or without entries every predicate with open arguments.
    fn new(
        domain: D,
        preds: &PredSet,
        entries: &[EntryPoint],
        profile: bool,
    ) -> Result<Self, AnalysisError> {
        let mut s = Solver {
            domain,
            results: HashMap::new(),
            deps: HashMap::new(),
            queue: VecDeque::new(),
            queued: HashSet::new(),
            iterations: 0,
            profile: profile.then(BTreeMap::new),
        };
        if entries.is_empty() {
            for &(name, arity) in preds.keys() {
                let f = functor(GP_PREFIX, name, arity);
                check_arity(f)?;
                let top = s.domain.top(arity);
                s.demand(f, top, None);
            }
        }
        for e in entries {
            let (f, cp) = s.entry_key(e)?;
            s.demand(f, cp, None);
        }
        Ok(s)
    }

    /// The predicate and call pattern of an entry point.
    fn entry_key(&mut self, e: &EntryPoint) -> Result<Key<D>, AnalysisError> {
        let arity = e.ground_args.len();
        let f = functor(GP_PREFIX, &e.name, arity);
        check_arity(f)?;
        let mut cp = self.domain.top(arity);
        for (i, &g) in e.ground_args.iter().enumerate() {
            if g {
                cp = self.domain.constrain_value(&cp, i, true);
            }
        }
        Ok((f, cp))
    }

    fn demand(&mut self, f: Functor, pattern: D::Value, caller: Option<&Key<D>>) -> D::Value {
        let key = (f, pattern);
        if let Some(c) = caller {
            self.deps.entry(key.clone()).or_default().insert(c.clone());
        }
        if let Some(r) = self.results.get(&key) {
            return r.clone();
        }
        if let Some(stats) = self.profile.as_mut() {
            stats.entry(f).or_default().subgoals += 1;
        }
        let bottom = self.domain.bottom(f.arity);
        self.results.insert(key.clone(), bottom.clone());
        if self.queued.insert(key.clone()) {
            self.queue.push_back(key);
        }
        bottom
    }

    fn run(&mut self, clauses: &Clauses) -> Result<(), AnalysisError> {
        while let Some(key) = self.queue.pop_front() {
            self.queued.remove(&key);
            self.iterations += 1;
            let own = clauses.get(&key.0).map_or(&[][..], Vec::as_slice);
            let computed = self.evaluate(own, &key)?;
            let slot = self.results.get_mut(&key).expect("seeded");
            let merged = self.domain.join(slot, &computed);
            if merged != *slot {
                *slot = merged;
                for c in self.deps.get(&key).into_iter().flatten() {
                    if self.queued.insert(c.clone()) {
                        self.queue.push_back(c.clone());
                    }
                }
            }
        }
        Ok(())
    }

    fn evaluate(&mut self, clauses: &[AbsClause], key: &Key<D>) -> Result<D::Value, AnalysisError> {
        let (f, pattern) = key;
        if let Some(stats) = self.profile.as_mut() {
            stats.entry(*f).or_default().clause_resolutions += clauses.len() as u64;
        }
        let mut acc = self.domain.bottom(f.arity);
        for clause in clauses {
            let t = self.eval_clause(clause, pattern, key)?;
            acc = self.domain.join(&acc, &t);
        }
        Ok(acc)
    }

    fn eval_clause(
        &mut self,
        clause: &AbsClause,
        pattern: &D::Value,
        key: &Key<D>,
    ) -> Result<D::Value, AnalysisError> {
        let mut table = pattern.clone();
        for step in &clause.steps {
            if step.width as usize > MAX_VARS {
                return Err(AnalysisError::Unsupported(format!(
                    "clause needs more than {MAX_VARS} live Prop variables"
                )));
            }
            if step.extend > 0 {
                table = self.domain.extend(&table, step.extend as usize);
            }
            match &step.goal {
                StepGoal::Iff(x, ys) => {
                    table = self.domain.constrain_iff(&table, *x, ys);
                }
                StepGoal::Call(g, cols) => {
                    check_arity(*g)?;
                    let cp = self.domain.project(&table, cols);
                    let r = self.demand(*g, cp, Some(key));
                    table = self.domain.constrain_relation(&table, cols, &r);
                }
            }
            if self.domain.is_empty(&table) {
                return Ok(self.domain.bottom(clause.arity));
            }
            if step.dropped != 0 {
                let mut kept = !step.dropped & (u32::MAX >> (32 - step.width));
                let mut keep = [0usize; MAX_VARS];
                let keep = &mut keep[..kept.count_ones() as usize];
                for c in keep.iter_mut() {
                    *c = kept.trailing_zeros() as usize;
                    kept &= kept - 1;
                }
                table = self.domain.project(&table, keep);
            }
        }
        Ok(self.domain.project(&table, &clause.head_cols))
    }

    /// Merges the results per predicate, exporting the joined value as an
    /// enumerative truth table so `DirectGroundness` has one canonical
    /// output form regardless of backend.
    fn collect(&mut self, preds: &PredSet) -> DirectResult {
        let mut out = BTreeMap::new();
        for &(name, arity) in preds.keys() {
            let f = functor(GP_PREFIX, name, arity);
            let matching: Vec<D::Value> = self
                .results
                .iter()
                .filter(|(k, _)| k.0 == f)
                .map(|(_, r)| r.clone())
                .collect();
            if matching.is_empty() {
                continue; // unreachable from the entries
            }
            let mut merged = self.domain.bottom(arity);
            for r in &matching {
                merged = self.domain.join(&merged, r);
            }
            let prop = self.domain.to_table(&merged);
            let definitely_ground = (0..arity).map(|i| prop.definitely(i)).collect();
            out.insert(
                (sym_name(name), arity),
                DirectGroundness {
                    name: sym_name(name),
                    arity,
                    prop,
                    definitely_ground,
                },
            );
        }
        let domain_stats = self.domain.stats();
        DirectResult {
            preds: out,
            pairs: self.results.len(),
            iterations: self.iterations,
            domain: self.domain.kind(),
            domain_bytes: domain_stats.bytes,
            bdd_nodes: domain_stats.nodes,
        }
    }

    /// The per-predicate worklist counters as metrics rows; every seeded
    /// pair reached fixpoint once the worklist drained.
    fn metrics_rows(&self) -> Vec<(String, PredStats)> {
        let mut stats = self.profile.clone().unwrap_or_default();
        for (f, _) in self.results.keys() {
            stats.entry(*f).or_default().completed += 1;
        }
        let mut rows: Vec<(String, PredStats)> =
            stats.iter().map(|(f, s)| (f.to_string(), *s)).collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows
    }

    /// Explains the fixpoint of entry `e`'s call pattern: its rows, then
    /// each clause of its predicate re-evaluated once against the
    /// fixpoint.
    fn explain(&mut self, clauses: &Clauses, e: &EntryPoint) -> Result<Explanation, AnalysisError> {
        let key = &self.entry_key(e)?;
        let rows = match self.results.get(key).cloned() {
            Some(v) => self.domain.to_table(&v).rows(),
            None => Vec::new(),
        };
        let own = clauses.get(&key.0).map_or(&[][..], Vec::as_slice);
        let mut support = Vec::new();
        for (ci, clause) in own.iter().enumerate() {
            let t = self.eval_clause(clause, &key.1, key)?;
            support.push(DirectClauseSupport {
                clause_index: ci,
                rows: self.domain.to_table(&t).rows(),
            });
        }
        Ok((rows, support))
    }
}

/// `P♯` for the direct analyzer, and its fixpoint: the lowered clauses
/// and the worklist solver on the selected Prop-domain backend.
pub struct Worklist {
    clauses: Clauses,
    solver: Backend,
}

enum Backend {
    Table(Solver<TableDomain>),
    Bdd(Solver<BddDomain>),
}

impl Solve for Worklist {
    type Fixpoint = Worklist;

    /// Runs the worklist; [`DirectAnalyzer`] runs no engine, so sets no budget.
    fn solve(mut self, _: &EngineOptions) -> Result<Worklist, AnalysisError> {
        match &mut self.solver {
            Backend::Table(s) => s.run(&self.clauses)?,
            Backend::Bdd(s) => s.run(&self.clauses)?,
        }
        Ok(self)
    }

    fn stamp(fixpoint: &Worklist, options: &EngineOptions, report: &mut MetricsReport) {
        report.preds = match &fixpoint.solver {
            Backend::Table(s) => s.metrics_rows(),
            Backend::Bdd(s) => s.metrics_rows(),
        };
        report.options = vec![
            ("analyzer".to_string(), "direct".to_string()),
            ("domain".to_string(), options.domain.name().to_string()),
        ];
    }
}

/// The direct (special-purpose) groundness analyzer.
#[derive(Clone, Default)]
pub struct DirectAnalyzer {
    /// Collect per-predicate worklist metrics and phase timings into
    /// [`Run::metrics`].
    pub profile: bool,
    /// Record the `analysis` / `collection` phase spans into `trace` and,
    /// when profiling, the metrics report's span tree, on the same
    /// process-wide timeline the engine's spans use — so the direct
    /// analyzer's phases line up with the declarative analyzers'.
    pub record_spans: bool,
    /// Which Prop-domain backend the worklist solver runs on. The
    /// default enumerative [`DomainKind::Table`] matches the historical
    /// analyzer bit for bit; [`DomainKind::Bdd`] computes the same
    /// results on hash-consed BDDs.
    pub domain: DomainKind,
    /// The caller's sink for the phase spans.
    pub trace: Option<Arc<dyn TraceSink>>,
}

impl fmt::Debug for DirectAnalyzer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DirectAnalyzer")
            .field("profile", &self.profile)
            .field("record_spans", &self.record_spans)
            .field("domain", &self.domain)
            .finish_non_exhaustive()
    }
}

impl DirectAnalyzer {
    /// Creates the analyzer.
    pub fn new() -> Self {
        DirectAnalyzer::default()
    }

    /// Parses and analyzes `src` with fully open call patterns.
    ///
    /// # Errors
    ///
    /// Returns parse errors, or [`AnalysisError::Unsupported`] if a clause
    /// exceeds the truth-table width limit.
    pub fn analyze_source(&self, src: &str) -> Result<DirectReport, AnalysisError> {
        run(self, Input::Source(src), &[])
    }

    /// Analyzes a parsed program with fully open call patterns.
    ///
    /// # Errors
    ///
    /// As [`DirectAnalyzer::analyze_source`].
    pub fn analyze_program(&self, program: &Program) -> Result<DirectReport, AnalysisError> {
        run(self, Input::Parsed(program), &[])
    }

    /// Goal-directed analysis from entry points.
    ///
    /// # Errors
    ///
    /// As [`DirectAnalyzer::analyze_source`].
    pub fn analyze_with_entries(
        &self,
        program: &Program,
        entries: &[EntryPoint],
    ) -> Result<DirectReport, AnalysisError> {
        run(self, Input::Parsed(program), entries)
    }
}

impl Analysis for DirectAnalyzer {
    type Program = Program;
    type Abstract = Worklist;
    type Plan = PredSet;
    type Result = DirectResult;
    type Explanation = DirectExplanation;

    fn parse(src: &str) -> Result<Program, AnalysisError> {
        Ok(parse_program(src)?)
    }

    fn profile(&self) -> bool {
        self.profile
    }

    fn options(&self) -> EngineOptions {
        EngineOptions {
            domain: self.domain,
            trace: self.trace.clone(),
            record_spans: self.record_spans,
            ..EngineOptions::default()
        }
    }

    fn load(
        &self,
        program: &Program,
        entries: &[EntryPoint],
    ) -> Result<(Worklist, PredSet), AnalysisError> {
        // The Figure 1 transform, then the abstract rules compiled clause
        // by clause into the analyzer's internal form.
        let (rules, preds) = transform_program(program, IffMode::Builtin)?;
        let mut clauses = Clauses::new();
        for r in &rules {
            let f = r.head.functor().expect("abstract heads are callable");
            clauses.entry(f).or_default().push(lower_clause(r)?);
        }
        let (p, e) = (self.profile, entries);
        let solver = match self.domain {
            DomainKind::Table => Backend::Table(Solver::new(TableDomain, &preds, e, p)?),
            DomainKind::Bdd => Backend::Bdd(Solver::new(BddDomain::new(), &preds, e, p)?),
        };
        Ok((Worklist { clauses, solver }, preds))
    }

    fn collect(&self, _: &Program, preds: PredSet, fixpoint: &mut Worklist) -> DirectResult {
        match &mut fixpoint.solver {
            Backend::Table(s) => s.collect(&preds),
            Backend::Bdd(s) => s.collect(&preds),
        }
    }

    /// Explains one fixpoint result: `goal` is an [`EntryPoint`]-style call
    /// pattern (`app(g, f, f)` — `g`round / `f`ree). The analyzer runs to
    /// fixpoint from that pattern, then re-evaluates each clause of the
    /// predicate once against the fixpoint to report which success-set rows
    /// each clause contributes — the worklist analog of a justification
    /// tree, since the hand-coded analyzer keeps no tables to walk (so
    /// `max_depth` does not apply).
    fn explain(
        &self,
        program: &Program,
        goal: &str,
        _max_depth: usize,
    ) -> Result<DirectExplanation, AnalysisError> {
        let e = EntryPoint::parse(goal)?;
        let arity = e.ground_args.len();
        let (worklist, preds) = self.load(program, std::slice::from_ref(&e))?;
        if !preds.contains_key(&(tablog_term::intern(&e.name), arity)) {
            return Err(AnalysisError::Unsupported(format!(
                "unknown predicate {}/{arity} in goal {goal}",
                e.name
            )));
        }
        let Worklist { clauses, solver } = worklist.solve(&self.options())?;
        let (rows, clauses) = match solver {
            Backend::Table(mut s) => s.explain(&clauses, &e)?,
            Backend::Bdd(mut s) => s.explain(&clauses, &e)?,
        };
        Ok(DirectExplanation {
            goal: goal.to_owned(),
            name: e.name,
            arity,
            rows,
            clauses,
        })
    }
}

fn lower_clause(r: &tablog_magic::Rule) -> Result<AbsClause, AnalysisError> {
    let mut ids: HashMap<tablog_term::Var, usize> = HashMap::new();
    let mut id_of = |t: &Term| -> Result<usize, AnalysisError> {
        match t {
            Term::Var(v) => {
                let n = ids.len();
                Ok(*ids.entry(*v).or_insert(n))
            }
            other => Err(AnalysisError::Unsupported(format!(
                "non-variable argument {other} in abstract clause"
            ))),
        }
    };
    let head_vars: Vec<usize> = r
        .head
        .args()
        .iter()
        .map(&mut id_of)
        .collect::<Result<_, _>>()?;
    let mut goals = Vec::new();
    for lit in &r.body {
        let f = lit
            .functor()
            .ok_or_else(|| AnalysisError::Unsupported(format!("bad abstract literal {lit}")))?;
        let name = sym_name(f.name);
        if name == "$iff" {
            let x = id_of(&lit.args()[0])?;
            let ys: Vec<usize> = lit.args()[1..]
                .iter()
                .map(&mut id_of)
                .collect::<Result<_, _>>()?;
            goals.push(AbsGoal::Iff(x, ys));
        } else if name.starts_with(GP_PREFIX) {
            let args: Vec<usize> = lit
                .args()
                .iter()
                .map(&mut id_of)
                .collect::<Result<_, _>>()?;
            goals.push(AbsGoal::Call(f, args));
        } else {
            return Err(AnalysisError::Unsupported(format!(
                "unexpected literal {lit} in abstract clause"
            )));
        }
    }
    Ok(compile(&head_vars, &goals, ids.len()))
}

/// Compiles a lowered clause into its schedule. This replays the column
/// bookkeeping an evaluation would do — append each goal's unseen
/// variables, then drop the columns that are neither head variables nor
/// used by a later goal — and records the positions it finds.
fn compile(head_vars: &[usize], goals: &[AbsGoal], nvars: usize) -> AbsClause {
    let mut last_use = vec![0usize; nvars];
    for (i, g) in goals.iter().enumerate() {
        for v in g.vars() {
            last_use[v] = i;
        }
    }
    let col = |active: &[usize], v: usize| -> usize {
        active.iter().position(|&a| a == v).expect("active var")
    };
    let mut active = head_vars.to_vec();
    let mut steps = Vec::with_capacity(goals.len());
    for (i, goal) in goals.iter().enumerate() {
        let before = active.len();
        for v in goal.vars() {
            if !active.contains(&v) {
                active.push(v);
            }
        }
        let goal_cols = match goal {
            AbsGoal::Iff(x, ys) => StepGoal::Iff(
                col(&active, *x),
                ys.iter().map(|&y| col(&active, y)).collect(),
            ),
            AbsGoal::Call(g, args) => {
                StepGoal::Call(*g, args.iter().map(|&a| col(&active, a)).collect())
            }
        };
        let is_live = |v: usize| head_vars.contains(&v) || last_use[v] > i;
        let dropped = (0..active.len().min(MAX_VARS))
            .filter(|&c| !is_live(active[c]))
            .fold(0, |m, c| m | 1 << c);
        steps.push(Step {
            goal: goal_cols,
            extend: (active.len() - before) as u32,
            width: active.len() as u32,
            dropped,
        });
        active.retain(|&v| is_live(v));
    }
    AbsClause {
        arity: head_vars.len(),
        steps,
        head_cols: head_vars.iter().map(|&v| col(&active, v)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::groundness::GroundnessAnalyzer;

    fn bdd_analyzer() -> DirectAnalyzer {
        DirectAnalyzer {
            domain: DomainKind::Bdd,
            ..DirectAnalyzer::new()
        }
    }

    const APPEND: &str = "
        app([], Ys, Ys).
        app([X|Xs], Ys, [X|Zs]) :- app(Xs, Ys, Zs).
    ";

    #[test]
    fn append_formula_matches_tabled_engine() {
        let direct = DirectAnalyzer::new().analyze_source(APPEND).unwrap();
        let tabled = GroundnessAnalyzer::new().analyze_source(APPEND).unwrap();
        let d = direct.output_groundness("app", 3).unwrap();
        let t = tabled.output_groundness("app", 3).unwrap();
        assert_eq!(d.prop, t.prop);
        assert_eq!(d.definitely_ground, t.definitely_ground);
    }

    #[test]
    fn direct_handles_facts_and_chains() {
        let src = "p(a). q(X) :- p(X). r(X, Y) :- q(X), Y = f(X).";
        let direct = DirectAnalyzer::new().analyze_source(src).unwrap();
        assert_eq!(
            direct.output_groundness("r", 2).unwrap().definitely_ground,
            vec![true, true]
        );
    }

    #[test]
    fn goal_directed_restricts_reachability() {
        let src = "
            reached(X) :- helper(X).
            helper(a).
            island(b).
        ";
        let program = parse_program(src).unwrap();
        let entries = [EntryPoint::new("reached", &[false])];
        let report = DirectAnalyzer::new()
            .analyze_with_entries(&program, &entries)
            .unwrap();
        assert!(report.output_groundness("reached", 1).is_some());
        assert!(report.output_groundness("island", 1).is_none());
    }

    #[test]
    fn entry_groundness_matches_tabled() {
        let src = "
            qs([], []).
            qs([X|Xs], S) :- qs(Xs, S0), ins(X, S0, S).
            ins(X, [], [X]).
            ins(X, [Y|Ys], [X,Y|Ys]) :- X =< Y.
            ins(X, [Y|Ys], [Y|Zs]) :- X > Y, ins(X, Ys, Zs).
        ";
        let program = parse_program(src).unwrap();
        let entries = [EntryPoint::parse("qs(g, f)").unwrap()];
        let direct = DirectAnalyzer::new()
            .analyze_with_entries(&program, &entries)
            .unwrap();
        let tabled = GroundnessAnalyzer::new()
            .analyze_with_entries(&program, &entries)
            .unwrap();
        for p in ["qs", "ins"] {
            let arity = if p == "qs" { 2 } else { 3 };
            let d = direct.output_groundness(p, arity).unwrap();
            let t = tabled.output_groundness(p, arity).unwrap();
            assert_eq!(d.definitely_ground, t.definitely_ground, "{p}");
        }
    }

    #[test]
    fn recursion_converges() {
        let src = "
            even(0).
            even(s(X)) :- odd(X).
            odd(s(X)) :- even(X).
        ";
        let report = DirectAnalyzer::new().analyze_source(src).unwrap();
        assert_eq!(
            report
                .output_groundness("even", 1)
                .unwrap()
                .definitely_ground,
            vec![true]
        );
        assert!(report.iterations > 1);
    }

    #[test]
    fn explain_reports_clause_contributions() {
        let program = parse_program(APPEND).unwrap();
        let ex = DirectAnalyzer::new()
            .explain(&program, "app(g, g, f)", 32)
            .unwrap();
        assert_eq!(ex.name, "app");
        assert_eq!(ex.arity, 3);
        assert_eq!(ex.clauses.len(), 2);
        assert!(!ex.is_empty());
        // The fixpoint rows are covered by the clause contributions.
        for r in &ex.rows {
            assert!(
                ex.clauses.iter().any(|c| c.rows.contains(r)),
                "row {r:?} supported by no clause"
            );
        }
        let text = ex.render_text();
        assert!(text.contains("app/3 fixpoint rows:"));
        assert!(text.contains("clause #0"));
        assert!(tablog_trace::json::parse(&ex.to_json()).is_ok());
    }

    #[test]
    fn explain_rejects_unknown_predicate() {
        let program = parse_program(APPEND).unwrap();
        assert!(DirectAnalyzer::new()
            .explain(&program, "nope(g)", 32)
            .is_err());
    }

    #[test]
    fn stats_are_reported() {
        let report = DirectAnalyzer::new().analyze_source(APPEND).unwrap();
        assert!(report.pairs >= 1);
        assert!(report.timings.total() > std::time::Duration::ZERO);
    }

    #[test]
    fn bdd_backend_matches_table_backend() {
        let src = "
            qs([], []).
            qs([X|Xs], S) :- qs(Xs, S0), ins(X, S0, S).
            ins(X, [], [X]).
            ins(X, [Y|Ys], [X,Y|Ys]) :- X =< Y.
            ins(X, [Y|Ys], [Y|Zs]) :- X > Y, ins(X, Ys, Zs).
        ";
        let table = DirectAnalyzer::new().analyze_source(src).unwrap();
        let bdd = bdd_analyzer().analyze_source(src).unwrap();
        for d in table.predicates() {
            let b = bdd.output_groundness(&d.name, d.arity).unwrap();
            assert_eq!(d.prop, b.prop, "{}/{}", d.name, d.arity);
            assert_eq!(d.definitely_ground, b.definitely_ground);
        }
        assert_eq!(table.domain, DomainKind::Table);
        assert_eq!(bdd.domain, DomainKind::Bdd);
        assert_eq!((table.bdd_nodes, table.domain_bytes), (0, 0));
        assert!(bdd.bdd_nodes > 0);
        assert!(bdd.domain_bytes > 0);
    }

    #[test]
    fn bdd_explain_matches_table_explain() {
        let program = parse_program(APPEND).unwrap();
        let t = DirectAnalyzer::new()
            .explain(&program, "app(g, g, f)", 32)
            .unwrap();
        let b = bdd_analyzer()
            .explain(&program, "app(g, g, f)", 32)
            .unwrap();
        assert_eq!(t.rows, b.rows);
        assert_eq!(t.clauses.len(), b.clauses.len());
        for (tc, bc) in t.clauses.iter().zip(&b.clauses) {
            assert_eq!((tc.clause_index, &tc.rows), (bc.clause_index, &bc.rows));
        }
    }

    #[test]
    fn wide_predicates_are_unsupported_on_both_backends() {
        let vars: Vec<String> = (0..27).map(|i| format!("X{i}")).collect();
        let src = format!(
            "r(X) :- p({}).\np({}) :- q(X0).\nq(a).\n",
            vec!["X"; 27].join(", "),
            vars.join(", ")
        );
        let program = parse_program(&src).unwrap();
        let wide_entry = EntryPoint::new("p", &[false; 27]);
        for domain in DomainKind::ALL {
            let an = DirectAnalyzer {
                domain,
                ..DirectAnalyzer::new()
            };
            let cases = [
                an.analyze_program(&program),
                an.analyze_with_entries(&program, std::slice::from_ref(&wide_entry)),
                an.analyze_with_entries(&program, &[EntryPoint::new("r", &[false])]),
            ];
            for result in cases {
                assert!(
                    matches!(result, Err(AnalysisError::Unsupported(_))),
                    "{domain}: {result:?}"
                );
            }
            assert!(matches!(
                an.explain(&program, &format!("p({})", vec!["f"; 27].join(", ")), 32),
                Err(AnalysisError::Unsupported(_))
            ));
        }
    }

    #[test]
    fn metrics_record_the_domain_backend() {
        let analyzer = DirectAnalyzer {
            profile: true,
            ..bdd_analyzer()
        };
        let report = analyzer.analyze_source(APPEND).unwrap();
        let metrics = report.metrics.expect("profiled");
        assert!(metrics
            .options
            .iter()
            .any(|(k, v)| k == "domain" && v == "bdd"));
    }
}
