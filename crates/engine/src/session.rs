//! Engine sessions: the public entry point ([`Engine`]) and the completed
//! evaluation it produces ([`Evaluation`]).
//!
//! An `Engine` is a loaded program plus options — cheap to clone and
//! `Send`, so the parallel multi-program driver can hand engines to worker
//! threads. Each call to [`Engine::evaluate`] spins up a private machine
//! with its own session [`TermArena`] and scheduler; the finished
//! [`Evaluation`] carries the arena, so the entire interned forest of a run
//! is released when the evaluation is dropped (no cross-run accumulation,
//! no shared mutable state between concurrent sessions).

use crate::budget::Truncation;
use crate::database::{Database, LoadMode};
use crate::error::EngineError;
use crate::machine::{flatten_conj, Machine};
use crate::options::EngineOptions;
use crate::table::{SubgoalState, SubgoalView, TableStats};
use tablog_term::{Bindings, Functor, Term, TermArena};

/// A loaded program plus evaluation options; the entry point of the crate.
///
/// See the [crate-level documentation](crate) for an overview and example.
/// `Engine` is `Send`: it owns no session state (each evaluation gets a
/// fresh arena and worklist), so engines can be moved to — or, being
/// `Sync` too, shared across — worker threads.
#[derive(Clone, Debug, Default)]
pub struct Engine {
    db: Database,
    opts: EngineOptions,
}

impl Engine {
    /// Wraps an existing database with options.
    pub fn new(db: Database, opts: EngineOptions) -> Self {
        Engine { db, opts }
    }

    /// Parses and loads `src` in [`LoadMode::Dynamic`] with default options.
    ///
    /// # Errors
    ///
    /// Returns a parse or load error.
    pub fn from_source(src: &str) -> Result<Self, EngineError> {
        Engine::from_source_with(src, LoadMode::Dynamic, EngineOptions::default())
    }

    /// Parses and loads `src` with explicit load mode and options.
    ///
    /// # Errors
    ///
    /// Returns a parse or load error.
    pub fn from_source_with(
        src: &str,
        mode: LoadMode,
        opts: EngineOptions,
    ) -> Result<Self, EngineError> {
        let program = tablog_syntax::parse_program(src)?;
        let mut db = Database::new(mode);
        db.load(&program)?;
        Ok(Engine { db, opts })
    }

    /// The underlying database.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Mutable access to the database (for `assert`-style updates between
    /// evaluations).
    pub fn db_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// The evaluation options.
    pub fn options(&self) -> &EngineOptions {
        &self.opts
    }

    /// Mutable access to the evaluation options.
    pub fn options_mut(&mut self) -> &mut EngineOptions {
        &mut self.opts
    }

    /// Parses `goal` and evaluates it to completion, returning one row per
    /// answer, with columns for the goal's named variables.
    ///
    /// # Errors
    ///
    /// Returns parse errors and any [`EngineError`] raised during
    /// evaluation.
    pub fn solve(&self, goal: &str) -> Result<Solutions, EngineError> {
        let mut b = Bindings::new();
        let (t, names) = tablog_syntax::parse_term(goal, &mut b)?;
        let mut goals = Vec::new();
        flatten_conj(&t, &mut goals);
        let template: Vec<Term> = names.iter().map(|(_, v)| Term::Var(*v)).collect();
        let eval = self.evaluate(&goals, &template, &b)?;
        Ok(Solutions {
            names: names.into_iter().map(|(n, _)| n).collect(),
            rows: eval.root_answers(),
            truncation: eval.truncation().copied(),
        })
    }

    /// Evaluates `goals` (left to right) to completion. `template` lists the
    /// terms whose instances constitute the query's answers; `bindings` is
    /// the store in which the goal/template variables live (it is only read).
    ///
    /// The returned [`Evaluation`] exposes the complete call and answer
    /// tables — the raw material of the paper's analyses.
    ///
    /// # Errors
    ///
    /// Returns any [`EngineError`] raised during evaluation.
    pub fn evaluate(
        &self,
        goals: &[Term],
        template: &[Term],
        bindings: &Bindings,
    ) -> Result<Evaluation, EngineError> {
        self.evaluate_with_opts(&self.opts, goals, template, bindings)
    }

    /// Parses `goal`, evaluates it to completion, and returns the per-table
    /// heap attribution of the run (see [`crate::TableReport`]).
    ///
    /// # Errors
    ///
    /// Returns parse errors and any [`EngineError`] raised during
    /// evaluation.
    pub fn table_report(&self, goal: &str) -> Result<crate::TableReport, EngineError> {
        let mut b = Bindings::new();
        let (t, names) = tablog_syntax::parse_term(goal, &mut b)?;
        let mut goals = Vec::new();
        flatten_conj(&t, &mut goals);
        let template: Vec<Term> = names.iter().map(|(_, v)| Term::Var(*v)).collect();
        let eval = self.evaluate(&goals, &template, &b)?;
        Ok(eval.table_report())
    }

    /// As [`Engine::evaluate`], but under one-off options overriding the
    /// engine's own — how [`Engine::explain`] forces provenance recording
    /// on for a single query without mutating the engine.
    ///
    /// # Errors
    ///
    /// Returns any [`EngineError`] raised during evaluation.
    pub fn evaluate_with_opts(
        &self,
        opts: &EngineOptions,
        goals: &[Term],
        template: &[Term],
        bindings: &Bindings,
    ) -> Result<Evaluation, EngineError> {
        let mut m = Machine::new(&self.db, opts);
        m.run(goals, template, bindings)
    }
}

/// All answers to a [`Engine::solve`] query.
#[derive(Clone, Debug)]
pub struct Solutions {
    names: Vec<String>,
    rows: Vec<Vec<Term>>,
    truncation: Option<Truncation>,
}

impl Solutions {
    /// Number of answers.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the query failed.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The named variables of the query, in source order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Answer rows; column `i` instantiates `names()[i]`. Distinct rows may
    /// share variables (non-ground answers keep canonical variables).
    pub fn rows(&self) -> &[Vec<Term>] {
        &self.rows
    }

    /// The binding of variable `name` in answer `row`.
    pub fn get(&self, row: usize, name: &str) -> Option<&Term> {
        let col = self.names.iter().position(|n| n == name)?;
        self.rows.get(row)?.get(col)
    }

    /// `Some` when a resource budget cut the evaluation short: the rows are
    /// genuine answers but possibly not all of them. `None` for a run that
    /// completed its tables.
    pub fn truncation(&self) -> Option<&Truncation> {
        self.truncation.as_ref()
    }

    /// Whether a resource budget cut the evaluation short.
    pub fn is_truncated(&self) -> bool {
        self.truncation.is_some()
    }

    /// Renders each answer as `X = t1, Y = t2`.
    pub fn to_strings(&self) -> Vec<String> {
        self.render(None)
    }

    /// Like [`Solutions::to_strings`], eliding subterms nested deeper than
    /// `max_depth` (see [`tablog_syntax::TermWriter::with_max_depth`]).
    pub fn to_strings_max_depth(&self, max_depth: usize) -> Vec<String> {
        self.render(Some(max_depth))
    }

    fn render(&self, max_depth: Option<usize>) -> Vec<String> {
        self.rows
            .iter()
            .map(|row| {
                if self.names.is_empty() {
                    "true".to_owned()
                } else {
                    let mut w = tablog_syntax::TermWriter::new();
                    if let Some(d) = max_depth {
                        w = w.with_max_depth(d);
                    }
                    self.names
                        .iter()
                        .zip(row)
                        .map(|(n, t)| format!("{n} = {}", w.write(t)))
                        .collect::<Vec<_>>()
                        .join(", ")
                }
            })
            .collect()
    }
}

/// The completed tables of one evaluation: every tabled subgoal encountered
/// (the *call table*, which the analyses read for input patterns) together
/// with its answers (the *answer table*). Owns the session [`TermArena`]
/// that minted every canonical term inside — drop the evaluation and the
/// whole interned forest goes with it.
#[derive(Clone, Debug)]
pub struct Evaluation {
    pub(crate) subgoals: Vec<SubgoalState>,
    pub(crate) root: usize,
    pub(crate) stats: TableStats,
    /// Name of the scheduling strategy the run used.
    pub(crate) scheduler: &'static str,
    pub(crate) arena: TermArena,
    /// `Some` when a resource budget stopped the run before the worklist
    /// drained; the tables then hold a sound prefix of the fixpoint and
    /// stay unmarked complete.
    pub(crate) truncation: Option<Truncation>,
}

impl Evaluation {
    /// Views of every subgoal table, including the synthetic `$query` root.
    pub fn subgoals(&self) -> impl Iterator<Item = SubgoalView<'_>> {
        self.subgoals.iter().map(|s| SubgoalView {
            state: s,
            arena: &self.arena,
        })
    }

    /// Views of the subgoals of one predicate.
    pub fn subgoals_of(&self, f: Functor) -> Vec<SubgoalView<'_>> {
        self.subgoals
            .iter()
            .filter(|s| s.functor == f)
            .map(|s| SubgoalView {
                state: s,
                arena: &self.arena,
            })
            .collect()
    }

    /// All answers of a predicate, merged across its call patterns.
    pub fn answers_of(&self, f: Functor) -> Vec<Term> {
        self.subgoals_of(f)
            .iter()
            .flat_map(|v| v.answers())
            .collect()
    }

    /// All recorded calls of a predicate — its input patterns.
    pub fn calls_of(&self, f: Functor) -> Vec<Term> {
        self.subgoals_of(f).iter().map(|v| v.call_term()).collect()
    }

    /// Answer tuples of the root query (instances of the query template).
    pub fn root_answers(&self) -> Vec<Vec<Term>> {
        self.subgoals[self.root]
            .answers
            .iter()
            .map(|c| self.arena.terms(c))
            .collect()
    }

    /// Evaluation statistics, including total table bytes.
    pub fn stats(&self) -> TableStats {
        self.stats
    }

    /// The whole-run counters in report form, stamped with the scheduler
    /// and with the Prop-domain backend the caller ran on, so saved
    /// reports are self-describing.
    pub fn snapshot(&self, domain: tablog_domain::DomainKind) -> tablog_trace::EngineSnapshot {
        let s = &self.stats;
        tablog_trace::EngineSnapshot {
            scheduler: self.scheduler.to_string(),
            domain: domain.name().to_owned(),
            steps: s.steps as u64,
            clause_resolutions: s.clause_resolutions as u64,
            subgoals: s.subgoals as u64,
            answers: s.answers as u64,
            duplicate_answers: s.duplicate_answers as u64,
            table_bytes: s.table_bytes as u64,
        }
    }

    /// Estimated total table space in bytes (the paper's last column).
    pub fn table_bytes(&self) -> usize {
        self.stats.table_bytes
    }

    /// Recomputes table space by walking every table with a fresh
    /// shared-structure charge set, bypassing the incremental accounting in
    /// `stats().table_bytes`. The two must agree; this exists so tests (and
    /// doubtful users) can check that they do.
    pub fn rescan_table_bytes(&self) -> usize {
        self.subgoals
            .iter()
            .map(|s| s.rescan_bytes(&self.arena))
            .sum()
    }

    /// Per-table heap attribution: one [`crate::TableRow`] per call table,
    /// whose attributed bytes sum exactly to [`Evaluation::table_bytes`].
    pub fn table_report(&self) -> crate::TableReport {
        crate::TableReport::from_eval(self)
    }

    /// Name of the scheduling strategy that produced this evaluation
    /// (see [`crate::Scheduling`]).
    pub fn scheduler(&self) -> &'static str {
        self.scheduler
    }

    /// The session arena holding this evaluation's canonical terms.
    pub fn arena(&self) -> &TermArena {
        &self.arena
    }

    /// Index of the synthetic `$query` root subgoal.
    pub fn root_index(&self) -> usize {
        self.root
    }

    /// `Some` when a resource budget (step, deadline, or table-byte) cut
    /// the run short. Every answer in the tables is still a genuine
    /// derivation — what is missing is completeness.
    pub fn truncation(&self) -> Option<&Truncation> {
        self.truncation.as_ref()
    }

    /// Whether a resource budget cut the run short.
    pub fn is_truncated(&self) -> bool {
        self.truncation.is_some()
    }

    /// Demands complete tables: returns the evaluation unchanged when the
    /// run drained its worklist, or [`EngineError::Truncated`] when a
    /// budget stopped it early. Callers whose results are only sound over
    /// the full fixpoint — the paper's analyses — gate on this instead of
    /// silently consuming a partial model.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Truncated`] with the tripped budget.
    pub fn require_complete(self) -> Result<Evaluation, EngineError> {
        match self.truncation {
            Some(t) => Err(EngineError::Truncated(t.reason)),
            None => Ok(self),
        }
    }

    pub(crate) fn states(&self) -> &[SubgoalState] {
        &self.subgoals
    }
}
