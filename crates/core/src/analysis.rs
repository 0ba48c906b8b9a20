//! One analysis driver. As in the paper, one general engine serves every
//! analysis: an [`Analysis`] parses its input language, loads `P♯` (for
//! the engine-backed analyses a database, a driver atom and the engine
//! hooks: [`Tabled`]) and collects its result; [`run`] owns the rest —
//! phase timer, metrics registry, phase spans, the fixpoint ([`Solve`])
//! and the profile report. [`lookup`] hands the analyses out by name
//! behind [`Named`], the one dynamically dispatched face.

use crate::error::AnalysisError;
use crate::groundness::{EntryPoint, PredSet};
use crate::pipeline::{PhaseTimings, Timer};
use std::fmt::Display;
use std::ops::Deref;
use std::sync::Arc;
use tablog_engine::{Database, Engine, EngineOptions, Evaluation, LoadMode};
use tablog_magic::Rule;
use tablog_term::{atom, intern, Bindings, Functor, Term};
use tablog_trace::{MetricsRegistry, MetricsReport, MultiSink, SpanEmitter, SpanId, TraceSink};

/// One analysis as [`run`] drives it: only what differs between analyses.
pub trait Analysis {
    /// The parsed input language: a logic [`tablog_syntax::Program`] or a
    /// functional [`tablog_funlang::FunProgram`].
    type Program;
    /// `P♯` as preprocessing leaves it for the fixpoint phase.
    type Abstract: Solve;
    /// What collection needs from preprocessing besides the fixpoint (the
    /// analyzed predicates).
    type Plan;
    /// The collected result.
    type Result;
    /// What [`Analysis::explain`] returns.
    type Explanation: Explained + 'static;

    /// Parses source text in the analysis's input language.
    fn parse(src: &str) -> Result<Self::Program, AnalysisError>;

    /// Whether the run collects a [`MetricsReport`].
    fn profile(&self) -> bool;

    /// The options the fixpoint runs under, the analysis's engine hooks
    /// installed. Their trace sink and span flag also carry the phase
    /// spans.
    fn options(&self) -> EngineOptions;

    /// Preprocessing: transforms `program` into `P♯` from the given entry
    /// points (none: every predicate with open calls).
    fn load(
        &self,
        program: &Self::Program,
        entries: &[EntryPoint],
    ) -> Result<(Self::Abstract, Self::Plan), AnalysisError>;

    /// Collection: reads the result off the fixpoint.
    fn collect(
        &self,
        program: &Self::Program,
        plan: Self::Plan,
        fixpoint: &mut <Self::Abstract as Solve>::Fixpoint,
    ) -> Self::Result;

    /// Explains one result. `goal` is a source-level call in the
    /// analysis's goal notation; `max_depth` bounds justification trees.
    fn explain(
        &self,
        program: &Self::Program,
        goal: &str,
        max_depth: usize,
    ) -> Result<Self::Explanation, AnalysisError>;
}

/// The fixpoint phase of `P♯`.
pub trait Solve: Sized {
    /// What the fixpoint leaves for collection.
    type Fixpoint;

    /// Evaluates `P♯` to its fixpoint; a budget that stops the run first
    /// is an error.
    fn solve(self, options: &EngineOptions) -> Result<Self::Fixpoint, AnalysisError>;

    /// Stamps the fixpoint's own counters and the options in effect into
    /// a profiled run's report.
    fn stamp(fixpoint: &Self::Fixpoint, options: &EngineOptions, report: &mut MetricsReport);
}

/// `P♯` for the tabled engine: the loaded database and the driver atom
/// whose evaluation fills every table collection reads.
#[derive(Debug)]
pub struct Tabled {
    db: Database,
    driver: &'static str,
}

impl Tabled {
    /// A database holding `rules`, each moved in as it is asserted.
    pub(crate) fn assert_rules(
        mode: LoadMode,
        rules: Vec<Rule>,
    ) -> Result<Database, AnalysisError> {
        let mut db = Database::new(mode);
        for r in rules {
            db.assert_clause(r.head, r.body)?;
        }
        Ok(db)
    }

    /// Seals a loaded database (indexing it in compiled mode) with its
    /// driver atom.
    pub(crate) fn new(mut db: Database, mode: LoadMode, driver: &'static str) -> Self {
        if mode == LoadMode::Compiled {
            db.build_indexes();
        }
        Tabled { db, driver }
    }

    /// Loads a logic program's `P♯`: the transformed rules, every
    /// abstract predicate `prefix·p` tabled, and one `driver :- prefix·p(…)`
    /// clause per analyzed call. Without entries every predicate is called
    /// with open arguments; an entry's ground arguments are bound to
    /// `ground`.
    pub(crate) fn load_logic(
        mode: LoadMode,
        rules: Vec<Rule>,
        preds: &PredSet,
        prefix: &str,
        ground: &str,
        driver: &'static str,
        entries: &[EntryPoint],
    ) -> Result<Self, AnalysisError> {
        let mut db = Tabled::assert_rules(mode, rules)?;
        for &(name, arity) in preds.keys() {
            db.set_tabled(functor(prefix, name, arity), true);
        }
        let mut b = Bindings::new();
        let mut call = |f: Functor, ground_args: &[bool]| {
            let arg = |&g: &bool| {
                if g {
                    atom(ground)
                } else {
                    Term::Var(b.fresh_var())
                }
            };
            let args = ground_args.iter().map(arg).collect();
            db.assert_clause(atom(driver), vec![build(f, args)])
        };
        if entries.is_empty() {
            for &(name, arity) in preds.keys() {
                call(functor(prefix, name, arity), &vec![false; arity])?;
            }
        }
        for e in entries {
            call(
                functor(prefix, &e.name, e.ground_args.len()),
                &e.ground_args,
            )?;
        }
        Ok(Tabled::new(db, mode, driver))
    }
}

impl Solve for Tabled {
    type Fixpoint = Evaluation;

    fn solve(self, options: &EngineOptions) -> Result<Evaluation, AnalysisError> {
        let engine = Engine::new(self.db, options.clone());
        let eval = engine.evaluate(&[atom(self.driver)], &[], &Bindings::new())?;
        Ok(eval.require_complete()?)
    }

    fn stamp(eval: &Evaluation, options: &EngineOptions, report: &mut MetricsReport) {
        report.options = options.describe();
        report.engine = Some(eval.snapshot(options.domain));
    }
}

/// Explains one answer of an engine-backed analysis: parses `goal`, maps
/// its functor and arguments onto the abstract goal with `abstract_goal`,
/// loads `P♯` with open calls and returns the justification trees of
/// every matching abstract answer, evaluated under the analysis's
/// options (hooks, trace sink and all).
pub(crate) fn explain_tabled<A: Analysis<Abstract = Tabled>>(
    analysis: &A,
    program: &A::Program,
    goal: &str,
    max_depth: usize,
    abstract_goal: impl FnOnce(Functor, &[Term], &mut Bindings) -> Result<Term, AnalysisError>,
) -> Result<crate::AnalysisExplanation, AnalysisError> {
    let (f, args, mut b) = parse_goal(goal, "goal")?;
    let term = abstract_goal(f, &args, &mut b)?;
    let (tabled, _) = analysis.load(program, &[])?;
    let engine = Engine::new(tabled.db, analysis.options());
    let abstract_goal = tablog_syntax::term_to_string(&term);
    let explanation = engine.explain_goal(&term, &b, &abstract_goal, max_depth)?;
    Ok(crate::AnalysisExplanation {
        goal: goal.to_owned(),
        abstract_goal,
        explanation,
    })
}

/// The input of one [`run`].
pub enum Input<'a, P> {
    /// Source text, parsed as part of preprocessing.
    Source(&'a str),
    /// An already parsed program.
    Parsed(&'a P),
}

/// The report of one [`run`]: the collected result, which the report
/// dereferences to, with the phase timings and the profile.
#[derive(Clone, Debug)]
pub struct Run<R> {
    /// The analysis's collected result.
    pub result: R,
    /// Phase timings (preprocess / analysis / collection).
    pub timings: PhaseTimings,
    /// Per-predicate metrics, phase timings and (with span recording) the
    /// span tree; present iff the analysis's `profile` flag was set.
    pub metrics: Option<MetricsReport>,
}

impl<R> Deref for Run<R> {
    type Target = R;

    fn deref(&self) -> &R {
        &self.result
    }
}

/// Runs `analysis` on `input` from `entries`: parse → transform → load →
/// fixpoint → collect, timing the three phases, bracketing the fixpoint
/// and collection with `analysis` / `collection` spans in the options'
/// trace sink, and, when profiling, freezing a metrics registry fanned
/// out beside that sink into the report.
///
/// # Errors
///
/// Returns parse, transformation, load or engine errors; a budget that
/// stops the fixpoint early is an engine error, never a partial result.
pub fn run<A: Analysis>(
    analysis: &A,
    input: Input<'_, A::Program>,
    entries: &[EntryPoint],
) -> Result<Run<A::Result>, AnalysisError> {
    let mut timer = Timer::start();
    let mut parsed = None;
    let program = match input {
        Input::Source(src) => &*parsed.insert(A::parse(src)?),
        Input::Parsed(program) => program,
    };
    let (abs, plan) = analysis.load(program, entries)?;
    let mut options = analysis.options();
    // Profiling fans a fresh registry out beside any sink the caller set,
    // so both observe every event and the phase spans.
    let registry = analysis.profile().then(|| {
        let reg = Arc::new(MetricsRegistry::new());
        options.trace = Some(match options.trace.take() {
            Some(sink) => Arc::new(MultiSink::new().with(sink).with(reg.clone())),
            None => reg.clone(),
        });
        reg
    });
    let sink = options.trace.clone().filter(|_| options.record_spans);
    let mut spans = PhaseSpans(sink.map(|s| (s, SpanEmitter::new())));
    let preprocess = timer.lap();

    // The engine's own spans nest under the analysis phase span.
    options.parent_span = spans.enter("analysis");
    let mut fixpoint = abs.solve(&options)?;
    spans.exit();
    let fixpoint_time = timer.lap();

    spans.enter("collection");
    let result = analysis.collect(program, plan, &mut fixpoint);
    spans.exit();
    let timings = PhaseTimings {
        preprocess,
        analysis: fixpoint_time,
        collection: timer.lap(),
    };

    let metrics = registry.map(|reg| {
        reg.record_phases(&[
            ("preprocess", timings.preprocess),
            ("analysis", timings.analysis),
            ("collection", timings.collection),
        ]);
        let mut report = reg.snapshot();
        A::Abstract::stamp(&fixpoint, &options, &mut report);
        report
    });
    Ok(Run {
        result,
        timings,
        metrics,
    })
}

/// The phase spans of one [`run`], in the options' trace sink. Inert — no
/// timestamps, no ids — unless span recording is on and a sink is set.
struct PhaseSpans(Option<(Arc<dyn TraceSink>, SpanEmitter)>);

impl PhaseSpans {
    /// Opens a phase span, returning its id for the engine's parent span.
    fn enter(&mut self, name: &str) -> Option<SpanId> {
        let (sink, emitter) = self.0.as_mut()?;
        Some(emitter.enter(sink.as_ref(), name, None))
    }

    /// Closes the innermost open phase span.
    fn exit(&mut self) {
        if let Some((sink, emitter)) = &mut self.0 {
            emitter.exit(sink.as_ref());
        }
    }
}

/// A collected result as the name lookup hands it out.
pub trait Outcome: Send {
    /// The result and the run's summary line, as `tablog` prints them.
    fn render(&self, timings: &PhaseTimings) -> String;
}

/// An explanation, rendered.
pub trait Explained {
    /// Human-readable text.
    fn render_text(&self) -> String;
    /// One JSON object.
    fn to_json(&self) -> String;
}

/// An analysis picked by name at run time: source text in, a printable
/// result out. Every [`Analysis`] with a printable result is one.
pub trait Named: Sync {
    /// Runs the analysis on source text from `entries` (see [`run`]).
    fn analyze_text(
        &self,
        src: &str,
        entries: &[EntryPoint],
    ) -> Result<Run<Box<dyn Outcome>>, AnalysisError>;

    /// Parses `src` and explains `goal` (see [`Analysis::explain`]).
    fn explain_text(
        &self,
        src: &str,
        goal: &str,
        max_depth: usize,
    ) -> Result<Box<dyn Explained>, AnalysisError>;
}

impl<A> Named for A
where
    A: Analysis + Sync,
    A::Result: Outcome + 'static,
{
    fn analyze_text(
        &self,
        src: &str,
        entries: &[EntryPoint],
    ) -> Result<Run<Box<dyn Outcome>>, AnalysisError> {
        let r = run(self, Input::Source(src), entries)?;
        Ok(Run {
            result: Box::new(r.result),
            timings: r.timings,
            metrics: r.metrics,
        })
    }

    fn explain_text(
        &self,
        src: &str,
        goal: &str,
        max_depth: usize,
    ) -> Result<Box<dyn Explained>, AnalysisError> {
        let program = A::parse(src)?;
        Ok(Box::new(self.explain(&program, goal, max_depth)?))
    }
}

/// The names [`lookup`] knows, in the order `tablog` documents them.
pub const NAMES: [&str; 4] = ["ground", "direct", "depthk", "strict"];

/// The analysis called `name` (one of [`NAMES`]: tabled and hand-coded
/// Prop groundness, depth-`k`, strictness), running under `options` and
/// collecting a profile iff `profile` is set.
pub fn lookup(
    name: &str,
    options: EngineOptions,
    profile: bool,
    k: usize,
) -> Option<Box<dyn Named>> {
    use crate::{depthk, direct, groundness, strictness};
    Some(match name {
        "ground" => Box::new(groundness::GroundnessAnalyzer {
            options,
            profile,
            ..Default::default()
        }),
        "direct" => Box::new(direct::DirectAnalyzer {
            profile,
            record_spans: options.record_spans,
            domain: options.domain,
            trace: options.trace,
        }),
        "depthk" => Box::new(depthk::DepthKAnalyzer {
            k,
            options,
            profile,
            ..Default::default()
        }),
        "strict" => Box::new(strictness::StrictnessAnalyzer {
            options,
            profile,
            ..Default::default()
        }),
        _ => return None,
    })
}

/// The summary line of an engine-backed analysis's report.
pub(crate) fn summary(timings: &PhaseTimings, table_bytes: usize) -> String {
    format!("total={:?} tables={table_bytes}B\n", timings.total())
}

/// The abstract predicate `prefix·name/arity` (`gp$app/3`, `ak$app/3`, …).
pub(crate) fn functor(prefix: &str, name: impl Display, arity: usize) -> Functor {
    Functor {
        name: intern(&format!("{prefix}{name}")),
        arity,
    }
}

/// The term `f(args…)`, or the atom `f` without arguments.
pub(crate) fn build(f: Functor, args: Vec<Term>) -> Term {
    if args.is_empty() {
        Term::Atom(f.name)
    } else {
        Term::Struct(f.name, args.into())
    }
}

/// Parses a call written in an analysis's goal notation (an explanation
/// goal, an entry spec) into its functor and arguments, whose variables
/// live in the returned bindings. `what` names the notation in errors.
pub(crate) fn parse_goal(
    text: &str,
    what: &str,
) -> Result<(Functor, Vec<Term>, Bindings), AnalysisError> {
    let mut b = Bindings::new();
    let (t, _) = tablog_syntax::parse_term(text, &mut b)?;
    let f = t
        .functor()
        .ok_or_else(|| AnalysisError::Parse(format!("bad {what} {text}")))?;
    Ok((f, t.args().to_vec(), b))
}
