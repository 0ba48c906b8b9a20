//! The tabled evaluation machine: an explicit SLG derivation forest driven
//! by a worklist.
//!
//! Every derivation node carries, in variant-canonical form, an *answer
//! template* (the instantiated arguments of the tabled subgoal it belongs
//! to) and its remaining *goal list*. Expanding a node resolves its leftmost
//! goal — against program clauses (SLD), a builtin, or a table. Tabled calls
//! register the node as a consumer of the callee's table; every answer that
//! table ever acquires is returned to every consumer exactly once. When the
//! worklist drains, all tables are complete: for definite programs, SLG
//! completion needs no incremental SCC bookkeeping.
//!
//! The machine owns two pieces of session state factored out in PR 4:
//!
//! * a session-scoped [`TermArena`] holding every canonical call, answer,
//!   and node key of the run — handed to the finished
//!   [`Evaluation`](crate::Evaluation) and dropped with it, so nothing
//!   accumulates across runs;
//! * a pluggable [`Scheduler`](crate::Scheduler) deciding which worklist
//!   task runs next, selected by [`EngineOptions::scheduling`].
//!
//! Goal dispatch for builtins and SLD clauses lives in `dispatch.rs`;
//! answer flow (consumer resumption, table insertion, negation
//! subcomputations) lives in `consumers.rs`.

use crate::budget::{HealthConfig, Truncation, TruncationReason};
use crate::builtins::lookup_builtin;
use crate::database::Database;
use crate::error::EngineError;
use crate::options::{EngineOptions, Unknown};
use crate::provenance::{ClauseRef, NodeProv};
use crate::scheduler::{make_scheduler, Scheduler, TaskClass};
use crate::session::Evaluation;
use crate::table::{SubgoalState, TableStats};
use std::collections::{HashMap, HashSet};
use tablog_term::{
    intern, sym_str, Bindings, CanonicalTerm, Env, Functor, Head, Sym, Term, TermArena, TermId,
    TermView, Val, Var,
};
use tablog_trace::{
    now_ns, CounterSample, HealthSnapshot, SpanEmitter, StallWatchdog, TraceEvent, TraceSink,
};

/// One derivation node: 16 bytes.
#[derive(Clone, Debug)]
pub(crate) struct Node {
    /// The subgoal whose answers this derivation contributes to.
    pub(crate) subgoal: u32,
    /// Root of the node's canonical tuple in the session arena: the answer
    /// template (as many terms as the subgoal's arity, see
    /// [`Machine::split`]) followed by the goal list.
    pub(crate) root: TermId,
    /// Derivation trail (clauses resolved, table answers consumed) on the
    /// path to this node. Always `None` unless
    /// `EngineOptions::record_provenance` is set, so the disabled path
    /// allocates nothing. When a variant-identical node is reached along a
    /// second path, `seen_nodes` drops it and the first trail wins: a
    /// justification needs one support, not all of them.
    pub(crate) prov: Option<Box<NodeProv>>,
}

/// A node suspended on a table: 24 bytes.
#[derive(Clone, Debug)]
pub(crate) struct Consumer {
    pub(crate) node: Node,
    pub(crate) watched: u32,
    /// Cursor into the watched table: the next answer index this consumer
    /// has yet to be scheduled. Advanced when answers are handed out, so
    /// every answer is scheduled to every consumer exactly once — new
    /// consumers start at the current table size after back-filling, and
    /// `add_answer` extends each cursor by exactly the inserted answer.
    pub(crate) next: u32,
}

#[derive(Debug)]
pub(crate) enum Task {
    Expand(Node),
    Return(usize, usize),
}

/// Working state of one resolution step, pooled in the machine: the
/// binding environment (the expanded node's frame at base 0, then one
/// frame per clause or answer it is resolved with), the resolvent being
/// assembled, and the binding store the builtin adapter lends to
/// `Term`-level builtins.
#[derive(Default)]
pub(crate) struct Step {
    pub(crate) env: Env,
    pub(crate) goals: Vec<Val>,
    pub(crate) b: Bindings,
}

/// Symbols the step path compares against or builds, interned once per
/// machine.
#[derive(Clone, Copy)]
pub(crate) struct Syms {
    pub(crate) not: Sym,
    pub(crate) tru: Sym,
    pub(crate) fls: Sym,
    pub(crate) gamma: Sym,
}

const _: () = {
    assert!(std::mem::size_of::<Node>() == 16);
    assert!(std::mem::size_of::<Consumer>() == 24);
    assert!(std::mem::size_of::<Task>() == 24);
};

pub(crate) struct Machine<'e> {
    pub(crate) db: &'e Database,
    pub(crate) opts: &'e EngineOptions,
    /// Session arena: every canonical term of this run is interned here,
    /// and the arena moves into the [`Evaluation`] when the run finishes.
    pub(crate) arena: TermArena,
    pub(crate) subgoals: Vec<SubgoalState>,
    /// Subgoal lookup keyed by the call's arena id: a hash probe on a
    /// 12-byte key with O(1) equality, never a structural term walk.
    lookup: HashMap<(Functor, TermId), usize>,
    pub(crate) consumers: Vec<Consumer>,
    /// The worklist, behind the strategy selected by
    /// [`EngineOptions::scheduling`].
    pub(crate) scheduler: Box<dyn Scheduler<Task>>,
    /// Derivation nodes already scheduled, per subgoal: the forest is a
    /// *set* of nodes, so a variant-identical resolvent reached along two
    /// different derivation paths is expanded only once. This collapses
    /// the combinatorial re-derivation that long conjunctions of
    /// enumerative literals otherwise cause. Keys pack the subgoal and
    /// the node's arena root as `subgoal << 32 | root` (the template/goal
    /// split is the subgoal's arity, so it adds nothing to the key).
    /// Membership is checked *before* the scheduler sees the task, so it is
    /// strategy-independent.
    seen_nodes: HashSet<u64>,
    pub(crate) stats: TableStats,
    /// Event observer, `None` unless `EngineOptions::trace` is set. Events
    /// are only constructed under `if let Some(..)`, so the disabled path
    /// does no work and no allocation.
    pub(crate) trace: Option<&'e dyn TraceSink>,
    /// Span emitter, `Some` only when `EngineOptions::record_spans` is set
    /// *and* a sink is installed — every span site gates on this, so the
    /// disabled path takes no timestamps and mints no ids.
    pub(crate) spans: Option<SpanEmitter>,
    /// Counter sampling enabled: `EngineOptions::record_counters` *and* a
    /// sink installed. The disabled path is one branch per worklist task.
    counters_on: bool,
    /// Any resource budget set. The only cost budgets add to an unbudgeted
    /// run is this one branch per worklist task.
    budgets_on: bool,
    /// Absolute wall-clock cutoff on the [`now_ns`] timeline, precomputed
    /// once so the per-task deadline check is a single comparison. Negation
    /// subcomputations inherit the parent's cutoff (the deadline bounds the
    /// whole evaluation, not each sub-machine).
    pub(crate) deadline_ns: Option<u64>,
    /// The budget that tripped, set at a dispatch boundary (directly or
    /// propagated from a negation subcomputation); once set, `drain` stops
    /// scheduling and `run` hands back a truncated evaluation.
    pub(crate) truncated: Option<TruncationReason>,
    /// Periodic health emission state, `Some` only when
    /// `EngineOptions::health` is set *and* a sink is installed.
    health: Option<HealthState>,
    /// Timestamp of machine creation, taken only when budgets or health
    /// reporting need one (0 otherwise, never read in that case).
    start_ns: u64,
    /// Cleared step states for reuse, so a resolution step allocates no
    /// new environment. A pool, not one state: generator spawn runs inside
    /// an expansion that still holds its own.
    steps: Vec<Step>,
    pub(crate) syms: Syms,
}

/// Book-keeping for periodic [`HealthSnapshot`] emission: the cadence
/// config, the watchdog, and the previous emission's coordinates (for
/// window deltas and the derivation rate).
struct HealthState {
    cfg: HealthConfig,
    watchdog: StallWatchdog,
    last_ns: u64,
    last_steps: usize,
    last_answers: usize,
}

impl<'e> Machine<'e> {
    pub(crate) fn new(db: &'e Database, opts: &'e EngineOptions) -> Self {
        let budgets_on =
            opts.max_steps.is_some() || opts.deadline.is_some() || opts.max_table_bytes.is_some();
        let health_on = opts.health.is_some() && opts.trace.is_some();
        // One timestamp at machine creation when budgets or health need a
        // time origin; the all-off path still takes none.
        let start_ns = if budgets_on || health_on { now_ns() } else { 0 };
        Machine {
            db,
            opts,
            arena: TermArena::new(),
            subgoals: Vec::new(),
            lookup: HashMap::new(),
            consumers: Vec::new(),
            scheduler: make_scheduler(opts.scheduling),
            seen_nodes: HashSet::new(),
            stats: TableStats::default(),
            trace: opts.trace.as_deref(),
            spans: (opts.record_spans && opts.trace.is_some())
                .then(|| SpanEmitter::with_root(opts.parent_span)),
            counters_on: opts.record_counters && opts.trace.is_some(),
            budgets_on,
            deadline_ns: opts
                .deadline
                .map(|d| start_ns.saturating_add(d.as_nanos() as u64)),
            truncated: None,
            health: health_on.then(|| {
                let cfg = opts.health.unwrap();
                HealthState {
                    cfg,
                    watchdog: StallWatchdog::new(cfg.stall_window),
                    last_ns: start_ns,
                    last_steps: 0,
                    last_answers: 0,
                }
            }),
            start_ns,
            steps: Vec::new(),
            syms: Syms {
                not: intern("\\+"),
                tru: intern("true"),
                fls: intern("false"),
                gamma: intern(crate::builtins::GAMMA),
            },
        }
    }

    /// An empty step state, reused from the pool when one is free.
    pub(crate) fn take_step(&mut self) -> Step {
        self.steps.pop().unwrap_or_default()
    }

    /// Returns a state taken with [`Machine::take_step`] to the pool.
    pub(crate) fn give_step(&mut self, mut st: Step) {
        st.env.clear();
        st.goals.clear();
        st.b.clear();
        self.steps.push(st);
    }

    /// Number of leading member terms of `node`'s tuple that form the
    /// answer template: the arity of the subgoal it derives answers for.
    fn split(&self, node: &Node) -> usize {
        self.subgoals[node.subgoal as usize].functor.arity
    }

    /// Emits one counter time-series sample to the trace sink. Only called
    /// from sites gated on `counters_on`, so the disabled path takes no
    /// timestamp and constructs nothing.
    fn sample_counters(&self) {
        if let Some(sink) = self.trace {
            sink.counter_sample(&CounterSample {
                t_ns: tablog_trace::now_ns(),
                worklist: self.scheduler.len(),
                expands: self.scheduler.class_len(TaskClass::Expand),
                returns: self.scheduler.class_len(TaskClass::Return),
                tables: self.subgoals.len(),
                answers: self.stats.answers,
                table_bytes: self.stats.table_bytes,
            });
        }
    }

    /// Checks every configured resource budget, in a fixed order (steps,
    /// table bytes, deadline) so a run tripping several reports
    /// deterministically. Only called when `budgets_on`; the deadline is
    /// the only check that reads the clock.
    fn budget_tripped(&self) -> Option<TruncationReason> {
        if let Some(limit) = self.opts.max_steps {
            if self.stats.steps > limit {
                return Some(TruncationReason::Steps(limit));
            }
        }
        if let Some(limit) = self.opts.max_table_bytes {
            if self.stats.table_bytes > limit {
                return Some(TruncationReason::TableBytes(limit));
            }
        }
        if let Some(cutoff) = self.deadline_ns {
            if now_ns() >= cutoff {
                let ms = self.opts.deadline.map_or(0, |d| d.as_millis() as u64);
                return Some(TruncationReason::DeadlineMs(ms));
            }
        }
        None
    }

    /// Builds one health snapshot at `t_ns`, advancing the health window
    /// state (rate baseline, watchdog) when health reporting is on. Also
    /// used for the final snapshot of a truncated run even when no health
    /// config is set — the window then spans the whole run.
    fn health_snapshot(&mut self, t_ns: u64) -> HealthSnapshot {
        let answers = self.stats.answers;
        let table_bytes = self.stats.table_bytes;
        let (answer_rate, stalled) = match self.health.as_mut() {
            Some(h) => {
                let dt = t_ns.saturating_sub(h.last_ns);
                let da = answers - h.last_answers;
                let rate = if dt > 0 {
                    da as f64 * 1e9 / dt as f64
                } else {
                    0.0
                };
                let stalled = h.watchdog.observe(answers, table_bytes);
                h.last_ns = t_ns;
                h.last_steps = self.stats.steps;
                h.last_answers = answers;
                (rate, stalled)
            }
            None => {
                let dt = t_ns.saturating_sub(self.start_ns);
                let rate = if dt > 0 {
                    answers as f64 * 1e9 / dt as f64
                } else {
                    0.0
                };
                (rate, false)
            }
        };
        HealthSnapshot {
            t_ns,
            steps: self.stats.steps,
            worklist: self.scheduler.len(),
            expands: self.scheduler.class_len(TaskClass::Expand),
            returns: self.scheduler.class_len(TaskClass::Return),
            tables: self.subgoals.len(),
            completed_tables: self.subgoals.iter().filter(|s| s.complete).count(),
            answers,
            duplicate_answers: self.stats.duplicate_answers,
            table_bytes,
            answer_rate,
            peak_heap_bytes: tablog_alloc::is_tracking().then(|| tablog_alloc::stats().peak_bytes),
            stalled,
        }
    }

    /// Emits a periodic health snapshot if either cadence is due. Only
    /// called when `health` is `Some`; the step cadence costs no clock
    /// read until it fires, the time cadence reads the clock once.
    fn health_tick(&mut self) {
        let due = {
            let h = self.health.as_ref().expect("health_tick gated on health");
            let step_due =
                h.cfg.every_steps > 0 && self.stats.steps - h.last_steps >= h.cfg.every_steps;
            if step_due {
                Some(now_ns())
            } else if h.cfg.every_ms > 0 {
                let t = now_ns();
                (t.saturating_sub(h.last_ns) >= h.cfg.every_ms.saturating_mul(1_000_000))
                    .then_some(t)
            } else {
                None
            }
        };
        if let Some(t_ns) = due {
            let snap = self.health_snapshot(t_ns);
            if let Some(sink) = self.trace {
                sink.health(&snap);
            }
        }
    }

    /// Opens a span when span recording is on; no-op (and no timestamp)
    /// otherwise.
    pub(crate) fn span_enter(&mut self, name: &str, pred: Option<Functor>) {
        if let (Some(em), Some(sink)) = (self.spans.as_mut(), self.trace) {
            em.enter(sink, name, pred);
        }
    }

    /// Closes the innermost open span when span recording is on.
    pub(crate) fn span_exit(&mut self) {
        if let (Some(em), Some(sink)) = (self.spans.as_mut(), self.trace) {
            em.exit(sink);
        }
    }

    pub(crate) fn push(&mut self, task: Task) {
        let class = match &task {
            Task::Expand(n) => {
                if !self
                    .seen_nodes
                    .insert(u64::from(n.subgoal) << 32 | n.root.index() as u64)
                {
                    return;
                }
                TaskClass::Expand
            }
            Task::Return(..) => TaskClass::Return,
        };
        self.scheduler.push(class, task);
    }

    pub(crate) fn run(
        &mut self,
        goals: &[Term],
        template: &[Term],
        b0: &Bindings,
    ) -> Result<Evaluation, EngineError> {
        // A span left open by an `?` early return below is fine: the
        // recorder clamps open spans to the last observed timestamp.
        self.span_enter("evaluate", None);
        // The synthetic `$query` root subgoal and its root derivation node.
        let root_f = Functor::new("$query", template.len());
        let key = self.arena.canonicalize(b0, template);
        let root = self.subgoals.len();
        self.stats.subgoals += 1;
        let state = SubgoalState::new(root_f, key, &self.arena);
        let bytes = state.table_bytes();
        self.stats.table_bytes += bytes;
        if let Some(sink) = self.trace {
            let call = self.arena.terms(&key);
            sink.event(&TraceEvent::NewSubgoal {
                pred: root_f,
                call: &call,
                bytes,
            });
        }
        self.subgoals.push(state);
        let node = Node {
            subgoal: root as u32,
            root: self.arena.canonicalize2(b0, template, goals).root_id(),
            prov: self.fresh_prov(),
        };
        self.push(Task::Expand(node));
        self.drain()?;
        if self.truncated.is_some() {
            self.settle()?;
        }
        let truncated = self.truncated.take();
        if truncated.is_none() {
            self.span_enter("completion", None);
            for s in &mut self.subgoals {
                s.complete = true;
                if let Some(sink) = self.trace {
                    sink.event(&TraceEvent::SubgoalComplete {
                        pred: s.functor,
                        answers: s.answers.len(),
                        bytes: s.table_bytes(),
                    });
                }
            }
            self.span_exit(); // completion
        }
        // Tables of a truncated run stay unmarked (`complete == false`) —
        // their answers are genuine but not known exhaustive — yet the byte
        // accounting invariants hold either way.
        debug_assert_eq!(
            self.stats.table_bytes,
            self.subgoals
                .iter()
                .map(|s| s.rescan_bytes(&self.arena))
                .sum::<usize>(),
            "incremental table-byte accounting drifted from the tables"
        );
        debug_assert!(
            self.subgoals
                .iter()
                .all(|s| s.byte_breakdown().attributed() == s.table_bytes()),
            "per-table byte attribution does not sum to table_bytes"
        );
        // One final snapshot closes every health-reporting run and stamps
        // every truncation; a run with neither takes no timestamp here.
        let truncation = if truncated.is_some() || self.health.is_some() {
            let snap = self.health_snapshot(now_ns());
            if self.health.is_some() {
                if let Some(sink) = self.trace {
                    sink.health(&snap);
                }
            }
            truncated.map(|reason| Truncation {
                reason,
                snapshot: snap,
            })
        } else {
            None
        };
        self.span_exit(); // evaluate
        Ok(Evaluation {
            subgoals: std::mem::take(&mut self.subgoals),
            root,
            stats: self.stats,
            scheduler: self.scheduler.name(),
            arena: std::mem::take(&mut self.arena),
            truncation,
        })
    }

    /// Executes one worklist task, wrapped in its per-task span. Per-task
    /// spans attribute time to the predicate whose table the task serves:
    /// the node's own subgoal for an expansion, the watched table for an
    /// answer return.
    fn step(&mut self, task: Task) -> Result<(), EngineError> {
        let spans_on = self.spans.is_some();
        match task {
            Task::Expand(n) => {
                if spans_on {
                    let pred = self.subgoals[n.subgoal as usize].functor;
                    self.span_enter("dispatch", Some(pred));
                }
                let r = self.expand(n);
                if spans_on {
                    self.span_exit();
                }
                r
            }
            Task::Return(c, a) => {
                if spans_on {
                    let pred = self.subgoals[self.consumers[c].watched as usize].functor;
                    self.span_enter("answer_return", Some(pred));
                }
                let r = self.return_answer(c, a);
                if spans_on {
                    self.span_exit();
                }
                r
            }
        }
    }

    fn drain(&mut self) -> Result<(), EngineError> {
        // One sample of the initial state, then one after every task — a
        // run of `steps` tasks yields `steps + 1` samples (negation
        // subcomputations run their own drain and interleave additional
        // samples on the shared sink).
        if self.counters_on {
            self.sample_counters();
        }
        while let Some(task) = self.scheduler.pop() {
            self.stats.steps += 1;
            // Budget trips are graceful: stop scheduling, keep every table
            // row derived so far, and let `run` hand back a truncated
            // evaluation. The popped task is dropped unexecuted (it is
            // counted, preserving the historical step-limit boundary).
            if self.budgets_on {
                if let Some(reason) = self.budget_tripped() {
                    self.truncated = Some(reason);
                    break;
                }
            }
            self.step(task)?;
            if self.counters_on {
                self.sample_counters();
            }
            if self.health.is_some() {
                self.health_tick();
            }
            // A negation subcomputation may have tripped a budget mid-task;
            // stop before expanding anything it scheduled.
            if self.truncated.is_some() {
                break;
            }
        }
        Ok(())
    }

    /// Bounded delivery pass after a budget trip. The drain loop stops the
    /// moment a budget trips, which can leave answers derived *before* the
    /// trip parked in queued [`Task::Return`]s — genuine derivations that
    /// would otherwise never reach their consumers or the root `$query`
    /// table. This pass pops everything queued at trip time, executes only
    /// the answer returns (expansions are dropped: they would grow the
    /// computation the budget just stopped), then discards whatever those
    /// deliveries scheduled. Soundness: a return only propagates an answer
    /// that is already a derivation, so the partial answer set stays a
    /// prefix of the fixpoint. Boundedness: the pass is capped at the
    /// pre-trip queue, so a diverging program cannot keep it alive.
    /// Settle deliveries are not counted as steps — budget accounting is
    /// over once the trip is recorded.
    ///
    /// Two rounds, because a return does not insert by itself: it advances
    /// the consumer and schedules the advanced node as an expansion, and
    /// only expanding a node with no remaining goals performs the insert.
    /// Round one executes the queued returns; round two executes exactly
    /// the spawned continuations that are pure inserts (clause bodies the
    /// delivery completed). Recursive chains need a further return →
    /// expand link, which never runs — that is what bounds the pass.
    fn settle(&mut self) -> Result<(), EngineError> {
        let mut queued = Vec::new();
        while let Some(task) = self.scheduler.pop() {
            queued.push(task);
        }
        for task in queued {
            if let Task::Return(c, a) = task {
                self.return_answer(c, a)?;
            }
        }
        let mut continuations = Vec::new();
        while let Some(task) = self.scheduler.pop() {
            continuations.push(task);
        }
        for task in continuations {
            if let Task::Expand(n) = task {
                // The node packs template ++ goals; length `split` means no
                // goals remain and expansion is exactly the answer insert.
                if self.arena.tuple_len(&self.arena.handle(n.root)) == self.split(&n) {
                    self.expand(n)?;
                }
            }
        }
        // Inserts wake consumers and schedule fresh returns; the run is
        // over, so drop them and report a drained worklist.
        while self.scheduler.pop().is_some() {}
        Ok(())
    }

    /// `Some(empty trail)` when provenance recording is on, `None` (no
    /// allocation) otherwise.
    fn fresh_prov(&self) -> Option<Box<NodeProv>> {
        self.opts.record_provenance.then(Box::<NodeProv>::default)
    }

    /// Starts a resolvent in `st.goals`: the first `n` members of the tuple
    /// `root`, read through the frame at base 0.
    pub(crate) fn open(&self, st: &mut Step, root: TermId, n: usize) {
        st.goals.clear();
        st.goals
            .extend(self.arena.members(root)[..n].iter().map(|&k| Val::Id(k, 0)));
    }

    /// Completes the resolvent in `st.goals` with the goals of node `rest_of`
    /// after its selected one, interns it as a node of `sid` in one walk
    /// over ids and bindings, and schedules it.
    pub(crate) fn schedule(
        &mut self,
        st: &mut Step,
        sid: usize,
        rest_of: Option<TermId>,
        prov: Option<Box<NodeProv>>,
    ) -> Result<(), tablog_term::Cyclic> {
        if let Some(root) = rest_of {
            let split = self.subgoals[sid].functor.arity;
            st.goals.extend(
                self.arena.members(root)[split + 1..]
                    .iter()
                    .map(|&k| Val::Id(k, 0)),
            );
        }
        let key = self.arena.resolve(&st.env, &st.goals)?;
        debug_assert!(
            self.arena.tuple_len(&key) >= self.subgoals[sid].functor.arity,
            "resolvent shorter than its answer template"
        );
        self.push(Task::Expand(Node {
            subgoal: sid as u32,
            root: key.root_id(),
            prov,
        }));
        Ok(())
    }

    /// The error for a resolvent made cyclic while solving goal `g` of a
    /// node.
    pub(crate) fn cyclic(&self, g: TermId) -> EngineError {
        EngineError::CyclicTerm(tablog_syntax::term_to_string(&self.arena.term_at(g, 0)))
    }

    /// The principal functor of the first of `args`, for clause indexing;
    /// `None` for a variable or no argument.
    pub(crate) fn first_head(&self, args: &[TermId]) -> Option<Head> {
        match self.arena.view(*args.first()?) {
            TermView::Var(_) => None,
            TermView::Atom(s) => Some(Head::Atom(s)),
            TermView::Int(i) => Some(Head::Int(i)),
            TermView::Struct(s, kids) => Some(Head::Struct(s, kids.len())),
        }
    }

    pub(crate) fn expand(&mut self, node: Node) -> Result<(), EngineError> {
        let sid = node.subgoal as usize;
        let split = self.split(&node);
        let Some(&g) = self.arena.members(node.root).get(split) else {
            // No goals left: the node's tuple is its answer template,
            // already canonical.
            let ans = self.arena.handle(node.root);
            self.add_answer(sid, ans, node.prov);
            return Ok(());
        };
        let mut st = self.take_step();
        st.env.frame(self.arena.handle(node.root).num_vars());
        let r = self.solve_goal(&mut st, sid, node.root, g, node.prov);
        self.give_step(st);
        r
    }

    /// Solves the selected goal `g` of node `root` (of subgoal `sid`),
    /// whose frame is `st.env`'s base-0 frame, still unbound.
    fn solve_goal(
        &mut self,
        st: &mut Step,
        sid: usize,
        root: TermId,
        g: TermId,
        prov: Option<Box<NodeProv>>,
    ) -> Result<(), EngineError> {
        let f = match self.arena.view(g) {
            TermView::Atom(name) => Functor { name, arity: 0 },
            TermView::Struct(name, args) => Functor {
                name,
                arity: args.len(),
            },
            _ => {
                return Err(EngineError::BadGoal(format!(
                    "{}",
                    self.arena.term_at(g, 0)
                )))
            }
        };
        let split = self.subgoals[sid].functor.arity;
        let arg = |m: &Self, i: usize| m.arena.args(g)[i];
        // Control constructs rewrite the goal list on ids alone.
        let goals: [Option<TermId>; 2] = match (sym_str(f.name), f.arity) {
            (",", 2) | ("->", 2) => [Some(arg(self, 0)), Some(arg(self, 1))],
            (";", 2) => {
                // (C -> T ; E) gets soft if-then-else semantics:
                // (C, T) or (\+ C, E). `\+ C` numbers its variables as the
                // node does, which is how the resolvent numbers them too:
                // both start with the template, then C.
                let (l, r) = (arg(self, 0), arg(self, 1));
                let branches = match self.arena.view(l) {
                    TermView::Struct(s, &[c, t]) if sym_str(s) == "->" => {
                        let not_c = self.arena.intern_struct(self.syms.not, &[c]);
                        [[Some(c), Some(t)], [Some(not_c), Some(r)]]
                    }
                    _ => [[Some(l), None], [Some(r), None]],
                };
                for branch in branches {
                    self.open(st, root, split);
                    st.goals
                        .extend(branch.iter().flatten().map(|&k| Val::Id(k, 0)));
                    self.schedule(st, sid, Some(root), prov.clone())
                        .map_err(|_| self.cyclic(g))?;
                }
                return Ok(());
            }
            ("\\+", 1) | ("not", 1) => {
                let goal = self.materialize(&[arg(self, 0)]).remove(0);
                let fails = !self.provable(goal)?;
                // A truncated subcomputation cannot witness failure: its
                // empty answer set proves nothing, so the continuation must
                // not be scheduled on the strength of it.
                if !fails || self.truncated.is_some() {
                    return Ok(());
                }
                [None, None]
            }
            // Cut is approximated by `true`: sound (a superset of solutions)
            // for the minimal-model analyses this engine serves; see README.
            ("!", 0) | ("true", 0) => [None, None],
            ("call", 1) => [Some(arg(self, 0)), None],
            _ => return self.solve_call(f, st, sid, root, g, prov),
        };
        self.open(st, root, split);
        st.goals
            .extend(goals.iter().flatten().map(|&k| Val::Id(k, 0)));
        self.schedule(st, sid, Some(root), prov)
            .map_err(|_| self.cyclic(g))
    }

    /// Solves a goal that is no control construct: a builtin, a tabled
    /// call, or an SLD call.
    fn solve_call(
        &mut self,
        f: Functor,
        st: &mut Step,
        sid: usize,
        root: TermId,
        g: TermId,
        prov: Option<Box<NodeProv>>,
    ) -> Result<(), EngineError> {
        if lookup_builtin(f).is_some() {
            return self.solve_builtin(f, st, sid, root, g, prov);
        }
        if !self.db.is_defined(f) {
            return match self.opts.unknown {
                Unknown::Fail => Ok(()),
                Unknown::Error => Err(EngineError::UnknownPredicate(f)),
            };
        }
        if self.db.is_tabled(f) {
            self.solve_tabled(f, st, sid, root, g, prov)
        } else {
            self.solve_sld(f, st, sid, root, g, prov)
        }
    }

    /// The variant key of call `g`: its arguments, renumbered.
    fn call_key(&mut self, st: &mut Step, g: TermId) -> CanonicalTerm {
        st.goals.clear();
        st.goals
            .extend(self.arena.args(g).iter().map(|&k| Val::Id(k, 0)));
        self.arena
            .resolve(&st.env, &st.goals)
            .expect("an unbound frame has no cycle")
    }

    fn solve_tabled(
        &mut self,
        f: Functor,
        st: &mut Step,
        sid: usize,
        root: TermId,
        g: TermId,
        prov: Option<Box<NodeProv>>,
    ) -> Result<(), EngineError> {
        let opts = self.opts;
        let mut key = if opts.forward_subsumption {
            let open = self.open_call_key(st, f);
            if let Some(sink) = self.trace {
                // Only report calls that subsumption actually generalized.
                let specific = self.call_key(st, g);
                if specific != open {
                    let call = self.arena.terms(&specific);
                    let subsumer = self.arena.terms(&open);
                    sink.event(&TraceEvent::SubsumedCall {
                        pred: f,
                        call: &call,
                        subsumer: &subsumer,
                    });
                }
            }
            open
        } else {
            self.call_key(st, g)
        };
        if let Some(hook) = &opts.call_abstraction {
            let abstracted = hook(&mut self.arena, &key);
            if let Some(sink) = self.trace {
                if abstracted != key {
                    let original = self.arena.terms(&key);
                    let widened = self.arena.terms(&abstracted);
                    sink.event(&TraceEvent::CallAbstracted {
                        pred: f,
                        original: &original,
                        abstracted: &widened,
                    });
                }
            }
            key = abstracted;
        }
        // The node itself, with the tabled goal still selected, becomes the
        // consumer: nothing is bound yet, so it is its own resolvent. The
        // trail parks on the consumer; each answer return extends a copy of
        // it with the consumed answer.
        let node = Node {
            subgoal: sid as u32,
            root,
            prov,
        };
        let watched = self.find_or_create_subgoal(f, key)?;
        let cid = self.consumers.len();
        // Back-fill the answers the table already holds and park the cursor
        // at the high-water mark; `add_answer` advances it from there, so
        // the consumer never rescans `0..answers.len()` on later wake-ups.
        let known = self.subgoals[watched].answers.len();
        self.consumers.push(Consumer {
            node,
            watched: watched as u32,
            next: known as u32,
        });
        self.subgoals[watched].consumers.push(cid);
        for idx in 0..known {
            self.push(Task::Return(cid, idx));
        }
        Ok(())
    }

    fn find_or_create_subgoal(
        &mut self,
        f: Functor,
        key: CanonicalTerm,
    ) -> Result<usize, EngineError> {
        if let Some(&sid) = self.lookup.get(&(f, key.root_id())) {
            return Ok(sid);
        }
        let sid = self.subgoals.len();
        self.stats.subgoals += 1;
        let state = SubgoalState::new(f, key, &self.arena);
        let bytes = state.table_bytes();
        self.stats.table_bytes += bytes;
        if let Some(sink) = self.trace {
            let call = self.arena.terms(&key);
            sink.event(&TraceEvent::NewSubgoal {
                pred: f,
                call: &call,
                bytes,
            });
        }
        self.subgoals.push(state);
        self.lookup.insert((f, key.root_id()), sid);
        // Spawn generator nodes: one per resolving program clause, read in
        // place in a frame after the call's. Each starts a fresh derivation
        // trail rooted at its clause — the answers it eventually produces
        // are supported by that clause.
        let mut st = self.take_step();
        st.env.frame(key.num_vars());
        let db = self.db;
        let occurs = self.opts.occur_check;
        let spans_on = self.spans.is_some();
        if spans_on {
            self.span_enter("clause_resolution", Some(f));
        }
        let first = self.first_head(self.arena.members(key.root_id()));
        for (cidx, clause) in db.matching_clauses_by_head(f, first) {
            self.stats.clause_resolutions += 1;
            if let Some(sink) = self.trace {
                sink.event(&TraceEvent::ClauseResolution { pred: f });
            }
            let m = st.env.mark();
            let base = st.env.frame(clause.nvars);
            let ok = self
                .arena
                .members(key.root_id())
                .iter()
                .zip(clause.head.args())
                .all(|(&x, y)| {
                    st.env.unify(
                        &self.arena,
                        &Val::Id(x, 0),
                        &Val::Term(y.clone(), base),
                        occurs,
                    )
                });
            if ok {
                let prov = self.opts.record_provenance.then(|| {
                    Box::new(NodeProv {
                        clauses: vec![ClauseRef {
                            pred: f,
                            index: cidx,
                        }],
                        premises: Vec::new(),
                    })
                });
                self.open(&mut st, key.root_id(), f.arity);
                st.goals
                    .extend(clause.body.iter().map(|t| Val::Term(t.clone(), base)));
                if self.schedule(&mut st, sid, None, prov).is_err() {
                    let call = self.arena.terms(&key);
                    let goal = if call.is_empty() {
                        Term::Atom(f.name)
                    } else {
                        Term::Struct(f.name, call.into())
                    };
                    return Err(EngineError::CyclicTerm(tablog_syntax::term_to_string(
                        &goal,
                    )));
                }
            }
            st.env.undo_to(m);
        }
        self.give_step(st);
        if spans_on {
            self.span_exit();
        }
        Ok(sid)
    }

    /// The most general call to `f`: distinct fresh variables.
    fn open_call_key(&mut self, st: &mut Step, f: Functor) -> CanonicalTerm {
        let m = st.env.mark();
        let base = st.env.frame(f.arity);
        st.goals.clear();
        st.goals
            .extend((0..f.arity as u32).map(|i| Val::Term(Term::Var(Var(i)), base)));
        let key = self
            .arena
            .resolve(&st.env, &st.goals)
            .expect("an unbound frame has no cycle");
        st.env.undo_to(m);
        key
    }
}

pub(crate) fn flatten_conj(t: &Term, out: &mut Vec<Term>) {
    if let Term::Struct(s, args) = t {
        if args.len() == 2 && sym_str(*s) == "," {
            flatten_conj(&args[0], out);
            flatten_conj(&args[1], out);
            return;
        }
    }
    out.push(t.clone());
}
