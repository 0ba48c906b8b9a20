//! Intra-query parallel SLG: one derivation forest evaluated by several
//! worker threads (see DESIGN.md, "Parallel SLG").
//!
//! The unit of distribution is the predicate SCC. Call-graph SCCs
//! ([`Database::predicate_sccs`]) partition the tabled predicates so that
//! mutual recursion never crosses a partition boundary; each SCC is claimed
//! by exactly one worker the first time any worker calls into it (a
//! compare-and-swap against the least-loaded worker at that moment — the
//! load-balancing role a work-stealing deque plays in task-parallel
//! runtimes, applied at SCC granularity so everything *inside* an SCC stays
//! on one thread and the sequential machine's completion and negation logic
//! keep working unchanged).
//!
//! Each worker owns a full [`Machine`] — private arena, tables, consumers,
//! seen-node set, and a depth-first local worklist — so the hot paths take
//! no locks at all. The only cross-thread traffic is table sharding by
//! ownership: a call to a predicate owned elsewhere parks its consumer node
//! locally and sends the canonical call pattern to the owner; the owner
//! back-fills the answers it already has and forwards each later insert the
//! moment it happens, as materialized (`Arc`-backed, `Send`) terms over a
//! per-worker channel. Variant canonicalization is first-occurrence
//! renaming, so a term re-canonicalized into the receiving worker's arena
//! is the *same* variant — answer identity survives the wire.
//!
//! Termination is a pending-work count: every enqueued task and every sent
//! message increments it before becoming visible, every completed task or
//! handled message decrements it afterwards, and the 1→0 transition means
//! the forest is globally exhausted. Budgets check shared atomic totals at
//! the same dispatch boundary the sequential engine uses; a trip raises a
//! stop flag, every worker runs its local settle pass (plus delivery of
//! already-received remote answers), and the run comes back `Ok` with a
//! [`Truncation`] — exactly the sequential contract.
//!
//! After the workers join, their tables are merged into one fresh session
//! arena (worker 0 first, so the `$query` root keeps index 0). Per-table
//! byte accounting is substitution-factored *per table*, which makes it
//! independent of both insertion order and arena layout — the merged totals
//! are byte-identical to a sequential run's.

use crate::budget::{Truncation, TruncationReason};
use crate::database::Database;
use crate::error::EngineError;
use crate::machine::Machine;
use crate::options::EngineOptions;
use crate::session::Evaluation;
use crate::table::{SubgoalState, TableStats};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;
use tablog_term::{Bindings, CanonicalTerm, Functor, SharedTerms, Term, TermArena};
use tablog_trace::{now_ns, FlowEvent, HealthSnapshot, MsgKind, StallWatchdog, TraceEvent};

/// Cross-worker message. Terms are materialized (`Arc`-backed) so they are
/// `Send`; the receiver re-canonicalizes them into its own arena.
pub(crate) enum Msg {
    /// "Table this call for me": `call` is the canonical argument tuple of
    /// a call to `pred`, whose SCC the receiver owns. The receiver
    /// back-fills existing answers and forwards future ones to worker
    /// `from`, tagged with `token` (an index into the sender's
    /// `remote_waits`).
    Call {
        pred: Functor,
        call: Vec<Term>,
        from: usize,
        token: usize,
        /// `(flow id, send timestamp)` when flow tracing is on; stamped by
        /// [`ParCtx::send`], completed by the receiver into a [`FlowEvent`].
        flow: Option<(u64, u64)>,
    },
    /// One answer (canonical argument tuple) for the remote wait `token`
    /// registered by an earlier [`Msg::Call`], sent by worker `from`.
    Answer {
        token: usize,
        args: Vec<Term>,
        from: usize,
        /// Flow metadata, as on [`Msg::Call`].
        flow: Option<(u64, u64)>,
    },
}

/// Sentinel for an SCC no worker has claimed yet.
const UNOWNED: usize = usize::MAX;

/// State shared by every worker of one parallel run.
pub(crate) struct ParShared {
    /// Predicate → SCC index, from [`Database::predicate_sccs`].
    scc_of: HashMap<Functor, usize>,
    /// SCC index → owning worker ([`UNOWNED`] until first touch).
    scc_owner: Vec<AtomicUsize>,
    /// Approximate per-worker queue depth, read when claiming an SCC.
    load: Vec<AtomicUsize>,
    /// Enqueued-but-unfinished tasks plus in-flight messages, run-wide.
    pending: AtomicUsize,
    /// Set on the `pending` 1→0 transition: the forest is exhausted.
    done: AtomicBool,
    /// Set on a budget trip or an error: stop scheduling, settle, exit.
    stop: AtomicBool,
    /// First tripped budget (later trips keep the first reason).
    reason: Mutex<Option<TruncationReason>>,
    /// First evaluation error, propagated after the workers join.
    error: Mutex<Option<EngineError>>,
    /// Workers that have exited their loop (the monitor's stop signal).
    finished: AtomicUsize,
    /// Run-wide counters, published as deltas at dispatch boundaries —
    /// what budget checks and the health monitor read.
    steps: AtomicUsize,
    answers: AtomicUsize,
    duplicates: AtomicUsize,
    tables: AtomicUsize,
    table_bytes: AtomicUsize,
    /// Mints process-unique flow ids for traced cross-worker messages.
    flow_ids: AtomicU64,
    /// Absolute wall-clock cutoff shared by every worker, precomputed once
    /// so all workers agree on the deadline.
    deadline_ns: Option<u64>,
}

impl ParShared {
    /// Records a budget trip (first reason wins) and raises the stop flag.
    fn trip(&self, reason: TruncationReason) {
        self.reason.lock().unwrap().get_or_insert(reason);
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Records an error (first error wins) and raises the stop flag.
    fn fail(&self, e: EngineError) {
        self.error.lock().unwrap().get_or_insert(e);
        self.stop.store(true, Ordering::SeqCst);
    }

    /// The shared-total analog of the sequential machine's budget check,
    /// in the same fixed order (steps, table bytes, deadline).
    fn budget_tripped(&self, opts: &EngineOptions) -> Option<TruncationReason> {
        if let Some(limit) = opts.max_steps {
            if self.steps.load(Ordering::Relaxed) > limit {
                return Some(TruncationReason::Steps(limit));
            }
        }
        if let Some(limit) = opts.max_table_bytes {
            if self.table_bytes.load(Ordering::Relaxed) > limit {
                return Some(TruncationReason::TableBytes(limit));
            }
        }
        if let Some(cutoff) = self.deadline_ns {
            if now_ns() >= cutoff {
                let ms = opts.deadline.map_or(0, |d| d.as_millis() as u64);
                return Some(TruncationReason::DeadlineMs(ms));
            }
        }
        None
    }

    /// One health snapshot of the whole run, from the shared totals. The
    /// per-class worklist split is not tracked across workers; `worklist`
    /// reports the pending-work count (tasks plus in-flight messages).
    fn snapshot(&self, t_ns: u64, answer_rate: f64, stalled: bool) -> HealthSnapshot {
        HealthSnapshot {
            t_ns,
            steps: self.steps.load(Ordering::Relaxed),
            worklist: self.pending.load(Ordering::Relaxed),
            expands: 0,
            returns: 0,
            tables: self.tables.load(Ordering::Relaxed),
            completed_tables: 0,
            answers: self.answers.load(Ordering::Relaxed),
            duplicate_answers: self.duplicates.load(Ordering::Relaxed),
            table_bytes: self.table_bytes.load(Ordering::Relaxed),
            answer_rate,
            peak_heap_bytes: tablog_alloc::is_tracking().then(|| tablog_alloc::stats().peak_bytes),
            stalled,
        }
    }
}

/// One worker's handle on the parallel run: its identity, the shared
/// state, a sender per peer, and the worker-local message accounting the
/// [`ParallelReport`] is assembled from after the join.
///
/// The message counters are [`Cell`]s because sends happen behind a shared
/// borrow of the machine; they are strictly worker-local (the context
/// never leaves its thread), so no synchronization is involved. Counting
/// is always on in parallel mode — a few `Cell` adds per message — because
/// the bench columns (`msgs_sent`, `imbalance`, `idle_pct`) need it;
/// *flow* records, which take timestamps, stay gated behind span
/// recording.
pub(crate) struct ParCtx {
    pub(crate) me: usize,
    pub(crate) shared: Arc<ParShared>,
    senders: Vec<Sender<Msg>>,
    /// Whether sends stamp flow metadata (span recording + a sink).
    flows_on: bool,
    /// Messages sent, per destination worker, by kind.
    sent_calls: Vec<Cell<u64>>,
    sent_answers: Vec<Cell<u64>>,
    /// Messages received, per source worker, by kind, plus the
    /// re-canonicalized payload bytes (receiver-side accounting).
    recv_calls: Vec<Cell<u64>>,
    recv_answers: Vec<Cell<u64>>,
    recv_bytes: Vec<Cell<u64>>,
    /// Completed flow records: the receiver holds both endpoints'
    /// timestamps, so flows are recorded here, on the receiving side.
    flows: RefCell<Vec<FlowEvent>>,
    /// Ground structure already interned from received messages: each
    /// answer a table forwards shares most of its terms with the last, so
    /// re-canonicalizing it walks only what is new.
    wire: SharedTerms,
}

impl ParCtx {
    fn new(me: usize, shared: Arc<ParShared>, senders: Vec<Sender<Msg>>, flows_on: bool) -> Self {
        let threads = senders.len();
        let zeros = || (0..threads).map(|_| Cell::new(0)).collect();
        ParCtx {
            me,
            shared,
            senders,
            flows_on,
            sent_calls: zeros(),
            sent_answers: zeros(),
            recv_calls: zeros(),
            recv_answers: zeros(),
            recv_bytes: zeros(),
            flows: RefCell::new(Vec::new()),
            wire: SharedTerms::default(),
        }
    }

    /// Accounts one locally enqueued task (called from [`Machine::push`]).
    pub(crate) fn on_enqueue(&self) {
        self.shared.pending.fetch_add(1, Ordering::SeqCst);
        self.shared.load[self.me].fetch_add(1, Ordering::Relaxed);
    }

    /// Marks one unit of pending work (task or message) fully processed;
    /// the 1→0 transition ends the run.
    fn finish_unit(&self) {
        if self.shared.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.shared.done.store(true, Ordering::SeqCst);
        }
    }

    /// Total messages this worker has sent so far (both kinds, all
    /// destinations) — the `msgs_sent` series of worker counter samples.
    pub(crate) fn msgs_sent_total(&self) -> u64 {
        self.sent_calls
            .iter()
            .chain(self.sent_answers.iter())
            .map(Cell::get)
            .sum()
    }

    /// Receiver-side accounting for one handled message: per-source
    /// counters, payload bytes, and — when the sender stamped flow
    /// metadata — the completed [`FlowEvent`].
    fn on_receive(&self, kind: MsgKind, from: usize, bytes: usize, flow: Option<(u64, u64)>) {
        let slot = match kind {
            MsgKind::Call => &self.recv_calls[from],
            MsgKind::Answer => &self.recv_answers[from],
        };
        slot.set(slot.get() + 1);
        self.recv_bytes[from].set(self.recv_bytes[from].get() + bytes as u64);
        if let Some((id, send_ns)) = flow {
            self.flows.borrow_mut().push(FlowEvent {
                id,
                kind,
                from,
                to: self.me,
                send_ns,
                recv_ns: now_ns(),
                bytes,
            });
        }
    }

    /// The worker owning `f`'s SCC, claiming it for the least-loaded worker
    /// (ties prefer the caller, for locality) on first touch. Predicates
    /// outside the SCC map — the synthetic `$query` root — evaluate
    /// locally.
    pub(crate) fn owner_of(&self, f: Functor) -> usize {
        let Some(&scc) = self.shared.scc_of.get(&f) else {
            return self.me;
        };
        let slot = &self.shared.scc_owner[scc];
        let cur = slot.load(Ordering::SeqCst);
        if cur != UNOWNED {
            return cur;
        }
        let mut best = self.me;
        let mut best_load = self.shared.load[self.me].load(Ordering::Relaxed);
        for (i, l) in self.shared.load.iter().enumerate() {
            let li = l.load(Ordering::Relaxed);
            if li < best_load {
                best = i;
                best_load = li;
            }
        }
        match slot.compare_exchange(UNOWNED, best, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(_) => best,
            Err(actual) => actual,
        }
    }

    /// Sends `msg` to worker `to`, accounting it as pending work first so
    /// the done detector can never fire while a message is in flight. A
    /// send can only fail during shutdown (the receiver exited after a
    /// stop), in which case the message is moot and its unit is returned.
    ///
    /// This is the single choke point every cross-worker message passes
    /// through: it counts the send per (kind, destination) and, when flow
    /// tracing is on, stamps the message with a fresh flow id and the send
    /// timestamp.
    pub(crate) fn send(&self, to: usize, mut msg: Msg) {
        let (slot, flow) = match &mut msg {
            Msg::Call { flow, .. } => (&self.sent_calls[to], flow),
            Msg::Answer { flow, .. } => (&self.sent_answers[to], flow),
        };
        slot.set(slot.get() + 1);
        if self.flows_on {
            *flow = Some((
                self.shared.flow_ids.fetch_add(1, Ordering::Relaxed),
                now_ns(),
            ));
        }
        self.shared.pending.fetch_add(1, Ordering::SeqCst);
        self.shared.load[to].fetch_add(1, Ordering::Relaxed);
        if self.senders[to].send(msg).is_err() {
            self.finish_unit();
        }
    }
}

impl Machine<'_> {
    /// Handles one cross-worker message on this worker's machine.
    fn handle_msg(&mut self, msg: Msg) -> Result<(), EngineError> {
        match msg {
            Msg::Call {
                pred,
                call,
                from,
                token,
                flow,
            } => {
                // Re-canonicalize the wire terms into this arena: variant
                // canonical form is arena-independent, so this is exactly
                // the caller's call pattern. The subgoal lookup then dedups
                // repeated remote calls the same way local calls dedup.
                let key = self.intern_wire(&call);
                let bytes = self.arena.heap_bytes(&key);
                let me = self.par.as_ref().expect("message implies parallel");
                me.on_receive(MsgKind::Call, from, bytes, flow);
                let sid = self.find_or_create_subgoal(pred, key)?;
                // Back-fill, then register — both on this thread, so the
                // remote consumer sees every answer exactly once.
                for i in 0..self.subgoals[sid].answers.len() {
                    let args = self.arena.terms(&self.subgoals[sid].answers[i]);
                    let par = self.par.as_ref().expect("message implies parallel");
                    par.send(
                        from,
                        Msg::Answer {
                            token,
                            args,
                            from: par.me,
                            flow: None,
                        },
                    );
                }
                self.subgoals[sid].remote_consumers.push((from, token));
                Ok(())
            }
            Msg::Answer {
                token,
                args,
                from,
                flow,
            } => {
                // Intern the wire answer once, for byte accounting and for
                // the delivery below.
                let ans = self.intern_wire(&args);
                let bytes = self.arena.heap_bytes(&ans);
                let me = self.par.as_ref().expect("message implies parallel");
                me.on_receive(MsgKind::Answer, from, bytes, flow);
                let spans_on = self.spans.is_some();
                if spans_on {
                    let pred = self.remote_waits[token].0;
                    self.span_enter("answer_return", Some(pred));
                }
                let r = self.deliver_remote_answer(token, ans);
                if spans_on {
                    self.span_exit();
                }
                r
            }
        }
    }

    /// Canonicalizes wire terms into this worker's arena: variant canonical
    /// form is arena-independent, so the result is the sender's tuple.
    fn intern_wire(&mut self, ts: &[Term]) -> CanonicalTerm {
        let par = self.par.as_mut().expect("message implies parallel");
        self.arena.canonicalize_shared(ts, &mut par.wire)
    }

    /// The remote analog of `return_answer`: resumes the parked consumer
    /// node with one answer that arrived from the owning worker, already
    /// interned here.
    fn deliver_remote_answer(
        &mut self,
        token: usize,
        ans: CanonicalTerm,
    ) -> Result<(), EngineError> {
        let (pred, node) = {
            let (p, n) = &self.remote_waits[token];
            (*p, n.clone())
        };
        if let Some(sink) = self.trace {
            sink.event(&TraceEvent::AnswerReturn { pred });
        }
        self.resume(node.subgoal as usize, node.root, ans, |_| None)
    }
}

/// Per-worker load attribution for one parallel run: where the worker's
/// wall-clock went and how much table/message work it did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerLoad {
    /// Worker index (0-based; worker 0 seeds the `$query` root).
    pub worker: usize,
    /// Time spent executing worklist tasks and handling messages.
    pub busy_ns: u64,
    /// Wall-clock neither busy nor blocked receiving: loop overhead and
    /// spinning with an empty queue.
    pub idle_ns: u64,
    /// Time blocked in the bounded channel receive.
    pub recv_wait_ns: u64,
    /// Worklist tasks executed (this worker's share of `stats.steps`).
    pub dispatches: u64,
    /// Cross-worker messages sent (calls + answers, all destinations).
    pub msgs_sent: u64,
    /// Cross-worker messages received (calls + answers, all sources).
    pub msgs_received: u64,
    /// Call tables this worker owned at exit.
    pub tables: usize,
    /// Unique answers admitted into this worker's tables.
    pub answers: usize,
}

impl WorkerLoad {
    /// Total wall-clock the worker's loop was alive.
    pub fn wall_ns(&self) -> u64 {
        self.busy_ns + self.idle_ns + self.recv_wait_ns
    }
}

/// One SCC of the call graph and the worker that claimed it (or `None`
/// when no call ever touched the SCC, so it stayed unclaimed).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SccOwner {
    /// SCC index, per [`Database::predicate_sccs`].
    pub scc: usize,
    /// Claiming worker, if any.
    pub owner: Option<usize>,
    /// Member predicates as `"name/arity"`, sorted.
    pub preds: Vec<String>,
}

/// Message traffic over one directed worker pair, combining the sender's
/// and the receiver's independent accounting. On a run that completes
/// (no budget trip), sent and received totals agree per edge — the
/// pending-work counter guarantees every in-flight message is handled
/// before the done flag can rise.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MsgEdge {
    /// Sending worker.
    pub from: usize,
    /// Receiving worker.
    pub to: usize,
    /// `Msg::Call`s counted at the send choke point.
    pub calls_sent: u64,
    /// `Msg::Answer`s counted at the send choke point.
    pub answers_sent: u64,
    /// `Msg::Call`s counted by the receiver.
    pub calls_received: u64,
    /// `Msg::Answer`s counted by the receiver.
    pub answers_received: u64,
    /// Re-canonicalized payload bytes, counted by the receiver.
    pub bytes_received: u64,
}

/// Load-balance and message-flow attribution for one parallel evaluation:
/// who owned which SCC, where each worker's time went, and what crossed
/// between workers. Attached to the [`Evaluation`] of every
/// `--scheduler parallel` run and surfaced by `tablog workers` and
/// `stats --json`.
#[derive(Clone, Debug, Default)]
pub struct ParallelReport {
    /// Worker count the run actually used (0 in `EngineOptions::threads`
    /// resolves to the core count before this is recorded).
    pub threads: usize,
    /// Per-worker load attribution, indexed by worker.
    pub workers: Vec<WorkerLoad>,
    /// SCC → owner map, indexed by SCC.
    pub sccs: Vec<SccOwner>,
    /// Directed worker pairs with any traffic, sorted by `(from, to)`.
    pub edges: Vec<MsgEdge>,
    /// Completed flow records (empty unless span recording was on).
    pub flows: Vec<FlowEvent>,
    /// The pending-work count observed after the workers joined: 0 for a
    /// run that completed; a truncated run may abandon queued units.
    pub pending_at_exit: usize,
}

impl ParallelReport {
    /// Load imbalance: the busiest worker's busy time over the mean busy
    /// time. 1.0 is a perfectly balanced run; `threads`-ish means one
    /// worker did everything. 1.0 when nothing was measured.
    pub fn imbalance(&self) -> f64 {
        let busy: Vec<u64> = self.workers.iter().map(|w| w.busy_ns).collect();
        let sum: u64 = busy.iter().sum();
        if busy.is_empty() || sum == 0 {
            return 1.0;
        }
        let mean = sum as f64 / busy.len() as f64;
        *busy.iter().max().expect("nonempty") as f64 / mean
    }

    /// Share of total worker wall-clock not spent busy, as a percentage —
    /// idle spinning plus receive waits.
    pub fn idle_pct(&self) -> f64 {
        let wall: u64 = self.workers.iter().map(|w| w.wall_ns()).sum();
        if wall == 0 {
            return 0.0;
        }
        let busy: u64 = self.workers.iter().map(|w| w.busy_ns).sum();
        (wall - busy.min(wall)) as f64 * 100.0 / wall as f64
    }

    /// Total cross-worker messages sent.
    pub fn msgs_sent_total(&self) -> u64 {
        self.workers.iter().map(|w| w.msgs_sent).sum()
    }

    /// Renders the report as a JSON object. Flow records are summarized by
    /// count (`flow_events`); the full records only ship in the Chrome
    /// trace, where they become `ph:"s"/"f"` arrows.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"threads\":{},\"imbalance\":{:.3},\"idle_pct\":{:.1},\
             \"msgs_sent\":{},\"pending_at_exit\":{},\"flow_events\":{}",
            self.threads,
            self.imbalance(),
            self.idle_pct(),
            self.msgs_sent_total(),
            self.pending_at_exit,
            self.flows.len()
        );
        s.push_str(",\"workers\":[");
        for (i, w) in self.workers.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"worker\":{},\"busy_ns\":{},\"idle_ns\":{},\"recv_wait_ns\":{},\
                 \"dispatches\":{},\"msgs_sent\":{},\"msgs_received\":{},\
                 \"tables\":{},\"answers\":{}}}",
                w.worker,
                w.busy_ns,
                w.idle_ns,
                w.recv_wait_ns,
                w.dispatches,
                w.msgs_sent,
                w.msgs_received,
                w.tables,
                w.answers
            );
        }
        s.push_str("],\"sccs\":[");
        for (i, o) in self.sccs.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let owner = o.owner.map_or("null".to_string(), |w| w.to_string());
            let preds: Vec<String> = o
                .preds
                .iter()
                .map(|p| format!("\"{}\"", tablog_trace::json::escape(p)))
                .collect();
            let _ = write!(
                s,
                "{{\"scc\":{},\"owner\":{owner},\"preds\":[{}]}}",
                o.scc,
                preds.join(",")
            );
        }
        s.push_str("],\"edges\":[");
        for (i, e) in self.edges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"from\":{},\"to\":{},\"calls_sent\":{},\"answers_sent\":{},\
                 \"calls_received\":{},\"answers_received\":{},\"bytes_received\":{}}}",
                e.from,
                e.to,
                e.calls_sent,
                e.answers_sent,
                e.calls_received,
                e.answers_received,
                e.bytes_received
            );
        }
        s.push_str("]}");
        s
    }

    /// Renders the report as fixed-width text (the `tablog workers` view).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "parallel run: {} workers, imbalance {:.2}, idle {:.1}%, {} messages",
            self.threads,
            self.imbalance(),
            self.idle_pct(),
            self.msgs_sent_total()
        );
        let _ = writeln!(
            out,
            "{:<8} {:>10} {:>10} {:>10} {:>10} {:>6} {:>6} {:>7} {:>8}",
            "worker",
            "busy(ms)",
            "idle(ms)",
            "wait(ms)",
            "tasks",
            "sent",
            "recvd",
            "tables",
            "answers"
        );
        for w in &self.workers {
            let _ = writeln!(
                out,
                "{:<8} {:>10.3} {:>10.3} {:>10.3} {:>10} {:>6} {:>6} {:>7} {:>8}",
                w.worker,
                w.busy_ns as f64 / 1e6,
                w.idle_ns as f64 / 1e6,
                w.recv_wait_ns as f64 / 1e6,
                w.dispatches,
                w.msgs_sent,
                w.msgs_received,
                w.tables,
                w.answers
            );
        }
        if !self.sccs.is_empty() {
            let _ = writeln!(out, "scc ownership:");
            for o in &self.sccs {
                let owner = o
                    .owner
                    .map_or("unclaimed".to_string(), |w| format!("worker {w}"));
                let _ = writeln!(out, "  scc {}: {} — {}", o.scc, owner, o.preds.join(", "));
            }
        }
        if !self.edges.is_empty() {
            let _ = writeln!(out, "message matrix (from → to):");
            for e in &self.edges {
                let _ = writeln!(
                    out,
                    "  {} → {}: {} calls, {} answers, {} bytes",
                    e.from, e.to, e.calls_sent, e.answers_sent, e.bytes_received
                );
            }
        }
        out
    }
}

/// Where one worker's loop spent its wall-clock, accumulated inside
/// [`worker_loop`] (by `&mut` so the numbers survive an error exit).
#[derive(Clone, Copy, Default)]
struct WorkerTiming {
    busy_ns: u64,
    recv_wait_ns: u64,
    wall_ns: u64,
    dispatches: u64,
}

/// What one worker hands back besides its tables: timing, message
/// matrices, and flow records, merged into the [`ParallelReport`].
#[derive(Default)]
struct WorkerTelemetry {
    busy_ns: u64,
    recv_wait_ns: u64,
    wall_ns: u64,
    dispatches: u64,
    sent_calls: Vec<u64>,
    sent_answers: Vec<u64>,
    recv_calls: Vec<u64>,
    recv_answers: Vec<u64>,
    recv_bytes: Vec<u64>,
    flows: Vec<FlowEvent>,
}

impl ParCtx {
    /// Unwraps the worker-local accounting into plain data once the worker
    /// loop has exited and the context is back on one thread for good.
    fn into_telemetry(self, timing: WorkerTiming) -> WorkerTelemetry {
        let unwrap = |v: Vec<Cell<u64>>| v.into_iter().map(Cell::into_inner).collect();
        WorkerTelemetry {
            busy_ns: timing.busy_ns,
            recv_wait_ns: timing.recv_wait_ns,
            wall_ns: timing.wall_ns,
            dispatches: timing.dispatches,
            sent_calls: unwrap(self.sent_calls),
            sent_answers: unwrap(self.sent_answers),
            recv_calls: unwrap(self.recv_calls),
            recv_answers: unwrap(self.recv_answers),
            recv_bytes: unwrap(self.recv_bytes),
            flows: self.flows.into_inner(),
        }
    }
}

/// Counter values already published to the shared totals, per worker.
#[derive(Default)]
struct Published {
    steps: usize,
    answers: usize,
    duplicates: usize,
    tables: usize,
    table_bytes: usize,
}

/// Publishes this worker's counter growth since the last call.
fn publish(m: &Machine<'_>, shared: &ParShared, p: &mut Published) {
    let s = m.stats;
    if s.steps > p.steps {
        shared.steps.fetch_add(s.steps - p.steps, Ordering::Relaxed);
        p.steps = s.steps;
    }
    if s.answers > p.answers {
        shared
            .answers
            .fetch_add(s.answers - p.answers, Ordering::Relaxed);
        p.answers = s.answers;
    }
    if s.duplicate_answers > p.duplicates {
        shared
            .duplicates
            .fetch_add(s.duplicate_answers - p.duplicates, Ordering::Relaxed);
        p.duplicates = s.duplicate_answers;
    }
    if s.subgoals > p.tables {
        shared
            .tables
            .fetch_add(s.subgoals - p.tables, Ordering::Relaxed);
        p.tables = s.subgoals;
    }
    if s.table_bytes > p.table_bytes {
        shared
            .table_bytes
            .fetch_add(s.table_bytes - p.table_bytes, Ordering::Relaxed);
        p.table_bytes = s.table_bytes;
    }
}

/// One worker's main loop: drain incoming messages, run local tasks, idle
/// briefly when neither is available, exit on global completion or stop.
///
/// `timing` is accumulated in place (rather than returned) so the numbers
/// survive an error exit: busy time brackets message handling and task
/// dispatch, receive-wait time brackets the blocking receive, and the
/// remainder of the wall-clock is idle spinning.
fn worker_loop(
    m: &mut Machine<'_>,
    rx: &Receiver<Msg>,
    budgets_on: bool,
    timing: &mut WorkerTiming,
) -> Result<(), EngineError> {
    let shared = m.par.as_ref().expect("worker has a context").shared.clone();
    let me = m.par.as_ref().expect("worker has a context").me;
    let mut published = Published::default();
    let loop_start = now_ns();
    let finish = |timing: &mut WorkerTiming| {
        timing.wall_ns = now_ns().saturating_sub(loop_start);
    };
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        // Messages first: they are work other workers are waiting on.
        let mut handled = false;
        while let Ok(msg) = rx.try_recv() {
            let t0 = now_ns();
            let r = m.handle_msg(msg);
            timing.busy_ns += now_ns().saturating_sub(t0);
            if let Err(e) = r {
                finish(timing);
                return Err(e);
            }
            shared.load[me].fetch_sub(1, Ordering::Relaxed);
            finish_unit(&shared);
            handled = true;
            if shared.stop.load(Ordering::SeqCst) {
                break;
            }
        }
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        if let Some(task) = m.scheduler.pop() {
            shared.load[me].fetch_sub(1, Ordering::Relaxed);
            m.stats.steps += 1;
            // The sequential dispatch boundary, against shared totals: the
            // popped task is dropped unexecuted on a trip (it is counted),
            // preserving the budget-boundary convention.
            if budgets_on {
                publish(m, &shared, &mut published);
                if let Some(reason) = shared.budget_tripped(m.opts) {
                    shared.trip(reason);
                    finish_unit(&shared);
                    break;
                }
            }
            timing.dispatches += 1;
            let t0 = now_ns();
            let r = m.step(task);
            timing.busy_ns += now_ns().saturating_sub(t0);
            if let Err(e) = r {
                finish(timing);
                return Err(e);
            }
            finish_unit(&shared);
            if m.counters_on {
                m.sample_counters();
            }
            publish(m, &shared, &mut published);
            // A negation subcomputation tripped a budget mid-task: stop the
            // whole run, exactly as the sequential drain stops.
            if let Some(reason) = m.truncated {
                shared.trip(reason);
                break;
            }
            continue;
        }
        if shared.done.load(Ordering::SeqCst) {
            break;
        }
        if handled {
            continue;
        }
        let t_wait = now_ns();
        let received = rx.recv_timeout(Duration::from_millis(1));
        timing.recv_wait_ns += now_ns().saturating_sub(t_wait);
        match received {
            Ok(msg) => {
                let t0 = now_ns();
                let r = m.handle_msg(msg);
                timing.busy_ns += now_ns().saturating_sub(t0);
                if let Err(e) = r {
                    finish(timing);
                    return Err(e);
                }
                shared.load[me].fetch_sub(1, Ordering::Relaxed);
                finish_unit(&shared);
                publish(m, &shared, &mut published);
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    publish(m, &shared, &mut published);
    // A budget-stopped run settles: deliver already-queued local returns,
    // then already-received remote answers, so answers derived before the
    // trip reach their consumers (and the root) — the parallel analog of
    // the sequential settle pass. Stops caused by an error skip this.
    if shared.stop.load(Ordering::SeqCst) && shared.error.lock().unwrap().is_none() {
        let t0 = now_ns();
        let settle = settle_worker(m, rx);
        timing.busy_ns += now_ns().saturating_sub(t0);
        settle?;
        publish(m, &shared, &mut published);
    }
    finish(timing);
    Ok(())
}

/// The parallel settle pass, split out of [`worker_loop`] so the whole
/// thing sits under one busy-time bracket.
fn settle_worker(m: &mut Machine<'_>, rx: &Receiver<Msg>) -> Result<(), EngineError> {
    m.settle()?;
    while let Ok(msg) = rx.try_recv() {
        if let Msg::Answer {
            token,
            args,
            from,
            flow,
        } = msg
        {
            // Same receiver-side accounting as the live path, so truncated
            // runs still balance their message matrices for answers that
            // made it across before the trip.
            let ans = m.intern_wire(&args);
            let bytes = m.arena.heap_bytes(&ans);
            if let Some(par) = m.par.as_ref() {
                par.on_receive(MsgKind::Answer, from, bytes, flow);
            }
            m.deliver_remote_answer(token, ans)?;
        }
    }
    // Expand exactly the pure inserts those deliveries scheduled
    // (continuations with no goals left), then drop the rest — the
    // same bound the sequential settle applies.
    let mut continuations = Vec::new();
    while let Some(task) = m.scheduler.pop() {
        continuations.push(task);
    }
    for task in continuations {
        if let crate::machine::Task::Expand(n) = task {
            if m.arena.tuple_len(&m.arena.handle(n.root)) == m.split(&n) {
                m.expand(n)?;
            }
        }
    }
    while m.scheduler.pop().is_some() {}
    Ok(())
}

/// Free-function version of [`ParCtx::finish_unit`] for when the context
/// sits behind the machine borrow.
fn finish_unit(shared: &ParShared) {
    if shared.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
        shared.done.store(true, Ordering::SeqCst);
    }
}

/// Evaluates `goals` across `opts.threads` workers (0 = one per core) and
/// merges the workers' tables into one [`Evaluation`]. The answer sets are
/// identical to a sequential run's; step counts and insertion order are
/// scheduling-dependent, as they already are across sequential strategies.
pub(crate) fn run_parallel(
    db: &Database,
    opts: &EngineOptions,
    goals: &[Term],
    template: &[Term],
    b0: &Bindings,
) -> Result<Evaluation, EngineError> {
    let threads = match opts.threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    };
    let mut scc_of = HashMap::new();
    for (i, scc) in db.predicate_sccs().iter().enumerate() {
        for f in scc {
            scc_of.insert(*f, i);
        }
    }
    let n_sccs = scc_of.values().max().map_or(0, |m| m + 1);
    let start_ns = now_ns();
    let budgets_on =
        opts.max_steps.is_some() || opts.deadline.is_some() || opts.max_table_bytes.is_some();
    let shared = Arc::new(ParShared {
        scc_of,
        scc_owner: (0..n_sccs).map(|_| AtomicUsize::new(UNOWNED)).collect(),
        load: (0..threads).map(|_| AtomicUsize::new(0)).collect(),
        pending: AtomicUsize::new(0),
        done: AtomicBool::new(false),
        stop: AtomicBool::new(false),
        reason: Mutex::new(None),
        error: Mutex::new(None),
        finished: AtomicUsize::new(0),
        steps: AtomicUsize::new(0),
        answers: AtomicUsize::new(0),
        duplicates: AtomicUsize::new(0),
        tables: AtomicUsize::new(0),
        table_bytes: AtomicUsize::new(0),
        flow_ids: AtomicU64::new(0),
        deadline_ns: opts
            .deadline
            .map(|d| start_ns.saturating_add(d.as_nanos() as u64)),
    });
    // Workers run with health reporting stripped: periodic snapshots under
    // parallelism are the run-wide monitor's job (below), not any single
    // worker's.
    let worker_opts = {
        let mut o = opts.clone();
        o.health = None;
        o
    };
    let mut txs = Vec::with_capacity(threads);
    let mut rxs = Vec::with_capacity(threads);
    for _ in 0..threads {
        let (tx, rx) = mpsc::channel();
        txs.push(tx);
        rxs.push(rx);
    }
    // Flow records take timestamps, so they stay gated exactly like spans;
    // message *counting* (plain `Cell` adds) is always on — the bench
    // columns need it and a run without it would be unexplainable anyway.
    let flows_on = opts.record_spans && opts.trace.is_some();
    type WorkerResult = (Vec<SubgoalState>, TermArena, TableStats, WorkerTelemetry);
    let results: Vec<WorkerResult> = std::thread::scope(|scope| {
        let worker_opts = &worker_opts;
        let mut handles = Vec::with_capacity(threads);
        for (me, rx) in rxs.into_iter().enumerate() {
            let ctx = ParCtx::new(me, shared.clone(), txs.clone(), flows_on);
            let shared = shared.clone();
            handles.push(scope.spawn(move || {
                let mut m = Machine::new(db, worker_opts);
                m.deadline_ns = shared.deadline_ns;
                m.par = Some(ctx);
                // Every worker roots its spans in a worker frame, so folded
                // stacks and flamegraphs attribute time per worker — and
                // tags the emitter so every span carries the worker id into
                // its own Chrome trace lane.
                if let Some(sp) = m.spans.as_mut() {
                    sp.set_worker(me);
                }
                m.span_enter(&format!("worker_{me}"), None);
                if me == 0 {
                    m.seed_root(goals, template, b0);
                }
                let mut timing = WorkerTiming::default();
                if let Err(e) = worker_loop(&mut m, &rx, budgets_on, &mut timing) {
                    shared.fail(e);
                }
                m.span_exit(); // worker_{me}
                shared.finished.fetch_add(1, Ordering::SeqCst);
                let telemetry = m
                    .par
                    .take()
                    .map(|ctx| ctx.into_telemetry(timing))
                    .unwrap_or_default();
                (
                    std::mem::take(&mut m.subgoals),
                    std::mem::take(&mut m.arena),
                    m.stats,
                    telemetry,
                )
            }));
        }
        drop(txs);
        // The run-wide health monitor: periodic snapshots from the shared
        // totals while any worker is still going.
        if let (Some(cfg), Some(sink)) = (opts.health, opts.trace.as_deref()) {
            let mut watchdog = StallWatchdog::new(cfg.stall_window);
            let mut last_ns = start_ns;
            let mut last_steps = 0usize;
            let mut last_answers = 0usize;
            let poll = Duration::from_millis(if cfg.every_ms > 0 {
                cfg.every_ms.min(10)
            } else {
                5
            });
            while shared.finished.load(Ordering::SeqCst) < threads {
                std::thread::sleep(poll);
                let t = now_ns();
                let steps = shared.steps.load(Ordering::Relaxed);
                let step_due = cfg.every_steps > 0 && steps - last_steps >= cfg.every_steps;
                let time_due = cfg.every_ms > 0
                    && t.saturating_sub(last_ns) >= cfg.every_ms.saturating_mul(1_000_000);
                if step_due || time_due {
                    let answers = shared.answers.load(Ordering::Relaxed);
                    let dt = t.saturating_sub(last_ns);
                    let rate = if dt > 0 {
                        (answers - last_answers) as f64 * 1e9 / dt as f64
                    } else {
                        0.0
                    };
                    let stalled =
                        watchdog.observe(answers, shared.table_bytes.load(Ordering::Relaxed));
                    sink.health(&shared.snapshot(t, rate, stalled));
                    last_ns = t;
                    last_steps = steps;
                    last_answers = answers;
                }
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });
    if let Some(e) = shared.error.lock().unwrap().take() {
        return Err(e);
    }
    let reason = shared.reason.lock().unwrap().take();
    let report = build_report(threads, db, &shared, &results);
    Ok(merge(results, reason, opts, start_ns, report))
}

/// Assembles the [`ParallelReport`] from the joined workers' telemetry and
/// the shared SCC-ownership state. Sender- and receiver-side counts are
/// kept distinct per edge: on a clean run they agree, and a mismatch on a
/// truncated run shows exactly which messages the trip abandoned.
fn build_report(
    threads: usize,
    db: &Database,
    shared: &ParShared,
    results: &[(Vec<SubgoalState>, TermArena, TableStats, WorkerTelemetry)],
) -> ParallelReport {
    let mut workers = Vec::with_capacity(threads);
    for (w, (wsubs, _, wstats, tel)) in results.iter().enumerate() {
        workers.push(WorkerLoad {
            worker: w,
            busy_ns: tel.busy_ns,
            idle_ns: tel.wall_ns.saturating_sub(tel.busy_ns + tel.recv_wait_ns),
            recv_wait_ns: tel.recv_wait_ns,
            dispatches: tel.dispatches,
            msgs_sent: tel
                .sent_calls
                .iter()
                .chain(&tel.sent_answers)
                .copied()
                .sum(),
            msgs_received: tel
                .recv_calls
                .iter()
                .chain(&tel.recv_answers)
                .copied()
                .sum(),
            tables: wsubs.len(),
            answers: wstats.answers,
        });
    }
    let sccs = db
        .predicate_sccs()
        .iter()
        .enumerate()
        .map(|(i, scc)| {
            let owner = match shared.scc_owner[i].load(Ordering::SeqCst) {
                UNOWNED => None,
                w => Some(w),
            };
            let mut preds: Vec<String> = scc.iter().map(|f| f.to_string()).collect();
            preds.sort();
            SccOwner {
                scc: i,
                owner,
                preds,
            }
        })
        .collect();
    let mut edges = Vec::new();
    for from in 0..threads {
        for to in 0..threads {
            let sender = &results[from].3;
            let receiver = &results[to].3;
            let e = MsgEdge {
                from,
                to,
                calls_sent: sender.sent_calls[to],
                answers_sent: sender.sent_answers[to],
                calls_received: receiver.recv_calls[from],
                answers_received: receiver.recv_answers[from],
                bytes_received: receiver.recv_bytes[from],
            };
            if e.calls_sent
                | e.answers_sent
                | e.calls_received
                | e.answers_received
                | e.bytes_received
                != 0
            {
                edges.push(e);
            }
        }
    }
    let mut flows: Vec<FlowEvent> = results
        .iter()
        .flat_map(|r| r.3.flows.iter().copied())
        .collect();
    flows.sort_by_key(|f| f.id);
    ParallelReport {
        threads,
        workers,
        sccs,
        edges,
        flows,
        pending_at_exit: shared.pending.load(Ordering::SeqCst),
    }
}

/// Merges the workers' tables and counters into one evaluation with a
/// fresh session arena. Worker 0 goes first so the `$query` root lands at
/// index 0; re-canonicalization preserves variant identity, and per-table
/// substitution factoring makes the merged byte totals order- and
/// arena-independent (so they match a sequential run's exactly).
fn merge(
    results: Vec<(Vec<SubgoalState>, TermArena, TableStats, WorkerTelemetry)>,
    reason: Option<TruncationReason>,
    opts: &EngineOptions,
    start_ns: u64,
    report: ParallelReport,
) -> Evaluation {
    let mut arena = TermArena::new();
    let mut subgoals = Vec::new();
    let mut stats = TableStats::default();
    for (wsubs, warena, wstats, _telemetry) in results {
        stats.steps += wstats.steps;
        stats.clause_resolutions += wstats.clause_resolutions;
        stats.subgoals += wstats.subgoals;
        stats.answers += wstats.answers;
        stats.duplicate_answers += wstats.duplicate_answers;
        // One memo per worker arena: its answers share cached ground
        // structure, which is then interned here once.
        let mut shared = SharedTerms::default();
        for s in wsubs {
            let call = warena.terms(&s.call);
            let key = arena.canonicalize_shared(&call, &mut shared);
            let mut ns = SubgoalState::new(s.functor, key, &arena);
            for a in &s.answers {
                let terms = warena.terms(a);
                let ca = arena.canonicalize_shared(&terms, &mut shared);
                if ns.answer_ids.insert(ca.root_id()) {
                    ns.charge(&ca, &arena);
                    ns.add_entry_overhead();
                    ns.answers.push(ca);
                }
            }
            debug_assert_eq!(
                ns.table_bytes(),
                s.table_bytes(),
                "re-canonicalized table bytes drifted from the worker's accounting"
            );
            stats.table_bytes += ns.table_bytes();
            subgoals.push(ns);
        }
    }
    let truncated = reason.is_some();
    if !truncated {
        for s in &mut subgoals {
            s.complete = true;
            if let Some(sink) = opts.trace.as_deref() {
                sink.event(&TraceEvent::SubgoalComplete {
                    pred: s.functor,
                    answers: s.answers.len(),
                    bytes: s.table_bytes(),
                });
            }
        }
    }
    // The final snapshot: whole-run totals from the merged counters, the
    // rate over the whole run. Emitted whenever health reporting is on, and
    // stamped onto the truncation when a budget tripped — the sequential
    // contract.
    let truncation = if truncated || opts.health.is_some() {
        let t_ns = now_ns();
        let dt = t_ns.saturating_sub(start_ns);
        let rate = if dt > 0 {
            stats.answers as f64 * 1e9 / dt as f64
        } else {
            0.0
        };
        let snap = HealthSnapshot {
            t_ns,
            steps: stats.steps,
            worklist: 0,
            expands: 0,
            returns: 0,
            tables: subgoals.len(),
            completed_tables: if truncated { 0 } else { subgoals.len() },
            answers: stats.answers,
            duplicate_answers: stats.duplicate_answers,
            table_bytes: stats.table_bytes,
            answer_rate: rate,
            peak_heap_bytes: tablog_alloc::is_tracking().then(|| tablog_alloc::stats().peak_bytes),
            stalled: false,
        };
        if opts.health.is_some() {
            if let Some(sink) = opts.trace.as_deref() {
                sink.health(&snap);
            }
        }
        reason.map(|reason| Truncation {
            reason,
            snapshot: snap,
        })
    } else {
        None
    };
    Evaluation {
        subgoals,
        root: 0,
        stats,
        scheduler: "parallel",
        arena,
        truncation,
        parallel: Some(report),
    }
}
