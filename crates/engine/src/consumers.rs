//! Answer flow: resuming consumers with table answers, inserting answers
//! into tables (with widening and substitution-factored byte accounting),
//! and negation-as-failure subcomputations. The methods here extend
//! [`Machine`].

use crate::error::EngineError;
use crate::machine::{Machine, Task};
use crate::provenance::{AnswerRef, NodeProv};
use crate::table::NODE_OVERHEAD;
use tablog_term::{Bindings, CanonicalTerm, Term, Val};
use tablog_trace::TraceEvent;

impl Machine<'_> {
    /// Resumes consumer `cid`, suspended on its selected goal, with answer
    /// `aidx` of the table it watches: the goal's argument ids are unified
    /// with the answer's member ids (the answer read in a frame after the
    /// node's) and the continuation is scheduled.
    pub(crate) fn return_answer(&mut self, cid: usize, aidx: usize) -> Result<(), EngineError> {
        // A consumer is a few ids, so pulling its coordinates out is free —
        // no `Consumer` or answer clone on this path. Only the provenance
        // trail (off by default) is cloned.
        let (sid, root, watched) = {
            let c = &self.consumers[cid];
            (c.node.subgoal as usize, c.node.root, c.watched as usize)
        };
        let ans = self.subgoals[watched].answers[aidx];
        let split = self.subgoals[sid].functor.arity;
        let g = self.arena.members(root)[split];
        let occurs = self.opts.occur_check;
        let mut st = self.take_step();
        st.env.frame(self.arena.handle(root).num_vars());
        let base = st.env.frame(ans.num_vars());
        let ok = self
            .arena
            .args(g)
            .iter()
            .zip(self.arena.members(ans.root_id()))
            .all(|(&x, &y)| {
                st.env
                    .unify(&self.arena, &Val::Id(x, 0), &Val::Id(y, base), occurs)
            });
        let r = if ok {
            if let Some(sink) = self.trace {
                sink.event(&TraceEvent::AnswerReturn {
                    pred: self.subgoals[watched].functor,
                });
            }
            // The continuation consumed answer `aidx` of the watched table:
            // extend the consumer's trail with that premise.
            let mut prov = self.consumers[cid].node.prov.clone();
            if let Some(p) = prov.as_deref_mut() {
                p.premises.push(AnswerRef {
                    subgoal: watched,
                    answer: aidx,
                });
            }
            self.open(&mut st, root, split);
            self.schedule(&mut st, sid, Some(root), prov)
                .map_err(|_| self.cyclic(g))
        } else {
            Ok(())
        };
        self.give_step(st);
        r
    }

    pub(crate) fn add_answer(
        &mut self,
        sid: usize,
        mut ans: CanonicalTerm,
        prov: Option<Box<NodeProv>>,
    ) {
        let opts = self.opts;
        if let Some(hook) = &opts.answer_widening {
            let widened = hook(&mut self.arena, &ans);
            if let Some(sink) = self.trace {
                if widened != ans {
                    let original = self.arena.terms(&ans);
                    let wide = self.arena.terms(&widened);
                    sink.event(&TraceEvent::AnswerWidened {
                        pred: self.subgoals[sid].functor,
                        original: &original,
                        widened: &wide,
                    });
                }
            }
            ans = widened;
        }
        let arena = &self.arena;
        let sub = &mut self.subgoals[sid];
        if sub.answer_ids.insert(ans.root_id()) {
            // When recording, the provenance record rides along with the
            // answer and its bytes are charged to the same accounting the
            // rescan and the AnswerInsert event see. A widened answer keeps
            // the trail of the concrete derivation that produced it.
            let prov_rec = opts
                .record_provenance
                .then(|| prov.map(|p| p.freeze()).unwrap_or_default());
            let prov_bytes = prov_rec.as_ref().map_or(0, crate::AnswerProv::heap_bytes);
            // Substitution factoring: only structure not already present in
            // this table (call or earlier answers) is charged.
            let term_bytes = sub.charge(&ans, arena);
            let bytes = term_bytes + NODE_OVERHEAD + prov_bytes;
            sub.add_entry_overhead();
            sub.add_prov_bytes(prov_bytes);
            if let Some(sink) = self.trace {
                let answer = arena.terms(&ans);
                sink.event(&TraceEvent::AnswerInsert {
                    pred: sub.functor,
                    answer: &answer,
                    bytes,
                });
            }
            sub.answers.push(ans);
            if let Some(p) = prov_rec {
                sub.provenance.push(p);
            }
            let idx = sub.answers.len() - 1;
            self.stats.answers += 1;
            self.stats.table_bytes += bytes;
            // Wake every registered consumer with exactly this answer,
            // advancing its cursor — no clone of the consumer list. The
            // list cannot grow while we walk it (pushing tasks only
            // enqueues; registration happens during expansion).
            for i in 0..self.subgoals[sid].consumers.len() {
                let cid = self.subgoals[sid].consumers[i];
                debug_assert_eq!(
                    self.consumers[cid].next as usize, idx,
                    "consumer cursor out of step with the answer table"
                );
                self.consumers[cid].next = idx as u32 + 1;
                self.push(Task::Return(cid, idx));
            }
        } else {
            self.stats.duplicate_answers += 1;
            if let Some(sink) = self.trace {
                let answer = arena.terms(&ans);
                sink.event(&TraceEvent::DuplicateAnswer {
                    pred: sub.functor,
                    answer: &answer,
                });
            }
        }
    }

    /// Negation as failure over a completed subcomputation: evaluates the
    /// goal in a fresh machine (tables are not shared, and the sub-machine
    /// gets its own session arena) and reports whether any answer exists.
    pub(crate) fn provable(&mut self, goal: Term) -> Result<bool, EngineError> {
        let mut sub = Machine::new(self.db, self.opts);
        // The deadline bounds the whole evaluation: the sub-machine inherits
        // the parent's absolute cutoff rather than restarting the clock.
        sub.deadline_ns = self.deadline_ns;
        let empty = Bindings::new();
        let eval = sub.run(&[goal], &[], &empty)?;
        // Fold the subcomputation's work into this evaluation's counters.
        // `table_bytes` stays out: the sub-machine's tables are discarded
        // here, so charging their space would overstate live table memory.
        self.stats.steps += sub.stats.steps;
        self.stats.clause_resolutions += sub.stats.clause_resolutions;
        self.stats.subgoals += sub.stats.subgoals;
        self.stats.answers += sub.stats.answers;
        self.stats.duplicate_answers += sub.stats.duplicate_answers;
        // A truncated subcomputation cannot witness failure: propagate the
        // trip so the outer drain stops before expanding any continuation
        // this task scheduled — negation over a partial table would be
        // unsound, and budget exhaustion ends the whole run anyway.
        if let Some(t) = eval.truncation() {
            // Keep the first trip's reason: a nested trip during the settle
            // pass must not rewrite why the run was truncated.
            self.truncated.get_or_insert(t.reason);
        }
        Ok(!eval.root_answers().is_empty())
    }
}
