//! Goal dispatch for non-tabled work: builtin evaluation and plain SLD
//! resolution against program clauses. The methods here extend
//! [`Machine`] and feed resolvents back to it via [`Machine::schedule`].
//!
//! `=/2`, `$absunify/2`, `$absground/1` and `$iff/N` — the analyses' hot
//! builtins — run on ids and environment cells. Every other builtin goes
//! through [`Machine::materialize`], the one adapter to `Term` code.

use crate::builtins::{abs_ground_env, abs_unify_env, lookup_builtin, BuiltinImpl};
use crate::error::EngineError;
use crate::machine::{Machine, Step};
use crate::provenance::{ClauseRef, NodeProv};
use tablog_domain::IffArg;
use tablog_term::{sym_str, Functor, Term, TermId, TermView, Val};
use tablog_trace::TraceEvent;

impl Machine<'_> {
    /// The single bridge from the id-level step to `Term` code: `ids`
    /// materialized with canonical variable `_n` as `Var(n)`. A selected
    /// goal's frame is at base 0 and still unbound, so a binding store
    /// whose variable `n` is cell `n` sees exactly the node's variables.
    /// The builtin adapter and negation both go through here.
    pub(crate) fn materialize(&self, ids: &[TermId]) -> Vec<Term> {
        ids.iter().map(|&k| self.arena.term_at(k, 0)).collect()
    }

    pub(crate) fn solve_builtin(
        &mut self,
        f: Functor,
        st: &mut Step,
        sid: usize,
        root: TermId,
        g: TermId,
        prov: Option<Box<NodeProv>>,
    ) -> Result<(), EngineError> {
        let split = self.subgoals[sid].functor.arity;
        let arg = |m: &Self, i: usize| Val::Id(m.arena.args(g)[i], 0);
        let ok = match (sym_str(f.name), f.arity) {
            ("=", 2) => {
                let (a, b) = (arg(self, 0), arg(self, 1));
                st.env.unify(&self.arena, &a, &b, self.opts.occur_check)
            }
            ("$absunify", 2) => {
                let (a, b) = (arg(self, 0), arg(self, 1));
                abs_unify_env(&mut st.env, &self.arena, &a, &b, self.syms.gamma)
            }
            ("$absground", 1) => {
                abs_ground_env(&mut st.env, &self.arena, &arg(self, 0), self.syms.gamma);
                true
            }
            ("$iff", n) if n >= 1 => return self.solve_iff(st, sid, root, g, prov),
            _ => return self.solve_adapted(f, st, sid, root, g, prov),
        };
        if ok {
            self.open(st, root, split);
            self.schedule(st, sid, Some(root), prov)
                .map_err(|_| self.cyclic(g))?;
        }
        Ok(())
    }

    /// Any other builtin: its arguments materialized, the `Term`-level
    /// implementation run on a binding store aligned with the node's frame,
    /// and the resulting bindings taken back into the environment.
    fn solve_adapted(
        &mut self,
        f: Functor,
        st: &mut Step,
        sid: usize,
        root: TermId,
        g: TermId,
        prov: Option<Box<NodeProv>>,
    ) -> Result<(), EngineError> {
        let split = self.subgoals[sid].functor.arity;
        let args = self.materialize(self.arena.args(g));
        st.b.clear();
        st.b.fresh_block(st.env.len());
        match lookup_builtin(f).expect("dispatched as a builtin") {
            BuiltinImpl::Det(run) => {
                if run(&mut st.b, &args)? {
                    st.env.adopt(&st.b);
                    self.open(st, root, split);
                    self.schedule(st, sid, Some(root), prov)
                        .map_err(|_| self.cyclic(g))?;
                }
            }
            BuiltinImpl::NonDet(run) => {
                let occurs = self.opts.occur_check;
                for tuple in run(&st.b, &args)? {
                    let m = st.env.mark();
                    let ok = self.arena.args(g).iter().zip(tuple).all(|(&x, y)| {
                        st.env
                            .unify(&self.arena, &Val::Id(x, 0), &Val::Term(y, 0), occurs)
                    });
                    if ok {
                        self.open(st, root, split);
                        self.schedule(st, sid, Some(root), prov.clone())
                            .map_err(|_| self.cyclic(g))?;
                    }
                    st.env.undo_to(m);
                }
            }
        }
        Ok(())
    }

    /// `$iff(X, Y1…Yk)` on ids: one resolvent per truth-table row
    /// consistent with the bound arguments (see `builtins::iff`).
    fn solve_iff(
        &mut self,
        st: &mut Step,
        sid: usize,
        root: TermId,
        g: TermId,
        prov: Option<Box<NodeProv>>,
    ) -> Result<(), EngineError> {
        let split = self.subgoals[sid].functor.arity;
        let (tru, fls) = (self.syms.tru, self.syms.fls);
        let mut vals = Vec::with_capacity(self.arena.args(g).len());
        for &k in self.arena.args(g) {
            vals.push(match self.arena.view(k) {
                TermView::Var(_) => IffArg::Free,
                TermView::Atom(s) if s == tru => IffArg::True,
                TermView::Atom(s) if s == fls => IffArg::False,
                _ => {
                    return Err(EngineError::BadArgs(
                        "$iff",
                        format!("non-boolean argument {}", self.arena.term_at(k, 0)),
                    ))
                }
            });
        }
        let rows = tablog_domain::iff_rows(&vals)
            .map_err(|overflow| EngineError::BadArgs("$iff", overflow.to_string()))?;
        for row in rows {
            let m = st.env.mark();
            let ok = self.arena.args(g).iter().zip(row).all(|(&x, v)| {
                let value = Term::Atom(if v { tru } else { fls });
                st.env
                    .unify(&self.arena, &Val::Id(x, 0), &Val::Term(value, 0), false)
            });
            if ok {
                self.open(st, root, split);
                self.schedule(st, sid, Some(root), prov.clone())
                    .map_err(|_| self.cyclic(g))?;
            }
            st.env.undo_to(m);
        }
        Ok(())
    }

    /// SLD resolution of call `g` against the program clauses of `f`, each
    /// read in place in a frame after the node's.
    pub(crate) fn solve_sld(
        &mut self,
        f: Functor,
        st: &mut Step,
        sid: usize,
        root: TermId,
        g: TermId,
        prov: Option<Box<NodeProv>>,
    ) -> Result<(), EngineError> {
        // `self.db` is a `&'e` reference: copying it out lets the clause
        // iterator borrow the database for `'e`, independent of `self`, so
        // no snapshot of the clause list is ever cloned.
        let db = self.db;
        let split = self.subgoals[sid].functor.arity;
        let occurs = self.opts.occur_check;
        let spans_on = self.spans.is_some();
        if spans_on {
            self.span_enter("clause_resolution", Some(f));
        }
        let first = self.first_head(self.arena.args(g));
        for (cidx, clause) in db.matching_clauses_by_head(f, first) {
            self.stats.clause_resolutions += 1;
            if let Some(sink) = self.trace {
                sink.event(&TraceEvent::ClauseResolution { pred: f });
            }
            let m = st.env.mark();
            let base = st.env.frame(clause.nvars);
            let ok = self
                .arena
                .args(g)
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
                self.open(st, root, split);
                st.goals
                    .extend(clause.body.iter().map(|t| Val::Term(t.clone(), base)));
                // SLD resolution is inlined into the derivation node, so
                // the resolved clause joins the node's own trail.
                let mut prov = prov.clone();
                if let Some(p) = prov.as_deref_mut() {
                    p.clauses.push(ClauseRef {
                        pred: f,
                        index: cidx,
                    });
                }
                self.schedule(st, sid, Some(root), prov)
                    .map_err(|_| self.cyclic(g))?;
            }
            st.env.undo_to(m);
        }
        if spans_on {
            self.span_exit();
        }
        Ok(())
    }
}
