//! Goal dispatch for non-tabled work: builtin evaluation and plain SLD
//! resolution against program clauses. Split out of `machine.rs` in PR 4;
//! the methods here extend [`Machine`] and feed resolvents back to it via
//! [`Machine::push`].

use crate::builtins::BuiltinImpl;
use crate::error::EngineError;
use crate::machine::{Machine, Task};
use crate::provenance::{ClauseRef, NodeProv};
use tablog_term::{Bindings, Functor, Term, Var};
use tablog_trace::TraceEvent;

impl Machine<'_> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn solve_builtin(
        &mut self,
        imp: BuiltinImpl,
        sid: usize,
        template: &[Term],
        g: &Term,
        rest: &[Term],
        b: &mut Bindings,
        prov: Option<Box<NodeProv>>,
    ) -> Result<(), EngineError> {
        match imp {
            BuiltinImpl::Det(f) => {
                let m = b.mark();
                if f(b, g.args())? {
                    let n = self.make_node(sid, b, template, rest, prov);
                    self.push(Task::Expand(n));
                }
                b.undo_to(m);
                Ok(())
            }
            BuiltinImpl::NonDet(f) => {
                let tuples = f(b, g.args())?;
                for tuple in tuples {
                    let m = b.mark();
                    let ok = g
                        .args()
                        .iter()
                        .zip(tuple.iter())
                        .all(|(x, y)| self.unif(b, x, y));
                    if ok {
                        let n = self.make_node(sid, b, template, rest, prov.clone());
                        self.push(Task::Expand(n));
                    }
                    b.undo_to(m);
                }
                Ok(())
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn solve_sld(
        &mut self,
        f: Functor,
        sid: usize,
        template: &[Term],
        g: &Term,
        rest: &[Term],
        b: &mut Bindings,
        prov: Option<Box<NodeProv>>,
    ) -> Result<(), EngineError> {
        // `self.db` is a `&'e` reference: copying it out lets the clause
        // iterator borrow the database for `'e`, independent of `self`, so
        // no snapshot of the clause list is ever cloned.
        let db = self.db;
        let spans_on = self.spans.is_some();
        if spans_on {
            self.span_enter("clause_resolution", Some(f));
        }
        for (cidx, clause) in db.matching_clauses_iter(f, g.args().first()) {
            self.stats.clause_resolutions += 1;
            if let Some(sink) = self.trace {
                sink.event(&TraceEvent::ClauseResolution { pred: f });
            }
            let m = b.mark();
            let base = b.fresh_block(clause.nvars);
            let mut rename = |t: &Term| t.map_vars(&mut |v| Term::Var(Var(base.0 + v.0)));
            let head = rename(&clause.head);
            let ok = g
                .args()
                .iter()
                .zip(head.args().iter())
                .all(|(x, y)| self.unif(b, x, y));
            if ok {
                let mut goals: Vec<Term> = clause.body.iter().map(&mut rename).collect();
                goals.extend_from_slice(rest);
                // SLD resolution is inlined into the derivation node, so
                // the resolved clause joins the node's own trail.
                let mut prov = prov.clone();
                if let Some(p) = prov.as_deref_mut() {
                    p.clauses.push(ClauseRef {
                        pred: f,
                        index: cidx,
                    });
                }
                let n = self.make_node(sid, b, template, &goals, prov);
                self.push(Task::Expand(n));
            }
            b.undo_to(m);
        }
        if spans_on {
            self.span_exit();
        }
        Ok(())
    }
}
