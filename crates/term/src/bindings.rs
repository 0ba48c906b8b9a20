//! The binding store: a growable array of variable cells plus a trail.
//!
//! The engine allocates fresh variables out of a single `Bindings` store per
//! evaluation and records every destructive bind on a trail so that
//! alternative clauses can be tried after [`Bindings::undo_to`] — the same
//! discipline a WAM uses, minus the structure-copying heap.

use crate::term::{Term, Var};

/// A position in the trail, captured before a unification attempt and used
/// to roll back on failure. See [`Bindings::mark`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TrailMark(usize);

/// A store of variable bindings with a backtracking trail.
#[derive(Clone, Debug, Default)]
pub struct Bindings {
    cells: Vec<Option<Term>>,
    trail: Vec<Var>,
}

impl Bindings {
    /// Creates an empty store.
    pub fn new() -> Self {
        Bindings::default()
    }

    /// Number of variables ever allocated.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` if no variable has been allocated.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Forgets every variable and binding but keeps the allocated capacity,
    /// so a reused store costs no allocation until it outgrows it.
    pub fn clear(&mut self) {
        self.cells.clear();
        self.trail.clear();
    }

    /// Allocates a fresh, unbound variable.
    pub fn fresh_var(&mut self) -> Var {
        let v = Var(self.cells.len() as u32);
        self.cells.push(None);
        v
    }

    /// Allocates `n` fresh variables and returns the first; the rest follow
    /// consecutively. Used to rename a stored clause apart in O(1) cells.
    pub fn fresh_block(&mut self, n: usize) -> Var {
        let first = Var(self.cells.len() as u32);
        self.cells.resize(self.cells.len() + n, None);
        first
    }

    /// The binding of `v`, if any. Does not follow chains; see
    /// [`Bindings::walk`].
    pub fn lookup(&self, v: Var) -> Option<&Term> {
        self.cells.get(v.index()).and_then(|c| c.as_ref())
    }

    /// Binds `v` to `t`, recording the bind on the trail.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `v` is already bound — rebinding without
    /// undoing indicates an engine bug.
    pub fn bind(&mut self, v: Var, t: Term) {
        debug_assert!(
            self.cells[v.index()].is_none(),
            "variable _{} bound twice",
            v.0
        );
        self.cells[v.index()] = Some(t);
        self.trail.push(v);
    }

    /// Captures the current trail position.
    pub fn mark(&self) -> TrailMark {
        TrailMark(self.trail.len())
    }

    /// Unbinds every variable bound since `mark`.
    pub fn undo_to(&mut self, mark: TrailMark) {
        while self.trail.len() > mark.0 {
            let v = self.trail.pop().expect("trail underflow");
            self.cells[v.index()] = None;
        }
    }

    /// Follows binding chains until an unbound variable or a non-variable
    /// term is reached. Returns the final term shallowly (arguments are not
    /// resolved).
    pub fn walk<'a>(&'a self, t: &'a Term) -> &'a Term {
        let mut cur = t;
        while let Term::Var(v) = cur {
            match self.lookup(*v) {
                Some(next) => cur = next,
                None => break,
            }
        }
        cur
    }

    /// Returns a copy of `t` with all bindings applied recursively; the
    /// result mentions only unbound variables.
    pub fn resolve(&self, t: &Term) -> Term {
        let w = self.walk(t);
        match w {
            Term::Struct(s, args) => {
                Term::Struct(*s, args.iter().map(|a| self.resolve(a)).collect())
            }
            other => other.clone(),
        }
    }

    /// Resolves a slice of terms; convenience over [`Bindings::resolve`].
    pub fn resolve_all(&self, ts: &[Term]) -> Vec<Term> {
        ts.iter().map(|t| self.resolve(t)).collect()
    }

    /// `true` if applying the current bindings to `t` would not terminate:
    /// some variable reachable from `t` is bound, directly or through other
    /// bindings, to a structure containing itself. Only [`crate::unify`]
    /// (no occur check) can create such bindings; [`Bindings::resolve`]
    /// diverges on them, so check first when cyclic bindings are possible.
    pub fn is_cyclic(&self, t: &Term) -> bool {
        fn go(b: &Bindings, t: &Term, path: &mut Vec<Var>) -> bool {
            match t {
                Term::Var(v) => {
                    if path.contains(v) {
                        return true;
                    }
                    match b.lookup(*v) {
                        Some(bound) => {
                            path.push(*v);
                            let cyclic = go(b, bound, path);
                            path.pop();
                            cyclic
                        }
                        None => false,
                    }
                }
                Term::Struct(_, args) => args.iter().any(|a| go(b, a, path)),
                _ => false,
            }
        }
        go(self, t, &mut Vec::new())
    }

    /// `true` if `v` occurs in `t` after applying current bindings.
    /// This is the occur check used by [`crate::unify_occurs`].
    pub fn occurs(&self, v: Var, t: &Term) -> bool {
        match self.walk(t) {
            Term::Var(w) => *w == v,
            Term::Struct(_, args) => args.iter().any(|a| self.occurs(v, a)),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{atom, structure, var};

    #[test]
    fn fresh_vars_are_distinct_and_unbound() {
        let mut b = Bindings::new();
        let v1 = b.fresh_var();
        let v2 = b.fresh_var();
        assert_ne!(v1, v2);
        assert!(b.lookup(v1).is_none());
    }

    #[test]
    fn bind_and_walk_follow_chains() {
        let mut b = Bindings::new();
        let v1 = b.fresh_var();
        let v2 = b.fresh_var();
        b.bind(v1, var(v2));
        b.bind(v2, atom("end"));
        assert_eq!(b.walk(&var(v1)), &atom("end"));
    }

    #[test]
    fn undo_restores_unbound_state() {
        let mut b = Bindings::new();
        let v = b.fresh_var();
        let m = b.mark();
        b.bind(v, atom("x"));
        assert!(b.lookup(v).is_some());
        b.undo_to(m);
        assert!(b.lookup(v).is_none());
    }

    #[test]
    fn undo_is_selective() {
        let mut b = Bindings::new();
        let v1 = b.fresh_var();
        let v2 = b.fresh_var();
        b.bind(v1, atom("keep"));
        let m = b.mark();
        b.bind(v2, atom("drop"));
        b.undo_to(m);
        assert_eq!(b.lookup(v1), Some(&atom("keep")));
        assert!(b.lookup(v2).is_none());
    }

    #[test]
    fn resolve_substitutes_deeply() {
        let mut b = Bindings::new();
        let v = b.fresh_var();
        b.bind(v, atom("a"));
        let t = structure("f", vec![structure("g", vec![var(v)])]);
        assert_eq!(
            b.resolve(&t),
            structure("f", vec![structure("g", vec![atom("a")])])
        );
    }

    #[test]
    fn clear_empties_the_store() {
        let mut b = Bindings::new();
        let v = b.fresh_var();
        b.bind(v, atom("a"));
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.mark(), TrailMark(0));
        assert_eq!(b.fresh_var(), Var(0));
        assert!(b.lookup(Var(0)).is_none());
    }

    #[test]
    fn fresh_block_allocates_consecutively() {
        let mut b = Bindings::new();
        let _ = b.fresh_var();
        let first = b.fresh_block(3);
        assert_eq!(first, Var(1));
        assert_eq!(b.len(), 4);
    }

    #[test]
    fn occurs_sees_through_bindings() {
        let mut b = Bindings::new();
        let v = b.fresh_var();
        let w = b.fresh_var();
        b.bind(w, structure("f", vec![var(v)]));
        assert!(b.occurs(v, &var(w)));
        assert!(!b.occurs(v, &atom("a")));
    }

    #[test]
    fn is_cyclic_detects_self_reference_but_not_sharing() {
        let mut b = Bindings::new();
        let v = b.fresh_var();
        let w = b.fresh_var();
        // Sharing: both arguments mention the same (acyclic) variable.
        b.bind(w, atom("a"));
        let shared = structure("f", vec![var(w), var(w)]);
        assert!(!b.is_cyclic(&shared));
        // Cycle through a chain: v -> f(v).
        b.bind(v, structure("f", vec![var(v)]));
        assert!(b.is_cyclic(&var(v)));
        assert!(b.is_cyclic(&structure("g", vec![var(v)])));
        assert!(!b.is_cyclic(&var(w)));
    }
}
