//! Structure-sharing unification against a session arena.
//!
//! A resolution step never rebuilds the terms it resolves. The node being
//! expanded is an interned tuple in a [`TermArena`]; the program clause it
//! is resolved with is a stored [`Term`]. Both are read in place through a
//! *frame*: a block of environment cells, one per variable, starting at a
//! frame base. Canonical variable `_n` of an arena id read at base `b`, and
//! clause variable `n` of a stored term read at base `b`, are both cell
//! `b + n`. A binding stores a [`Val`] — an arena id or a stored term plus
//! the frame it is read through — so binding copies nothing but an `Arc`
//! count. [`TermArena::resolve`] then interns the resolvent straight from
//! ids and cells.

use crate::arena::{TermArena, TermId, TermView};
use crate::bindings::Bindings;
use crate::symbol::Sym;
use crate::term::{Term, Var};

/// A term as the environment sees it: an interned arena subterm or a
/// stored term, each with the frame base its variables are read through.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Val {
    /// An arena subterm; canonical variable `_n` is cell `base + n`.
    Id(TermId, u32),
    /// A stored (clause or builtin-built) term; `Var(n)` is cell
    /// `base + n`.
    Term(Term, u32),
}

impl Val {
    /// The value denoting environment cell `cell` itself.
    pub fn cell(cell: u32) -> Val {
        Val::Term(Term::Var(Var(cell)), 0)
    }
}

/// A value with variable chains followed: an unbound cell, or a
/// non-variable [`Val`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Walked {
    /// The unbound cell the chain ends in.
    Var(u32),
    /// An atom, integer or compound.
    Val(Val),
}

/// The principal functor of a non-variable value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Head {
    /// A 0-ary symbol.
    Atom(Sym),
    /// An integer.
    Int(i64),
    /// A compound's name and arity.
    Struct(Sym, usize),
}

/// A position in an [`Env`], taken before a unification attempt and
/// restored by [`Env::undo_to`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EnvMark {
    trail: usize,
    cells: usize,
}

/// Binding environment of one resolution step: variable cells in frames,
/// plus a trail of the cells bound since each [`EnvMark`].
#[derive(Clone, Debug, Default)]
pub struct Env {
    pub(crate) cells: Vec<Option<Val>>,
    trail: Vec<u32>,
}

impl Env {
    /// An empty environment.
    pub fn new() -> Self {
        Env::default()
    }

    /// Forgets every cell but keeps the capacity.
    pub fn clear(&mut self) {
        self.cells.clear();
        self.trail.clear();
    }

    /// Number of cells allocated.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` if no cell is allocated.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Allocates a frame of `n` unbound cells and returns its base.
    pub fn frame(&mut self, n: usize) -> u32 {
        let base = self.cells.len() as u32;
        self.cells.resize(self.cells.len() + n, None);
        base
    }

    /// The current trail position and frame top.
    pub fn mark(&self) -> EnvMark {
        EnvMark {
            trail: self.trail.len(),
            cells: self.cells.len(),
        }
    }

    /// Unbinds every cell bound since `m` and drops the frames allocated
    /// since.
    pub fn undo_to(&mut self, m: EnvMark) {
        for c in self.trail.drain(m.trail..) {
            self.cells[c as usize] = None;
        }
        self.cells.truncate(m.cells);
    }

    /// The binding of `cell`, if any.
    pub fn lookup(&self, cell: u32) -> Option<&Val> {
        self.cells[cell as usize].as_ref()
    }

    /// Binds the unbound `cell` to `v`, on the trail.
    pub fn bind(&mut self, cell: u32, v: Val) {
        debug_assert!(
            self.cells[cell as usize].is_none(),
            "cell {cell} bound twice"
        );
        self.cells[cell as usize] = Some(v);
        self.trail.push(cell);
    }

    /// The cell a variable value denotes, `None` for non-variables.
    fn var_cell(arena: &TermArena, v: &Val) -> Option<u32> {
        match v {
            Val::Id(id, base) => match arena.view(*id) {
                TermView::Var(n) => Some(base + n),
                _ => None,
            },
            Val::Term(Term::Var(x), base) => Some(base + x.0),
            Val::Term(..) => None,
        }
    }

    /// Follows bindings from `v` to an unbound cell or a non-variable.
    pub fn walk(&self, arena: &TermArena, v: &Val) -> Walked {
        let mut cur = v;
        loop {
            let Some(c) = Env::var_cell(arena, cur) else {
                return Walked::Val(cur.clone());
            };
            match &self.cells[c as usize] {
                Some(next) => cur = next,
                None => return Walked::Var(c),
            }
        }
    }

    /// The principal functor of a non-variable value.
    pub fn head(arena: &TermArena, v: &Val) -> Head {
        match v {
            Val::Id(id, _) => match arena.view(*id) {
                TermView::Atom(s) => Head::Atom(s),
                TermView::Int(i) => Head::Int(i),
                TermView::Struct(s, kids) => Head::Struct(s, kids.len()),
                TermView::Var(_) => unreachable!("head of a variable"),
            },
            Val::Term(t, _) => match t {
                Term::Atom(s) => Head::Atom(*s),
                Term::Int(i) => Head::Int(*i),
                Term::Struct(s, args) => Head::Struct(*s, args.len()),
                Term::Var(_) => unreachable!("head of a variable"),
            },
        }
    }

    /// Argument `i` of a compound value, read through the same frame.
    pub fn arg(arena: &TermArena, v: &Val, i: usize) -> Val {
        match v {
            Val::Id(id, base) => Val::Id(arena.args(*id)[i], *base),
            Val::Term(t, base) => Val::Term(t.args()[i].clone(), *base),
        }
    }

    /// Unifies `a` and `b`, binding cells on the trail; with `occurs`, a
    /// binding that would make a cell reach itself fails instead. As with
    /// [`crate::unify`], a failed attempt leaves its bindings for the
    /// caller to [`Env::undo_to`].
    pub fn unify(&mut self, arena: &TermArena, a: &Val, b: &Val, occurs: bool) -> bool {
        match (self.walk(arena, a), self.walk(arena, b)) {
            (Walked::Var(x), Walked::Var(y)) => {
                if x != y {
                    self.bind(x, Val::cell(y));
                }
                true
            }
            (Walked::Var(x), Walked::Val(v)) | (Walked::Val(v), Walked::Var(x)) => {
                if occurs && self.occurs(arena, x, &v) {
                    return false;
                }
                self.bind(x, v);
                true
            }
            (Walked::Val(p), Walked::Val(q)) => {
                if let (Val::Id(x, bx), Val::Id(y, by)) = (&p, &q) {
                    // Hash-consing: one id is one term, and two distinct
                    // ground ids are two distinct terms.
                    let (gx, gy) = (arena.is_ground(*x), arena.is_ground(*y));
                    if x == y && (bx == by || gx) {
                        return true;
                    }
                    if gx && gy {
                        return false;
                    }
                }
                let h = Env::head(arena, &p);
                if h != Env::head(arena, &q) {
                    return false;
                }
                let Head::Struct(_, n) = h else {
                    return true;
                };
                (0..n).all(|i| {
                    let (x, y) = (Env::arg(arena, &p, i), Env::arg(arena, &q, i));
                    self.unify(arena, &x, &y, occurs)
                })
            }
        }
    }

    /// `true` if `cell` is reachable from `v` through the bindings.
    pub fn occurs(&self, arena: &TermArena, cell: u32, v: &Val) -> bool {
        match self.walk(arena, v) {
            Walked::Var(c) => c == cell,
            Walked::Val(Val::Id(id, _)) if arena.is_ground(id) => false,
            Walked::Val(w) => match Env::head(arena, &w) {
                Head::Struct(_, n) => {
                    (0..n).any(|i| self.occurs(arena, cell, &Env::arg(arena, &w, i)))
                }
                _ => false,
            },
        }
    }

    /// Takes over the bindings of `b`, whose variable `n` is cell `n`
    /// (a frame at base 0), allocating cells for variables `b` created
    /// past the current top. This is how a [`Term`]-level builtin's
    /// effect reaches the environment.
    pub fn adopt(&mut self, b: &Bindings) {
        if b.len() > self.cells.len() {
            self.frame(b.len() - self.cells.len());
        }
        for i in 0..b.len() as u32 {
            if let Some(t) = b.lookup(Var(i)) {
                if self.cells[i as usize].is_none() {
                    self.bind(i, Val::Term(t.clone(), 0));
                }
            }
        }
    }
}

/// A binding made a term contain itself, so the resolvent has no finite
/// canonical form. Only unification without occur check can cause this.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Cyclic;

impl std::fmt::Display for Cyclic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("cyclic term")
    }
}

impl std::error::Error for Cyclic {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{atom, structure, var};

    fn arena_with(t: &Term) -> (TermArena, TermId) {
        let mut a = TermArena::new();
        let c = a.canonicalize(&Bindings::new(), std::slice::from_ref(t));
        let id = a.members(c.root_id())[0];
        (a, id)
    }

    #[test]
    fn clause_terms_bind_against_arena_ids() {
        // f(_0, b) ~ f(a, Y) with Y a clause variable in a frame at 1.
        let (arena, id) = arena_with(&structure("f", vec![var(Var(0)), atom("b")]));
        let mut env = Env::new();
        env.frame(1);
        let base = env.frame(1);
        let clause = structure("f", vec![atom("a"), var(Var(0))]);
        assert!(env.unify(&arena, &Val::Id(id, 0), &Val::Term(clause, base), false));
        assert_eq!(
            env.walk(&arena, &Val::cell(0)),
            Walked::Val(Val::Term(atom("a"), base))
        );
        assert_eq!(
            env.walk(&arena, &Val::cell(base)),
            Walked::Val(Val::Id(arena.args(id)[1], 0))
        );
    }

    #[test]
    fn one_id_read_in_two_frames_still_binds_their_variables() {
        // f(_0) at base 0 against the same id at base 1: cells 0 and 1
        // must end up aliased, though the ids are equal.
        let (arena, id) = arena_with(&structure("f", vec![var(Var(0))]));
        let mut env = Env::new();
        env.frame(2);
        assert!(env.unify(&arena, &Val::Id(id, 0), &Val::Id(id, 1), false));
        assert_eq!(
            env.walk(&arena, &Val::cell(0)),
            env.walk(&arena, &Val::cell(1))
        );
        assert!(env.lookup(0).is_some() || env.lookup(1).is_some());
    }

    #[test]
    fn undo_drops_bindings_and_frames() {
        let (arena, id) = arena_with(&var(Var(0)));
        let mut env = Env::new();
        env.frame(1);
        let m = env.mark();
        env.frame(3);
        assert!(env.unify(&arena, &Val::Id(id, 0), &Val::Term(atom("a"), 1), false));
        env.undo_to(m);
        assert_eq!(env.len(), 1);
        assert_eq!(env.lookup(0), None);
    }

    #[test]
    fn occur_check_refuses_a_self_reference() {
        let arena = TermArena::new();
        let mut env = Env::new();
        env.frame(1);
        let f_x = Val::Term(structure("f", vec![var(Var(0))]), 0);
        assert!(!env.unify(&arena, &Val::cell(0), &f_x, true));
        assert!(env.unify(&arena, &Val::cell(0), &f_x, false));
    }
}
