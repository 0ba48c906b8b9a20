//! The term representation.

use crate::symbol::{intern, sym_name, Sym};
use std::fmt;
use std::sync::Arc;

/// A logic variable, identified by its index into a [`crate::Bindings`] store
/// (or, inside stored clauses, by its position in the clause's own numbering).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Var(pub u32);

impl Var {
    /// The variable's numeric index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A predicate or function symbol together with its arity.
///
/// `p/2` and `p/3` are distinct functors, as in Prolog.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Functor {
    /// The interned name.
    pub name: Sym,
    /// Number of arguments.
    pub arity: usize,
}

impl Functor {
    /// Creates a functor from a name and arity.
    pub fn new(name: &str, arity: usize) -> Self {
        Functor {
            name: intern(name),
            arity,
        }
    }
}

impl fmt::Debug for Functor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", sym_name(self.name), self.arity)
    }
}

impl fmt::Display for Functor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", sym_name(self.name), self.arity)
    }
}

/// A first-order term: variable, atom (0-ary symbol), integer, or compound.
///
/// Compound arguments are stored behind an [`Arc`] slice so that cloning a
/// term — which the engine does when it binds a variable to a stored clause
/// term — is cheap and structure-sharing, and terms (hence engine sessions)
/// are `Send`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// An unbound (or bindable) logic variable.
    Var(Var),
    /// A 0-ary symbol such as `foo` or `[]`.
    Atom(Sym),
    /// A machine integer.
    Int(i64),
    /// A compound term `f(t1, …, tn)` with `n ≥ 1`.
    Struct(Sym, Arc<[Term]>),
}

impl Term {
    /// The functor of this term, if it is an atom or compound term.
    pub fn functor(&self) -> Option<Functor> {
        match self {
            Term::Atom(s) => Some(Functor { name: *s, arity: 0 }),
            Term::Struct(s, args) => Some(Functor {
                name: *s,
                arity: args.len(),
            }),
            _ => None,
        }
    }

    /// Arguments of a compound term, or an empty slice otherwise.
    pub fn args(&self) -> &[Term] {
        match self {
            Term::Struct(_, args) => args,
            _ => &[],
        }
    }

    /// `true` if the term contains no variables at all.
    pub fn is_ground(&self) -> bool {
        match self {
            Term::Var(_) => false,
            Term::Atom(_) | Term::Int(_) => true,
            Term::Struct(_, args) => args.iter().all(Term::is_ground),
        }
    }

    /// `true` if the term is a variable.
    pub fn is_var(&self) -> bool {
        matches!(self, Term::Var(_))
    }

    /// Collects the variables of the term in first-occurrence order.
    pub fn vars(&self) -> Vec<Var> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut Vec<Var>) {
        match self {
            Term::Var(v) if !out.contains(v) => out.push(*v),
            Term::Struct(_, args) => {
                for a in args.iter() {
                    a.collect_vars(out);
                }
            }
            _ => {}
        }
    }

    /// Number of symbol/variable/integer nodes in the term.
    pub fn size(&self) -> usize {
        match self {
            Term::Struct(_, args) => 1 + args.iter().map(Term::size).sum::<usize>(),
            _ => 1,
        }
    }

    /// Maximum nesting depth; atoms, integers and variables have depth 1.
    pub fn depth(&self) -> usize {
        match self {
            Term::Struct(_, args) => 1 + args.iter().map(Term::depth).max().unwrap_or(0),
            _ => 1,
        }
    }

    /// Estimated heap footprint in bytes, used for the paper's
    /// "table space" statistic.
    pub fn heap_bytes(&self) -> usize {
        match self {
            Term::Struct(_, args) => {
                std::mem::size_of::<Term>() + args.iter().map(Term::heap_bytes).sum::<usize>()
            }
            _ => std::mem::size_of::<Term>(),
        }
    }

    /// Rewrites every variable through `f`, sharing unchanged subtrees where
    /// possible.
    pub fn map_vars(&self, f: &mut impl FnMut(Var) -> Term) -> Term {
        match self {
            Term::Var(v) => f(*v),
            Term::Atom(_) | Term::Int(_) => self.clone(),
            Term::Struct(s, args) => Term::Struct(*s, args.iter().map(|a| a.map_vars(f)).collect()),
        }
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "_{}", v.0),
            Term::Atom(s) => f.write_str(&sym_name(*s)),
            Term::Int(i) => write!(f, "{i}"),
            Term::Struct(s, args) => {
                f.write_str(&sym_name(*s))?;
                f.write_str("(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{a:?}")?;
                }
                f.write_str(")")
            }
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Builds an atom term from a name.
///
/// ```
/// use tablog_term::atom;
/// assert!(atom("nil").is_ground());
/// ```
pub fn atom(name: &str) -> Term {
    Term::Atom(intern(name))
}

/// Builds an integer term.
pub fn int(value: i64) -> Term {
    Term::Int(value)
}

/// Builds a variable term from a [`Var`] handle.
pub fn var(v: Var) -> Term {
    Term::Var(v)
}

/// Builds a compound term; with no arguments this degenerates to an atom.
///
/// ```
/// use tablog_term::{structure, atom};
/// let t = structure("point", vec![atom("a"), atom("b")]);
/// assert_eq!(t.args().len(), 2);
/// assert_eq!(structure("nil", vec![]), atom("nil"));
/// ```
pub fn structure(name: &str, args: Vec<Term>) -> Term {
    if args.is_empty() {
        atom(name)
    } else {
        Term::Struct(intern(name), args.into())
    }
}

/// Dropping a term frees its subterms in bounded stack space: nesting up
/// to a fixed depth (512 levels) is freed by plain recursion, anything
/// deeper through an explicit stack. A diverging derivation stopped by a
/// budget builds terms nested hundreds of thousands deep, which recursive
/// drop glue would overflow the stack on.
impl Drop for Term {
    fn drop(&mut self) {
        empty_children(self, 0);
    }
}

/// Nesting freed by recursion before [`Term`]'s drop switches to a heap
/// stack.
const DROP_RECURSION: usize = 512;

/// Frees the compound children `t` owns alone, leaving them as integers,
/// so that `t`'s own drop glue has nothing left to recurse into.
fn empty_children(t: &mut Term, depth: usize) {
    let Term::Struct(_, args) = t else { return };
    // Only an argument list owned alone and holding compounds has anything
    // to free here; plain reads rule the rest out before `get_mut`'s
    // uniqueness handshake.
    if Arc::strong_count(args) != 1 || !args.iter().any(|k| matches!(k, Term::Struct(..))) {
        return;
    }
    let Some(kids) = Arc::get_mut(args) else {
        return;
    };
    for k in kids.iter_mut() {
        if !matches!(k, Term::Struct(..)) {
            continue;
        }
        let mut child = std::mem::replace(k, Term::Int(0));
        if depth < DROP_RECURSION {
            empty_children(&mut child, depth + 1);
        } else {
            drop_deep(child);
        }
    }
}

/// Frees `t` with a heap stack of the compounds still to empty.
fn drop_deep(t: Term) {
    let mut stack = vec![t];
    while let Some(mut c) = stack.pop() {
        if let Term::Struct(_, args) = &mut c {
            if let Some(kids) = Arc::get_mut(args) {
                for k in kids.iter_mut() {
                    if matches!(k, Term::Struct(..)) {
                        stack.push(std::mem::replace(k, Term::Int(0)));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn functor_distinguishes_arity() {
        let t2 = structure("p", vec![atom("a"), atom("b")]);
        let t1 = structure("p", vec![atom("a")]);
        assert_ne!(t2.functor(), t1.functor());
        assert_eq!(t2.functor().unwrap().arity, 2);
    }

    #[test]
    fn groundness() {
        let g = structure("f", vec![atom("a"), int(3)]);
        assert!(g.is_ground());
        let ng = structure("f", vec![var(Var(0))]);
        assert!(!ng.is_ground());
    }

    #[test]
    fn vars_in_first_occurrence_order() {
        let t = structure(
            "f",
            vec![
                var(Var(3)),
                structure("g", vec![var(Var(1)), var(Var(3))]),
                var(Var(2)),
            ],
        );
        assert_eq!(t.vars(), vec![Var(3), Var(1), Var(2)]);
    }

    #[test]
    fn size_and_depth() {
        let t = structure("f", vec![structure("g", vec![atom("a")]), int(1)]);
        assert_eq!(t.size(), 4);
        assert_eq!(t.depth(), 3);
        assert_eq!(atom("a").depth(), 1);
    }

    #[test]
    fn map_vars_substitutes() {
        let t = structure("f", vec![var(Var(0)), atom("k")]);
        let r = t.map_vars(&mut |_| atom("x"));
        assert_eq!(r, structure("f", vec![atom("x"), atom("k")]));
    }

    #[test]
    fn zero_arity_structure_is_atom() {
        assert_eq!(structure("a", vec![]), atom("a"));
    }

    #[test]
    fn display_renders_nested_terms() {
        let t = structure("f", vec![atom("a"), structure("g", vec![var(Var(7))])]);
        assert_eq!(format!("{t}"), "f(a,g(_7))");
    }

    #[test]
    fn heap_bytes_monotone_in_size() {
        let small = atom("a");
        let big = structure("f", vec![atom("a"), atom("b"), atom("c")]);
        assert!(big.heap_bytes() > small.heap_bytes());
    }
}
