//! Builtin predicates.
//!
//! Two flavours exist: *deterministic* builtins bind directly into the
//! current [`Bindings`] and succeed or fail once; *nondeterministic*
//! builtins enumerate alternative argument tuples which the machine unifies
//! against the call one by one (trailing and undoing between alternatives).
//!
//! The analysis-specific `$iff/N` family lives here too: `$iff(X, Y1…Yk)`
//! holds iff `X ⇔ Y1 ∧ … ∧ Yk` over the constants `true`/`false`. Its
//! success set is exactly the truth table the paper uses to represent
//! Prop-domain boolean formulae (Section 3.1); the builtin enumerates only
//! the rows consistent with already-bound arguments, which is the engine
//! analog of computing with delta-sets.

use crate::error::EngineError;
use std::cmp::Ordering;
use tablog_term::{
    atom, int, intern, structure, sym_name, sym_str, var, Bindings, Env, Functor, Head, Sym, Term,
    TermArena, Val, Walked,
};

/// A deterministic builtin: binds into `b`, returns whether it succeeded.
pub type DetFn = fn(&mut Bindings, &[Term]) -> Result<bool, EngineError>;
/// A nondeterministic builtin: returns alternative argument tuples, each to
/// be unified pairwise against the call's arguments.
pub type NonDetFn = fn(&Bindings, &[Term]) -> Result<Vec<Vec<Term>>, EngineError>;

/// Dispatch entry for a builtin predicate.
///
/// Exposed so that alternative evaluators (the bottom-up baseline in
/// `tablog-magic`) can share the engine's builtin semantics.
#[derive(Clone, Copy)]
pub enum BuiltinImpl {
    /// Binds directly into the store; succeeds at most once.
    Det(DetFn),
    /// Enumerates alternative argument tuples.
    NonDet(NonDetFn),
}

/// Looks up the builtin implementing `f`, if any.
pub fn lookup_builtin(f: Functor) -> Option<BuiltinImpl> {
    use BuiltinImpl::*;
    let name = sym_str(f.name);
    if name == "$iff" && f.arity >= 1 {
        return Some(NonDet(iff));
    }
    if name == "$absunify" && f.arity == 2 {
        return Some(Det(|b, a| Ok(abs_unify(b, &a[0], &a[1]))));
    }
    if name == "$absground" && f.arity == 1 {
        return Some(Det(|b, a| {
            abs_ground(b, &a[0]);
            Ok(true)
        }));
    }
    Some(match (name, f.arity) {
        ("true", 0) => Det(|_, _| Ok(true)),
        ("fail", 0) | ("false", 0) => Det(|_, _| Ok(false)),
        ("=", 2) => Det(|b, a| Ok(tablog_term::unify(b, &a[0], &a[1]))),
        ("\\=", 2) => Det(|b, a| {
            let m = b.mark();
            let ok = tablog_term::unify(b, &a[0], &a[1]);
            b.undo_to(m);
            Ok(!ok)
        }),
        ("==", 2) => Det(|b, a| Ok(b.resolve(&a[0]) == b.resolve(&a[1]))),
        ("\\==", 2) => Det(|b, a| Ok(b.resolve(&a[0]) != b.resolve(&a[1]))),
        ("@<", 2) => Det(|b, a| Ok(cmp(b, a) == Ordering::Less)),
        ("@>", 2) => Det(|b, a| Ok(cmp(b, a) == Ordering::Greater)),
        ("@=<", 2) => Det(|b, a| Ok(cmp(b, a) != Ordering::Greater)),
        ("@>=", 2) => Det(|b, a| Ok(cmp(b, a) != Ordering::Less)),
        ("is", 2) => Det(|b, a| {
            let v = arith_eval(b, &a[1])?;
            Ok(tablog_term::unify(b, &a[0], &int(v)))
        }),
        ("=:=", 2) => Det(|b, a| Ok(arith_eval(b, &a[0])? == arith_eval(b, &a[1])?)),
        ("=\\=", 2) => Det(|b, a| Ok(arith_eval(b, &a[0])? != arith_eval(b, &a[1])?)),
        ("<", 2) => Det(|b, a| Ok(arith_eval(b, &a[0])? < arith_eval(b, &a[1])?)),
        (">", 2) => Det(|b, a| Ok(arith_eval(b, &a[0])? > arith_eval(b, &a[1])?)),
        ("=<", 2) => Det(|b, a| Ok(arith_eval(b, &a[0])? <= arith_eval(b, &a[1])?)),
        (">=", 2) => Det(|b, a| Ok(arith_eval(b, &a[0])? >= arith_eval(b, &a[1])?)),
        ("var", 1) => Det(|b, a| Ok(b.walk(&a[0]).is_var())),
        ("nonvar", 1) => Det(|b, a| Ok(!b.walk(&a[0]).is_var())),
        ("atom", 1) => Det(|b, a| Ok(matches!(b.walk(&a[0]), Term::Atom(_)))),
        ("number", 1) | ("integer", 1) => Det(|b, a| Ok(matches!(b.walk(&a[0]), Term::Int(_)))),
        ("atomic", 1) => Det(|b, a| Ok(matches!(b.walk(&a[0]), Term::Atom(_) | Term::Int(_)))),
        ("compound", 1) => Det(|b, a| Ok(matches!(b.walk(&a[0]), Term::Struct(_, _)))),
        ("ground", 1) => Det(|b, a| Ok(b.resolve(&a[0]).is_ground())),
        ("functor", 3) => Det(functor3),
        ("arg", 3) => Det(arg3),
        ("=..", 2) => Det(univ),
        ("between", 3) => NonDet(between),
        _ => return None,
    })
}

/// `true` if `f` names a builtin (including control constructs the machine
/// itself interprets).
pub fn is_builtin(f: Functor) -> bool {
    if lookup_builtin(f).is_some() {
        return true;
    }
    matches!(
        (sym_str(f.name), f.arity),
        (",", 2) | (";", 2) | ("->", 2) | ("\\+", 1) | ("not", 1) | ("call", 1) | ("!", 0)
    )
}

/// Functors of all named builtins with fixed arity (used by the magic-sets
/// transform to leave builtin literals untouched).
pub fn builtin_functors() -> Vec<Functor> {
    let names: &[(&str, usize)] = &[
        ("true", 0),
        ("fail", 0),
        ("false", 0),
        ("=", 2),
        ("\\=", 2),
        ("==", 2),
        ("\\==", 2),
        ("@<", 2),
        ("@>", 2),
        ("@=<", 2),
        ("@>=", 2),
        ("is", 2),
        ("=:=", 2),
        ("=\\=", 2),
        ("<", 2),
        (">", 2),
        ("=<", 2),
        (">=", 2),
        ("var", 1),
        ("nonvar", 1),
        ("atom", 1),
        ("number", 1),
        ("integer", 1),
        ("atomic", 1),
        ("compound", 1),
        ("ground", 1),
        ("functor", 3),
        ("arg", 3),
        ("=..", 2),
        ("between", 3),
    ];
    names.iter().map(|(n, a)| Functor::new(n, *a)).collect()
}

fn cmp(b: &Bindings, a: &[Term]) -> Ordering {
    term_compare(&b.resolve(&a[0]), &b.resolve(&a[1]))
}

/// Standard order of terms: `Var < Int < Atom < Compound`, compounds by
/// arity, then name, then arguments left to right.
pub fn term_compare(t1: &Term, t2: &Term) -> Ordering {
    fn rank(t: &Term) -> u8 {
        match t {
            Term::Var(_) => 0,
            Term::Int(_) => 1,
            Term::Atom(_) => 2,
            Term::Struct(_, _) => 3,
        }
    }
    match (t1, t2) {
        (Term::Var(v), Term::Var(w)) => v.cmp(w),
        (Term::Int(i), Term::Int(j)) => i.cmp(j),
        (Term::Atom(a), Term::Atom(b)) => sym_str(*a).cmp(sym_str(*b)),
        (Term::Struct(f, xs), Term::Struct(g, ys)) => xs
            .len()
            .cmp(&ys.len())
            .then_with(|| sym_str(*f).cmp(sym_str(*g)))
            .then_with(|| {
                xs.iter()
                    .zip(ys.iter())
                    .map(|(x, y)| term_compare(x, y))
                    .find(|o| *o != Ordering::Equal)
                    .unwrap_or(Ordering::Equal)
            }),
        _ => rank(t1).cmp(&rank(t2)),
    }
}

/// Evaluates an arithmetic expression under `b`.
///
/// # Errors
///
/// Fails on unbound variables, non-numeric leaves, unknown function symbols,
/// division by zero, and overflow.
pub fn arith_eval(b: &Bindings, t: &Term) -> Result<i64, EngineError> {
    let w = b.walk(t).clone();
    match &w {
        Term::Int(i) => Ok(*i),
        Term::Var(_) => Err(EngineError::Arith("unbound variable".into())),
        Term::Atom(s) => Err(EngineError::Arith(format!(
            "not a number: {}",
            sym_name(*s)
        ))),
        Term::Struct(s, args) => {
            let name = sym_name(*s);
            let bin = |b: &Bindings, f: fn(i64, i64) -> Option<i64>| -> Result<i64, EngineError> {
                let x = arith_eval(b, &args[0])?;
                let y = arith_eval(b, &args[1])?;
                f(x, y).ok_or_else(|| EngineError::Arith(format!("{name} failed on {x}, {y}")))
            };
            match (name.as_str(), args.len()) {
                ("+", 2) => bin(b, i64::checked_add),
                ("-", 2) => bin(b, i64::checked_sub),
                ("*", 2) => bin(b, i64::checked_mul),
                ("//", 2) | ("/", 2) | ("div", 2) => bin(b, |x, y| x.checked_div(y)),
                ("mod", 2) => bin(b, |x, y| x.checked_rem_euclid(y)),
                ("rem", 2) => bin(b, |x, y| x.checked_rem(y)),
                ("min", 2) => bin(b, |x, y| Some(x.min(y))),
                ("max", 2) => bin(b, |x, y| Some(x.max(y))),
                ("<<", 2) => bin(b, |x, y| x.checked_shl(y.try_into().ok()?)),
                (">>", 2) => bin(b, |x, y| x.checked_shr(y.try_into().ok()?)),
                ("/\\", 2) => bin(b, |x, y| Some(x & y)),
                ("\\/", 2) => bin(b, |x, y| Some(x | y)),
                ("xor", 2) => bin(b, |x, y| Some(x ^ y)),
                ("-", 1) => arith_eval(b, &args[0])?
                    .checked_neg()
                    .ok_or_else(|| EngineError::Arith("negation overflow".into())),
                ("+", 1) => arith_eval(b, &args[0]),
                ("abs", 1) => Ok(arith_eval(b, &args[0])?.abs()),
                _ => Err(EngineError::Arith(format!(
                    "unknown function {name}/{}",
                    args.len()
                ))),
            }
        }
    }
}

/// The atom representing γ, the set of all ground terms, in the Section-5
/// depth-k abstract domain.
pub const GAMMA: &str = "$g";

/// Abstract unification over depth-k terms (`$absunify/2`): the γ atom
/// unifies with any term whose variables it grounds, and variable binding
/// performs the occur check (as the paper's meta-level implementation
/// does). Over-approximating: `γ ⊓ f(…)` keeps each side's own view.
pub fn abs_unify(b: &mut Bindings, t1: &Term, t2: &Term) -> bool {
    let w1 = b.walk(t1).clone();
    let w2 = b.walk(t2).clone();
    let gamma = intern(GAMMA);
    let is_gamma = |t: &Term| matches!(t, Term::Atom(s) if *s == gamma);
    match (&w1, &w2) {
        (Term::Var(v1), Term::Var(v2)) if v1 == v2 => true,
        (Term::Var(v), _) => {
            if b.occurs(*v, &w2) {
                return false;
            }
            b.bind(*v, w2);
            true
        }
        (_, Term::Var(v)) => {
            if b.occurs(*v, &w1) {
                return false;
            }
            b.bind(*v, w1);
            true
        }
        _ if is_gamma(&w1) => {
            abs_ground(b, &w2);
            true
        }
        _ if is_gamma(&w2) => {
            abs_ground(b, &w1);
            true
        }
        (Term::Atom(x), Term::Atom(y)) => x == y,
        (Term::Int(x), Term::Int(y)) => x == y,
        (Term::Struct(f, xs), Term::Struct(g, ys)) => {
            f == g
                && xs.len() == ys.len()
                && xs.iter().zip(ys.iter()).all(|(x, y)| abs_unify(b, x, y))
        }
        _ => false,
    }
}

/// Constrains every unbound variable of `t` to γ (`$absground/1`): the
/// abstraction of "this term is ground".
pub fn abs_ground(b: &mut Bindings, t: &Term) {
    match b.walk(t).clone() {
        Term::Var(v) => b.bind(v, atom(GAMMA)),
        Term::Struct(_, ref args) => {
            for a in args.iter() {
                abs_ground(b, a);
            }
        }
        _ => {}
    }
}

/// [`abs_unify`] on environment values, with `gamma` the interned γ atom:
/// the machine's `$absunify/2`, reading the node and its bindings in place.
pub(crate) fn abs_unify_env(
    env: &mut Env,
    arena: &TermArena,
    a: &Val,
    b: &Val,
    gamma: Sym,
) -> bool {
    match (env.walk(arena, a), env.walk(arena, b)) {
        (Walked::Var(x), Walked::Var(y)) => {
            if x != y {
                env.bind(x, Val::cell(y));
            }
            true
        }
        (Walked::Var(x), Walked::Val(v)) | (Walked::Val(v), Walked::Var(x)) => {
            if env.occurs(arena, x, &v) {
                return false;
            }
            env.bind(x, v);
            true
        }
        (Walked::Val(p), Walked::Val(q)) => {
            let (hp, hq) = (Env::head(arena, &p), Env::head(arena, &q));
            if hp == Head::Atom(gamma) {
                abs_ground_env(env, arena, &q, gamma);
                return true;
            }
            if hq == Head::Atom(gamma) {
                abs_ground_env(env, arena, &p, gamma);
                return true;
            }
            if hp != hq {
                return false;
            }
            let Head::Struct(_, n) = hp else {
                return true;
            };
            (0..n).all(|i| {
                let (x, y) = (Env::arg(arena, &p, i), Env::arg(arena, &q, i));
                abs_unify_env(env, arena, &x, &y, gamma)
            })
        }
    }
}

/// [`abs_ground`] on an environment value: the machine's `$absground/1`.
pub(crate) fn abs_ground_env(env: &mut Env, arena: &TermArena, v: &Val, gamma: Sym) {
    match env.walk(arena, v) {
        Walked::Var(x) => env.bind(x, Val::Term(Term::Atom(gamma), 0)),
        Walked::Val(Val::Id(id, _)) if arena.is_ground(id) => {}
        Walked::Val(w) => {
            if let Head::Struct(_, n) = Env::head(arena, &w) {
                for i in 0..n {
                    abs_ground_env(env, arena, &Env::arg(arena, &w, i), gamma);
                }
            }
        }
    }
}

fn functor3(b: &mut Bindings, a: &[Term]) -> Result<bool, EngineError> {
    let t = b.walk(&a[0]).clone();
    match &t {
        Term::Var(_) => {
            let name = b.walk(&a[1]).clone();
            let n = arith_eval(b, &a[2])?;
            if n < 0 {
                return Err(EngineError::BadArgs("functor/3", "negative arity".into()));
            }
            let built = match (&name, n) {
                (Term::Atom(s), 0) => Term::Atom(*s),
                (Term::Int(i), 0) => Term::Int(*i),
                (Term::Atom(s), n) => {
                    let args: Vec<Term> = (0..n).map(|_| var(b.fresh_var())).collect();
                    Term::Struct(*s, args.into())
                }
                _ => return Err(EngineError::BadArgs("functor/3", "bad name".into())),
            };
            Ok(tablog_term::unify(b, &a[0], &built))
        }
        Term::Atom(s) => {
            Ok(tablog_term::unify(b, &a[1], &Term::Atom(*s))
                && tablog_term::unify(b, &a[2], &int(0)))
        }
        Term::Int(i) => {
            Ok(tablog_term::unify(b, &a[1], &int(*i)) && tablog_term::unify(b, &a[2], &int(0)))
        }
        Term::Struct(s, args) => Ok(tablog_term::unify(b, &a[1], &Term::Atom(*s))
            && tablog_term::unify(b, &a[2], &int(args.len() as i64))),
    }
}

fn arg3(b: &mut Bindings, a: &[Term]) -> Result<bool, EngineError> {
    let n = arith_eval(b, &a[0])?;
    let t = b.walk(&a[1]).clone();
    match &t {
        Term::Struct(_, args) => {
            if n < 1 || n as usize > args.len() {
                return Ok(false);
            }
            let picked = args[n as usize - 1].clone();
            Ok(tablog_term::unify(b, &a[2], &picked))
        }
        _ => Err(EngineError::BadArgs(
            "arg/3",
            "second argument must be compound".into(),
        )),
    }
}

fn univ(b: &mut Bindings, a: &[Term]) -> Result<bool, EngineError> {
    let t = b.walk(&a[0]).clone();
    match &t {
        Term::Var(_) => {
            // Build term from list.
            let items = list_to_vec(b, &a[1]).ok_or_else(|| {
                EngineError::BadArgs("=../2", "second argument must be a proper list".into())
            })?;
            let Some((head, rest)) = items.split_first() else {
                return Err(EngineError::BadArgs("=../2", "empty list".into()));
            };
            let built = match (head, rest.len()) {
                (Term::Atom(s), 0) => Term::Atom(*s),
                (Term::Int(i), 0) => Term::Int(*i),
                (Term::Atom(s), _) => Term::Struct(*s, rest.to_vec().into()),
                _ => return Err(EngineError::BadArgs("=../2", "bad functor".into())),
            };
            Ok(tablog_term::unify(b, &a[0], &built))
        }
        Term::Atom(_) | Term::Int(_) => {
            let l = vec_to_list(vec![t.clone()]);
            Ok(tablog_term::unify(b, &a[1], &l))
        }
        Term::Struct(s, args) => {
            let mut items = vec![Term::Atom(*s)];
            items.extend(args.iter().cloned());
            let l = vec_to_list(items);
            Ok(tablog_term::unify(b, &a[1], &l))
        }
    }
}

/// Converts a (resolved) Prolog list term into a `Vec`, or `None` if it is
/// not a proper list.
fn list_to_vec(b: &Bindings, t: &Term) -> Option<Vec<Term>> {
    let mut out = Vec::new();
    let mut cur = b.walk(t).clone();
    loop {
        match &cur {
            Term::Atom(s) if sym_str(*s) == "[]" => return Some(out),
            Term::Struct(s, args) if args.len() == 2 && sym_str(*s) == "." => {
                out.push(b.resolve(&args[0]));
                cur = b.walk(&args[1]).clone();
            }
            _ => return None,
        }
    }
}

fn vec_to_list(items: Vec<Term>) -> Term {
    let mut l = atom("[]");
    for it in items.into_iter().rev() {
        l = structure(".", vec![it, l]);
    }
    l
}

fn between(b: &Bindings, a: &[Term]) -> Result<Vec<Vec<Term>>, EngineError> {
    let lo = arith_eval(b, &a[0])?;
    let hi = arith_eval(b, &a[1])?;
    Ok((lo..=hi).map(|i| vec![int(lo), int(hi), int(i)]).collect())
}

/// The `$iff/N` builtin: `$iff(X, Y1…Yk)` succeeds for every boolean row
/// with `X = Y1 ∧ … ∧ Yk`, enumerating only rows consistent with bound
/// arguments. The enumeration itself lives in the shared domain layer
/// ([`tablog_domain::iff_rows`]), which also enforces the
/// [`tablog_domain::MAX_IFF_FREE_VARS`] cap: a call with more free `Y`s
/// than that fails with [`EngineError::BadArgs`] instead of materialising
/// `2^k` rows.
fn iff(b: &Bindings, a: &[Term]) -> Result<Vec<Vec<Term>>, EngineError> {
    use tablog_domain::IffArg;
    let tru = atom("true");
    let fls = atom("false");
    let mut vals = Vec::with_capacity(a.len());
    for t in a {
        let w = b.walk(t);
        vals.push(match w {
            Term::Var(_) => IffArg::Free,
            t if *t == tru => IffArg::True,
            t if *t == fls => IffArg::False,
            other => {
                return Err(EngineError::BadArgs(
                    "$iff",
                    format!("non-boolean argument {other}"),
                ))
            }
        });
    }
    let rows = tablog_domain::iff_rows(&vals)
        .map_err(|overflow| EngineError::BadArgs("$iff", overflow.to_string()))?;
    Ok(rows
        .into_iter()
        .map(|row| {
            row.into_iter()
                .map(|v| if v { tru.clone() } else { fls.clone() })
                .collect()
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tablog_term::var;

    fn run_det(goal: &str) -> bool {
        let mut b = Bindings::new();
        let (t, _) = tablog_syntax::parse_term(goal, &mut b).unwrap();
        let f = t.functor().unwrap();
        match lookup_builtin(f).unwrap() {
            BuiltinImpl::Det(f) => f(&mut b, t.args()).unwrap(),
            _ => panic!("not det"),
        }
    }

    #[test]
    fn arithmetic_comparisons() {
        assert!(run_det("1 + 2 =:= 3"));
        assert!(run_det("2 * 3 > 5"));
        assert!(run_det("7 mod 3 =:= 1"));
        assert!(run_det("min(3, 5) =:= 3"));
        assert!(run_det("abs(-4) =:= 4"));
    }

    #[test]
    fn is_binds() {
        let mut b = Bindings::new();
        let (t, names) = tablog_syntax::parse_term("X is 6 * 7", &mut b).unwrap();
        match lookup_builtin(t.functor().unwrap()).unwrap() {
            BuiltinImpl::Det(f) => assert!(f(&mut b, t.args()).unwrap()),
            _ => panic!(),
        }
        assert_eq!(b.resolve(&var(names[0].1)), int(42));
    }

    #[test]
    fn division_by_zero_is_error() {
        let mut b = Bindings::new();
        let (t, _) = tablog_syntax::parse_term("X is 1 // 0", &mut b).unwrap();
        match lookup_builtin(t.functor().unwrap()).unwrap() {
            BuiltinImpl::Det(f) => assert!(f(&mut b, t.args()).is_err()),
            _ => panic!(),
        }
    }

    #[test]
    fn structural_equality_and_order() {
        assert!(run_det("f(a) == f(a)"));
        assert!(run_det("f(a) \\== f(b)"));
        assert!(run_det("a @< b"));
        assert!(run_det("f(a) @< f(a, b)")); // arity first
        assert!(run_det("1 @< a")); // numbers before atoms
    }

    #[test]
    fn type_tests() {
        assert!(run_det("atom(a)"));
        assert!(!run_det("atom(f(a))"));
        assert!(run_det("compound(f(a))"));
        assert!(run_det("ground(f(a, 1))"));
        assert!(run_det("integer(3)"));
    }

    #[test]
    fn functor_decompose_and_build() {
        let mut b = Bindings::new();
        let (t, names) = tablog_syntax::parse_term("functor(f(a, b), N, A)", &mut b).unwrap();
        match lookup_builtin(t.functor().unwrap()).unwrap() {
            BuiltinImpl::Det(f) => assert!(f(&mut b, t.args()).unwrap()),
            _ => panic!(),
        }
        assert_eq!(b.resolve(&var(names[0].1)), atom("f"));
        assert_eq!(b.resolve(&var(names[1].1)), int(2));
    }

    #[test]
    fn univ_both_directions() {
        let mut b = Bindings::new();
        let (t, names) = tablog_syntax::parse_term("f(a, B) =.. L", &mut b).unwrap();
        match lookup_builtin(t.functor().unwrap()).unwrap() {
            BuiltinImpl::Det(f) => assert!(f(&mut b, t.args()).unwrap()),
            _ => panic!(),
        }
        let l = b.resolve(&var(names[1].1));
        assert_eq!(tablog_syntax::term_to_string(&l), "[f,a,A]");
    }

    #[test]
    fn iff_fully_free_enumerates_full_table() {
        // $iff(X, Y1, Y2): 4 rows.
        let mut b = Bindings::new();
        let args = vec![var(b.fresh_var()), var(b.fresh_var()), var(b.fresh_var())];
        let rows = iff(&b, &args).unwrap();
        assert_eq!(rows.len(), 4);
        let true_rows: Vec<_> = rows.iter().filter(|r| r[0] == atom("true")).collect();
        assert_eq!(true_rows.len(), 1);
        assert!(true_rows[0].iter().all(|t| *t == atom("true")));
    }

    #[test]
    fn iff_prunes_on_bound_head() {
        let mut b = Bindings::new();
        let x = b.fresh_var();
        b.bind(x, atom("true"));
        let args = vec![var(x), var(b.fresh_var()), var(b.fresh_var())];
        let rows = iff(&b, &args).unwrap();
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn iff_bound_false_y_forces_false_head() {
        let mut b = Bindings::new();
        let y = b.fresh_var();
        b.bind(y, atom("false"));
        let args = vec![var(b.fresh_var()), var(y), var(b.fresh_var())];
        let rows = iff(&b, &args).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r[0] == atom("false")));
    }

    #[test]
    fn iff_unary_is_identity_true() {
        let b = Bindings::new();
        let rows = iff(&b, &[atom("true")]).unwrap();
        // $iff(X) with X=true: empty conjunction is true.
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], atom("true"));
        let rows2 = iff(&b, &[atom("false")]).unwrap();
        assert!(rows2.is_empty());
    }

    #[test]
    fn iff_rejects_non_boolean() {
        let b = Bindings::new();
        assert!(iff(&b, &[atom("zzz")]).is_err());
    }

    #[test]
    fn iff_caps_free_variable_enumeration() {
        // One free Y past the cap: a proper error, not 2^17 rows.
        let mut b = Bindings::new();
        let over = tablog_domain::MAX_IFF_FREE_VARS + 1;
        let mut args = vec![var(b.fresh_var())];
        for _ in 0..over {
            args.push(var(b.fresh_var()));
        }
        let err = iff(&b, &args).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("cap"), "{msg}");
        assert!(msg.contains("$iff"), "{msg}");
        // Binding the Ys brings the same arity back under the cap: only
        // free Ys count, the head never does.
        for a in args.iter_mut().skip(1) {
            *a = atom("true");
        }
        let rows = iff(&b, &args).unwrap();
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn between_enumerates() {
        let b = Bindings::new();
        let rows = between(&b, &[int(1), int(3), Term::Var(tablog_term::Var(0))]).unwrap();
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn builtin_lookup_and_is_builtin() {
        assert!(is_builtin(Functor::new("=", 2)));
        assert!(is_builtin(Functor::new(",", 2)));
        assert!(is_builtin(Functor::new("$iff", 7)));
        assert!(!is_builtin(Functor::new("append", 3)));
    }
}
