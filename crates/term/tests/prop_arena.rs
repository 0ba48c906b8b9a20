//! Property tests for the hash-consing arena against an independent
//! reference: canonical forms computed structurally, with no arena at all.
//!
//! The reference canonicalizer resolves each term through the binding
//! store ([`Bindings::resolve`]) and renumbers the remaining variables in
//! first-occurrence order across the whole tuple. Byte accounting is
//! checked against counts over the reference terms: the unshared estimate
//! is [`Term::heap_bytes`], the shared charge is one node per distinct
//! subterm.

use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use tablog_term::{atom, int, structure, var, Bindings, CanonicalTerm, Term, TermArena, Var};

/// Variables `0..BOUND` may be bound in a case's store; they are bound only
/// to terms over variables `BOUND..NVARS`, so bindings are acyclic.
const BOUND: u32 = 3;
const NVARS: u32 = 6;

/// Ground subterms drawn repeatedly, so tuples share structure.
fn ground_pool() -> impl Strategy<Value = Term> {
    let g = structure("g", vec![atom("a"), int(1)]);
    prop_oneof![
        Just(g.clone()),
        Just(structure("h", vec![g, atom("b")])),
        Just(atom("a")),
        Just(int(7)),
    ]
}

fn arb_term(lo: u32, hi: u32) -> impl Strategy<Value = Term> {
    let leaf = prop_oneof![
        (lo..hi).prop_map(|v| var(Var(v))),
        ground_pool(),
        (-2i64..3).prop_map(int),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        (
            prop_oneof![Just("f"), Just("g"), Just("h")],
            prop::collection::vec(inner, 1..4),
        )
            .prop_map(|(name, args)| structure(name, args))
    })
}

fn arb_tuple() -> impl Strategy<Value = Vec<Term>> {
    prop::collection::vec(arb_term(0, NVARS), 0..5)
}

/// Bindings for some of the variables `0..BOUND`.
fn arb_binds() -> impl Strategy<Value = Vec<(u32, Term)>> {
    prop::collection::vec((0..BOUND, arb_term(BOUND, NVARS)), 0..3)
}

fn store(binds: &[(u32, Term)]) -> Bindings {
    let mut b = Bindings::new();
    b.fresh_block(NVARS as usize);
    for (v, t) in binds {
        if b.lookup(Var(*v)).is_none() {
            b.bind(Var(*v), t.clone());
        }
    }
    b
}

/// The reference canonical form of `ts` under `b`.
fn reference(b: &Bindings, ts: &[Term]) -> Vec<Term> {
    let mut numbering: HashMap<Var, u32> = HashMap::new();
    ts.iter()
        .map(|t| {
            b.resolve(t).map_vars(&mut |v| {
                let next = numbering.len() as u32;
                var(Var(*numbering.entry(v).or_insert(next)))
            })
        })
        .collect()
}

fn subterms(t: &Term, out: &mut HashSet<Term>) {
    if out.insert(t.clone()) {
        for a in t.args() {
            subterms(a, out);
        }
    }
}

/// Bytes of the distinct subterms of every tuple in `tuples`.
fn shared_bytes(tuples: &[&[Term]]) -> usize {
    let mut distinct = HashSet::new();
    for ts in tuples {
        for t in ts.iter() {
            subterms(t, &mut distinct);
        }
    }
    distinct.len() * std::mem::size_of::<Term>()
}

/// Checks one canonical form against the reference for `ts` under `b`.
fn check(arena: &mut TermArena, c: &CanonicalTerm, b: &Bindings, ts: &[Term]) {
    let want = reference(b, ts);
    assert_eq!(arena.terms(c), want, "terms() of {ts:?}");
    assert_eq!(arena.tuple_len(c), ts.len());
    let nvars: HashSet<Var> = want.iter().flat_map(Term::vars).collect();
    assert_eq!(c.num_vars(), nvars.len());
    assert_eq!(arena.handle(c.root_id()), *c);
    assert_eq!(arena.handle(c.root_id()).num_vars(), c.num_vars());
    assert_eq!(
        arena.heap_bytes(c),
        want.iter().map(Term::heap_bytes).sum::<usize>()
    );
    assert_eq!(
        arena.charge_shared_bytes(c, &mut HashSet::new()),
        shared_bytes(&[&want])
    );
    // Instantiating with fresh variables and canonicalizing again is the
    // identity on the interned tuple.
    let mut fresh = Bindings::new();
    fresh.fresh_block(2);
    let inst = arena.instantiate(c, &mut fresh);
    assert_eq!(arena.canonicalize(&fresh, &inst).root_id(), c.root_id());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Canonical forms, counts and round trips agree with the reference,
    /// and a renamed copy of the resolved tuple is the same node.
    #[test]
    fn arena_matches_the_reference(ts in arb_tuple(), binds in arb_binds()) {
        let mut arena = TermArena::new();
        let b = store(&binds);
        let c = arena.canonicalize(&b, &ts);
        check(&mut arena, &c, &b, &ts);
        let renamed: Vec<Term> = b
            .resolve_all(&ts)
            .iter()
            .map(|t| t.map_vars(&mut |v| var(Var(3 * v.0 + 100))))
            .collect();
        let r = arena.canonicalize(&Bindings::new(), &renamed);
        prop_assert_eq!(r.root_id(), c.root_id());
    }

    /// Two tuples get one root id exactly when they are variants, and the
    /// shared charge over both counts each distinct subterm once.
    #[test]
    fn equal_ids_are_variants(
        t1 in arb_tuple(),
        t2 in arb_tuple(),
        b1 in arb_binds(),
        b2 in arb_binds(),
    ) {
        let mut arena = TermArena::new();
        let (s1, s2) = (store(&b1), store(&b2));
        let c1 = arena.canonicalize(&s1, &t1);
        let c2 = arena.canonicalize(&s2, &t2);
        check(&mut arena, &c1, &s1, &t1);
        check(&mut arena, &c2, &s2, &t2);
        let (r1, r2) = (reference(&s1, &t1), reference(&s2, &t2));
        prop_assert_eq!(c1.root_id() == c2.root_id(), r1 == r2);
        prop_assert_eq!(c1 == c2, r1 == r2);
        let mut seen = HashSet::new();
        let charged =
            arena.charge_shared_bytes(&c1, &mut seen) + arena.charge_shared_bytes(&c2, &mut seen);
        prop_assert_eq!(charged, shared_bytes(&[&r1, &r2]));
    }
}

/// Nodes wider than a slab chunk get a chunk of their own; narrow nodes
/// interned before, between and after them stay intact.
#[test]
fn wide_nodes_round_trip() {
    const WIDE: usize = 5000;
    let mut arena = TermArena::new();
    let b = Bindings::new();
    let narrow = vec![structure("f", vec![var(Var(0)), atom("a"), var(Var(0))])];
    let c_narrow = arena.canonicalize(&b, &narrow);
    let members: Vec<Term> = (0..WIDE)
        .map(|i| match i % 3 {
            0 => var(Var(i as u32 % 7)),
            1 => int(i as i64),
            _ => structure("g", vec![var(Var(i as u32 % 5)), atom("a")]),
        })
        .collect();
    let c_tuple = arena.canonicalize(&b, &members);
    let wide_struct = vec![structure("w", members.clone()), atom("z")];
    let c_struct = arena.canonicalize(&b, &wide_struct);
    let after = vec![structure("k", vec![atom("a"), var(Var(9))]), int(3)];
    let c_after = arena.canonicalize(&b, &after);

    check(&mut arena, &c_narrow, &b, &narrow);
    check(&mut arena, &c_tuple, &b, &members);
    check(&mut arena, &c_struct, &b, &wide_struct);
    check(&mut arena, &c_after, &b, &after);
    assert_eq!(arena.tuple_len(&c_tuple), WIDE);
    // Interning everything again finds the same nodes.
    let nodes = arena.stats().nodes;
    assert_eq!(arena.canonicalize(&b, &members), c_tuple);
    assert_eq!(arena.canonicalize(&b, &wide_struct), c_struct);
    assert_eq!(arena.stats().nodes, nodes);
}
