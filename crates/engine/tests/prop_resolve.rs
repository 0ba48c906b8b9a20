//! The engine resolves on the arena: a clause (or an answer tuple) is
//! unified with a node's selected goal through an [`Env`] of frames over
//! interned ids and stored terms, and the resolvent is interned in one
//! walk ([`TermArena::resolve`]). These properties pin that mechanism to
//! its `Term`-level oracle — instantiate the node, rename the clause apart,
//! [`unify`], [`TermArena::canonicalize2`] — on random nodes, clauses and
//! answers: both agree on success, produce the same resolvent, and intern
//! the same number of arena nodes.

use proptest::prelude::*;
use tablog_term::{
    atom, int, structure, unify, unify_occurs, var, Bindings, Env, Term, TermArena, Val, Var,
};

/// Arbitrary terms over a small signature with variables from `0..nvars`.
/// Variables make up half the leaves, so that unifications often succeed,
/// share variables and trip the occur check.
fn arb_term(nvars: u32) -> impl Strategy<Value = Term> {
    let leaf = prop_oneof![
        (0..nvars).prop_map(|v| var(Var(v))),
        (0..nvars).prop_map(|v| var(Var(v))),
        prop_oneof![Just("a"), Just("b")].prop_map(atom),
        (0i64..2).prop_map(int),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        (
            prop_oneof![Just("f"), Just("g")],
            prop::collection::vec(inner, 1..3),
        )
            .prop_map(|(name, args)| structure(name, args))
    })
}

/// A node: answer template, selected goal `p(…)`, remaining goals.
fn arb_node() -> impl Strategy<Value = (Vec<Term>, Vec<Term>, Vec<Term>)> {
    (
        prop::collection::vec(arb_term(4), 0..3),
        prop::collection::vec(arb_term(4), 2..3),
        prop::collection::vec(arb_term(4), 0..3),
    )
}

/// A clause `p(…) :- body` with clause-local variables `0..3`.
fn arb_clause() -> impl Strategy<Value = (Vec<Term>, Vec<Term>)> {
    (
        prop::collection::vec(arb_term(3), 2..3),
        prop::collection::vec(arb_term(3), 0..3),
    )
}

/// Interns the node `template ++ [p(args)] ++ rest` and returns its arena,
/// the tuple's member ids and the number of its variables.
fn intern_node(
    template: &[Term],
    args: &[Term],
    rest: &[Term],
) -> (TermArena, Vec<tablog_term::TermId>, usize) {
    let mut arena = TermArena::new();
    let mut goals = vec![structure("p", args.to_vec())];
    goals.extend_from_slice(rest);
    let c = arena.canonicalize2(&Bindings::new(), template, &goals);
    let members = arena.members(c.root_id()).to_vec();
    (arena, members, c.num_vars())
}

/// The oracle's resolvent terms, or `None` when unification fails.
type Outcome = Option<Vec<Term>>;

fn check(
    node: (Vec<Term>, Vec<Term>, Vec<Term>),
    head: Vec<Term>,
    body: Vec<Term>,
    from_answer: bool,
    occurs: bool,
) -> Result<(), TestCaseError> {
    let (template, args, rest) = node;
    let split = template.len();

    // --- Oracle: materialize, rename apart, unify, canonicalize. ---
    let (mut a1, members, nvars) = intern_node(&template, &args, &rest);
    let node_c = a1.canonicalize2(&Bindings::new(), &template, &{
        let mut g = vec![structure("p", args.clone())];
        g.extend_from_slice(&rest);
        g
    });
    // The other side: an answer tuple interned in the arena, or a clause.
    let answer = from_answer.then(|| a1.canonicalize(&Bindings::new(), &head));
    let before = a1.stats().nodes;
    let mut b = Bindings::new();
    let ts = a1.instantiate(&node_c, &mut b);
    let (tmpl, goals) = ts.split_at(split);
    let (g, rs) = goals.split_first().expect("node has a selected goal");
    let (other, renamed_body): (Vec<Term>, Vec<Term>) = match &answer {
        Some(c) => (a1.instantiate(c, &mut b), Vec::new()),
        None => {
            let base = b.fresh_block(3).0;
            let mut rename = |t: &Term| t.map_vars(&mut |v| Term::Var(Var(base + v.0)));
            (
                head.iter().map(&mut rename).collect(),
                body.iter().map(&mut rename).collect(),
            )
        }
    };
    // Without the occur check a unification can build a cyclic binding,
    // on which the `Term`-level oracle does not terminate; such cases are
    // the engine tests' business (a typed cyclic-term error). When the
    // checked unification succeeds, the unchecked one binds the same.
    let mut probe = b.clone();
    let acyclic = g
        .args()
        .iter()
        .zip(&other)
        .all(|(x, y)| unify_occurs(&mut probe, x, y));
    if !occurs && !acyclic {
        return Ok(());
    }
    let unified = g.args().iter().zip(&other).all(|(x, y)| {
        if occurs {
            unify_occurs(&mut b, x, y)
        } else {
            unify(&mut b, x, y)
        }
    });
    let mut goals2 = renamed_body.clone();
    goals2.extend_from_slice(rs);
    let expected: Outcome = unified.then(|| {
        let c = a1.canonicalize2(&b, tmpl, &goals2);
        a1.terms(&c)
    });
    let oracle_new = a1.stats().nodes - before;

    // --- Arena resolution: frames over ids and stored terms. ---
    let (mut a2, members2, nvars2) = intern_node(&template, &args, &rest);
    prop_assert_eq!(&members, &members2);
    prop_assert_eq!(nvars, nvars2);
    let answer2 = from_answer.then(|| a2.canonicalize(&Bindings::new(), &head));
    let before2 = a2.stats().nodes;
    let mut env = Env::new();
    env.frame(nvars);
    let g_id = members[split];
    let (other_vals, body_vals): (Vec<Val>, Vec<Val>) = match &answer2 {
        Some(c) => {
            let base = env.frame(c.num_vars());
            (
                a2.members(c.root_id())
                    .iter()
                    .map(|&k| Val::Id(k, base))
                    .collect(),
                Vec::new(),
            )
        }
        None => {
            let base = env.frame(3);
            (
                head.iter().map(|t| Val::Term(t.clone(), base)).collect(),
                body.iter().map(|t| Val::Term(t.clone(), base)).collect(),
            )
        }
    };
    let g_args = a2.args(g_id).to_vec();
    let ok = g_args
        .iter()
        .zip(&other_vals)
        .all(|(&x, y)| env.unify(&a2, &Val::Id(x, 0), y, occurs));
    let got: Outcome = ok.then(|| {
        let mut vals: Vec<Val> = members[..split].iter().map(|&k| Val::Id(k, 0)).collect();
        vals.extend(body_vals);
        vals.extend(members[split + 1..].iter().map(|&k| Val::Id(k, 0)));
        let c = a2.resolve(&env, &vals).expect("acyclic bindings");
        a2.terms(&c)
    });
    let new2 = a2.stats().nodes - before2;

    prop_assert_eq!(&got, &expected);
    prop_assert_eq!(new2, oracle_new, "arena nodes interned by the step");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Clause resolution on the arena matches the `Term`-level oracle.
    #[test]
    fn clause_resolvent_matches_the_term_oracle(
        node in arb_node(),
        clause in arb_clause(),
        occurs in (0u32..2).prop_map(|x| x == 1),
    ) {
        check(node, clause.0, clause.1, false, occurs)?;
    }

    /// Answer return on the arena matches the `Term`-level oracle.
    #[test]
    fn answer_resolvent_matches_the_term_oracle(
        node in arb_node(),
        answer in prop::collection::vec(arb_term(3), 2..3),
        occurs in (0u32..2).prop_map(|x| x == 1),
    ) {
        check(node, answer, Vec::new(), true, occurs)?;
    }
}
