//! Differential property test for the Prop-domain backends: random
//! sequences of [`AbstractDomain`] operations applied in lockstep to the
//! enumerative [`TableDomain`] and the BDD-backed [`BddDomain`] must agree
//! after every step (compared through the truth-table export, the common
//! currency of the two representations).
//!
//! Operation arguments are generated as raw seeds and normalised against
//! the *current* variable count at application time, so one generated
//! sequence stays well-formed as `extend`/`project` change the width.

use proptest::prelude::*;
use tablog_domain::prop::PropTable;
use tablog_domain::{AbstractDomain, BddDomain, TableDomain};

/// Width ceiling: wide enough to exercise shape changes, small enough that
/// the enumerative side stays O(2^n)-cheap.
const MAX_NVARS: usize = 10;

/// One abstract-domain operation, with index/row seeds normalised later.
#[derive(Clone, Debug)]
enum Op {
    /// `constrain_iff(x % nvars, ys % nvars)`.
    Iff { x: usize, ys: Vec<usize> },
    /// `constrain_value(var % nvars, value)`.
    Pin { var: usize, value: bool },
    /// `meet` with a value built from the seed rows.
    MeetRows { rows: Vec<u32> },
    /// `join` with a value built from the seed rows.
    JoinRows { rows: Vec<u32> },
    /// `extend(1)` (skipped at the width ceiling).
    Extend,
    /// `project` onto `keep % nvars` — duplicates allowed on purpose.
    Project { keep: Vec<usize> },
    /// `constrain_relation` at `positions % nvars` with a seed-row
    /// relation.
    Relation {
        positions: Vec<usize>,
        rows: Vec<u32>,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..16, prop::collection::vec(0usize..16, 0..4)).prop_map(|(x, ys)| Op::Iff { x, ys }),
        (0usize..16, 0u8..2).prop_map(|(var, value)| Op::Pin {
            var,
            value: value == 1
        }),
        prop::collection::vec(0u32..u32::MAX, 0..6).prop_map(|rows| Op::MeetRows { rows }),
        prop::collection::vec(0u32..u32::MAX, 0..6).prop_map(|rows| Op::JoinRows { rows }),
        Just(Op::Extend),
        prop::collection::vec(0usize..16, 1..MAX_NVARS + 1).prop_map(|keep| Op::Project { keep }),
        (
            prop::collection::vec(0usize..16, 1..4),
            prop::collection::vec(0u32..u32::MAX, 0..6)
        )
            .prop_map(|(positions, rows)| Op::Relation { positions, rows }),
    ]
}

/// Decodes row seeds into explicit rows over `nvars` variables: bit `i` of
/// the seed is column `i`.
fn decode_rows(nvars: usize, seeds: &[u32]) -> Vec<Vec<bool>> {
    seeds
        .iter()
        .map(|&s| (0..nvars).map(|i| s & (1 << i) != 0).collect())
        .collect()
}

/// Applies `ops` to both backends in lockstep, checking the exported truth
/// tables (plus emptiness, per-variable groundness, and entailment against
/// top) after every operation. Returns the final table pair.
fn run_lockstep(ops: &[Op]) -> Result<(), TestCaseError> {
    let mut td = TableDomain;
    let mut bd = BddDomain::new();
    let mut nvars = 4usize;
    let mut tv = td.top(nvars);
    let mut bv = bd.top(nvars);
    for op in ops {
        match op {
            Op::Iff { x, ys } => {
                let x = x % nvars;
                let ys: Vec<usize> = ys.iter().map(|y| y % nvars).collect();
                tv = td.constrain_iff(&tv, x, &ys);
                bv = bd.constrain_iff(&bv, x, &ys);
            }
            Op::Pin { var, value } => {
                tv = td.constrain_value(&tv, var % nvars, *value);
                bv = bd.constrain_value(&bv, var % nvars, *value);
            }
            Op::MeetRows { rows } => {
                let rs = decode_rows(nvars, rows);
                let t = td.lift_rows(nvars, &rs);
                let b = bd.lift_rows(nvars, &rs);
                tv = td.meet(&tv, &t);
                bv = bd.meet(&bv, &b);
            }
            Op::JoinRows { rows } => {
                let rs = decode_rows(nvars, rows);
                let t = td.lift_rows(nvars, &rs);
                let b = bd.lift_rows(nvars, &rs);
                tv = td.join(&tv, &t);
                bv = bd.join(&bv, &b);
            }
            Op::Extend => {
                if nvars < MAX_NVARS {
                    tv = td.extend(&tv, 1);
                    bv = bd.extend(&bv, 1);
                    nvars += 1;
                }
            }
            Op::Project { keep } => {
                let keep: Vec<usize> = keep.iter().take(MAX_NVARS).map(|k| k % nvars).collect();
                tv = td.project(&tv, &keep);
                bv = bd.project(&bv, &keep);
                nvars = keep.len();
            }
            Op::Relation { positions, rows } => {
                let positions: Vec<usize> =
                    positions.iter().take(nvars).map(|p| p % nvars).collect();
                let rs = decode_rows(positions.len(), rows);
                let rel_t = td.lift_rows(positions.len(), &rs);
                let rel_b = bd.lift_rows(positions.len(), &rs);
                tv = td.constrain_relation(&tv, &positions, &rel_t);
                bv = bd.constrain_relation(&bv, &positions, &rel_b);
            }
        }
        let exported = bd.to_table(&bv);
        prop_assert_eq!(&exported, &tv, "diverged after {:?}", op);
        prop_assert_eq!(bd.is_empty(&bv), td.is_empty(&tv));
        for var in 0..nvars {
            prop_assert_eq!(
                bd.definitely(&bv, var),
                td.definitely(&tv, var),
                "definitely({}) diverged after {:?}",
                var,
                op
            );
        }
        let t_top = td.top(nvars);
        let b_top = bd.top(nvars);
        prop_assert_eq!(td.leq(&tv, &t_top), bd.leq(&bv, &b_top));
    }
    // The renderings — the analyses' reporting path — agree too.
    prop_assert_eq!(td.render(&tv), bd.render(&bv));
    prop_assert_eq!(td.render_json(&tv), bd.render_json(&bv));
    Ok(())
}

proptest! {
    /// Random operation sequences keep the backends in agreement.
    #[test]
    fn backends_agree_on_random_op_sequences(
        ops in prop::collection::vec(arb_op(), 1..12)
    ) {
        run_lockstep(&ops)?;
    }

    /// Round-tripping a random relation through the BDD backend is the
    /// identity on truth tables.
    #[test]
    fn lift_rows_to_table_round_trips(rows in prop::collection::vec(0u32..u32::MAX, 0..10)) {
        let nvars = 5usize;
        let rs = decode_rows(nvars, &rows);
        let mut bd = BddDomain::new();
        let v = bd.lift_rows(nvars, &rs);
        prop_assert_eq!(bd.to_table(&v), PropTable::from_rows(nvars, &rs));
    }
}
