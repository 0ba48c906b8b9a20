//! Kernel ≡ reference: every word-parallel [`PropTable`] kernel against a
//! row-at-a-time reference, on random tables of 0 to 12 variables.
//!
//! The reference is the direct reading of each operation's definition: it
//! visits all `2^n` rows one at a time. The sizes cover sub-word tables
//! (`n < 6`, where padding bits sit above row `2^n`), the one-word table
//! (`n = 6`) and multi-word tables, and the variable arguments cover both
//! in-word variables (`v < 6`) and word-striding ones (`v ≥ 6`). Every
//! kernel result is also checked to keep its padding bits zero, since
//! `Eq`/`Hash` on tables are over the raw words.

use proptest::prelude::*;
use tablog_domain::prop::PropTable;

const MAX_N: usize = 12;

/// A truth table as one `bool` per row: the reference representation.
#[derive(Clone, Debug, PartialEq)]
struct Ref {
    nvars: usize,
    rows: Vec<bool>,
}

impl Ref {
    fn bottom(nvars: usize) -> Self {
        Ref {
            nvars,
            rows: vec![false; 1 << nvars],
        }
    }

    fn of(t: &PropTable) -> Self {
        let words = t.as_words();
        Ref {
            nvars: t.num_vars(),
            rows: (0..1usize << t.num_vars())
                .map(|r| words[r / 64] & (1 << (r % 64)) != 0)
                .collect(),
        }
    }

    fn get(&self, r: usize) -> bool {
        self.rows[r]
    }

    fn set(&mut self, r: usize) {
        self.rows[r] = true;
    }

    fn constrain_iff(&self, x: usize, ys: &[usize]) -> Ref {
        let mut out = Ref::bottom(self.nvars);
        for r in 0..(1usize << self.nvars) {
            if !self.get(r) {
                continue;
            }
            let and = ys.iter().all(|&y| r & (1 << y) != 0);
            if (r & (1 << x) != 0) == and {
                out.set(r);
            }
        }
        out
    }

    fn constrain_value(&self, v: usize, value: bool) -> Ref {
        let mut out = Ref::bottom(self.nvars);
        for r in 0..(1usize << self.nvars) {
            if self.get(r) && ((r & (1 << v) != 0) == value) {
                out.set(r);
            }
        }
        out
    }

    fn exists(&self, v: usize) -> Ref {
        let mut out = Ref::bottom(self.nvars);
        for r in 0..(1usize << self.nvars) {
            if self.get(r) {
                out.set(r | (1 << v));
                out.set(r & !(1 << v));
            }
        }
        out
    }

    fn project(&self, keep: &[usize]) -> Ref {
        let mut out = Ref::bottom(keep.len());
        for r in 0..(1usize << self.nvars) {
            if !self.get(r) {
                continue;
            }
            let mut idx = 0usize;
            for (new, &old) in keep.iter().enumerate() {
                if r & (1 << old) != 0 {
                    idx |= 1 << new;
                }
            }
            out.set(idx);
        }
        out
    }

    fn extend(&self, extra: usize) -> Ref {
        let n = self.nvars + extra;
        let mut out = Ref::bottom(n);
        for r in 0..(1usize << n) {
            if self.get(r & ((1 << self.nvars) - 1)) {
                out.set(r);
            }
        }
        out
    }

    fn constrain_relation(&self, positions: &[usize], rel: &Ref) -> Ref {
        let mut out = Ref::bottom(self.nvars);
        for r in 0..(1usize << self.nvars) {
            if !self.get(r) {
                continue;
            }
            let mut idx = 0usize;
            for (new, &old) in positions.iter().enumerate() {
                if r & (1 << old) != 0 {
                    idx |= 1 << new;
                }
            }
            if rel.get(idx) {
                out.set(r);
            }
        }
        out
    }

    fn definitely(&self, v: usize) -> bool {
        self.rows.iter().any(|&b| b)
            && (0..(1usize << self.nvars)).all(|r| !self.get(r) || r & (1 << v) != 0)
    }

    fn rows(&self) -> Vec<Vec<bool>> {
        (0..(1usize << self.nvars))
            .filter(|&r| self.get(r))
            .map(|r| (0..self.nvars).map(|i| r & (1 << i) != 0).collect())
            .collect()
    }
}

/// A small deterministic generator seeded by the property test, so one
/// case can draw as many tables and arguments as it needs.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        // splitmix64
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A table over `nvars` variables: empty, full, dense or sparse.
    fn table(&mut self, nvars: usize) -> PropTable {
        let density = self.below(4);
        let rows: Vec<Vec<bool>> = (0..1usize << nvars)
            .filter(|_| match density {
                0 => false,
                1 => true,
                2 => self.below(2) == 0,
                _ => self.below(16) == 0,
            })
            .map(|r| (0..nvars).map(|i| r & (1 << i) != 0).collect())
            .collect();
        PropTable::from_rows(nvars, &rows)
    }

    /// `len` variables below `nvars`, repeats allowed.
    fn vars(&mut self, nvars: usize, len: usize) -> Vec<usize> {
        (0..len).map(|_| self.below(nvars)).collect()
    }
}

/// Checks that the kernel's result equals the reference and keeps the
/// padding bits above row `2^n` zero.
fn check(got: &PropTable, want: &Ref, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(&Ref::of(got), want, "{}", what);
    let n = got.num_vars();
    let words = got.as_words();
    prop_assert_eq!(
        words.len(),
        (1usize << n).div_ceil(64),
        "{}: word count",
        what
    );
    if n < 6 {
        prop_assert_eq!(words[0] >> (1 << n), 0, "{}: padding bits set", what);
    }
    Ok(())
}

proptest! {
    #[test]
    fn constrain_iff_matches_reference(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        for n in 1..=MAX_N {
            let t = g.table(n);
            let x = g.below(n);
            let len = g.below(4);
            let ys = g.vars(n, len);
            check(
                &t.constrain_iff(x, &ys),
                &Ref::of(&t).constrain_iff(x, &ys),
                &format!("n={n} iff({x}, {ys:?})"),
            )?;
        }
    }

    #[test]
    fn constrain_value_and_definitely_match_reference(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        for n in 1..=MAX_N {
            let t = g.table(n);
            let r = Ref::of(&t);
            for v in 0..n {
                for value in [false, true] {
                    check(
                        &t.constrain_value(v, value),
                        &r.constrain_value(v, value),
                        &format!("n={n} value({v}, {value})"),
                    )?;
                }
                prop_assert_eq!(t.definitely(v), r.definitely(v), "n={} definitely({})", n, v);
            }
        }
    }

    #[test]
    fn exists_matches_reference(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        for n in 1..=MAX_N {
            let t = g.table(n);
            for v in 0..n {
                check(&t.exists(v), &Ref::of(&t).exists(v), &format!("n={n} exists({v})"))?;
            }
        }
    }

    #[test]
    fn project_matches_reference(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        for n in 0..=MAX_N {
            let t = g.table(n);
            // Duplicated and permuted columns, up to wider than the source.
            let len = g.below(n + 3);
            let keep = if n == 0 { Vec::new() } else { g.vars(n, len) };
            check(&t.project(&keep), &Ref::of(&t).project(&keep), &format!("n={n} project({keep:?})"))?;
            // A full permutation.
            let mut perm: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                perm.swap(i, g.below(i + 1));
            }
            check(&t.project(&perm), &Ref::of(&t).project(&perm), &format!("n={n} project({perm:?})"))?;
        }
    }

    #[test]
    fn extend_matches_reference(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        for n in 0..=MAX_N {
            let t = g.table(n);
            for extra in 0..=(MAX_N - n).min(8) {
                check(&t.extend(extra), &Ref::of(&t).extend(extra), &format!("n={n} extend({extra})"))?;
            }
        }
    }

    #[test]
    fn constrain_relation_matches_reference(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        for n in 1..=MAX_N {
            let t = g.table(n);
            let len = g.below(n.min(8)) + 1;
            let positions = g.vars(n, len);
            let rel = g.table(len);
            check(
                &t.constrain_relation(&positions, &rel),
                &Ref::of(&t).constrain_relation(&positions, &Ref::of(&rel)),
                &format!("n={n} relation({positions:?})"),
            )?;
        }
    }

    #[test]
    fn rows_match_reference(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        for n in 0..=MAX_N {
            let t = g.table(n);
            prop_assert_eq!(t.rows(), Ref::of(&t).rows(), "n={}", n);
        }
    }
}

/// The boundary tables by name, independent of the generator: full and
/// empty tables at every size, through every kernel.
#[test]
fn top_and_bottom_through_every_kernel() {
    for n in 0..=MAX_N {
        for t in [PropTable::top(n), PropTable::bottom(n)] {
            let r = Ref::of(&t);
            for v in 0..n {
                check(&t.exists(v), &r.exists(v), "exists").unwrap();
                check(
                    &t.constrain_iff(v, &[0, n - 1]),
                    &r.constrain_iff(v, &[0, n - 1]),
                    "iff",
                )
                .unwrap();
                check(
                    &t.constrain_value(v, true),
                    &r.constrain_value(v, true),
                    "value",
                )
                .unwrap();
                assert_eq!(t.definitely(v), r.definitely(v));
            }
            let rev: Vec<usize> = (0..n).rev().collect();
            check(&t.project(&rev), &r.project(&rev), "project").unwrap();
            check(&t.extend(1), &r.extend(1), "extend").unwrap();
            assert_eq!(t.rows(), r.rows());
        }
    }
}
