//! The Prop domain's enumerative representation: boolean functions as
//! truth-table bitsets.
//!
//! The paper (Section 3.1, following Codish & Demoen) represents a boolean
//! formula by its *success set* — the set of variable assignments satisfying
//! it. [`PropTable`] is that set as a bitset over `2^nvars` rows: row `r`
//! has variable `i` true iff bit `i` of `r` is set. The operations are the
//! ones Prop-domain groundness needs: conjunction, disjunction,
//! biconditional constraints `x ⇔ y1 ∧ … ∧ yk`, existential projection and
//! permutation — plus conversions to rows and to BDDs for cross-checking
//! the two representations.
//!
//! Every kernel works on whole 64-row words. Row `r` is bit `r % 64` of
//! word `r / 64`, so a variable `v < 6` picks the same bit pattern out of
//! every word (`0xAAAA…`, `0xCCCC…`, …) and a variable `v ≥ 6` picks
//! whole words (word `w` is all-true iff bit `v − 6` of `w` is set).
//! Constraints are then one mask operation per word; quantification is
//! shift-and-OR inside a word or OR across word pairs; projection and
//! relation embedding visit only the set rows, mapping each through lookup
//! tables. Tables under six variables keep the bits above row `2^nvars`
//! zero, since `Eq`/`Hash` are over the raw words.

use tablog_bdd::{Bdd, BddManager};

/// Maximum variable count; `2^MAX_VARS` bits is the table size.
pub const MAX_VARS: usize = 26;

/// The rows of any 64-row word where variable `v < 6` is true.
const LOW_MASKS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// The rows where every one of a set of variables is true, word by word:
/// the in-word variables fix a bit pattern, and the others select the
/// words whose index has all of their bits set.
struct Conj {
    low: u64,
    high: usize,
}

impl Conj {
    fn of(vars: &[usize]) -> Self {
        let mut c = Conj {
            low: u64::MAX,
            high: 0,
        };
        for &v in vars {
            if v < 6 {
                c.low &= LOW_MASKS[v];
            } else {
                c.high |= 1 << (v - 6);
            }
        }
        c
    }

    /// The rows of word `w` where the conjunction holds.
    fn word(&self, w: usize) -> u64 {
        if w & self.high == self.high {
            self.low
        } else {
            0
        }
    }
}

/// Bytes of a word index: `MAX_VARS − 6` bits.
const WORD_INDEX_BYTES: usize = (MAX_VARS - 6).div_ceil(8);

/// Maps a row of a multi-word table to its index in a `cols.len()`-variable
/// table, where bit `j` of the index is bit `cols[j]` of the row. Repeated
/// and permuted columns need no special case: each entry ORs together the
/// output bits of every column that reads the input bit.
struct Gather {
    /// By the row's position within its word (variables 0–5).
    low: [u32; 64],
    /// By each byte of the row's word index (variables 6 and up).
    high: [[u32; 256]; WORD_INDEX_BYTES],
}

impl Gather {
    fn new(nvars: usize, cols: &[usize]) -> Self {
        let mut g = Gather {
            low: [0; 64],
            high: [[0; 256]; WORD_INDEX_BYTES],
        };
        fill_byte_table(&mut g.low, cols, 0, nvars.min(6));
        for (p, table) in g.high.iter_mut().enumerate() {
            let first = 6 + 8 * p;
            if first >= nvars {
                break;
            }
            fill_byte_table(table, cols, first, (nvars - first).min(8));
        }
        g
    }

    /// The index bits contributed by word `w`'s variables.
    fn word(&self, w: usize) -> u32 {
        self.high
            .iter()
            .enumerate()
            .fold(0, |acc, (p, table)| acc | table[(w >> (8 * p)) & 0xFF])
    }
}

/// Fills `table[b]` for every `b < 2^width` with the output bits of the
/// columns reading input variables `first..first + width`, where bit `i`
/// of `b` is variable `first + i`.
fn fill_byte_table(table: &mut [u32], cols: &[usize], first: usize, width: usize) {
    let mut single = [0u32; 8];
    for (j, &c) in cols.iter().enumerate() {
        if (first..first + width).contains(&c) {
            single[c - first] |= 1 << j;
        }
    }
    for b in 1..1usize << width {
        table[b] = table[b & (b - 1)] | single[b.trailing_zeros() as usize];
    }
}

/// A boolean function over `nvars` variables, represented by its truth
/// table (success set).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct PropTable {
    nvars: usize,
    bits: Vec<u64>,
}

fn words(nvars: usize) -> usize {
    (1usize << nvars).div_ceil(64)
}

impl PropTable {
    /// The always-true function (full success set).
    ///
    /// # Panics
    ///
    /// Panics if `nvars > MAX_VARS`.
    pub fn top(nvars: usize) -> Self {
        assert!(nvars <= MAX_VARS, "PropTable over {nvars} variables");
        let n = 1usize << nvars;
        let mut bits = vec![u64::MAX; words(nvars)];
        // Clear the padding bits of the last word.
        let rem = n % 64;
        if rem != 0 {
            *bits.last_mut().expect("at least one word") = (1u64 << rem) - 1;
        }
        PropTable { nvars, bits }
    }

    /// The always-false function (empty success set).
    pub fn bottom(nvars: usize) -> Self {
        assert!(nvars <= MAX_VARS, "PropTable over {nvars} variables");
        PropTable {
            nvars,
            bits: vec![0; words(nvars)],
        }
    }

    /// Builds a table from explicit rows (each of length `nvars`).
    pub fn from_rows(nvars: usize, rows: &[Vec<bool>]) -> Self {
        let mut t = PropTable::bottom(nvars);
        for row in rows {
            let mut idx = 0usize;
            for (i, &b) in row.iter().enumerate() {
                if b {
                    idx |= 1 << i;
                }
            }
            t.set(idx);
        }
        t
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.nvars
    }

    /// The raw truth-table words: row `r` is bit `r % 64` of word
    /// `r / 64`, and the bits above row `2^nvars` are zero.
    pub fn as_words(&self) -> &[u64] {
        &self.bits
    }

    fn get(&self, row: usize) -> bool {
        self.bits[row / 64] & (1 << (row % 64)) != 0
    }

    fn set(&mut self, row: usize) {
        self.bits[row / 64] |= 1 << (row % 64);
    }

    /// A table over the same variables whose word `w` is `f(w, bits[w])`.
    fn map_words(&self, f: impl Fn(usize, u64) -> u64) -> PropTable {
        PropTable {
            nvars: self.nvars,
            bits: self
                .bits
                .iter()
                .enumerate()
                .map(|(w, &b)| f(w, b))
                .collect(),
        }
    }

    /// Calls `f(row, idx)` for every satisfying row in ascending order,
    /// where bit `j` of `idx` is bit `cols[j]` of `row`.
    fn for_each_gathered(&self, cols: &[usize], mut f: impl FnMut(usize, usize)) {
        if let [word] = self.bits[..] {
            // One word: too few rows to pay for the lookup tables.
            let mut b = word;
            while b != 0 {
                let r = b.trailing_zeros() as usize;
                let idx = cols
                    .iter()
                    .enumerate()
                    .fold(0, |acc, (j, &c)| acc | ((r >> c) & 1) << j);
                f(r, idx);
                b &= b - 1;
            }
            return;
        }
        let g = Gather::new(self.nvars, cols);
        for (w, &word) in self.bits.iter().enumerate() {
            if word == 0 {
                continue;
            }
            let high = g.word(w);
            let mut b = word;
            while b != 0 {
                let t = b.trailing_zeros() as usize;
                f(64 * w + t, (g.low[t] | high) as usize);
                b &= b - 1;
            }
        }
    }

    /// Number of satisfying rows.
    pub fn count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` if no row satisfies.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// The satisfying rows in ascending order, each as a `Vec<bool>` of
    /// length `nvars`.
    pub fn rows(&self) -> Vec<Vec<bool>> {
        let mut out = Vec::with_capacity(self.count());
        for (w, &word) in self.bits.iter().enumerate() {
            let mut b = word;
            while b != 0 {
                let r = 64 * w + b.trailing_zeros() as usize;
                out.push((0..self.nvars).map(|i| r & (1 << i) != 0).collect());
                b &= b - 1;
            }
        }
        out
    }

    /// Pointwise conjunction (set intersection).
    ///
    /// # Panics
    ///
    /// Panics if the variable counts differ.
    pub fn and(&self, other: &PropTable) -> PropTable {
        assert_eq!(self.nvars, other.nvars, "PropTable arity mismatch");
        PropTable {
            nvars: self.nvars,
            bits: self
                .bits
                .iter()
                .zip(&other.bits)
                .map(|(a, b)| a & b)
                .collect(),
        }
    }

    /// Pointwise disjunction (set union) — the Prop LUB.
    ///
    /// # Panics
    ///
    /// Panics if the variable counts differ.
    pub fn or(&self, other: &PropTable) -> PropTable {
        assert_eq!(self.nvars, other.nvars, "PropTable arity mismatch");
        PropTable {
            nvars: self.nvars,
            bits: self
                .bits
                .iter()
                .zip(&other.bits)
                .map(|(a, b)| a | b)
                .collect(),
        }
    }

    /// Keeps only rows satisfying `x ⇔ y1 ∧ … ∧ yk` — the constraint the
    /// paper writes `iff(X, Y1, …, Yk)`.
    pub fn constrain_iff(&self, x: usize, ys: &[usize]) -> PropTable {
        let (x, and) = (Conj::of(&[x]), Conj::of(ys));
        self.map_words(|w, b| b & !(x.word(w) ^ and.word(w)))
    }

    /// Keeps only rows where variable `v` has the given value.
    pub fn constrain_value(&self, v: usize, value: bool) -> PropTable {
        let v = Conj::of(&[v]);
        self.map_words(|w, b| if value { b & v.word(w) } else { b & !v.word(w) })
    }

    /// Existentially quantifies variable `v`: the result no longer depends
    /// on `v` (both values allowed whenever either was).
    pub fn exists(&self, v: usize) -> PropTable {
        debug_assert!(v < self.nvars, "exists over a variable out of range");
        let mut bits = self.bits.clone();
        if v < 6 {
            let (m, s) = (LOW_MASKS[v], 1 << v);
            for b in &mut bits {
                let (hi, lo) = (*b & m, *b & !m);
                *b = hi | lo | hi >> s | lo << s;
            }
        } else {
            let stride = 1 << (v - 6);
            for w in (0..bits.len()).filter(|w| w & stride == 0) {
                let both = bits[w] | bits[w + stride];
                bits[w] = both;
                bits[w + stride] = both;
            }
        }
        PropTable {
            nvars: self.nvars,
            bits,
        }
    }

    /// Projects onto `keep` (in the given order): existentially quantifies
    /// everything else and renumbers; the result has `keep.len()` variables.
    pub fn project(&self, keep: &[usize]) -> PropTable {
        let mut out = PropTable::bottom(keep.len());
        self.for_each_gathered(keep, |_, idx| out.set(idx));
        out
    }

    /// Adds `extra` fresh, unconstrained variables after the current ones.
    pub fn extend(&self, extra: usize) -> PropTable {
        let n = self.nvars + extra;
        assert!(n <= MAX_VARS, "PropTable over {n} variables");
        let bits = if self.nvars < 6 {
            // Replicate the rows inside the word until it is full (or the
            // table is), then every word is that one.
            let mut word = self.bits[0];
            let full = (1usize << n).min(64);
            let mut width = 1usize << self.nvars;
            while width < full {
                word |= word << width;
                width *= 2;
            }
            vec![word; words(n)]
        } else {
            self.bits.repeat(1 << extra)
        };
        PropTable { nvars: n, bits }
    }

    /// Keeps only rows whose projection onto `positions` (in order) is a
    /// satisfying row of `rel` — conjunction with a smaller-arity relation
    /// embedded at those positions.
    pub fn constrain_relation(&self, positions: &[usize], rel: &PropTable) -> PropTable {
        assert_eq!(
            positions.len(),
            rel.num_vars(),
            "position/relation arity mismatch"
        );
        let mut out = PropTable::bottom(self.nvars);
        self.for_each_gathered(positions, |r, idx| {
            if rel.get(idx) {
                out.set(r);
            }
        });
        out
    }

    /// `true` if variable `v` is true in every satisfying row *and* the
    /// table is non-empty — "definitely ground" in the Prop reading.
    pub fn definitely(&self, v: usize) -> bool {
        let v = Conj::of(&[v]);
        !self.is_empty()
            && self
                .bits
                .iter()
                .enumerate()
                .all(|(w, &b)| b & !v.word(w) == 0)
    }

    /// `true` if `self`'s success set is contained in `other`'s.
    pub fn subset_of(&self, other: &PropTable) -> bool {
        assert_eq!(self.nvars, other.nvars, "PropTable arity mismatch");
        self.bits.iter().zip(&other.bits).all(|(a, b)| a & !b == 0)
    }

    /// Converts to a BDD over variables `0..nvars` in `m`.
    pub fn to_bdd(&self, m: &mut BddManager) -> Bdd {
        let bits: Vec<bool> = (0..(1usize << self.nvars)).map(|r| self.get(r)).collect();
        m.from_truth_table(&bits, self.nvars as u32)
    }

    /// Builds a table from a BDD over variables `0..nvars`.
    pub fn from_bdd(m: &BddManager, f: Bdd, nvars: usize) -> PropTable {
        let bits = m.to_truth_table(f, nvars as u32);
        let mut t = PropTable::bottom(nvars);
        for (r, &b) in bits.iter().enumerate() {
            if b {
                t.set(r);
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_and_bottom_counts() {
        assert_eq!(PropTable::top(3).count(), 8);
        assert_eq!(PropTable::bottom(3).count(), 0);
        assert_eq!(PropTable::top(0).count(), 1);
        // 7 variables exercises the multi-bit path; 8 would not fit a word.
        assert_eq!(PropTable::top(7).count(), 128);
    }

    #[test]
    fn iff_constraint_is_the_papers_truth_table() {
        // X ⇔ Y ∧ Z over (X=0, Y=1, Z=2): 4 rows.
        let t = PropTable::top(3).constrain_iff(0, &[1, 2]);
        assert_eq!(t.count(), 4);
        let mut rows = t.rows();
        rows.sort();
        assert_eq!(
            rows,
            vec![
                vec![false, false, false],
                vec![false, false, true],
                vec![false, true, false],
                vec![true, true, true],
            ]
        );
    }

    #[test]
    fn iff_with_empty_body_pins_true() {
        let t = PropTable::top(2).constrain_iff(0, &[]);
        assert_eq!(t.count(), 2);
        assert!(t.definitely(0));
        assert!(!t.definitely(1));
    }

    #[test]
    fn and_or_are_set_ops() {
        let a = PropTable::top(2).constrain_value(0, true);
        let b = PropTable::top(2).constrain_value(1, true);
        assert_eq!(a.and(&b).count(), 1);
        assert_eq!(a.or(&b).count(), 3);
    }

    #[test]
    fn exists_forgets_a_variable() {
        let t = PropTable::top(2).constrain_value(0, true); // {10, 11}
        let e = t.exists(0);
        assert_eq!(e.count(), 4);
        let e1 = t.exists(1);
        assert_eq!(e1.count(), 2); // still constrains var 0
        assert!(e1.definitely(0));
    }

    #[test]
    fn project_reorders_and_drops() {
        // Table over (A,B,C) with constraint A ⇔ B.
        let t = PropTable::top(3).constrain_iff(0, &[1]);
        let p = t.project(&[1, 0]); // (B, A)
        assert_eq!(p.num_vars(), 2);
        assert_eq!(p.count(), 2);
        let mut rows = p.rows();
        rows.sort();
        assert_eq!(rows, vec![vec![false, false], vec![true, true]]);
    }

    #[test]
    fn extend_adds_free_variables() {
        let t = PropTable::top(1).constrain_value(0, true);
        let e = t.extend(2);
        assert_eq!(e.num_vars(), 3);
        assert_eq!(e.count(), 4);
        assert!(e.definitely(0));
    }

    #[test]
    fn definitely_on_empty_is_false() {
        assert!(!PropTable::bottom(2).definitely(0));
    }

    #[test]
    fn from_rows_round_trip() {
        let rows = vec![vec![true, false], vec![false, true]];
        let t = PropTable::from_rows(2, &rows);
        let mut got = t.rows();
        got.sort();
        let mut want = rows;
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn subset_check() {
        let small = PropTable::top(2).constrain_value(0, true);
        let big = PropTable::top(2);
        assert!(small.subset_of(&big));
        assert!(!big.subset_of(&small));
    }

    #[test]
    fn bdd_round_trip_agrees() {
        let t = PropTable::top(4)
            .constrain_iff(0, &[1, 2])
            .constrain_iff(3, &[0]);
        let mut m = BddManager::new();
        let f = t.to_bdd(&mut m);
        let back = PropTable::from_bdd(&m, f, 4);
        assert_eq!(t, back);
        assert_eq!(m.sat_count(f, 4), t.count() as u128);
    }
}
