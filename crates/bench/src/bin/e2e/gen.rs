//! Seeded generator of logic programs for the `gen` workload: "whole
//! library module" inputs larger than anything in the 21–325-line suite.
//!
//! Shape of one program:
//!
//! * predicates `p0 … p{n-1}` grouped into SCCs of 1–8 members, laid out
//!   in topological order — a clause only calls its own SCC or an earlier
//!   one;
//! * arity 1–4 and 1–3 clauses per predicate; the first clause never calls
//!   its own SCC, so every predicate has a base case;
//! * head arguments built from variables, constants, `[H|T]` and `f/2`,
//!   nested to depth 2;
//! * 0–3 body goals per clause, about 30% of them calling the predicate's
//!   own SCC (later clauses only) and the rest calling earlier SCCs.
//!
//! Arities, clause counts, goal counts, variable-pool sizes and SCC sizes
//! are drawn balanced (every value equally often, in shuffled order), so
//! two programs of one size differ in arrangement rather than in totals,
//! and the workload's medians move less from seed to seed.
//!
//! The RNG is an inline splitmix64, so the same seed yields byte-identical
//! text on every platform with no dependency.

use std::fmt::Write as _;

/// Programs per seed.
pub const PROGRAMS: usize = 20;
/// Smallest predicate count.
pub const MIN_PREDS: usize = 64;
/// Largest predicate count.
pub const MAX_PREDS: usize = 512;
/// Calls into earlier SCCs go to the last this-many predicates before the
/// caller's SCC — helpers defined nearby, as in a real module — so fan-in
/// stays bounded instead of the first few predicates being called from
/// everywhere.
const CALLEE_WINDOW: usize = 32;

/// splitmix64: a 64-bit state, one add and three xor-shift-multiplies per
/// draw. Fast, seedable with any value, and good enough for input shaping.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.range(0, i));
        }
    }
}

/// One generated program.
#[derive(Clone, Debug)]
pub struct GenProgram {
    pub name: String,
    pub preds: usize,
    pub source: String,
}

/// The `count` programs of one seed, with predicate counts spread
/// log-uniformly over `[min, max]`: program `i` takes the midpoint of the
/// `i`-th of `count` equal slices of the log range. Sizes are the same for
/// every seed, so seed-to-seed differences come from program structure,
/// not from an unlucky size draw.
pub fn programs(seed: u64, count: usize, min: usize, max: usize) -> Vec<GenProgram> {
    let mut rng = Rng::new(seed);
    let ratio = max as f64 / min as f64;
    (0..count)
        .map(|i| {
            let u = (i as f64 + 0.5) / count as f64;
            let preds = ((min as f64 * ratio.powf(u)).round() as usize).clamp(min, max);
            GenProgram {
                name: format!("gen{i:02}"),
                preds,
                source: program(&mut rng, preds),
            }
        })
        .collect()
}

/// Source text of one program with `n` predicates.
pub fn program(rng: &mut Rng, n: usize) -> String {
    let mut sccs = Vec::new();
    let mut sizes = Vec::new();
    let mut start = 0;
    while start < n {
        if sizes.is_empty() {
            sizes = balanced(rng, 8, 1, 8);
        }
        let end = (start + sizes.pop().expect("refilled above")).min(n);
        sccs.push(start..end);
        start = end;
    }
    let arity = balanced(rng, n, 1, 4);
    let clauses = balanced(rng, n, 1, 3);
    let total: usize = clauses.iter().sum();
    let mut goals = balanced(rng, total, 0, 3);
    let mut vars = balanced(rng, total, 1, 4);
    let mut out = String::new();
    for scc in &sccs {
        for p in scc.clone() {
            for c in 0..clauses[p] {
                let vars = vars.pop().expect("one per clause");
                let goals = goals.pop().expect("one per clause");
                Clause { rng, vars }.write(&mut out, p, c == 0, goals, scc, &arity);
            }
        }
    }
    out
}

/// `n` values cycling through `lo..=hi`, shuffled: every value occurs
/// equally often, so programs of one size differ in arrangement, not in
/// how many wide predicates or long clauses they happen to draw.
fn balanced(rng: &mut Rng, n: usize, lo: usize, hi: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).map(|i| lo + i % (hi - lo + 1)).collect();
    rng.shuffle(&mut v);
    v
}

/// Writer state for one clause: the RNG and the size of its variable pool
/// (`X0 … X{vars-1}`), shared by head and body so groundness flows.
struct Clause<'a> {
    rng: &'a mut Rng,
    vars: usize,
}

impl Clause<'_> {
    fn write(
        &mut self,
        out: &mut String,
        p: usize,
        first: bool,
        goals: usize,
        scc: &std::ops::Range<usize>,
        arity: &[usize],
    ) {
        self.atom(out, p, arity[p], 0);
        let mut sep = " :- ";
        for _ in 0..goals {
            let callee = if !first && self.rng.chance(0.3) {
                self.rng.range(scc.start, scc.end - 1)
            } else if scc.start > 0 {
                self.rng
                    .range(scc.start.saturating_sub(CALLEE_WINDOW), scc.start - 1)
            } else {
                continue;
            };
            out.push_str(sep);
            sep = ", ";
            // Body arguments stay shallow: deep structure lives in heads.
            self.atom(out, callee, arity[callee], 1);
        }
        out.push_str(".\n");
    }

    fn atom(&mut self, out: &mut String, p: usize, arity: usize, depth: usize) {
        let _ = write!(out, "p{p}(");
        for i in 0..arity {
            if i > 0 {
                out.push_str(", ");
            }
            self.term(out, depth);
        }
        out.push(')');
    }

    fn term(&mut self, out: &mut String, depth: usize) {
        let roll = self.rng.unit();
        if depth >= 2 || roll < 0.45 {
            if depth >= 2 && roll >= 0.7 {
                self.constant(out);
            } else {
                let v = self.rng.range(0, self.vars - 1);
                let _ = write!(out, "X{v}");
            }
        } else if roll < 0.6 {
            self.constant(out);
        } else if roll < 0.8 {
            out.push('[');
            self.term(out, depth + 1);
            out.push('|');
            self.term(out, depth + 1);
            out.push(']');
        } else {
            out.push_str("f(");
            self.term(out, depth + 1);
            out.push_str(", ");
            self.term(out, depth + 1);
            out.push(')');
        }
    }

    fn constant(&mut self, out: &mut String) {
        out.push_str(["a", "b", "c", "[]"][self.rng.range(0, 3)]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_text() {
        let _g = crate::tests::serial();
        let a = programs(7, 4, 8, 32);
        let b = programs(7, 4, 8, 32);
        assert!(a.iter().zip(&b).all(|(x, y)| x.source == y.source));
        assert_ne!(programs(8, 4, 8, 32)[0].source, a[0].source);
    }

    #[test]
    fn every_program_parses_with_sizes_in_range() {
        let _g = crate::tests::serial();
        for p in programs(1, PROGRAMS, MIN_PREDS, MAX_PREDS) {
            assert!((MIN_PREDS..=MAX_PREDS).contains(&p.preds), "{}", p.preds);
            let prog = tablog_syntax::parse_program(&p.source)
                .unwrap_or_else(|e| panic!("{}: {e}", p.name));
            let defined: std::collections::BTreeSet<_> = prog
                .clauses
                .iter()
                .filter_map(|c| c.head.functor())
                .map(|f| f.name)
                .collect();
            assert_eq!(defined.len(), p.preds, "{}", p.name);
        }
    }

    #[test]
    fn analysis_of_a_small_seed_completes() {
        let _g = crate::tests::serial();
        for p in programs(3, 2, 16, 24) {
            let report = tablog_core::groundness::GroundnessAnalyzer::new()
                .analyze_source(&p.source)
                .unwrap_or_else(|e| panic!("{}: {e}", p.name));
            assert_eq!(report.predicates().count(), p.preds);
        }
    }
}
