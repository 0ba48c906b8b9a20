//! Pluggable abstract-domain layer for the Prop/Pos groundness analyses.
//!
//! The paper represents Pos formulae *enumeratively* (truth tables,
//! Section 3.1) and contrasts that choice with contemporary BDD-based
//! analysers ([10, 40] in the paper; Howe & King later showed the same
//! domain runs well over ROBDDs). This crate makes the comparison a
//! first-class citizen: the [`AbstractDomain`] trait captures exactly the
//! operations both the tabled analyzer and the hand-coded direct analyzer
//! need — top/bottom, meet/join, the `iff` constraint, projection/rename,
//! relation embedding, entailment — and two backends implement it:
//!
//! * [`TableDomain`] — the paper's enumerative [`PropTable`] bitsets
//!   (default; delegation is 1:1 so results are bit-for-bit identical to
//!   the pre-refactor code), and
//! * [`BddDomain`] — hash-consed ROBDDs over [`tablog_bdd::BddManager`],
//!   cross-checkable against the tables via truth-table export.
//!
//! [`DomainKind`] is the backend selector threaded through engine options
//! and the CLI (`--domain {table,bdd}`), and [`iff_rows`] is the shared
//! row enumerator behind the engine's `$iff/N` builtin, including the
//! [`MAX_IFF_FREE_VARS`] guard against pathological arities.

pub mod prop;

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::str::FromStr;

pub use prop::{PropTable, MAX_VARS};
use tablog_bdd::{Bdd, BddManager};

/// Which Prop-domain backend to run an analysis on.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum DomainKind {
    /// Enumerative truth tables (the paper's representation; default).
    #[default]
    Table,
    /// Reduced ordered binary decision diagrams.
    Bdd,
}

impl DomainKind {
    /// Every selectable backend, in presentation order.
    pub const ALL: [DomainKind; 2] = [DomainKind::Table, DomainKind::Bdd];

    /// The stable lowercase name used by `--domain`, JSON documents and
    /// metrics labels.
    pub fn name(&self) -> &'static str {
        match self {
            DomainKind::Table => "table",
            DomainKind::Bdd => "bdd",
        }
    }
}

impl fmt::Display for DomainKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for DomainKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "table" => Ok(DomainKind::Table),
            "bdd" => Ok(DomainKind::Bdd),
            other => {
                let names: Vec<&str> = DomainKind::ALL.iter().map(|d| d.name()).collect();
                Err(format!(
                    "unknown domain '{other}' (expected one of: {})",
                    names.join(", ")
                ))
            }
        }
    }
}

/// How many *free* `Y` arguments the `$iff/N` builtin will enumerate.
///
/// The builtin materialises one row per assignment of the free `Y`s —
/// `2^k` rows for `k` free variables — so an unguarded wide call would
/// silently allocate gigabytes. Bound arguments and the head `X` (which is
/// computed, never enumerated) do not count against the cap. 2^16 rows is
/// ~a few MB of bindings: far beyond anything the Figure 1 transform emits
/// (clause bodies bound by [`MAX_VARS`]), yet cheap enough to stay honest.
pub const MAX_IFF_FREE_VARS: usize = 16;

/// One argument of an `$iff/N` call, as seen by the enumerator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IffArg {
    /// Bound to `true`.
    True,
    /// Bound to `false`.
    False,
    /// Unbound — to be enumerated (if a `Y`) or computed (the head).
    Free,
}

/// Error returned when an `$iff/N` call would enumerate more than
/// `2^`[`MAX_IFF_FREE_VARS`] rows.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IffOverflow {
    /// Number of free `Y` arguments in the offending call.
    pub free: usize,
}

impl fmt::Display for IffOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} free variables would enumerate 2^{} rows (cap: {MAX_IFF_FREE_VARS} free variables)",
            self.free, self.free
        )
    }
}

/// Enumerates the satisfying rows of `x ⇔ y1 ∧ … ∧ yk` consistent with the
/// bound arguments. `vals[0]` is the head `x`; the rest are the `y`s.
///
/// This is the single source of truth for the engine's `$iff/N` builtin:
/// rows come back in *exactly* the historical order (ascending enumeration
/// mask over the free `y`s, earliest free `y` in the lowest bit), each row
/// full-length with bound positions fixed, head-inconsistent rows skipped,
/// and `row[0]` set to the conjunction of the `y`s. Returns
/// [`IffOverflow`] when more than [`MAX_IFF_FREE_VARS`] `y`s are free.
///
/// # Panics
///
/// Panics if `vals` is empty — `$iff` has at least the head argument.
pub fn iff_rows(vals: &[IffArg]) -> Result<Vec<Vec<bool>>, IffOverflow> {
    let k = vals.len() - 1;
    let free_ys: Vec<usize> = (1..=k).filter(|&i| vals[i] == IffArg::Free).collect();
    if free_ys.len() > MAX_IFF_FREE_VARS {
        return Err(IffOverflow {
            free: free_ys.len(),
        });
    }
    let mut out = Vec::new();
    for mask in 0u64..(1u64 << free_ys.len()) {
        let mut row = vec![true; vals.len()];
        for i in 1..=k {
            row[i] = match vals[i] {
                IffArg::True => true,
                IffArg::False => false,
                IffArg::Free => {
                    let pos = free_ys
                        .iter()
                        .position(|&j| j == i)
                        .expect("free var is indexed");
                    mask & (1 << pos) != 0
                }
            };
        }
        let and = row[1..].iter().all(|&v| v);
        match vals[0] {
            IffArg::True if !and => continue,
            IffArg::False if and => continue,
            _ => {}
        }
        row[0] = and;
        out.push(row);
    }
    Ok(out)
}

/// Size estimate for a backend's private state, for per-table byte
/// attribution. The enumerative backend owns nothing (its tables live in
/// the values themselves and are counted by the engine); the BDD backend
/// reports its manager arena.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DomainStats {
    /// Live BDD nodes (0 for the enumerative backend).
    pub nodes: usize,
    /// Estimated bytes of backend-private state.
    pub bytes: usize,
}

/// The operations the groundness analyses need from a Pos representation.
///
/// Methods take `&mut self` because the BDD backend owns a shared,
/// memoizing [`BddManager`]; the enumerative backend is stateless.
/// `Value`s are only meaningful for the backend instance that created
/// them, and — thanks to hash consing on the BDD side — `Eq`/`Hash` on a
/// `Value` coincide with semantic equality for both backends, so values
/// can key fixpoint tables directly.
pub trait AbstractDomain {
    /// A boolean function over `0..num_vars` variables.
    type Value: Clone + Eq + Hash + fmt::Debug;

    /// Which backend this is.
    fn kind(&self) -> DomainKind;

    /// The always-true function over `nvars` variables.
    fn top(&mut self, nvars: usize) -> Self::Value;

    /// The always-false function over `nvars` variables.
    fn bottom(&mut self, nvars: usize) -> Self::Value;

    /// Number of variables `v` ranges over.
    fn num_vars(&self, v: &Self::Value) -> usize;

    /// Conjunction (greatest lower bound).
    fn meet(&mut self, a: &Self::Value, b: &Self::Value) -> Self::Value;

    /// Disjunction (least upper bound — the Pos join).
    fn join(&mut self, a: &Self::Value, b: &Self::Value) -> Self::Value;

    /// Conjoins the constraint `x ⇔ y1 ∧ … ∧ yk`.
    fn constrain_iff(&mut self, v: &Self::Value, x: usize, ys: &[usize]) -> Self::Value;

    /// Conjoins `var = value`.
    fn constrain_value(&mut self, v: &Self::Value, var: usize, value: bool) -> Self::Value;

    /// Adds `extra` fresh, unconstrained variables after the current ones.
    fn extend(&mut self, v: &Self::Value, extra: usize) -> Self::Value;

    /// Restricts to `keep` (in order): existentially quantifies everything
    /// else and renumbers, so the result has `keep.len()` variables.
    /// Subsumes `rename`: passing a permutation reorders the variables.
    fn project(&mut self, v: &Self::Value, keep: &[usize]) -> Self::Value;

    /// Applies the variable permutation `perm` (old variable `i` becomes
    /// position `perm.iter().position(i)`); `perm` must mention every
    /// variable exactly once.
    fn rename(&mut self, v: &Self::Value, perm: &[usize]) -> Self::Value {
        debug_assert_eq!(perm.len(), self.num_vars(v), "rename is a permutation");
        self.project(v, perm)
    }

    /// Conjoins with `rel` (a function over `positions.len()` variables)
    /// embedded at `positions`.
    fn constrain_relation(
        &mut self,
        v: &Self::Value,
        positions: &[usize],
        rel: &Self::Value,
    ) -> Self::Value;

    /// `true` if `var` is true in every model *and* the value is
    /// satisfiable — "definitely ground".
    fn definitely(&mut self, v: &Self::Value, var: usize) -> bool;

    /// `true` if the value is unsatisfiable (bottom).
    fn is_empty(&mut self, v: &Self::Value) -> bool;

    /// Entailment: `a → b` is a tautology (subsumption check).
    fn leq(&mut self, a: &Self::Value, b: &Self::Value) -> bool;

    /// Builds a value from explicit satisfying rows (each of length
    /// `nvars`).
    fn lift_rows(&mut self, nvars: usize, rows: &[Vec<bool>]) -> Self::Value;

    /// Exports the value as an enumerative truth table — the common
    /// currency for cross-backend checks and reporting.
    fn to_table(&mut self, v: &Self::Value) -> PropTable;

    /// Human-readable rendering: the satisfying rows as `g`/`n` strings,
    /// sorted — e.g. `{ggg, gnn}`.
    fn render(&mut self, v: &Self::Value) -> String {
        let mut rows: Vec<String> = self
            .to_table(v)
            .rows()
            .iter()
            .map(|row| {
                row.iter()
                    .map(|&b| if b { 'g' } else { 'n' })
                    .collect::<String>()
            })
            .collect();
        rows.sort();
        format!("{{{}}}", rows.join(", "))
    }

    /// JSON rendering: the sorted `g`/`n` row strings as a JSON array.
    fn render_json(&mut self, v: &Self::Value) -> String {
        let mut rows: Vec<String> = self
            .to_table(v)
            .rows()
            .iter()
            .map(|row| {
                row.iter()
                    .map(|&b| if b { 'g' } else { 'n' })
                    .collect::<String>()
            })
            .collect();
        rows.sort();
        let quoted: Vec<String> = rows.iter().map(|r| format!("\"{r}\"")).collect();
        format!("[{}]", quoted.join(","))
    }

    /// Backend-private memory, for per-table byte attribution.
    fn stats(&self) -> DomainStats;
}

/// The paper's enumerative backend: pure delegation to [`PropTable`], so
/// every result is bit-for-bit what the pre-domain-layer code produced.
#[derive(Clone, Copy, Debug, Default)]
pub struct TableDomain;

impl AbstractDomain for TableDomain {
    type Value = PropTable;

    fn kind(&self) -> DomainKind {
        DomainKind::Table
    }

    fn top(&mut self, nvars: usize) -> PropTable {
        PropTable::top(nvars)
    }

    fn bottom(&mut self, nvars: usize) -> PropTable {
        PropTable::bottom(nvars)
    }

    fn num_vars(&self, v: &PropTable) -> usize {
        v.num_vars()
    }

    fn meet(&mut self, a: &PropTable, b: &PropTable) -> PropTable {
        a.and(b)
    }

    fn join(&mut self, a: &PropTable, b: &PropTable) -> PropTable {
        a.or(b)
    }

    fn constrain_iff(&mut self, v: &PropTable, x: usize, ys: &[usize]) -> PropTable {
        v.constrain_iff(x, ys)
    }

    fn constrain_value(&mut self, v: &PropTable, var: usize, value: bool) -> PropTable {
        v.constrain_value(var, value)
    }

    fn extend(&mut self, v: &PropTable, extra: usize) -> PropTable {
        v.extend(extra)
    }

    fn project(&mut self, v: &PropTable, keep: &[usize]) -> PropTable {
        v.project(keep)
    }

    fn constrain_relation(
        &mut self,
        v: &PropTable,
        positions: &[usize],
        rel: &PropTable,
    ) -> PropTable {
        v.constrain_relation(positions, rel)
    }

    fn definitely(&mut self, v: &PropTable, var: usize) -> bool {
        v.definitely(var)
    }

    fn is_empty(&mut self, v: &PropTable) -> bool {
        v.is_empty()
    }

    fn leq(&mut self, a: &PropTable, b: &PropTable) -> bool {
        a.subset_of(b)
    }

    fn lift_rows(&mut self, nvars: usize, rows: &[Vec<bool>]) -> PropTable {
        PropTable::from_rows(nvars, rows)
    }

    fn to_table(&mut self, v: &PropTable) -> PropTable {
        v.clone()
    }

    fn stats(&self) -> DomainStats {
        DomainStats::default()
    }
}

/// A Pos formula held by the BDD backend: the ROBDD root plus the width of
/// the variable universe it ranges over (BDDs do not record unconstrained
/// trailing variables, so the width must travel with the handle).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct BddValue {
    /// The ROBDD root inside the owning [`BddDomain`]'s manager.
    pub f: Bdd,
    /// Number of variables the value ranges over.
    pub nvars: usize,
}

/// The ROBDD backend over a shared, hash-consing [`BddManager`].
#[derive(Clone, Debug, Default)]
pub struct BddDomain {
    m: BddManager,
}

impl BddDomain {
    /// A fresh backend with an empty manager.
    pub fn new() -> Self {
        BddDomain {
            m: BddManager::new(),
        }
    }

    /// The underlying manager (for diagnostics and truth-table export).
    pub fn manager(&self) -> &BddManager {
        &self.m
    }

    /// Total nodes allocated by the manager so far.
    pub fn num_nodes(&self) -> usize {
        self.m.num_nodes()
    }
}

impl AbstractDomain for BddDomain {
    type Value = BddValue;

    fn kind(&self) -> DomainKind {
        DomainKind::Bdd
    }

    fn top(&mut self, nvars: usize) -> BddValue {
        BddValue {
            f: Bdd::TRUE,
            nvars,
        }
    }

    fn bottom(&mut self, nvars: usize) -> BddValue {
        BddValue {
            f: Bdd::FALSE,
            nvars,
        }
    }

    fn num_vars(&self, v: &BddValue) -> usize {
        v.nvars
    }

    fn meet(&mut self, a: &BddValue, b: &BddValue) -> BddValue {
        debug_assert_eq!(a.nvars, b.nvars, "meet arity mismatch");
        BddValue {
            f: self.m.and(a.f, b.f),
            nvars: a.nvars,
        }
    }

    fn join(&mut self, a: &BddValue, b: &BddValue) -> BddValue {
        debug_assert_eq!(a.nvars, b.nvars, "join arity mismatch");
        BddValue {
            f: self.m.or(a.f, b.f),
            nvars: a.nvars,
        }
    }

    fn constrain_iff(&mut self, v: &BddValue, x: usize, ys: &[usize]) -> BddValue {
        let yv: Vec<u32> = ys.iter().map(|&y| y as u32).collect();
        let conj = self.m.var_conj(&yv);
        let xv = self.m.var(x as u32);
        let c = self.m.iff(xv, conj);
        BddValue {
            f: self.m.and(v.f, c),
            nvars: v.nvars,
        }
    }

    fn constrain_value(&mut self, v: &BddValue, var: usize, value: bool) -> BddValue {
        let lit = if value {
            self.m.var(var as u32)
        } else {
            self.m.nvar(var as u32)
        };
        BddValue {
            f: self.m.and(v.f, lit),
            nvars: v.nvars,
        }
    }

    fn extend(&mut self, v: &BddValue, extra: usize) -> BddValue {
        // Fresh variables are unconstrained; only the universe widens.
        BddValue {
            f: v.f,
            nvars: v.nvars + extra,
        }
    }

    fn project(&mut self, v: &BddValue, keep: &[usize]) -> BddValue {
        // `keep` may repeat variables (the enumerative project equates
        // duplicated columns), so a plain rename is not enough: bridge each
        // output to its source through temporaries above the current
        // universe, quantify the sources out, then shift the temporaries
        // down into place.
        let n = v.nvars;
        let mut g = v.f;
        for (new, &old) in keep.iter().enumerate() {
            let t = self.m.var((n + new) as u32);
            let o = self.m.var(old as u32);
            let c = self.m.iff(t, o);
            g = self.m.and(g, c);
        }
        for old in 0..n {
            g = self.m.exists(old as u32, g);
        }
        BddValue {
            f: self.m.rename(g, &|x| x - n as u32),
            nvars: keep.len(),
        }
    }

    fn constrain_relation(
        &mut self,
        v: &BddValue,
        positions: &[usize],
        rel: &BddValue,
    ) -> BddValue {
        debug_assert_eq!(
            positions.len(),
            rel.nvars,
            "position/relation arity mismatch"
        );
        // Variable-to-variable substitution: rel's variable i becomes
        // positions[i]. `rename` rebuilds bottom-up, which is sound even
        // when `positions` repeats a target.
        let embedded = self.m.rename(rel.f, &|i| positions[i as usize] as u32);
        BddValue {
            f: self.m.and(v.f, embedded),
            nvars: v.nvars,
        }
    }

    fn definitely(&mut self, v: &BddValue, var: usize) -> bool {
        if v.f == Bdd::FALSE {
            return false;
        }
        let x = self.m.var(var as u32);
        self.m.implies_check(v.f, x)
    }

    fn is_empty(&mut self, v: &BddValue) -> bool {
        v.f == Bdd::FALSE
    }

    fn leq(&mut self, a: &BddValue, b: &BddValue) -> bool {
        debug_assert_eq!(a.nvars, b.nvars, "leq arity mismatch");
        self.m.implies_check(a.f, b.f)
    }

    fn lift_rows(&mut self, nvars: usize, rows: &[Vec<bool>]) -> BddValue {
        let mut f = Bdd::FALSE;
        for row in rows {
            let mut conj = Bdd::TRUE;
            for (i, &b) in row.iter().enumerate() {
                let lit = if b {
                    self.m.var(i as u32)
                } else {
                    self.m.nvar(i as u32)
                };
                conj = self.m.and(conj, lit);
            }
            f = self.m.or(f, conj);
        }
        BddValue { f, nvars }
    }

    fn to_table(&mut self, v: &BddValue) -> PropTable {
        PropTable::from_bdd(&self.m, v.f, v.nvars)
    }

    fn stats(&self) -> DomainStats {
        DomainStats {
            nodes: self.m.num_nodes(),
            bytes: self.m.mem_bytes(),
        }
    }
}

/// Builds a value from the analyzer's partial success rows — `Some(b)`
/// pins a variable, `None` leaves it unconstrained. One row becomes one
/// cube; the value is their disjunction. Shared by both analyzers'
/// collection phases so the backends see identical inputs.
///
/// Fully bound rows are single points and all go through one
/// [`AbstractDomain::lift_rows`] call; only a row with a free argument
/// pays for a full-width cube and a join.
pub fn value_from_partial_rows<D: AbstractDomain>(
    d: &mut D,
    nvars: usize,
    rows: &[Vec<Option<bool>>],
) -> D::Value {
    let mut points = Vec::new();
    let mut partial = Vec::new();
    for row in rows {
        match row.iter().copied().collect::<Option<Vec<bool>>>() {
            Some(point) => points.push(point),
            None => partial.push(row),
        }
    }
    let mut acc = d.lift_rows(nvars, &points);
    for row in partial {
        let mut cube = d.top(nvars);
        for (i, val) in row.iter().enumerate() {
            if let Some(b) = val {
                cube = d.constrain_value(&cube, i, *b);
            }
        }
        acc = d.join(&acc, &cube);
    }
    acc
}

/// A type-erased map from keys to domain values *rendered as truth
/// tables*, for cross-backend differential checks.
pub fn tables_agree(a: &HashMap<String, PropTable>, b: &HashMap<String, PropTable>) -> bool {
    a.len() == b.len() && a.iter().all(|(k, v)| b.get(k) == Some(v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_kind_round_trips_through_names() {
        for d in DomainKind::ALL {
            assert_eq!(d.name().parse::<DomainKind>().unwrap(), d);
        }
        let err = "robdd".parse::<DomainKind>().unwrap_err();
        for d in DomainKind::ALL {
            assert!(err.contains(d.name()), "{err} should mention {d}");
        }
        assert_eq!(DomainKind::default(), DomainKind::Table);
    }

    #[test]
    fn iff_rows_enumerates_the_full_table_when_all_free() {
        // $iff(X, Y1, Y2) fully free: 4 rows, mask order.
        let rows = iff_rows(&[IffArg::Free, IffArg::Free, IffArg::Free]).unwrap();
        assert_eq!(
            rows,
            vec![
                vec![false, false, false],
                vec![false, true, false],
                vec![false, false, true],
                vec![true, true, true],
            ]
        );
    }

    #[test]
    fn iff_rows_prunes_on_bound_head() {
        let rows = iff_rows(&[IffArg::True, IffArg::Free, IffArg::Free]).unwrap();
        assert_eq!(rows, vec![vec![true, true, true]]);
        let rows = iff_rows(&[IffArg::False, IffArg::Free]).unwrap();
        assert_eq!(rows, vec![vec![false, false]]);
    }

    #[test]
    fn iff_rows_respects_bound_ys() {
        let rows = iff_rows(&[IffArg::Free, IffArg::False, IffArg::Free]).unwrap();
        // Y1 pinned false: the head can never be true.
        assert_eq!(
            rows,
            vec![vec![false, false, false], vec![false, false, true]]
        );
    }

    #[test]
    fn iff_rows_overflows_past_the_cap() {
        let mut vals = vec![IffArg::Free; MAX_IFF_FREE_VARS + 2];
        let err = iff_rows(&vals).unwrap_err();
        assert_eq!(err.free, MAX_IFF_FREE_VARS + 1);
        assert!(err.to_string().contains("cap"));
        // Bound arguments do not count against the cap.
        for v in vals.iter_mut().skip(1) {
            *v = IffArg::True;
        }
        assert!(iff_rows(&vals).is_ok());
    }

    /// Runs the same clause-evaluation-shaped op sequence on any backend
    /// and exports the result as a truth table.
    fn clause_shape<D: AbstractDomain>(d: &mut D) -> PropTable {
        let top = d.top(3);
        let v = d.constrain_iff(&top, 0, &[1, 2]);
        let v = d.extend(&v, 1);
        let v = d.constrain_iff(&v, 3, &[0]);
        let v = d.project(&v, &[3, 1]);
        d.to_table(&v)
    }

    #[test]
    fn backends_agree_on_a_clause_evaluation_shape() {
        // Mimic one direct-analyzer clause evaluation on both backends.
        assert_eq!(
            clause_shape(&mut TableDomain),
            clause_shape(&mut BddDomain::new())
        );
    }

    #[test]
    fn bdd_project_handles_duplicate_columns() {
        let mut td = TableDomain;
        let mut bd = BddDomain::new();
        let t = {
            let top = td.top(2);
            let v = td.constrain_value(&top, 0, true);
            td.project(&v, &[0, 0, 1])
        };
        let b = {
            let top = bd.top(2);
            let v = bd.constrain_value(&top, 0, true);
            let p = bd.project(&v, &[0, 0, 1]);
            bd.to_table(&p)
        };
        assert_eq!(t, b);
    }

    #[test]
    fn bdd_constrain_relation_handles_duplicate_positions() {
        let mut td = TableDomain;
        let mut bd = BddDomain::new();
        // rel over 2 vars: exactly one of them true (xor).
        let rows = vec![vec![true, false], vec![false, true]];
        let t = {
            let rel = td.lift_rows(2, &rows);
            let top = td.top(2);
            td.constrain_relation(&top, &[1, 1], &rel)
        };
        let b = {
            let rel = bd.lift_rows(2, &rows);
            let top = bd.top(2);
            let v = bd.constrain_relation(&top, &[1, 1], &rel);
            bd.to_table(&v)
        };
        // x⊕x is unsatisfiable: both backends must agree it is empty.
        assert!(t.is_empty());
        assert_eq!(t, b);
    }

    #[test]
    fn bdd_definitely_and_leq_match_tables() {
        let mut td = TableDomain;
        let mut bd = BddDomain::new();
        let tt = {
            let top = td.top(2);
            td.constrain_iff(&top, 0, &[1])
        };
        let bt = {
            let top = bd.top(2);
            bd.constrain_iff(&top, 0, &[1])
        };
        assert!(!td.definitely(&tt, 0) && !bd.definitely(&bt, 0));
        let tg = td.constrain_value(&tt, 1, true);
        let bg = bd.constrain_value(&bt, 1, true);
        assert!(td.definitely(&tg, 0) && bd.definitely(&bg, 0));
        assert!(td.leq(&tg, &tt) && bd.leq(&bg, &bt));
        assert!(!td.leq(&tt, &tg) && !bd.leq(&bt, &bg));
        let bot = td.bottom(2);
        assert!(!td.definitely(&bot, 0));
        let bbot = bd.bottom(2);
        assert!(!bd.definitely(&bbot, 0));
    }

    #[test]
    fn value_from_partial_rows_matches_on_both_backends() {
        let rows = vec![
            vec![Some(true), None, Some(false)],
            vec![Some(true), Some(true), Some(true)],
        ];
        let mut td = TableDomain;
        let mut bd = BddDomain::new();
        let t = value_from_partial_rows(&mut td, 3, &rows);
        let bv = value_from_partial_rows(&mut bd, 3, &rows);
        let b = bd.to_table(&bv);
        assert_eq!(t, b);
        assert_eq!(t.count(), 3); // gng, ggn (free middle) + ggg

        // Bound and partial rows mixed, with overlaps and a duplicate: the
        // bound rows' points and the partial rows' cubes must union to
        // the same value as one cube per row.
        let mixed = vec![
            vec![Some(false), Some(false), Some(false), Some(true)],
            vec![None, Some(true), None, Some(false)],
            vec![Some(true), Some(true), Some(false), Some(false)],
            vec![Some(false), None, None, None],
            vec![Some(true), Some(false), Some(true), Some(true)],
            vec![Some(false), Some(false), Some(false), Some(true)],
        ];
        let mut cubes = td.bottom(4);
        for row in &mixed {
            let mut cube = td.top(4);
            for (i, v) in row.iter().enumerate() {
                if let Some(b) = v {
                    cube = td.constrain_value(&cube, i, *b);
                }
            }
            cubes = td.join(&cubes, &cube);
        }
        let t = value_from_partial_rows(&mut td, 4, &mixed);
        let bv = value_from_partial_rows(&mut bd, 4, &mixed);
        assert_eq!(t, cubes);
        assert_eq!(bd.to_table(&bv), cubes);
        // The 8 points of `n???`, `gggn` and `ggnn` from the `?g?n` cube,
        // and `gngg`.
        assert_eq!(t.count(), 11);
        // Only bound rows, and no rows at all.
        let points = &mixed[2..3];
        let t = value_from_partial_rows(&mut td, 4, points);
        assert_eq!(t.count(), 1);
        let bv = value_from_partial_rows(&mut bd, 4, points);
        assert_eq!(bd.to_table(&bv), t);
        assert!(value_from_partial_rows(&mut td, 4, &[]).is_empty());
        let none = value_from_partial_rows(&mut bd, 4, &[]);
        assert!(bd.is_empty(&none));
    }

    #[test]
    fn render_is_sorted_rows() {
        let mut td = TableDomain;
        let top = td.top(2);
        let v = td.constrain_iff(&top, 0, &[1]);
        assert_eq!(td.render(&v), "{gg, nn}");
        assert_eq!(td.render_json(&v), "[\"gg\",\"nn\"]");
    }

    #[test]
    fn bdd_stats_report_manager_growth() {
        let mut bd = BddDomain::new();
        let base = bd.stats();
        let top = bd.top(4);
        let _ = bd.constrain_iff(&top, 0, &[1, 2, 3]);
        let grown = bd.stats();
        assert!(grown.nodes > base.nodes);
        assert!(grown.bytes > 0);
        assert_eq!(TableDomain.stats(), DomainStats::default());
    }
}
