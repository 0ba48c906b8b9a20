//! A hash-consing arena for canonical terms — substitution factoring.
//!
//! XSB's tables owe much of their speed to *substitution factoring*: calls
//! and answers are stored in tries so that common prefixes (and, with
//! hash-consing, common subterms) are represented once, duplicate checks are
//! pointer comparisons, and table space is charged per shared node rather
//! than per copy (Swift & Warren, PAPERS.md). This module is our equivalent:
//! every canonical subterm is interned exactly once and identified by a
//! [`TermId`] — a `Copy` handle with O(1) equality and hashing. Interning is
//! *bottom-up*: a node is only created after its children, so structural
//! equality of subtrees collapses to id equality of children, and the
//! hash-cons lookup for a node costs one hash-table probe plus a shallow
//! comparison.
//!
//! Each node is a 32-byte record caching, at intern time:
//!
//! * its structural **hash** (deterministic across runs — it feeds golden
//!   traces and benchmark keys, so it must not depend on `RandomState`),
//! * its **tree bytes** — the footprint an unshared copy would occupy,
//!   matching [`Term::heap_bytes`], used by the table-space accounting, and
//! * one auxiliary word: for a *ground* compound, the index of its
//!   materialized [`Term`] in a cache, so converting it back to an ordinary
//!   term is one `Arc` clone; for a tuple root, its variable count.
//!
//! Groundness is derived from the record rather than stored. Children live
//! in an arena-owned slab, referenced by range. Nodes and children are kept
//! in fixed-size chunks, so the arena never copies what it already holds as
//! it grows, and the hash-cons index is an open-addressed table of node ids
//! probed by the cached hashes. A lookup allocates nothing: children are
//! collected on a reusable scratch stack and variables are numbered through
//! a reusable dense map, and only a miss stores anything.
//!
//! Arenas are *session-scoped*: each engine run owns a [`TermArena`], so the
//! interned forest is dropped with the session instead of accumulating for
//! the life of the thread (the pre-PR-4 `thread_local!` design leaked every
//! term ever interned across successive analyses in one process). Every
//! [`CanonicalTerm`](crate::CanonicalTerm) handle remembers which arena
//! minted it, and arena accessors `debug_assert` that handles are presented
//! back to their own arena. A process-wide shared arena (id 0) backs the
//! convenience free functions ([`crate::canonicalize`],
//! [`crate::canonical_key`], …) for callers that don't carry a session.

use crate::bindings::Bindings;
use crate::env::{Cyclic, Env, Val};
use crate::symbol::Sym;
use crate::term::{Term, Var};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Handle to an interned canonical (sub)term. Two ids from the same arena
/// are equal iff the terms they denote are structurally identical, so
/// equality and hashing are O(1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TermId(u32);

impl TermId {
    /// The id's index into the arena (dense, allocation order).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One interned node, read from outside the arena: a variable's canonical
/// number, an atom, an integer, or a compound with its children's ids.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TermView<'a> {
    /// Canonical variable `_n`.
    Var(u32),
    /// A 0-ary symbol.
    Atom(Sym),
    /// A machine integer.
    Int(i64),
    /// A compound term and its argument ids.
    Struct(Sym, &'a [TermId]),
}

/// The kind of an interned node.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Tag {
    /// Canonical variable `_n` (first-occurrence numbering).
    Var,
    /// 0-ary symbol.
    Atom,
    /// Machine integer.
    Int,
    /// Compound term `f(c1, …, cn)`, `n ≥ 1`.
    Struct,
    /// Root of a canonical *tuple* (a call or answer). Tuples appear only
    /// as roots, never as children of other nodes.
    Tuple,
}

/// A node to look up or intern, with its children as ids, never inline
/// terms. Borrowed, so a lookup that hits stores nothing.
#[derive(Clone, Copy)]
enum Shape<'k> {
    Var(u32),
    Atom(Sym),
    Int(i64),
    Struct(Sym, &'k [TermId]),
    /// Members and the tuple's variable count (derived from the members,
    /// so not part of its identity).
    Tuple(&'k [TermId], u32),
}

/// One interned node: 32 bytes.
#[derive(Clone, Copy)]
struct Node {
    /// Structural hash, cached so `CanonicalTerm` hashing never walks.
    hash: u64,
    /// `Int`: the value's bits. `Struct`/`Tuple`: the children's slab
    /// range, `start | len << 32` (see [`Arena::kids`]).
    data: u64,
    /// `Var`: the canonical number. `Atom`/`Struct`: the symbol index.
    name: u32,
    /// Bytes an *unshared* copy of this subtree would occupy; matches
    /// [`Term::heap_bytes`] so accounting is comparable across PRs.
    /// Saturates at `u32::MAX`.
    tree_bytes: u32,
    /// Ground `Struct`: index into [`Arena::ground_terms`] ([`NONE`] when
    /// not ground). `Tuple`: the number of distinct variables.
    aux: u32,
    tag: Tag,
}

const _: () = assert!(std::mem::size_of::<Node>() == 32);

/// Empty slot / absent index.
const NONE: u32 = u32::MAX;
/// `var_index` mark of a bound cell whose value is being resolved: meeting
/// it again means the binding reaches itself.
const ACTIVE: u32 = u32::MAX - 1;

/// Nodes per chunk: 1024 × 32 B = 32 KiB.
const NODE_CHUNK_BITS: u32 = 10;
const NODE_CHUNK: usize = 1 << NODE_CHUNK_BITS;
/// Child ids per slab chunk: 4096 × 4 B = 16 KiB. A node wider than this
/// gets a chunk of its own, so no node's children straddle two chunks.
const KID_CHUNK_BITS: u32 = 12;
const KID_CHUNK: usize = 1 << KID_CHUNK_BITS;

impl Node {
    fn is_ground(&self) -> bool {
        match self.tag {
            Tag::Var => false,
            Tag::Atom | Tag::Int => true,
            Tag::Struct => self.aux != NONE,
            Tag::Tuple => self.aux == 0,
        }
    }
}

/// Counters describing one arena, for observability.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ArenaStats {
    /// Number of distinct interned nodes.
    pub nodes: usize,
    /// Total bytes of the interned (fully shared) forest: one node's worth
    /// per distinct subterm.
    pub interned_bytes: usize,
}

/// Reusable buffers for canonicalization, empty between calls.
#[derive(Clone, Default)]
struct Scratch {
    /// Child ids of the nodes under construction, innermost last.
    stack: Vec<TermId>,
    /// Dense variable map: binding-store variable index → canonical
    /// number, [`NONE`] when not yet seen in the current call.
    var_index: Vec<u32>,
    /// Variables numbered in the current call, in first-occurrence order;
    /// resets `var_index` afterwards. [`Arena::resolve_tuple`] also lists
    /// the bound cells it memoized here.
    touched: Vec<u32>,
    /// Next canonical variable number in [`Arena::resolve_tuple`].
    next_var: u32,
    /// [`Arena::canon`]'s path: each compound being interned, the index
    /// of its next argument, and where its children start on `stack`.
    path: Vec<(Term, u32, u32)>,
}

#[derive(Clone, Default)]
struct Arena {
    /// Nodes in chunks of [`NODE_CHUNK`], indexed by [`TermId`].
    nodes: Vec<Vec<Node>>,
    /// Children slab, in chunks of [`KID_CHUNK`] ids (or one wider node).
    kids: Vec<Vec<TermId>>,
    /// The slab chunk being filled.
    kid_cur: usize,
    /// Hash-cons index: open-addressed node ids ([`NONE`] = empty), probed
    /// linearly from each node's hash, at load ≤ ½.
    index: Vec<u32>,
    /// Materialized ground compounds, so instantiating one is an `Arc`
    /// clone rather than a rebuild.
    ground_terms: Vec<Term>,
    scratch: Scratch,
}

/// Arena id of the process-wide shared arena backing the free functions.
pub(crate) const GLOBAL_ARENA_ID: u32 = 0;

/// Session arena ids start at 1; 0 is the shared arena.
static NEXT_ARENA_ID: AtomicU32 = AtomicU32::new(1);

fn global() -> &'static Mutex<Arena> {
    static GLOBAL: OnceLock<Mutex<Arena>> = OnceLock::new();
    GLOBAL.get_or_init(|| Mutex::new(Arena::default()))
}

fn with_global<R>(f: impl FnOnce(&mut Arena) -> R) -> R {
    let mut a = global().lock().unwrap_or_else(PoisonError::into_inner);
    f(&mut a)
}

/// Cost of one term node, shared with [`Term::heap_bytes`].
pub(crate) const fn node_bytes() -> usize {
    std::mem::size_of::<Term>()
}

/// splitmix64 finalizer — a cheap, deterministic bit mixer.
fn mix(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

fn combine(h: u64, w: u64) -> u64 {
    mix(h ^ w.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

impl Arena {
    fn len(&self) -> usize {
        self.nodes
            .last()
            .map_or(0, |c| (self.nodes.len() - 1) * NODE_CHUNK + c.len())
    }

    fn node(&self, id: TermId) -> &Node {
        let i = id.index();
        &self.nodes[i >> NODE_CHUNK_BITS][i & (NODE_CHUNK - 1)]
    }

    /// The children of a `Struct` or `Tuple` node.
    fn kids(&self, n: &Node) -> &[TermId] {
        let start = n.data as u32 as usize;
        let len = (n.data >> 32) as usize;
        if len == 0 {
            return &[];
        }
        let off = start & (KID_CHUNK - 1);
        &self.kids[start >> KID_CHUNK_BITS][off..off + len]
    }

    /// Copies `ids` into the slab and returns their packed range.
    fn store_kids(&mut self, ids: &[TermId]) -> u64 {
        if ids.is_empty() {
            return 0;
        }
        let chunk = if ids.len() > KID_CHUNK {
            self.kids.push(ids.to_vec());
            self.kids.len() - 1
        } else {
            let full = self
                .kids
                .get(self.kid_cur)
                .is_none_or(|c| c.len() + ids.len() > KID_CHUNK);
            if full {
                self.kids.push(Vec::with_capacity(KID_CHUNK));
                self.kid_cur = self.kids.len() - 1;
            }
            let c = &mut self.kids[self.kid_cur];
            c.extend_from_slice(ids);
            self.kid_cur
        };
        let off = self.kids[chunk].len() - ids.len();
        let start = (chunk << KID_CHUNK_BITS | off) as u64;
        debug_assert!(start <= u64::from(u32::MAX), "child slab exhausted");
        start | (ids.len() as u64) << 32
    }

    fn hash_shape(&self, shape: Shape<'_>) -> u64 {
        match shape {
            Shape::Var(n) => combine(1, u64::from(n)),
            Shape::Atom(s) => combine(2, s.index() as u64),
            Shape::Int(i) => combine(3, i as u64),
            Shape::Struct(s, kids) => {
                let mut h = combine(4, s.index() as u64);
                h = combine(h, kids.len() as u64);
                for &k in kids {
                    h = combine(h, self.node(k).hash);
                }
                h
            }
            Shape::Tuple(kids, _) => {
                let mut h = combine(5, kids.len() as u64);
                for &k in kids {
                    h = combine(h, self.node(k).hash);
                }
                h
            }
        }
    }

    /// Shallow equality: children compare by id.
    fn same(&self, n: &Node, shape: Shape<'_>) -> bool {
        match shape {
            Shape::Var(k) => n.tag == Tag::Var && n.name == k,
            Shape::Atom(s) => n.tag == Tag::Atom && n.name == s.0,
            Shape::Int(i) => n.tag == Tag::Int && n.data == i as u64,
            Shape::Struct(s, kids) => n.tag == Tag::Struct && n.name == s.0 && self.kids(n) == kids,
            Shape::Tuple(kids, _) => n.tag == Tag::Tuple && self.kids(n) == kids,
        }
    }

    /// The node for `shape`: found by one probe sequence, or created.
    fn intern(&mut self, shape: Shape<'_>) -> TermId {
        let hash = self.hash_shape(shape);
        let mask = self.index.len().wrapping_sub(1);
        let mut slot = hash as usize & mask;
        while let Some(&id) = self.index.get(slot) {
            if id == NONE {
                break;
            }
            let n = self.node(TermId(id));
            if n.hash == hash && self.same(n, shape) {
                return TermId(id);
            }
            slot = (slot + 1) & mask;
        }
        let id = self.push_node(hash, shape);
        if 2 * self.len() > self.index.len() {
            self.grow_index();
        } else {
            self.index[slot] = id.0;
        }
        id
    }

    /// Appends the node for `shape`; its children are already interned.
    fn push_node(&mut self, hash: u64, shape: Shape<'_>) -> TermId {
        let sum_bytes = |a: &Arena, kids: &[TermId]| {
            kids.iter()
                .fold(0u32, |acc, &k| acc.saturating_add(a.node(k).tree_bytes))
        };
        let own = node_bytes() as u32;
        let (data, name, tree_bytes, aux, tag) = match shape {
            Shape::Var(k) => (0, k, own, 0, Tag::Var),
            Shape::Atom(s) => (0, s.0, own, 0, Tag::Atom),
            Shape::Int(i) => (i as u64, 0, own, 0, Tag::Int),
            Shape::Struct(s, kids) => {
                let bytes = own.saturating_add(sum_bytes(self, kids));
                let aux = if kids.iter().all(|&k| self.node(k).is_ground()) {
                    let args = kids.iter().map(|&k| self.instantiate_node(k, 0));
                    self.ground_terms.push(Term::Struct(s, args.collect()));
                    (self.ground_terms.len() - 1) as u32
                } else {
                    NONE
                };
                (self.store_kids(kids), s.0, bytes, aux, Tag::Struct)
            }
            // The tuple wrapper itself is free: the seed accounting summed
            // the member terms' heap bytes with no container cost.
            Shape::Tuple(kids, nvars) => {
                let bytes = sum_bytes(self, kids);
                (self.store_kids(kids), 0, bytes, nvars, Tag::Tuple)
            }
        };
        let id = self.len();
        assert!(id < ACTIVE as usize, "term arena exhausted");
        if id.is_multiple_of(NODE_CHUNK) {
            self.nodes.push(Vec::with_capacity(NODE_CHUNK));
        }
        let chunk = self.nodes.last_mut().expect("chunk pushed above");
        chunk.push(Node {
            hash,
            data,
            name,
            tree_bytes,
            aux,
            tag,
        });
        TermId(id as u32)
    }

    /// Doubles the hash-cons index and re-places every node.
    fn grow_index(&mut self) {
        let cap = (2 * self.index.len()).max(64);
        let mut index = vec![NONE; cap];
        let mask = cap - 1;
        let mut id = 0u32;
        for chunk in &self.nodes {
            for n in chunk {
                let mut slot = n.hash as usize & mask;
                while index[slot] != NONE {
                    slot = (slot + 1) & mask;
                }
                index[slot] = id;
                id += 1;
            }
        }
        self.index = index;
    }

    /// Interns the canonical form of `t` as seen through `b`, numbering free
    /// variables in first-occurrence order. No intermediate `Term` is
    /// allocated: the walk resolves bindings and interns bottom-up. The
    /// walk keeps its path on `s.path` rather than the call stack, so a
    /// term nested arbitrarily deep cannot overflow it.
    fn canon(&mut self, b: &Bindings, t: &Term, s: &mut Scratch) -> TermId {
        let floor = s.path.len();
        let mut cur = b.walk(t).clone();
        loop {
            // Descend to a leaf, leaving one frame per compound passed.
            let mut id = match &cur {
                Term::Var(v) => {
                    let i = v.index();
                    if i >= s.var_index.len() {
                        s.var_index.resize(i + 1, NONE);
                    }
                    if s.var_index[i] == NONE {
                        s.var_index[i] = s.touched.len() as u32;
                        s.touched.push(v.0);
                    }
                    self.intern(Shape::Var(s.var_index[i]))
                }
                Term::Atom(a) => self.intern(Shape::Atom(*a)),
                Term::Int(i) => self.intern(Shape::Int(*i)),
                Term::Struct(f, args) if args.is_empty() => self.intern(Shape::Struct(*f, &[])),
                Term::Struct(_, args) => {
                    let first = b.walk(&args[0]).clone();
                    s.path.push((cur, 1, s.stack.len() as u32));
                    cur = first;
                    continue;
                }
            };
            // Climb: hand the finished child to its parent, then either
            // descend into the parent's next argument or finish the parent.
            loop {
                if s.path.len() == floor {
                    return id;
                }
                s.stack.push(id);
                let (parent, next, mark) = s.path.last_mut().expect("frame above the floor");
                let Term::Struct(f, args) = &*parent else {
                    unreachable!("only compounds are pushed")
                };
                if (*next as usize) < args.len() {
                    cur = b.walk(&args[*next as usize]).clone();
                    *next += 1;
                    break;
                }
                let (f, mark) = (*f, *mark as usize);
                id = self.intern(Shape::Struct(f, &s.stack[mark..]));
                s.stack.truncate(mark);
                s.path.pop().expect("frame above the floor");
            }
        }
    }

    /// Materializes `id` with canonical variables shifted by `base`,
    /// reusing cached ground compounds wholesale.
    fn instantiate_node(&self, id: TermId, base: u32) -> Term {
        let n = self.node(id);
        match n.tag {
            Tag::Var => Term::Var(Var(base + n.name)),
            Tag::Atom => Term::Atom(Sym(n.name)),
            Tag::Int => Term::Int(n.data as i64),
            Tag::Struct if n.aux != NONE => self.ground_terms[n.aux as usize].clone(),
            Tag::Struct => Term::Struct(
                Sym(n.name),
                self.kids(n)
                    .iter()
                    .map(|&k| self.instantiate_node(k, base))
                    .collect(),
            ),
            Tag::Tuple => unreachable!("tuples never nest"),
        }
    }

    fn tuple_children(&self, root: TermId) -> &[TermId] {
        let n = self.node(root);
        assert!(n.tag == Tag::Tuple, "canonical root is always a tuple node");
        self.kids(n)
    }

    fn tuple_terms(&self, root: TermId) -> Vec<Term> {
        self.tuple_children(root)
            .iter()
            .map(|&k| self.instantiate_node(k, 0))
            .collect()
    }

    fn tuple_instantiate(&self, root: TermId, nvars: u32, b: &mut Bindings) -> Vec<Term> {
        let base = b.fresh_block(nvars as usize).0;
        self.tuple_children(root)
            .iter()
            .map(|&k| self.instantiate_node(k, base))
            .collect()
    }

    fn charge(&self, id: TermId, seen: &mut HashSet<TermId>) -> usize {
        if !seen.insert(id) {
            return 0;
        }
        let n = self.node(id);
        match n.tag {
            Tag::Tuple => self.kids(n).iter().map(|&k| self.charge(k, seen)).sum(),
            Tag::Struct => {
                node_bytes()
                    + self
                        .kids(n)
                        .iter()
                        .map(|&k| self.charge(k, seen))
                        .sum::<usize>()
            }
            _ => node_bytes(),
        }
    }

    fn stats(&self) -> ArenaStats {
        let terms = self
            .nodes
            .iter()
            .flatten()
            .filter(|n| n.tag != Tag::Tuple)
            .count();
        ArenaStats {
            nodes: self.len(),
            interned_bytes: terms * node_bytes(),
        }
    }

    /// The canonical number of cell `c` (numbered on first sight), or the
    /// memoized id of its binding, resolving it on first sight.
    fn resolve_cell(
        &mut self,
        env: &Env,
        c: u32,
        var_node: Option<TermId>,
        s: &mut Scratch,
    ) -> Result<TermId, Cyclic> {
        let i = c as usize;
        if i >= s.var_index.len() {
            s.var_index.resize(i + 1, NONE);
        }
        match &env.cells[i] {
            None => {
                if s.var_index[i] == NONE {
                    s.var_index[i] = s.next_var;
                    s.next_var += 1;
                    s.touched.push(c);
                }
                let k = s.var_index[i];
                match var_node {
                    Some(id) if self.node(id).name == k => Ok(id),
                    _ => Ok(self.intern(Shape::Var(k))),
                }
            }
            // A resolved binding is memoized: every variable in it was
            // numbered on its first resolution, so it resolves to the
            // same id each time.
            Some(v) => match s.var_index[i] {
                NONE => {
                    s.var_index[i] = ACTIVE;
                    s.touched.push(c);
                    let id = self.resolve_val(env, v, s)?;
                    s.var_index[i] = id.0;
                    Ok(id)
                }
                ACTIVE => Err(Cyclic),
                id => Ok(TermId(id)),
            },
        }
    }

    fn resolve_val(&mut self, env: &Env, v: &Val, s: &mut Scratch) -> Result<TermId, Cyclic> {
        match v {
            Val::Id(id, base) => self.resolve_id(env, *id, *base, s),
            Val::Term(t, base) => self.resolve_term(env, t, *base, s),
        }
    }

    /// Resolves an arena subterm read at `base`. Ground subterms come back
    /// as they are, and so does any node whose children all do, so an
    /// unchanged subtree costs a walk but no hash-cons probe.
    fn resolve_id(
        &mut self,
        env: &Env,
        id: TermId,
        base: u32,
        s: &mut Scratch,
    ) -> Result<TermId, Cyclic> {
        let n = *self.node(id);
        match n.tag {
            Tag::Var => self.resolve_cell(env, base + n.name, Some(id), s),
            Tag::Struct if n.aux == NONE => {
                let mark = s.stack.len();
                let mut same = true;
                for i in 0..(n.data >> 32) as usize {
                    let k = self.kids(&n)[i];
                    let r = self.resolve_id(env, k, base, s)?;
                    same &= r == k;
                    s.stack.push(r);
                }
                let out = if same {
                    id
                } else {
                    self.intern(Shape::Struct(Sym(n.name), &s.stack[mark..]))
                };
                s.stack.truncate(mark);
                Ok(out)
            }
            _ => Ok(id),
        }
    }

    /// Resolves a stored term read at `base`, interning it bottom-up.
    fn resolve_term(
        &mut self,
        env: &Env,
        t: &Term,
        base: u32,
        s: &mut Scratch,
    ) -> Result<TermId, Cyclic> {
        match t {
            Term::Var(x) => self.resolve_cell(env, base + x.0, None, s),
            Term::Atom(a) => Ok(self.intern(Shape::Atom(*a))),
            Term::Int(i) => Ok(self.intern(Shape::Int(*i))),
            Term::Struct(f, args) => {
                let mark = s.stack.len();
                for a in args.iter() {
                    let k = self.resolve_term(env, a, base, s)?;
                    s.stack.push(k);
                }
                let id = self.intern(Shape::Struct(*f, &s.stack[mark..]));
                s.stack.truncate(mark);
                Ok(id)
            }
        }
    }

    /// Interns the canonical tuple of `members` as bound in `env`.
    fn resolve_tuple(
        &mut self,
        arena_id: u32,
        env: &Env,
        members: &[Val],
    ) -> Result<CanonicalTerm, Cyclic> {
        let mut s = std::mem::take(&mut self.scratch);
        let mut out = Ok(());
        for v in members {
            match self.resolve_val(env, v, &mut s) {
                Ok(k) => s.stack.push(k),
                Err(e) => {
                    out = Err(e);
                    break;
                }
            }
        }
        let out = out.map(|()| {
            let nvars = s.next_var;
            let root = self.intern(Shape::Tuple(&s.stack, nvars));
            CanonicalTerm::from_parts(root, nvars, self.node(root).hash, arena_id)
        });
        s.stack.clear();
        for &c in &s.touched {
            s.var_index[c as usize] = NONE;
        }
        s.touched.clear();
        s.next_var = 0;
        self.scratch = s;
        out
    }

    /// `true` if some compound in `id` sits at depth `k` or below.
    fn deeper_than(&self, id: TermId, k: usize) -> bool {
        let n = self.node(id);
        n.tag == Tag::Struct && (k == 0 || self.kids(n).iter().any(|&c| self.deeper_than(c, k - 1)))
    }

    /// [`TermArena::truncate`]'s walk: canonical variable `_n` of the input
    /// is renumbered through `var_index[n]`, a cut-off compound becomes
    /// `ground` or a fresh variable.
    fn truncate_id(&mut self, id: TermId, k: usize, ground: Sym, s: &mut Scratch) -> TermId {
        let n = *self.node(id);
        match n.tag {
            Tag::Var => {
                let i = n.name as usize;
                if i >= s.var_index.len() {
                    s.var_index.resize(i + 1, NONE);
                }
                if s.var_index[i] == NONE {
                    s.var_index[i] = s.next_var;
                    s.next_var += 1;
                    s.touched.push(n.name);
                }
                let k = s.var_index[i];
                if k == n.name {
                    id
                } else {
                    self.intern(Shape::Var(k))
                }
            }
            Tag::Struct if k == 0 => {
                if n.is_ground() {
                    self.intern(Shape::Atom(ground))
                } else {
                    s.next_var += 1;
                    self.intern(Shape::Var(s.next_var - 1))
                }
            }
            Tag::Struct => {
                let mark = s.stack.len();
                let mut same = true;
                for i in 0..(n.data >> 32) as usize {
                    let c = self.kids(&n)[i];
                    let r = self.truncate_id(c, k - 1, ground, s);
                    same &= r == c;
                    s.stack.push(r);
                }
                let out = if same {
                    id
                } else {
                    self.intern(Shape::Struct(Sym(n.name), &s.stack[mark..]))
                };
                s.stack.truncate(mark);
                out
            }
            _ => id,
        }
    }

    fn truncate(&mut self, arena_id: u32, root: TermId, k: usize, ground: Sym) -> CanonicalTerm {
        let n = self.node(root);
        if !self.kids(n).iter().any(|&m| self.deeper_than(m, k)) {
            return CanonicalTerm::from_parts(root, n.aux, n.hash, arena_id);
        }
        let mut s = std::mem::take(&mut self.scratch);
        let len = self.kids(self.node(root)).len();
        for i in 0..len {
            let m = self.kids(self.node(root))[i];
            let r = self.truncate_id(m, k, ground, &mut s);
            s.stack.push(r);
        }
        let nvars = s.next_var;
        let out = self.intern(Shape::Tuple(&s.stack, nvars));
        s.stack.clear();
        for &v in &s.touched {
            s.var_index[v as usize] = NONE;
        }
        s.touched.clear();
        s.next_var = 0;
        self.scratch = s;
        CanonicalTerm::from_parts(out, nvars, self.node(out).hash, arena_id)
    }

    /// Canonicalizes the concatenation `xs ++ ys` into a tuple node.
    fn canonicalize(
        &mut self,
        arena_id: u32,
        b: &Bindings,
        xs: &[Term],
        ys: &[Term],
    ) -> CanonicalTerm {
        let mut s = std::mem::take(&mut self.scratch);
        for t in xs.iter().chain(ys) {
            let k = self.canon(b, t, &mut s);
            s.stack.push(k);
        }
        let nvars = s.touched.len() as u32;
        let root = self.intern(Shape::Tuple(&s.stack, nvars));
        debug_assert_eq!(self.node(root).aux, nvars, "tuple variable count");
        s.stack.clear();
        for &v in &s.touched {
            s.var_index[v as usize] = NONE;
        }
        s.touched.clear();
        self.scratch = s;
        CanonicalTerm::from_parts(root, nvars, self.node(root).hash, arena_id)
    }
}

use super::variant::CanonicalTerm;

/// A session-scoped hash-consing term arena.
///
/// Every engine session owns one: canonical calls, answers, and node keys
/// are interned here, and the whole forest is released when the session's
/// [`Evaluation`](../tablog_engine) (or the arena itself) is dropped —
/// unlike the pre-PR-4 `thread_local!` interner, which retained every term
/// ever canonicalized for the life of the thread. The arena is `Send`, so a
/// session can migrate across threads and sessions on different threads
/// never contend.
///
/// Handles ([`CanonicalTerm`], [`TermId`]) are only meaningful with the
/// arena that minted them; accessors `debug_assert` this. Cloning an arena
/// snapshots the forest — handles stay valid against both copies.
#[derive(Clone)]
pub struct TermArena {
    id: u32,
    inner: Arena,
}

impl Default for TermArena {
    fn default() -> Self {
        TermArena::new()
    }
}

impl std::fmt::Debug for TermArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.inner.stats();
        f.debug_struct("TermArena")
            .field("id", &self.id)
            .field("nodes", &s.nodes)
            .field("interned_bytes", &s.interned_bytes)
            .finish()
    }
}

impl TermArena {
    /// A fresh, empty arena with a process-unique id.
    pub fn new() -> Self {
        TermArena {
            id: NEXT_ARENA_ID.fetch_add(1, Ordering::Relaxed),
            inner: Arena::default(),
        }
    }

    #[inline]
    fn check(&self, c: &CanonicalTerm) {
        debug_assert_eq!(
            c.arena_id(),
            self.id,
            "CanonicalTerm from arena {} used with arena {}",
            c.arena_id(),
            self.id
        );
    }

    /// Canonicalizes a tuple of terms after resolving them through `b`;
    /// see [`crate::canonicalize`].
    pub fn canonicalize(&mut self, b: &Bindings, ts: &[Term]) -> CanonicalTerm {
        self.inner.canonicalize(self.id, b, ts, &[])
    }

    /// Canonicalizes the concatenation of two tuples without allocating the
    /// concatenated slice; see [`crate::canonicalize2`].
    pub fn canonicalize2(&mut self, b: &Bindings, xs: &[Term], ys: &[Term]) -> CanonicalTerm {
        self.inner.canonicalize(self.id, b, xs, ys)
    }

    /// Canonicalizes a single already-resolved term.
    pub fn canonical_key(&mut self, t: &Term) -> CanonicalTerm {
        let empty = Bindings::new();
        self.canonicalize(&empty, std::slice::from_ref(t))
    }

    /// The canonical tuple rooted at `root`, as a handle — the inverse of
    /// [`CanonicalTerm::root_id`], so callers can keep a bare [`TermId`]
    /// and still instantiate it later.
    ///
    /// # Panics
    ///
    /// Panics if `root` is not the root of a canonical tuple.
    pub fn handle(&self, root: TermId) -> CanonicalTerm {
        let n = self.inner.node(root);
        assert!(
            n.tag == Tag::Tuple,
            "{root:?} is not a canonical tuple root"
        );
        CanonicalTerm::from_parts(root, n.aux, n.hash, self.id)
    }

    /// The node `id`, read from outside: its kind and children.
    ///
    /// # Panics
    ///
    /// Panics if `id` is a tuple root; see [`TermArena::members`].
    pub fn view(&self, id: TermId) -> TermView<'_> {
        let n = self.inner.node(id);
        match n.tag {
            Tag::Var => TermView::Var(n.name),
            Tag::Atom => TermView::Atom(Sym(n.name)),
            Tag::Int => TermView::Int(n.data as i64),
            Tag::Struct => TermView::Struct(Sym(n.name), self.inner.kids(n)),
            Tag::Tuple => panic!("{id:?} is a tuple root, not a term"),
        }
    }

    /// The argument ids of a compound node; empty for anything else.
    pub fn args(&self, id: TermId) -> &[TermId] {
        let n = self.inner.node(id);
        match n.tag {
            Tag::Struct => self.inner.kids(n),
            _ => &[],
        }
    }

    /// `true` if the subterm `id` contains no variable.
    pub fn is_ground(&self, id: TermId) -> bool {
        self.inner.node(id).is_ground()
    }

    /// The member ids of the canonical tuple rooted at `root`.
    ///
    /// # Panics
    ///
    /// Panics if `root` is not the root of a canonical tuple.
    pub fn members(&self, root: TermId) -> &[TermId] {
        self.inner.tuple_children(root)
    }

    /// Materializes the subterm `id` with canonical variable `_n` as
    /// `Var(base + n)`; ground compounds come from the cache.
    pub fn term_at(&self, id: TermId, base: u32) -> Term {
        self.inner.instantiate_node(id, base)
    }

    /// Interns the compound `name(args…)` over already-interned arguments.
    /// Its variables keep the numbering of the tuple `args` were taken
    /// from.
    ///
    /// # Panics
    ///
    /// Panics if `args` is empty (that would be an atom).
    pub fn intern_struct(&mut self, name: Sym, args: &[TermId]) -> TermId {
        assert!(!args.is_empty(), "a compound has at least one argument");
        self.inner.intern(Shape::Struct(name, args))
    }

    /// Interns the canonical tuple of `members` as bound in `env` — the
    /// resolvent of a resolution step — without materializing any term.
    /// Arena subterms that the bindings leave unchanged are reused as they
    /// are, so only new structure is probed for or stored.
    ///
    /// # Errors
    ///
    /// Returns [`Cyclic`] when some binding reaches itself (a unification
    /// without occur check bound a variable to a term containing it).
    pub fn resolve(&mut self, env: &Env, members: &[Val]) -> Result<CanonicalTerm, Cyclic> {
        self.inner.resolve_tuple(self.id, env, members)
    }

    /// Truncates every term of `c` at depth `k`: a compound nested `k`
    /// levels deep becomes the atom `ground` if it is ground and a fresh
    /// variable otherwise. Returns `c` itself, without interning anything,
    /// when no compound is that deep.
    pub fn truncate(&mut self, c: &CanonicalTerm, k: usize, ground: Sym) -> CanonicalTerm {
        self.check(c);
        self.inner.truncate(self.id, c.root_id(), k, ground)
    }

    /// Number of member terms in `c`'s canonical tuple.
    pub fn tuple_len(&self, c: &CanonicalTerm) -> usize {
        self.check(c);
        self.inner.tuple_children(c.root_id()).len()
    }

    /// The canonicalized terms of `c`, materialized from the arena; ground
    /// compounds come from its cache.
    pub fn terms(&self, c: &CanonicalTerm) -> Vec<Term> {
        self.check(c);
        self.inner.tuple_terms(c.root_id())
    }

    /// The single canonicalized term of `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` holds more than one term.
    pub fn term(&self, c: &CanonicalTerm) -> Term {
        let mut ts = self.terms(c);
        assert_eq!(ts.len(), 1, "canonical form holds {} terms", ts.len());
        ts.pop().expect("length checked above")
    }

    /// Instantiates `c` with fresh variables from `b`; ground subterms are
    /// shared with the arena's cache instead of copied.
    pub fn instantiate(&self, c: &CanonicalTerm, b: &mut Bindings) -> Vec<Term> {
        self.check(c);
        self.inner
            .tuple_instantiate(c.root_id(), c.num_vars() as u32, b)
    }

    /// Estimated heap footprint in bytes of an *unshared* copy of `c`,
    /// matching [`Term::heap_bytes`].
    pub fn heap_bytes(&self, c: &CanonicalTerm) -> usize {
        self.check(c);
        self.inner.node(c.root_id()).tree_bytes as usize
    }

    /// Charges the bytes of every node reachable from `c` that is not
    /// already in `seen`, inserting as it goes — the substitution-factoring
    /// accounting: within one `seen` scope (a subgoal's table), shared
    /// structure is charged exactly once, at [`Term::heap_bytes`]'s
    /// per-node rate.
    pub fn charge_shared_bytes(&self, c: &CanonicalTerm, seen: &mut HashSet<TermId>) -> usize {
        self.check(c);
        self.inner.charge(c.root_id(), seen)
    }

    /// Snapshot of this arena's counters.
    pub fn stats(&self) -> ArenaStats {
        self.inner.stats()
    }
}

// --- Compat shim: the process-wide shared arena (id 0). -------------------
//
// The free functions below (and the convenience methods on `CanonicalTerm`)
// operate on a single shared arena behind a mutex. Engine sessions never
// touch it — they own a `TermArena` — so it only grows with what
// out-of-session callers (tests, CLI glue, analyzers' key construction)
// intern, and repeated analyses no longer accumulate state here.

pub(crate) fn canonicalize_in(b: &Bindings, ts: &[Term]) -> CanonicalTerm {
    with_global(|a| a.canonicalize(GLOBAL_ARENA_ID, b, ts, &[]))
}

pub(crate) fn canonicalize2_in(b: &Bindings, xs: &[Term], ys: &[Term]) -> CanonicalTerm {
    with_global(|a| a.canonicalize(GLOBAL_ARENA_ID, b, xs, ys))
}

#[inline]
fn check_global(c: &CanonicalTerm) {
    debug_assert_eq!(
        c.arena_id(),
        GLOBAL_ARENA_ID,
        "session-arena CanonicalTerm used with the shared-arena free functions; \
         go through the owning TermArena instead"
    );
}

pub(crate) fn tuple_len(c: &CanonicalTerm) -> usize {
    check_global(c);
    with_global(|a| a.tuple_children(c.root_id()).len())
}

pub(crate) fn tuple_terms(c: &CanonicalTerm) -> Vec<Term> {
    check_global(c);
    with_global(|a| a.tuple_terms(c.root_id()))
}

pub(crate) fn tuple_instantiate(c: &CanonicalTerm, b: &mut Bindings) -> Vec<Term> {
    check_global(c);
    with_global(|a| a.tuple_instantiate(c.root_id(), c.num_vars() as u32, b))
}

pub(crate) fn tree_bytes(c: &CanonicalTerm) -> usize {
    check_global(c);
    with_global(|a| a.node(c.root_id()).tree_bytes as usize)
}

/// Charges the bytes of every node reachable from `c` that is not already in
/// `seen`, against the process-wide shared arena. Engine tables use
/// [`TermArena::charge_shared_bytes`] on their session arena instead.
pub fn charge_shared_bytes(c: &CanonicalTerm, seen: &mut HashSet<TermId>) -> usize {
    check_global(c);
    with_global(|a| a.charge(c.root_id(), seen))
}

/// Snapshot of the process-wide shared arena's counters. Session arenas
/// report through [`TermArena::stats`]; this only reflects what the
/// convenience free functions have interned.
pub fn arena_stats() -> ArenaStats {
    with_global(|a| a.stats())
}

/// Serializes the lib tests that use the process-wide shared arena: some
/// of them compare its [`arena_stats`] before and after, which sibling
/// tests interning on other threads would otherwise disturb.
#[cfg(test)]
pub(crate) fn shared_arena_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{atom, int, structure, var};
    use crate::variant::{canonical_key, canonicalize};

    #[test]
    fn interning_is_idempotent() {
        let _shared = shared_arena_test_lock();
        let t = structure("f", vec![atom("a"), int(3)]);
        let c1 = canonical_key(&t);
        let c2 = canonical_key(&t);
        assert_eq!(c1.root_id(), c2.root_id());
    }

    #[test]
    fn distinct_terms_get_distinct_ids() {
        let _shared = shared_arena_test_lock();
        let c1 = canonical_key(&structure("f", vec![atom("a")]));
        let c2 = canonical_key(&structure("f", vec![atom("b")]));
        assert_ne!(c1.root_id(), c2.root_id());
    }

    #[test]
    fn variants_share_an_id() {
        let _shared = shared_arena_test_lock();
        let b = Bindings::new();
        let c1 = canonicalize(&b, &[structure("f", vec![var(Var(7)), var(Var(7))])]);
        let c2 = canonicalize(&b, &[structure("f", vec![var(Var(2)), var(Var(2))])]);
        assert_eq!(c1.root_id(), c2.root_id());
        let c3 = canonicalize(&b, &[structure("f", vec![var(Var(1)), var(Var(2))])]);
        assert_ne!(c1.root_id(), c3.root_id());
    }

    #[test]
    fn shared_structure_is_charged_once() {
        let _shared = shared_arena_test_lock();
        let sub = structure("g", vec![atom("a"), atom("b")]);
        let t = structure("f", vec![sub.clone(), sub.clone()]);
        let c = canonical_key(&t);
        // Unshared estimate counts the g-subtree twice…
        assert_eq!(c.heap_bytes(), t.heap_bytes());
        // …but the factored charge counts it once.
        let mut seen = HashSet::new();
        let charged = charge_shared_bytes(&c, &mut seen);
        let per_node = std::mem::size_of::<Term>();
        assert_eq!(charged, 4 * per_node); // f, g, a, b — not 7 nodes
                                           // Re-charging within the same scope is free.
        assert_eq!(charge_shared_bytes(&c, &mut seen), 0);
    }

    #[test]
    fn charge_matches_heap_bytes_without_sharing() {
        let _shared = shared_arena_test_lock();
        let t = structure("f", vec![atom("a"), structure("h", vec![int(1)])]);
        let c = canonical_key(&t);
        let mut seen = HashSet::new();
        assert_eq!(charge_shared_bytes(&c, &mut seen), t.heap_bytes());
    }

    #[test]
    fn arena_stats_grow_monotonically() {
        let _shared = shared_arena_test_lock();
        let before = arena_stats();
        // A fresh, never-before-interned atom must add at least one node.
        let _ = canonical_key(&structure(
            "arena_stats_probe",
            vec![atom("arena_stats_probe_leaf")],
        ));
        let after = arena_stats();
        assert!(after.nodes > before.nodes);
        assert!(after.interned_bytes > before.interned_bytes);
    }

    #[test]
    fn session_arena_round_trips_terms() {
        let mut a = TermArena::new();
        let t = structure("f", vec![atom("a"), structure("g", vec![var(Var(4))])]);
        let b = Bindings::new();
        let c = a.canonicalize(&b, std::slice::from_ref(&t));
        assert_eq!(
            a.terms(&c),
            vec![structure(
                "f",
                vec![atom("a"), structure("g", vec![var(Var(0))])]
            )]
        );
        assert_eq!(a.tuple_len(&c), 1);
        assert_eq!(a.heap_bytes(&c), t.heap_bytes());
        let mut seen = HashSet::new();
        assert_eq!(a.charge_shared_bytes(&c, &mut seen), t.heap_bytes());
    }

    #[test]
    fn session_arenas_are_independent_and_do_not_touch_the_shared_arena() {
        let _shared = shared_arena_test_lock();
        let global_before = arena_stats();
        let mut a1 = TermArena::new();
        let mut a2 = TermArena::new();
        let t = structure("session_probe", vec![int(1), int(2)]);
        let c1 = a1.canonical_key(&t);
        let c2 = a2.canonical_key(&t);
        // Both arenas start empty and intern the same shape: same dense ids,
        // but different owners.
        assert_eq!(c1.root_id(), c2.root_id());
        assert!(a1.stats().nodes > 0);
        // Session interning leaves the shared arena untouched.
        assert_eq!(arena_stats(), global_before);
    }

    #[test]
    fn dropping_a_session_arena_releases_its_forest() {
        let _shared = shared_arena_test_lock();
        let global_before = arena_stats();
        for _ in 0..8 {
            let mut a = TermArena::new();
            let c = a.canonical_key(&structure("leak_probe", vec![atom("x"), int(7)]));
            assert!(a.stats().interned_bytes > 0);
            let mut b = Bindings::new();
            assert_eq!(a.instantiate(&c, &mut b).len(), 1);
            // `a` dropped here: its forest goes with it.
        }
        assert_eq!(arena_stats(), global_before);
    }

    #[test]
    fn truncate_cuts_at_depth_and_renumbers() {
        let mut a = TermArena::new();
        let gamma = crate::symbol::intern("$g");
        let b = Bindings::new();
        // f(g(a), h(X, k(Y)), X) cut at depth 1: g(a) is ground, so γ;
        // h(…) is not, so a fresh variable, which now comes before X.
        let x = var(Var(0));
        let t = structure(
            "f",
            vec![
                structure("g", vec![atom("a")]),
                structure("h", vec![x.clone(), structure("k", vec![var(Var(1))])]),
                x,
            ],
        );
        let c = a.canonicalize(&b, std::slice::from_ref(&t));
        let cut = a.truncate(&c, 1, gamma);
        let want = structure("f", vec![atom("$g"), var(Var(0)), var(Var(1))]);
        assert_eq!(cut, a.canonicalize(&b, &[want]));
        assert_eq!(cut.num_vars(), 2);
        // Nothing that deep: the same handle back, nothing interned.
        let nodes = a.stats().nodes;
        assert_eq!(a.truncate(&cut, 1, gamma), cut);
        assert_eq!(a.stats().nodes, nodes);
    }

    #[test]
    fn resolve_reports_a_binding_that_reaches_itself() {
        let mut a = TermArena::new();
        let mut env = Env::new();
        env.frame(1);
        env.bind(0, Val::Term(structure("f", vec![var(Var(0))]), 0));
        assert_eq!(a.resolve(&env, &[Val::cell(0)]), Err(Cyclic));
        // The scratch state is reset: an acyclic resolve still works.
        let ok = a.resolve(&Env::new(), &[Val::Term(atom("a"), 0)]).unwrap();
        assert_eq!(a.terms(&ok), vec![atom("a")]);
    }

    #[test]
    fn arena_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<TermArena>();
        assert_send::<CanonicalTerm>();
    }
}
