//! Global symbol interner.
//!
//! Atom and functor names are interned once into a process-wide table and
//! thereafter handled as the `Copy` index type [`Sym`]. Interning keeps the
//! hot paths of the engine (clause indexing, unification, variant checks)
//! free of string comparisons, exactly as a WAM-based system like XSB keeps
//! an atom table.

use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, RwLock};

/// An interned symbol: a cheap, `Copy` handle for an atom or functor name.
///
/// Two `Sym`s compare equal iff they were interned from the same string.
/// Obtain one with [`intern`] and recover the text with [`sym_name`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(pub(crate) u32);

impl Sym {
    /// Raw index of this symbol in the interner, useful as a dense map key.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sym({:?})", sym_name(*self))
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(sym_str(*self))
    }
}

/// Names are leaked into `&'static str`s: a symbol is never freed, so its
/// text can be lent out without a copy (see [`sym_str`]).
#[derive(Default)]
struct Interner {
    names: Vec<&'static str>,
    map: HashMap<&'static str, u32>,
}

fn table() -> &'static RwLock<Interner> {
    static TABLE: OnceLock<RwLock<Interner>> = OnceLock::new();
    TABLE.get_or_init(|| RwLock::new(Interner::default()))
}

/// Interns `name`, returning its unique [`Sym`].
///
/// Interning the same string twice returns the same symbol.
///
/// ```
/// use tablog_term::intern;
/// assert_eq!(intern("append"), intern("append"));
/// assert_ne!(intern("append"), intern("member"));
/// ```
pub fn intern(name: &str) -> Sym {
    {
        let t = table().read().expect("symbol table poisoned");
        if let Some(&i) = t.map.get(name) {
            return Sym(i);
        }
    }
    let mut t = table().write().expect("symbol table poisoned");
    if let Some(&i) = t.map.get(name) {
        return Sym(i);
    }
    let i = t.names.len() as u32;
    let name: &'static str = Box::leak(name.into());
    t.names.push(name);
    t.map.insert(name, i);
    Sym(i)
}

/// Returns the text of an interned symbol.
///
/// ```
/// use tablog_term::{intern, sym_name};
/// assert_eq!(sym_name(intern("foo")), "foo");
/// ```
pub fn sym_name(sym: Sym) -> String {
    sym_str(sym).to_owned()
}

/// Returns the text of an interned symbol without copying it: interned
/// names live for the rest of the process.
///
/// ```
/// use tablog_term::{intern, sym_str};
/// assert_eq!(sym_str(intern("foo")), "foo");
/// ```
pub fn sym_str(sym: Sym) -> &'static str {
    table().read().expect("symbol table poisoned").names[sym.0 as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let a = intern("hello");
        let b = intern("hello");
        assert_eq!(a, b);
        assert_eq!(sym_name(a), "hello");
    }

    #[test]
    fn distinct_names_get_distinct_syms() {
        assert_ne!(intern("x1"), intern("x2"));
    }

    #[test]
    fn empty_name_is_valid() {
        assert_eq!(sym_name(intern("")), "");
    }

    #[test]
    fn unicode_names_round_trip() {
        assert_eq!(sym_name(intern("λ-calc")), "λ-calc");
    }

    #[test]
    fn sym_debug_shows_name() {
        let s = intern("dbg_sym");
        assert!(format!("{s:?}").contains("dbg_sym"));
    }

    #[test]
    fn many_symbols_stay_distinct() {
        let syms: Vec<Sym> = (0..1000).map(|i| intern(&format!("s{i}"))).collect();
        for (i, s) in syms.iter().enumerate() {
            assert_eq!(sym_name(*s), format!("s{i}"));
        }
    }
}
