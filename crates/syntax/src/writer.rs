//! Term writer: renders terms back in operator syntax.

use crate::ops::{OpTable, OpType};
use crate::{LIST_CONS, LIST_NIL};
use std::collections::HashMap;
use std::fmt::Write as _;
use tablog_term::{sym_name, Term, Var};

/// Renders terms as Prolog text with operator notation, list syntax and
/// alphabetic variable names (`A`, `B`, …, `A1`, `B1`, …).
///
/// Variable naming is per-writer: the same writer names the same variable
/// consistently across calls, which is what clause printing needs.
#[derive(Debug, Default)]
pub struct TermWriter {
    ops: OpTable,
    names: HashMap<Var, String>,
    /// Subterms nested deeper than this, and list elements past this many,
    /// are written as `...`; `None` writes everything.
    max_depth: Option<usize>,
    depth: usize,
}

impl TermWriter {
    /// Creates a writer with the standard operator table.
    pub fn new() -> Self {
        TermWriter::default()
    }

    /// Creates a writer with a custom operator table.
    pub fn with_ops(ops: OpTable) -> Self {
        TermWriter {
            ops,
            names: HashMap::new(),
            ..TermWriter::default()
        }
    }

    /// Elides what lies deeper than `depth`: a subterm nested more than
    /// `depth` levels down is written as `...`, and a list longer than
    /// `depth` elements as `[e1,…,ed|...]` — the `max_depth` write option
    /// of Prolog toplevels. A budget-truncated divergent run can derive
    /// terms nested hundreds of thousands deep; this keeps each rendered
    /// answer short.
    pub fn with_max_depth(mut self, depth: usize) -> Self {
        self.max_depth = Some(depth);
        self
    }

    fn var_name(&mut self, v: Var) -> String {
        if let Some(n) = self.names.get(&v) {
            return n.clone();
        }
        let i = self.names.len();
        let letter = (b'A' + (i % 26) as u8) as char;
        let suffix = i / 26;
        let name = if suffix == 0 {
            letter.to_string()
        } else {
            format!("{letter}{suffix}")
        };
        self.names.insert(v, name.clone());
        name
    }

    /// Renders `t` to a string.
    pub fn write(&mut self, t: &Term) -> String {
        let mut s = String::new();
        self.write_prec(&mut s, t, 1200);
        s
    }

    fn write_prec(&mut self, out: &mut String, t: &Term, max: u32) {
        if self.max_depth.is_some_and(|d| self.depth >= d) {
            push_token(out, "...");
            return;
        }
        self.depth += 1;
        self.write_term(out, t, max);
        self.depth -= 1;
    }

    fn write_term(&mut self, out: &mut String, t: &Term, max: u32) {
        match t {
            Term::Var(v) => {
                let n = self.var_name(*v);
                out.push_str(&n);
            }
            Term::Int(i) => {
                // Negative literals start with '-', which would fuse with a
                // preceding symbolic operator.
                push_token(out, &i.to_string());
            }
            Term::Atom(s) => {
                let name = sym_name(*s);
                // An atom that is itself an operator is ambiguous as an
                // operand (`- + :- x` has no unique reading); parenthesize
                // it, as standard writers do.
                if self.ops.is_op(&name) {
                    push_token(out, "(");
                    out.push_str(&quote_atom(&name));
                    out.push(')');
                } else {
                    push_token(out, &quote_atom(&name));
                }
            }
            Term::Struct(s, args) => {
                let name = sym_name(*s);
                // List?
                if name == LIST_CONS && args.len() == 2 {
                    self.write_list(out, t);
                    return;
                }
                if name == "{}" && args.len() == 1 {
                    out.push('{');
                    self.write_prec(out, &args[0], 1200);
                    out.push('}');
                    return;
                }
                if args.len() == 2 {
                    if let Some((p, ty)) = self.ops.infix(&name) {
                        let (lmax, rmax) = match ty {
                            OpType::Xfx => (p - 1, p - 1),
                            OpType::Xfy => (p - 1, p),
                            OpType::Yfx => (p, p - 1),
                            _ => (p, p),
                        };
                        let paren = p > max;
                        if paren {
                            out.push('(');
                        }
                        self.write_prec(out, &args[0], lmax);
                        // Render the right side first: a symbolic operator
                        // immediately followed by `(` would re-tokenize as a
                        // functor application (`*(` ≠ `* (`), so a space is
                        // needed exactly when the operand opens with one.
                        let mut right = String::new();
                        self.write_prec(&mut right, &args[1], rmax);
                        if name == "," {
                            out.push(',');
                        } else {
                            let alpha =
                                name.chars().next().is_some_and(|c| c.is_ascii_alphabetic());
                            if alpha {
                                let _ = write!(out, " {name} ");
                            } else {
                                push_token(out, &name);
                            }
                        }
                        push_token(out, &right);
                        if paren {
                            out.push(')');
                        }
                        return;
                    }
                }
                if args.len() == 1 {
                    if let Some((p, ty)) = self.ops.prefix(&name) {
                        let omax = if ty == OpType::Fy { p } else { p - 1 };
                        let paren = p > max;
                        if paren {
                            out.push('(');
                        }
                        push_token(out, &name);
                        // Space needed if operand could merge with op name.
                        out.push(' ');
                        // `- 0` would read back as the integer literal -0;
                        // parenthesize numeric operands of prefix minus.
                        if name == "-" && matches!(args[0], Term::Int(_)) {
                            out.push('(');
                            self.write_prec(out, &args[0], 1200);
                            out.push(')');
                        } else {
                            self.write_prec(out, &args[0], omax);
                        }
                        if paren {
                            out.push(')');
                        }
                        return;
                    }
                }
                out.push_str(&quote_atom(&name));
                out.push('(');
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    self.write_prec(out, a, 999);
                }
                out.push(')');
            }
        }
    }

    fn write_list(&mut self, out: &mut String, t: &Term) {
        out.push('[');
        let mut cur = t;
        let mut len = 0;
        loop {
            match cur {
                Term::Struct(s, args) if args.len() == 2 && sym_name(*s) == LIST_CONS => {
                    if len > 0 {
                        out.push(',');
                    }
                    if self.max_depth.is_some_and(|d| len >= d) {
                        out.truncate(out.len() - 1);
                        out.push_str("|...");
                        break;
                    }
                    len += 1;
                    self.write_prec(out, &args[0], 999);
                    cur = &args[1];
                }
                Term::Atom(s) if sym_name(*s) == LIST_NIL => break,
                other => {
                    out.push('|');
                    self.write_prec(out, other, 999);
                    break;
                }
            }
        }
        out.push(']');
    }
}

/// Appends `tok`, inserting a space when the juxtaposition would
/// re-tokenize differently: two symbolic runs fuse (`=` + `-3` → `=-3`,
/// an atom `+` before `:-`), and a symbolic operator directly before `(`
/// reads as a functor application (`*(` vs `* (`).
fn push_token(out: &mut String, tok: &str) {
    const SYMBOL_CHARS: &str = "+-*/\\^<>=~:.?@#&$";
    if let (Some(a), Some(b)) = (out.chars().last(), tok.chars().next()) {
        let fuse = SYMBOL_CHARS.contains(a) && (SYMBOL_CHARS.contains(b) || b == '(');
        if fuse {
            out.push(' ');
        }
    }
    out.push_str(tok);
}

fn needs_quote(name: &str) -> bool {
    if name.is_empty() {
        return true;
    }
    if name == "[]" || name == "{}" || name == "!" || name == ";" || name == "," {
        return false;
    }
    let mut chars = name.chars();
    let first = chars.next().expect("nonempty");
    if first.is_ascii_lowercase() {
        return !chars.all(|c| c.is_ascii_alphanumeric() || c == '_');
    }
    const SYMBOL_CHARS: &str = "+-*/\\^<>=~:.?@#&$";
    !name.chars().all(|c| SYMBOL_CHARS.contains(c))
}

fn quote_atom(name: &str) -> String {
    if needs_quote(name) {
        let escaped = name.replace('\\', "\\\\").replace('\'', "\\'");
        format!("'{escaped}'")
    } else {
        name.to_owned()
    }
}

/// Renders a term with a fresh [`TermWriter`] (standard operators, variables
/// named from `A`).
///
/// ```
/// use tablog_syntax::term_to_string;
/// use tablog_term::{structure, atom, var, Var};
/// let t = structure("f", vec![var(Var(4)), atom("nil"), var(Var(4))]);
/// assert_eq!(term_to_string(&t), "f(A,nil,A)");
/// ```
pub fn term_to_string(t: &Term) -> String {
    TermWriter::new().write(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_depth_elides_deep_terms_and_long_lists() {
        let mut t = crate::parse_term("z", &mut tablog_term::Bindings::new())
            .unwrap()
            .0;
        for _ in 0..5 {
            t = tablog_term::structure("s", vec![t]);
        }
        let mut w = TermWriter::new().with_max_depth(3);
        assert_eq!(w.write(&t), "s(s(s(...)))");
        let mut b = tablog_term::Bindings::new();
        let (l, _) = crate::parse_term("[a,b,c,d]", &mut b).unwrap();
        assert_eq!(w.write(&l), "[a,b,c|...]");
        assert_eq!(TermWriter::new().write(&t), "s(s(s(s(s(z)))))");
    }
    use crate::parser::parse_term;
    use tablog_term::{is_variant, Bindings};

    fn roundtrip(src: &str) -> String {
        let mut b = Bindings::new();
        let (t, _) = parse_term(src, &mut b).unwrap();
        term_to_string(&t)
    }

    #[test]
    fn writes_lists() {
        assert_eq!(roundtrip("[a, b, c]"), "[a,b,c]");
        assert_eq!(roundtrip("[a | T]"), "[a|A]");
        assert_eq!(roundtrip("[]"), "[]");
    }

    #[test]
    fn writes_operators_with_minimal_parens() {
        assert_eq!(roundtrip("1 + 2 * 3"), "1+2*3");
        assert_eq!(roundtrip("(1 + 2) * 3"), "(1+2)*3");
        // The space before '(' is load-bearing: "-(…)" would re-tokenize
        // as a functor application.
        assert_eq!(roundtrip("1 - (2 - 3)"), "1- (2-3)");
        assert_eq!(roundtrip("a :- b, c"), "a:-b,c");
    }

    #[test]
    fn quotes_when_needed() {
        assert_eq!(roundtrip("'hello world'"), "'hello world'");
        assert_eq!(roundtrip("'ok_atom'"), "ok_atom");
        assert_eq!(roundtrip("'It''s'"), "'It\\'s'");
    }

    #[test]
    fn variables_named_consistently() {
        assert_eq!(roundtrip("f(X, Y, X)"), "f(A,B,A)");
    }

    #[test]
    fn roundtrip_preserves_variant_structure() {
        for src in [
            "app([X|Xs],Ys,[X|Zs]):-app(Xs,Ys,Zs)",
            "f(g(h(1)), [a,b|T], X + Y * Z)",
            "p :- (q -> r ; s)",
            "- (1 + 2)",
        ] {
            let mut b1 = Bindings::new();
            let (t1, _) = parse_term(src, &mut b1).unwrap();
            let printed = term_to_string(&t1);
            let mut b2 = Bindings::new();
            let (t2, _) = parse_term(&printed, &mut b2).unwrap();
            assert!(is_variant(&t1, &t2), "{src} => {printed}");
        }
    }

    #[test]
    fn many_vars_get_suffixed_names() {
        let args: Vec<tablog_term::Term> = (0..30).map(|i| tablog_term::var(Var(i))).collect();
        let t = tablog_term::structure("big", args);
        let s = term_to_string(&t);
        assert!(s.contains("A1"), "{s}");
    }
}
