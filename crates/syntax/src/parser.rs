//! Operator-precedence parser for Prolog terms, clauses and programs.

use crate::ops::{OpTable, OpType};
use crate::token::{tokenize, Token, TokenError};
use crate::{LIST_CONS, LIST_NIL};
use std::collections::HashMap;
use std::fmt;
use tablog_term::{atom, int, structure, var, Bindings, Term, Var};

/// A parse failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
}

impl ParseError {
    fn new(message: impl Into<String>) -> Self {
        ParseError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<TokenError> for ParseError {
    fn from(e: TokenError) -> Self {
        ParseError::new(e.to_string())
    }
}

/// A clause read from source: `head :- body` or a fact (empty body).
///
/// Variables are numbered clause-locally from 0; `var_names` records the
/// source name of each named variable.
#[derive(Clone, Debug)]
pub struct ReadClause {
    /// The clause head.
    pub head: Term,
    /// The body goals, with top-level conjunction flattened.
    pub body: Vec<Term>,
    /// Number of distinct variables in the clause.
    pub nvars: usize,
    /// Source names of named variables, in numbering order.
    pub var_names: Vec<(String, Var)>,
}

/// A directive (`:- …`) read from source.
#[derive(Clone, Debug, PartialEq)]
pub enum Directive {
    /// `:- table p/2, q/3.` — mark predicates for tabled evaluation.
    Table(Vec<(String, usize)>),
    /// Any other directive, kept as a term for the embedder to interpret.
    Other(Term),
}

/// A parsed program: clauses plus directives, with the operator table as it
/// stood at end of parse (directives may extend it via `op/3`).
#[derive(Clone, Debug, Default)]
pub struct Program {
    /// The program clauses in source order.
    pub clauses: Vec<ReadClause>,
    /// The directives in source order.
    pub directives: Vec<Directive>,
}

impl Program {
    /// Total number of clauses.
    pub fn len(&self) -> usize {
        self.clauses.len()
    }

    /// `true` if the program has no clauses.
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// Names of the predicates marked `:- table`.
    pub fn tabled(&self) -> Vec<(String, usize)> {
        self.directives
            .iter()
            .flat_map(|d| match d {
                Directive::Table(ps) => ps.clone(),
                _ => Vec::new(),
            })
            .collect()
    }
}

struct Parser<'a> {
    toks: &'a [Token],
    pos: usize,
    ops: &'a OpTable,
    vars: HashMap<String, Var>,
    names: Vec<(String, Var)>,
    next_var: u32,
}

impl<'a> Parser<'a> {
    fn new(toks: &'a [Token], ops: &'a OpTable) -> Self {
        Parser {
            toks,
            pos: 0,
            ops,
            vars: HashMap::new(),
            names: Vec::new(),
            next_var: 0,
        }
    }

    fn peek(&self) -> Option<&Token> {
        self.toks.get(self.pos)
    }

    fn bump(&mut self) -> Option<&Token> {
        let t = self.toks.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, want: &Token) -> Result<(), ParseError> {
        match self.bump() {
            Some(t) if t == want => Ok(()),
            Some(t) => Err(ParseError::new(format!("expected {want}, found {t}"))),
            None => Err(ParseError::new(format!(
                "expected {want}, found end of input"
            ))),
        }
    }

    fn fresh(&mut self) -> Var {
        let v = Var(self.next_var);
        self.next_var += 1;
        v
    }

    fn named_var(&mut self, name: &str) -> Term {
        if name == "_" {
            return var(self.fresh());
        }
        if let Some(&v) = self.vars.get(name) {
            return var(v);
        }
        let v = self.fresh();
        self.vars.insert(name.to_owned(), v);
        self.names.push((name.to_owned(), v));
        var(v)
    }

    fn can_start_term(&self) -> bool {
        matches!(
            self.peek(),
            Some(
                Token::Int(_)
                    | Token::Str(_)
                    | Token::Var(_)
                    | Token::Atom(_)
                    | Token::Functor(_)
                    | Token::Open
                    | Token::OpenList
                    | Token::OpenCurly
            )
        )
    }

    /// Parses a term of priority at most `max`.
    fn term(&mut self, max: u32) -> Result<(Term, u32), ParseError> {
        let (mut left, mut lprec) = self.primary(max)?;
        loop {
            let (name, is_comma_or_bar) = match self.peek() {
                Some(Token::Comma) => (",".to_string(), true),
                Some(Token::Bar) => (";".to_string(), true),
                Some(Token::Atom(a)) => (a.clone(), false),
                _ => break,
            };
            if let Some((p, ty)) = self.ops.infix(&name).or(if is_comma_or_bar {
                Some((if name == "," { 1000 } else { 1100 }, OpType::Xfy))
            } else {
                None
            }) {
                let (lmax, rmax) = match ty {
                    OpType::Xfx => (p - 1, p - 1),
                    OpType::Xfy => (p - 1, p),
                    OpType::Yfx => (p, p - 1),
                    _ => unreachable!("infix table holds infix ops"),
                };
                if p <= max && lprec <= lmax {
                    self.bump();
                    let (right, _) = self.term(rmax)?;
                    left = structure(&name, vec![left, right]);
                    lprec = p;
                    continue;
                }
            }
            if !is_comma_or_bar {
                if let Some((p, ty)) = self.ops.postfix(&name) {
                    let lmax = if ty == OpType::Yf { p } else { p - 1 };
                    if p <= max && lprec <= lmax {
                        self.bump();
                        left = structure(&name, vec![left]);
                        lprec = p;
                        continue;
                    }
                }
            }
            break;
        }
        Ok((left, lprec))
    }

    fn primary(&mut self, max: u32) -> Result<(Term, u32), ParseError> {
        let tok = self
            .bump()
            .ok_or_else(|| ParseError::new("unexpected end of input"))?
            .clone();
        match tok {
            Token::Int(n) => Ok((int(n), 0)),
            Token::Str(s) => {
                let mut list = atom(LIST_NIL);
                for c in s.chars().rev() {
                    list = structure(LIST_CONS, vec![int(c as i64), list]);
                }
                Ok((list, 0))
            }
            Token::Var(name) => Ok((self.named_var(&name), 0)),
            Token::Functor(name) => {
                let args = self.arg_list()?;
                Ok((structure(&name, args), 0))
            }
            Token::Open => {
                let (t, _) = self.term(1200)?;
                self.expect(&Token::Close)?;
                Ok((t, 0))
            }
            Token::OpenList => self.list(),
            Token::OpenCurly => {
                if self.peek() == Some(&Token::CloseCurly) {
                    self.bump();
                    return Ok((atom("{}"), 0));
                }
                let (t, _) = self.term(1200)?;
                self.expect(&Token::CloseCurly)?;
                Ok((structure("{}", vec![t]), 0))
            }
            Token::Atom(name) => {
                // Prefix operator?
                if let Some((p, ty)) = self.ops.prefix(&name) {
                    // Negative numeric literal.
                    if name == "-" {
                        if let Some(Token::Int(n)) = self.peek() {
                            let n = *n;
                            self.bump();
                            return Ok((int(-n), 0));
                        }
                    }
                    let operand_ok = self.can_start_term()
                        && !matches!(self.peek(), Some(Token::Atom(a))
                            if self.ops.infix(a).is_some() && self.ops.prefix(a).is_none());
                    if p <= max && operand_ok {
                        let omax = if ty == OpType::Fy { p } else { p - 1 };
                        let save = self.pos;
                        match self.term(omax) {
                            Ok((arg, _)) => return Ok((structure(&name, vec![arg]), p)),
                            Err(_) => self.pos = save,
                        }
                    }
                }
                Ok((atom(&name), 0))
            }
            other => Err(ParseError::new(format!("unexpected token {other}"))),
        }
    }

    fn arg_list(&mut self) -> Result<Vec<Term>, ParseError> {
        let mut args = Vec::new();
        loop {
            let (t, _) = self.term(999)?;
            args.push(t);
            match self.bump() {
                Some(Token::Comma) => continue,
                Some(Token::Close) => break,
                Some(t) => {
                    return Err(ParseError::new(format!(
                        "expected , or ) in arguments, found {t}"
                    )))
                }
                None => return Err(ParseError::new("unterminated argument list")),
            }
        }
        Ok(args)
    }

    fn list(&mut self) -> Result<(Term, u32), ParseError> {
        if self.peek() == Some(&Token::CloseList) {
            self.bump();
            return Ok((atom(LIST_NIL), 0));
        }
        let mut items = Vec::new();
        let tail;
        loop {
            let (t, _) = self.term(999)?;
            items.push(t);
            match self.bump() {
                Some(Token::Comma) => continue,
                Some(Token::Bar) => {
                    let (t, _) = self.term(999)?;
                    tail = t;
                    self.expect(&Token::CloseList)?;
                    break;
                }
                Some(Token::CloseList) => {
                    tail = atom(LIST_NIL);
                    break;
                }
                Some(t) => {
                    return Err(ParseError::new(format!(
                        "expected , | or ] in list, found {t}"
                    )))
                }
                None => return Err(ParseError::new("unterminated list")),
            }
        }
        let mut list = tail;
        for item in items.into_iter().rev() {
            list = structure(LIST_CONS, vec![item, list]);
        }
        Ok((list, 0))
    }
}

/// Flattens a `','`-conjunction term into a goal list.
pub(crate) fn flatten_conj(t: &Term, out: &mut Vec<Term>) {
    if let Term::Struct(s, args) = t {
        if args.len() == 2 && tablog_term::sym_name(*s) == "," {
            flatten_conj(&args[0], out);
            flatten_conj(&args[1], out);
            return;
        }
    }
    out.push(t.clone());
}

fn term_to_clause(t: Term, nvars: usize, names: Vec<(String, Var)>) -> ReadClause {
    if let Term::Struct(s, args) = &t {
        if args.len() == 2 && tablog_term::sym_name(*s) == ":-" {
            let mut body = Vec::new();
            flatten_conj(&args[1], &mut body);
            return ReadClause {
                head: args[0].clone(),
                body,
                nvars,
                var_names: names,
            };
        }
    }
    ReadClause {
        head: t,
        body: Vec::new(),
        nvars,
        var_names: names,
    }
}

fn parse_spec_list(t: &Term, out: &mut Vec<(String, usize)>) -> Result<(), ParseError> {
    match t {
        Term::Struct(s, args) if args.len() == 2 && tablog_term::sym_name(*s) == "," => {
            parse_spec_list(&args[0], out)?;
            parse_spec_list(&args[1], out)
        }
        Term::Struct(s, args) if args.len() == 2 && tablog_term::sym_name(*s) == "/" => {
            let name = match &args[0] {
                Term::Atom(a) => tablog_term::sym_name(*a),
                _ => return Err(ParseError::new("predicate spec name must be an atom")),
            };
            let arity = match &args[1] {
                Term::Int(n) if *n >= 0 => *n as usize,
                _ => {
                    return Err(ParseError::new(
                        "predicate spec arity must be a non-negative integer",
                    ))
                }
            };
            out.push((name, arity));
            Ok(())
        }
        _ => Err(ParseError::new(format!("malformed predicate spec: {t}"))),
    }
}

fn apply_op_directive(ops: &mut OpTable, args: &[Term]) -> Result<(), ParseError> {
    let p = match &args[0] {
        Term::Int(n) if (0..=1200).contains(n) => *n as u32,
        _ => return Err(ParseError::new("op/3: priority must be 0..1200")),
    };
    let ty = match &args[1] {
        Term::Atom(a) => match tablog_term::sym_name(*a).as_str() {
            "xfx" => OpType::Xfx,
            "xfy" => OpType::Xfy,
            "yfx" => OpType::Yfx,
            "fx" => OpType::Fx,
            "fy" => OpType::Fy,
            "xf" => OpType::Xf,
            "yf" => OpType::Yf,
            other => return Err(ParseError::new(format!("op/3: unknown type {other}"))),
        },
        _ => return Err(ParseError::new("op/3: type must be an atom")),
    };
    let mut names = Vec::new();
    let mut cur = args[2].clone();
    loop {
        match &cur {
            Term::Atom(a) if tablog_term::sym_name(*a) == LIST_NIL => break,
            Term::Atom(a) => {
                names.push(tablog_term::sym_name(*a));
                break;
            }
            Term::Struct(s, items)
                if items.len() == 2 && tablog_term::sym_name(*s) == LIST_CONS =>
            {
                if let Term::Atom(a) = &items[0] {
                    names.push(tablog_term::sym_name(*a));
                } else {
                    return Err(ParseError::new("op/3: operator name must be an atom"));
                }
                cur = items[1].clone();
            }
            _ => return Err(ParseError::new("op/3: bad operator name argument")),
        }
    }
    for n in names {
        ops.add(p, ty, &n);
    }
    Ok(())
}

/// Parses a complete Prolog program: a sequence of clauses and directives.
///
/// `:- table p/2, q/3.` directives are recognized and collected; `:- op/3`
/// directives take effect immediately for the remainder of the input; other
/// directives are preserved as [`Directive::Other`].
///
/// # Errors
///
/// Returns the first tokenization or parse error encountered.
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let toks = tokenize(src)?;
    let mut ops = OpTable::default();
    let mut prog = Program::default();
    let mut pos = 0;
    while pos < toks.len() {
        // Each clause parses with a fresh variable scope.
        let end = toks[pos..]
            .iter()
            .position(|t| *t == Token::End)
            .map(|i| pos + i)
            .ok_or_else(|| ParseError::new("missing final '.' after clause"))?;
        let slice = &toks[pos..end];
        if slice.is_empty() {
            return Err(ParseError::new("empty clause (stray '.')"));
        }
        let mut p = Parser::new(slice, &ops);
        let (t, _) = p.term(1200)?;
        if p.pos != slice.len() {
            return Err(ParseError::new(format!(
                "trailing tokens after clause near {}",
                slice[p.pos]
            )));
        }
        let nvars = p.next_var as usize;
        let names = std::mem::take(&mut p.names);
        // Directive?
        let mut handled = false;
        if let Term::Struct(s, args) = &t {
            if args.len() == 1 && tablog_term::sym_name(*s) == ":-" {
                handled = true;
                let d = &args[0];
                match d {
                    Term::Struct(ds, dargs)
                        if tablog_term::sym_name(*ds) == "table" && dargs.len() == 1 =>
                    {
                        let mut specs = Vec::new();
                        parse_spec_list(&dargs[0], &mut specs)?;
                        prog.directives.push(Directive::Table(specs));
                    }
                    Term::Struct(ds, dargs)
                        if tablog_term::sym_name(*ds) == "op" && dargs.len() == 3 =>
                    {
                        apply_op_directive(&mut ops, dargs)?;
                        prog.directives.push(Directive::Other(d.clone()));
                    }
                    other => prog.directives.push(Directive::Other(other.clone())),
                }
            }
        }
        if !handled {
            prog.clauses.push(term_to_clause(t, nvars, names));
        }
        pos = end + 1;
    }
    Ok(prog)
}

/// Parses a single term (no trailing `.` required), allocating its variables
/// as fresh variables in `b`. Returns the term and the name→variable map.
///
/// # Errors
///
/// Fails on tokenization or parse errors, or trailing input.
pub fn parse_term(src: &str, b: &mut Bindings) -> Result<(Term, Vec<(String, Var)>), ParseError> {
    parse_term_with_ops(src, b, &OpTable::default())
}

/// Like [`parse_term`] but with a caller-supplied operator table.
///
/// # Errors
///
/// Fails on tokenization or parse errors, or trailing input.
pub fn parse_term_with_ops(
    src: &str,
    b: &mut Bindings,
    ops: &OpTable,
) -> Result<(Term, Vec<(String, Var)>), ParseError> {
    let toks = tokenize(src)?;
    let toks: &[Token] = match toks.last() {
        Some(Token::End) => &toks[..toks.len() - 1],
        _ => &toks,
    };
    let mut p = Parser::new(toks, ops);
    let (t, _) = p.term(1200)?;
    if p.pos != toks.len() {
        return Err(ParseError::new(format!(
            "trailing tokens near {}",
            toks[p.pos]
        )));
    }
    // Re-map clause-local variables onto fresh variables from `b`.
    let base = b.fresh_block(p.next_var as usize);
    let t = t.map_vars(&mut |v| var(Var(base.0 + v.0)));
    let names = p
        .names
        .into_iter()
        .map(|(n, v)| (n, Var(base.0 + v.0)))
        .collect();
    Ok((t, names))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tablog_term::is_variant;

    fn t(src: &str) -> Term {
        let mut b = Bindings::new();
        parse_term(src, &mut b).unwrap().0
    }

    #[test]
    fn parses_fact_and_rule() {
        let p = parse_program("f(a).\ng(X) :- f(X), f(X).").unwrap();
        assert_eq!(p.clauses.len(), 2);
        assert!(p.clauses[0].body.is_empty());
        assert_eq!(p.clauses[1].body.len(), 2);
        assert_eq!(p.clauses[1].nvars, 1);
    }

    #[test]
    fn operator_precedence_arithmetic() {
        assert_eq!(t("1 + 2 * 3"), t("+(1, *(2, 3))"));
        assert_eq!(t("1 * 2 + 3"), t("+(*(1, 2), 3)"));
        assert_eq!(t("1 - 2 - 3"), t("-(-(1, 2), 3)")); // yfx left assoc
        assert_eq!(t("2 ** 3"), t("**(2, 3)"));
    }

    #[test]
    fn xfy_right_assoc() {
        assert_eq!(t("a , b , c"), t("','(a, ','(b, c))"));
        assert_eq!(t("a ; b ; c"), t("';'(a, ';'(b, c))"));
    }

    #[test]
    fn if_then_else_shape() {
        let term = t("( a -> b ; c )");
        assert_eq!(term, t("';'('->'(a,b), c)"));
    }

    #[test]
    fn lists_desugar_to_cons() {
        assert_eq!(t("[a,b]"), t("'.'(a, '.'(b, []))"));
        let lt = t("[H|T]");
        assert!(matches!(lt, Term::Struct(_, _)));
        assert_eq!(t("[]"), atom("[]"));
    }

    #[test]
    fn negative_literals() {
        assert_eq!(t("-5"), int(-5));
        assert_eq!(t("1 - -2"), t("-(1, -2)"));
    }

    #[test]
    fn prefix_minus_on_var() {
        let term = t("- X");
        assert!(
            matches!(&term, Term::Struct(s, a) if tablog_term::sym_name(*s) == "-" && a.len() == 1)
        );
    }

    #[test]
    fn anonymous_vars_are_distinct() {
        let mut b = Bindings::new();
        let (term, names) = parse_term("f(_, _)", &mut b).unwrap();
        assert!(names.is_empty());
        assert_eq!(term.vars().len(), 2);
    }

    #[test]
    fn named_vars_are_shared() {
        let mut b = Bindings::new();
        let (term, names) = parse_term("f(X, X, Y)", &mut b).unwrap();
        assert_eq!(names.len(), 2);
        assert_eq!(term.vars().len(), 2);
    }

    #[test]
    fn table_directive() {
        let p = parse_program(":- table app/3, rev/2.\napp([],Y,Y).").unwrap();
        assert_eq!(p.tabled(), vec![("app".into(), 3), ("rev".into(), 2)]);
    }

    #[test]
    fn op_directive_takes_effect() {
        let p = parse_program(":- op(700, xfx, ===>).\nrule(a ===> b).").unwrap();
        let c = &p.clauses[0];
        assert_eq!(c.head.args()[0], t("'===>'(a, b)"));
    }

    #[test]
    fn strings_become_code_lists() {
        assert_eq!(t("\"ab\""), t("[97, 98]"));
    }

    #[test]
    fn parenthesized_comma_in_args() {
        let term = t("f((a, b), c)");
        assert_eq!(term.args().len(), 2);
    }

    #[test]
    fn clause_neck_is_split() {
        let p = parse_program("h(X) :- (a ; b), c.").unwrap();
        assert_eq!(p.clauses[0].body.len(), 2);
    }

    #[test]
    fn variant_across_parses() {
        let a = t("f(X, g(X, Y))");
        let b = t("f(P, g(P, Q))");
        assert!(is_variant(&a, &b));
    }

    #[test]
    fn error_on_missing_dot() {
        assert!(parse_program("f(a)").is_err());
    }

    #[test]
    fn error_on_unbalanced_paren() {
        let mut b = Bindings::new();
        assert!(parse_term("f(a", &mut b).is_err());
    }

    #[test]
    fn curly_braces() {
        assert_eq!(t("{}"), atom("{}"));
        let term = t("{a, b}");
        assert!(matches!(&term, Term::Struct(s, _) if tablog_term::sym_name(*s) == "{}"));
    }

    #[test]
    fn univ_and_is() {
        assert_eq!(t("X is Y + 1"), t("is(X, +(Y, 1))"));
        assert_eq!(t("T =.. L"), t("'=..'(T, L)"));
    }

    #[test]
    fn not_operator() {
        let term = t("\\+ p(X)");
        assert!(
            matches!(&term, Term::Struct(s, a) if tablog_term::sym_name(*s) == "\\+" && a.len() == 1)
        );
    }

    #[test]
    fn bar_as_disjunction_outside_list() {
        assert_eq!(t("(a | b)"), t("(a ; b)"));
    }

    #[test]
    fn deep_program_roundtrip_structure() {
        let src =
            "qs([],[]).\nqs([X|Xs],S) :- part(X,Xs,L,G), qs(L,SL), qs(G,SG), app(SL,[X|SG],S).";
        let p = parse_program(src).unwrap();
        assert_eq!(p.clauses[1].body.len(), 4);
        assert_eq!(p.clauses[1].nvars, 7);
    }
}
