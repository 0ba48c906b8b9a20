//! Engine errors.

use crate::budget::TruncationReason;
use std::fmt;
use tablog_term::Functor;

/// An error raised during loading or evaluation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EngineError {
    /// A goal's predicate has no clauses and no builtin definition, and the
    /// engine is configured to treat unknown predicates as errors.
    UnknownPredicate(Functor),
    /// A goal was an unbound variable or a number at call position.
    BadGoal(String),
    /// Arithmetic evaluation failed (unbound variable, bad operand, or
    /// division by zero).
    Arith(String),
    /// A builtin was called with arguments it cannot handle.
    BadArgs(&'static str, String),
    /// A resource budget cut the evaluation short *and* the caller needs
    /// complete tables. The engine itself never raises this — budget trips
    /// return a truncated [`crate::Evaluation`] with partial answers; this
    /// variant is minted by [`crate::Evaluation::require_complete`] for
    /// callers (the analyzers) whose results are only sound over the full
    /// fixpoint.
    Truncated(TruncationReason),
    /// The source text could not be parsed.
    Parse(String),
    /// Solving the named goal bound a variable to a term containing it
    /// (unification without occur check), so the resolvent has no finite
    /// form. Evaluation stops here instead of overflowing the stack.
    CyclicTerm(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownPredicate(p) => write!(f, "unknown predicate {p}"),
            EngineError::BadGoal(g) => write!(f, "malformed goal: {g}"),
            EngineError::Arith(m) => write!(f, "arithmetic error: {m}"),
            EngineError::BadArgs(b, m) => write!(f, "{b}: bad arguments: {m}"),
            EngineError::Truncated(r) => write!(f, "evaluation truncated: {r}"),
            EngineError::Parse(m) => write!(f, "parse error: {m}"),
            EngineError::CyclicTerm(g) => write!(
                f,
                "cyclic term: solving {g} bound a variable to a term containing it \
                 (set occur_check to make such a unification fail)"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<tablog_syntax::ParseError> for EngineError {
    fn from(e: tablog_syntax::ParseError) -> Self {
        EngineError::Parse(e.to_string())
    }
}
