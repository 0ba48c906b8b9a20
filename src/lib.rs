//! `tablog` — practical program analysis using a general-purpose tabled
//! logic programming system.
//!
//! This is the umbrella crate of the PLDI'96 reproduction (Dawson,
//! Ramakrishnan & Warren); it re-exports the workspace crates under one
//! roof and hosts the `tablog` command-line binary, the runnable examples,
//! and the cross-crate integration/property test suites. See the
//! repository `README.md` for a tour and `DESIGN.md` for the
//! paper-to-code map.
//!
//! ```
//! use tablog::engine::Engine;
//!
//! let e = Engine::from_source(
//!     ":- table r/2.
//!      r(X, Y) :- r(X, Z), e(Z, Y).
//!      r(X, Y) :- e(X, Y).
//!      e(1, 2). e(2, 1).",
//! )?;
//! assert_eq!(e.solve("r(1, W)")?.len(), 2);
//! # Ok::<(), tablog::engine::EngineError>(())
//! ```

/// Terms, unification, variant canonicalization.
pub use tablog_term as term;

/// Prolog reader and writer.
pub use tablog_syntax as syntax;

/// The tabled (SLG/OLDT) evaluation engine.
pub use tablog_engine as engine;

/// Magic-sets transformation and bottom-up evaluation.
pub use tablog_magic as magic;

/// Reduced ordered binary decision diagrams.
pub use tablog_bdd as bdd;

/// The mini lazy functional language.
pub use tablog_funlang as funlang;

/// Engine observability: trace events, sinks, per-predicate metrics.
pub use tablog_trace as trace;

/// The analyses: groundness, strictness, depth-k, modes, types.
pub use tablog_core as core;

/// The benchmark programs of the paper's evaluation.
pub use tablog_suite as suite;

/// The README's code examples, compiled and run as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
