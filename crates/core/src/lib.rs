//! Declarative program analyses on a general-purpose tabled logic engine —
//! the core of the PLDI'96 reproduction.
//!
//! Dawson, Ramakrishnan & Warren's case study demonstrates that program
//! analyses *formulated as logic programs* become practical when evaluated
//! on a complete tabled engine (XSB). This crate implements their three
//! analyses over [`tablog_engine`]:
//!
//! * [`groundness`] — Prop-domain groundness analysis of logic programs
//!   (the paper's Figure 1 transformation, Tables 1, 2 and 4): a source
//!   program `P` is transformed into an abstract program `P♯` whose minimal
//!   model is the groundness behaviour of `P`, with boolean formulae
//!   represented enumeratively by their truth tables.
//! * [`strictness`] — demand-propagation strictness analysis of lazy
//!   functional programs (Figure 3, Table 3), over the demand constants
//!   `e` (normal form), `d` (head normal form) and `n` (no demand — an
//!   unbound variable in answers).
//! * [`depthk`] — the non-enumerative depth-k term abstraction of Section 5
//!   (Table 4), built on the engine's call-abstraction and answer-widening
//!   hooks with meta-level abstract unification.
//!
//! Two comparison systems accompany them:
//!
//! * [`direct`] — a hand-coded, special-purpose Prop groundness analyzer
//!   (goal-directed fixpoint over bitset truth tables), standing in for
//!   GAIA in the paper's Table 2 comparison.
//! * the magic-sets bottom-up route (crate `tablog-magic`), standing in for
//!   Coral (Section 7).
//!
//! One driver runs all four: each implements [`Analysis`] (parse, build
//! `P♯`, collect) and [`run`] does the rest — the fixpoint, the
//! preprocess / analysis / collection timing the paper's tables report
//! ([`pipeline`]), the phase spans and the metrics report. [`lookup`]
//! picks an analysis by name. [`prop`] holds the truth tables.
//!
//! # Example: groundness of `append`
//!
//! ```
//! use tablog_core::groundness::GroundnessAnalyzer;
//!
//! let src = "app([], Ys, Ys).
//!            app([X|Xs], Ys, [X|Zs]) :- app(Xs, Ys, Zs).";
//! let report = GroundnessAnalyzer::new().analyze_source(src)?;
//! let g = report.output_groundness("app", 3).unwrap();
//! // append's output groundness is the formula (X ∧ Y) ⇔ Z:
//! // no argument is ground in every answer…
//! assert_eq!(g.definitely_ground, vec![false, false, false]);
//! // …but the success set is exactly the 4 rows of the truth table.
//! assert_eq!(g.success_rows.len(), 4);
//! # Ok::<(), tablog_core::AnalysisError>(())
//! ```

pub mod analysis;
pub mod depthk;
pub mod direct;
pub mod explain;
pub mod groundness;
pub mod modes;
pub mod parallel;
pub mod pipeline;
pub mod prop;
pub mod strictness;
pub mod types;

mod error;

pub use analysis::{
    lookup, run, Analysis, Explained, Input, Named, Outcome, Run, Solve, Tabled, NAMES,
};
pub use error::AnalysisError;
pub use explain::AnalysisExplanation;
pub use parallel::analyze_many;
pub use pipeline::{PhaseTimings, Timer};
