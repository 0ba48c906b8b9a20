//! Analyzer-level answer provenance: justification trees for analysis
//! results.
//!
//! Each engine-backed analysis's [`Analysis::explain`](crate::Analysis::explain)
//! rebuilds its abstract program, maps the source-level goal onto the
//! abstract predicate space (`gp$p`, `ak$p`, `sp$f` — names a user would
//! have to quote to write directly, so the goal term is constructed rather
//! than re-parsed), and evaluates it with provenance recording forced on.
//! The result pairs the source goal with the abstract goal actually queried
//! and the engine's [`Explanation`]: one justification tree per matching
//! table answer, whose leaves are program facts or builtin-supported
//! clauses of the abstract program.

use crate::analysis::Explained;
use tablog_engine::Explanation;
use tablog_trace::json::escape;

/// An explanation of one analysis result: the source-level goal, the
/// abstract-program goal it was mapped to, and the justification trees of
/// every matching abstract answer.
#[derive(Clone, Debug)]
pub struct AnalysisExplanation {
    /// The goal as the user wrote it (source-level predicate names).
    pub goal: String,
    /// The abstract goal actually queried (`gp$p(…)`, `ak$p(…)`, …).
    pub abstract_goal: String,
    /// The engine's justification trees for the abstract goal.
    pub explanation: Explanation,
}

impl AnalysisExplanation {
    /// `true` if the abstract goal had no matching answers.
    pub fn is_empty(&self) -> bool {
        self.explanation.is_empty()
    }
}

impl Explained for AnalysisExplanation {
    /// Renders a header (source goal, abstract goal) followed by the
    /// justification trees.
    fn render_text(&self) -> String {
        format!(
            "goal: {}\nabstract: {}\n{}",
            self.goal,
            self.abstract_goal,
            self.explanation.render_text()
        )
    }

    /// Renders the explanation as one JSON object
    /// (`{"goal": …, "abstract_goal": …, "explanation": {…}}`).
    fn to_json(&self) -> String {
        format!(
            "{{\"goal\":\"{}\",\"abstract_goal\":\"{}\",\"explanation\":{}}}",
            escape(&self.goal),
            escape(&self.abstract_goal),
            self.explanation.to_json()
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::analysis::{Analysis, Explained};
    use crate::depthk::DepthKAnalyzer;
    use crate::groundness::GroundnessAnalyzer;
    use crate::strictness::StrictnessAnalyzer;
    use tablog_engine::JustStatus;
    use tablog_syntax::parse_program;

    const APPEND: &str = "
        app([], Ys, Ys).
        app([X|Xs], Ys, [X|Zs]) :- app(Xs, Ys, Zs).
    ";

    #[test]
    fn groundness_explains_ground_answer() {
        let program = parse_program(APPEND).unwrap();
        let ex = GroundnessAnalyzer::new()
            .explain(&program, "app(g, g, Z)", 32)
            .unwrap();
        assert_eq!(ex.goal, "app(g, g, Z)");
        assert!(ex.abstract_goal.starts_with("'gp$app'("));
        assert!(!ex.is_empty());
        for t in &ex.explanation.trees {
            assert!(t.answer.starts_with("'gp$app'("));
            t.walk(&mut |n| {
                if n.children.is_empty() {
                    assert!(
                        n.status.is_grounded_leaf() || n.status == JustStatus::Cycle,
                        "leaf {} has status {:?}",
                        n.answer,
                        n.status
                    );
                }
            });
        }
    }

    #[test]
    fn groundness_rejects_bad_goal_argument() {
        let program = parse_program(APPEND).unwrap();
        let e = GroundnessAnalyzer::new().explain(&program, "app(g, q, Z)", 32);
        assert!(e.is_err());
    }

    #[test]
    fn depthk_explains_truncated_answers() {
        let src = "
            nat(0).
            nat(s(X)) :- nat(X).
        ";
        let program = parse_program(src).unwrap();
        let ex = DepthKAnalyzer::new(2)
            .explain(&program, "nat(X)", 32)
            .unwrap();
        assert!(ex.abstract_goal.starts_with("'ak$nat'("));
        assert!(!ex.is_empty());
        // The recursive case consumes a table answer: some tree is Derived.
        assert!(ex
            .explanation
            .trees
            .iter()
            .any(|t| t.status == JustStatus::Derived));
    }

    #[test]
    fn strictness_explains_demand_propagation() {
        let src = "
            ap(nil, ys) = ys;
            ap(x : xs, ys) = x : ap(xs, ys);
        ";
        let prog = tablog_funlang::parse_fun_program(src).unwrap();
        let ex = StrictnessAnalyzer::new()
            .explain(&prog, "ap(e)", 32)
            .unwrap();
        assert!(ex.abstract_goal.starts_with("'sp$ap'(e,"));
        assert!(!ex.is_empty());
        // Figure 4: under e-demand the only answer is (e, e).
        assert_eq!(ex.explanation.trees.len(), 1);
    }

    #[test]
    fn strictness_rejects_unknown_function_and_bad_demand() {
        let src = "k(x, y) = x;";
        let prog = tablog_funlang::parse_fun_program(src).unwrap();
        let an = StrictnessAnalyzer::new();
        assert!(an.explain(&prog, "missing(e)", 32).is_err());
        assert!(an.explain(&prog, "k(q)", 32).is_err());
    }

    #[test]
    fn explanation_json_embeds_engine_explanation() {
        let program = parse_program(APPEND).unwrap();
        let ex = GroundnessAnalyzer::new()
            .explain(&program, "app(g, g, Z)", 32)
            .unwrap();
        let doc = tablog_trace::json::parse(&ex.to_json()).unwrap();
        assert_eq!(doc.get("goal").unwrap().as_str(), Some("app(g, g, Z)"));
        assert!(doc
            .get("explanation")
            .unwrap()
            .get("justifications")
            .unwrap()
            .as_arr()
            .is_some());
    }
}
