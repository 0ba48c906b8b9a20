//! End-to-end tests of the `tablog` command-line tool.

use std::io::Write;
use std::process::Command;

fn tablog(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_tablog"))
        .args(args)
        .output()
        .expect("spawn tablog");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

fn temp_file(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("tablog-cli-tests");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).expect("create");
    f.write_all(contents.as_bytes()).expect("write");
    path
}

const GRAPH: &str = "
    :- table path/2.
    path(X, Y) :- path(X, Z), edge(Z, Y).
    path(X, Y) :- edge(X, Y).
    edge(a, b). edge(b, c).
";

#[test]
fn query_prints_solutions() {
    let f = temp_file("graph.pl", GRAPH);
    let (out, err, ok) = tablog(&["query", f.to_str().unwrap(), "path(a, X)"]);
    assert!(ok, "{err}");
    assert!(out.contains("X = b") && out.contains("X = c"), "{out}");
}

#[test]
fn query_failing_goal_says_no() {
    let f = temp_file("graph2.pl", GRAPH);
    let (out, _, ok) = tablog(&["query", f.to_str().unwrap(), "path(c, a)"]);
    assert!(ok);
    assert_eq!(out.trim(), "no");
}

#[test]
fn tables_dump_shows_subgoals() {
    let f = temp_file("graph3.pl", GRAPH);
    let (out, _, ok) = tablog(&["tables", f.to_str().unwrap(), "path(a, X)"]);
    assert!(ok);
    assert!(out.contains("path(a,A)"), "{out}");
    assert!(out.contains("answers"), "{out}");
}

#[test]
fn ground_reports_groundness() {
    let f = temp_file(
        "app.pl",
        "app([], Y, Y).\napp([X|Xs], Y, [X|Z]) :- app(Xs, Y, Z).",
    );
    let (out, err, ok) = tablog(&["ground", f.to_str().unwrap()]);
    assert!(ok, "{err}");
    assert!(out.contains("app/3"), "{out}");
}

#[test]
fn ground_with_entry_and_direct_agree_in_output_format() {
    let f = temp_file(
        "qs.pl",
        tablog_suite::logic_benchmark("qsort").unwrap().source,
    );
    let (out1, _, ok1) = tablog(&["ground", f.to_str().unwrap(), "--entry", "qsort(g, f)"]);
    let (out2, _, ok2) = tablog(&[
        "ground",
        f.to_str().unwrap(),
        "--entry",
        "qsort(g, f)",
        "--direct",
    ]);
    assert!(ok1 && ok2);
    assert!(out1.contains("qsort/2"), "{out1}");
    assert!(out2.contains("qsort/2"), "{out2}");
    // Both report quicksort's arguments as ground on success.
    assert!(out1.contains("ground=[true, true]"), "{out1}");
    assert!(out2.contains("ground=[true, true]"), "{out2}");
}

#[test]
fn depthk_prints_abstract_answers() {
    let f = temp_file("nat.pl", "nat(0).\nnat(s(X)) :- nat(X).");
    let (out, err, ok) = tablog(&["depthk", f.to_str().unwrap(), "--k", "1"]);
    assert!(ok, "{err}");
    assert!(out.contains("nat/1"), "{out}");
    assert!(out.contains("ground=[true]"), "{out}");
}

#[test]
fn strict_prints_summaries() {
    let f = temp_file(
        "ap.eq",
        "ap(nil, ys) = ys;\nap(x : xs, ys) = x : ap(xs, ys);",
    );
    let (out, err, ok) = tablog(&["strict", f.to_str().unwrap()]);
    assert!(ok, "{err}");
    assert!(out.contains("ap: e->ee d->dn"), "{out}");
}

#[test]
fn strict_analyzes_every_file_given() {
    let suite = |f: &str| {
        format!(
            "{}/crates/suite/programs/fun/{f}",
            env!("CARGO_MANIFEST_DIR")
        )
    };
    let (eu, event) = (suite("eu.eq"), suite("event.eq"));
    for jobs in ["1", "2"] {
        let (out, err, ok) = tablog(&["strict", &eu, &event, "--jobs", jobs]);
        assert!(ok, "{err}");
        let first = out.find(&format!("== {eu} ==")).expect(&out);
        let second = out.find(&format!("== {event} ==")).expect(&out);
        assert!(first < second, "{out}");
        assert_eq!(out.matches("total=").count(), 2, "{out}");
    }
}

#[test]
fn unknown_flags_are_rejected_with_the_usage() {
    let fig = repo_example("figure1.pl");
    for args in [
        vec!["query", fig.as_str(), "gp_ap(X,Y,Z)", "--threads", "4"],
        vec!["ground", fig.as_str(), "--threads", "4"],
    ] {
        let (out, err, ok) = tablog(&args);
        assert!(!ok, "{args:?} must fail: {out}");
        assert!(out.is_empty(), "{args:?} printed {out}");
        assert!(err.contains("unknown flag --threads"), "{err}");
        assert!(err.contains("usage: tablog"), "{err}");
    }
}

#[test]
fn explain_analysis_writes_the_trace() {
    let trace = std::env::temp_dir()
        .join("tablog-cli-tests")
        .join("explain_analysis.jsonl");
    std::fs::create_dir_all(trace.parent().unwrap()).expect("mkdir");
    let (out, err, ok) = tablog(&[
        "explain",
        &repo_example("figure1.pl"),
        "gp_ap(g,g,Z)",
        "--analysis",
        "ground",
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert!(ok, "{err}");
    assert!(out.contains("abstract: 'gp$gp_ap'("), "{out}");
    let events = std::fs::read_to_string(&trace).expect("trace written");
    let first = events.lines().next().expect("at least one event line");
    assert!(tablog_trace::json::parse(first).is_ok(), "{first}");
}

#[test]
fn modes_prints_signatures() {
    let f = temp_file(
        "qs2.pl",
        tablog_suite::logic_benchmark("qsort").unwrap().source,
    );
    let (out, err, ok) = tablog(&["modes", f.to_str().unwrap(), "--entry", "qsort(g, f)"]);
    assert!(ok, "{err}");
    assert!(out.contains("qsort(+, -)"), "{out}");
    assert!(out.contains("append(+, +, -)"), "{out}");
}

#[test]
fn modes_without_entry_is_an_error() {
    let f = temp_file("qs3.pl", "p(a).");
    let (_, err, ok) = tablog(&["modes", f.to_str().unwrap()]);
    assert!(!ok);
    assert!(err.contains("--entry"), "{err}");
}

#[test]
fn types_prints_schemes() {
    let f = temp_file(
        "typed.eq",
        "ap(nil, ys) = ys;\nap(x : xs, ys) = x : ap(xs, ys);\nlen(nil) = 0;\nlen(x : xs) = 1 + len(xs);",
    );
    let (out, err, ok) = tablog(&["types", f.to_str().unwrap()]);
    assert!(ok, "{err}");
    assert!(out.contains("ap : (list(A), list(A)) -> list(A)"), "{out}");
    assert!(out.contains("len : (list(A)) -> int"), "{out}");
}

#[test]
fn types_rejects_ill_typed_programs() {
    let f = temp_file("bad.eq", "f(x) = if x == 0 then 1 else nil;");
    let (_, err, ok) = tablog(&["types", f.to_str().unwrap()]);
    assert!(!ok);
    assert!(err.contains("type error"), "{err}");
}

#[test]
fn run_evaluates_functional_main() {
    let f = temp_file(
        "go.eq",
        "ap(nil, ys) = ys;\nap(x : xs, ys) = x : ap(xs, ys);\nmain = ap([1], [2, 3]);",
    );
    let (out, err, ok) = tablog(&["run", f.to_str().unwrap()]);
    assert!(ok, "{err}");
    assert_eq!(out.trim(), "[1,2,3]");
}

#[test]
fn missing_file_fails_cleanly() {
    let (_, err, ok) = tablog(&["query", "/nonexistent.pl", "x"]);
    assert!(!ok);
    assert!(err.contains("cannot read"), "{err}");
}

#[test]
fn unknown_command_fails_with_usage() {
    let (_, err, ok) = tablog(&["frobnicate"]);
    assert!(!ok);
    assert!(err.contains("usage"), "{err}");
}

fn repo_example(name: &str) -> String {
    format!("{}/examples/{}", env!("CARGO_MANIFEST_DIR"), name)
}

#[test]
fn stats_prints_per_predicate_table() {
    let (out, err, ok) = tablog(&["stats", &repo_example("figure1.pl"), "gp_ap(X, Y, Z)"]);
    assert!(ok, "{err}");
    assert!(out.contains("gp_ap/3"), "{out}");
    assert!(out.contains("subgoals"), "{out}");
    assert!(out.contains("total"), "{out}");
    assert!(out.contains("phases:"), "{out}");
}

#[test]
fn stats_json_is_valid_and_has_required_fields() {
    let (out, err, ok) = tablog(&[
        "stats",
        &repo_example("figure1.pl"),
        "gp_ap(X, Y, Z)",
        "--json",
    ]);
    assert!(ok, "{err}");
    let v = tablog_trace::json::parse(out.trim()).expect("stats --json emits valid JSON");
    let row = v
        .get("predicates")
        .and_then(|p| p.get("gp_ap/3"))
        .expect("per-predicate row for gp_ap/3");
    for field in [
        "subgoals",
        "answers",
        "duplicate_answers",
        "clause_resolutions",
        "table_bytes",
    ] {
        let n = row.get(field).and_then(|f| f.as_f64());
        assert!(n.is_some(), "missing {field} in {out}");
    }
    assert!(
        row.get("subgoals").unwrap().as_f64().unwrap() >= 1.0,
        "{out}"
    );
    assert!(
        row.get("table_bytes").unwrap().as_f64().unwrap() > 0.0,
        "{out}"
    );
    assert!(v.get("totals").is_some(), "{out}");
    assert!(
        v.get("phases_us").and_then(|p| p.get("evaluate")).is_some(),
        "{out}"
    );
}

#[test]
fn stats_json_embeds_engine_options() {
    let (out, err, ok) = tablog(&[
        "stats",
        &repo_example("figure1.pl"),
        "gp_ap(X, Y, Z)",
        "--json",
    ]);
    assert!(ok, "{err}");
    let v = tablog_trace::json::parse(out.trim()).expect("valid JSON");
    let opts = v.get("options").expect("options object in stats --json");
    for key in [
        "scheduling",
        "forward_subsumption",
        "call_abstraction",
        "answer_widening",
        "record_provenance",
    ] {
        assert!(
            opts.get(key).and_then(|o| o.as_str()).is_some(),
            "missing option {key} in {out}"
        );
    }
    assert_eq!(
        opts.get("record_provenance").unwrap().as_str(),
        Some("off"),
        "{out}"
    );
}

#[test]
fn explain_prints_justification_trees() {
    let (out, err, ok) = tablog(&["explain", &repo_example("figure1.pl"), "gp_ap(X, Y, Z)"]);
    assert!(ok, "{err}");
    assert!(out.contains("gp_ap("), "{out}");
    assert!(out.contains("via gp_ap/3#"), "{out}");
    assert!(out.contains("[builtin]") || out.contains("[fact]"), "{out}");
}

#[test]
fn explain_json_round_trips_through_trace_parser() {
    let (out, err, ok) = tablog(&[
        "explain",
        &repo_example("figure1.pl"),
        "gp_ap(X, Y, Z)",
        "--json",
    ]);
    assert!(ok, "{err}");
    let v = tablog_trace::json::parse(out.trim()).expect("explain --json is valid JSON");
    assert_eq!(v.get("goal").unwrap().as_str(), Some("gp_ap(X, Y, Z)"));
    let trees = v.get("justifications").unwrap().as_arr().unwrap();
    assert!(!trees.is_empty(), "{out}");
    for t in trees {
        assert!(t.get("status").and_then(|s| s.as_str()).is_some(), "{out}");
        assert!(t.get("clauses").and_then(|c| c.as_arr()).is_some(), "{out}");
    }
}

#[test]
fn explain_analysis_flag_routes_through_analyzer() {
    let f = temp_file(
        "app_explain.pl",
        "app([], Y, Y).\napp([X|Xs], Y, [X|Z]) :- app(Xs, Y, Z).",
    );
    let (out, err, ok) = tablog(&[
        "explain",
        f.to_str().unwrap(),
        "app(g, g, Z)",
        "--analysis",
        "ground",
    ]);
    assert!(ok, "{err}");
    assert!(out.contains("goal: app(g, g, Z)"), "{out}");
    assert!(out.contains("abstract: 'gp$app'("), "{out}");
    let (_, err2, ok2) = tablog(&[
        "explain",
        f.to_str().unwrap(),
        "app(g, g, Z)",
        "--analysis",
        "frobnicate",
    ]);
    assert!(!ok2);
    assert!(err2.contains("unknown --analysis"), "{err2}");
}

#[test]
fn forest_dot_flag_writes_dot_file() {
    let dot = std::env::temp_dir()
        .join("tablog-cli-tests")
        .join("figure1_forest.dot");
    std::fs::create_dir_all(dot.parent().unwrap()).expect("mkdir");
    let (out, err, ok) = tablog(&[
        "forest",
        &repo_example("figure1.pl"),
        "gp_ap(X, Y, Z)",
        "--dot",
        dot.to_str().unwrap(),
    ]);
    assert!(ok, "{err}");
    assert!(out.contains("wrote"), "{out}");
    let text = std::fs::read_to_string(&dot).expect("dot file written");
    assert!(text.starts_with("digraph forest {"), "{text}");
    assert!(text.contains("gp_ap("), "{text}");
}

#[test]
fn forest_json_parses_as_forest() {
    let (out, err, ok) = tablog(&[
        "forest",
        &repo_example("figure1.pl"),
        "gp_ap(X, Y, Z)",
        "--json",
    ]);
    assert!(ok, "{err}");
    let forest = tablog_trace::Forest::from_json(out.trim()).expect("forest JSON parses");
    assert!(!forest.subgoals.is_empty());
}

#[test]
fn profile_flag_appends_metrics_to_analyses() {
    let f = temp_file(
        "app_prof.pl",
        "app([], Y, Y).\napp([X|Xs], Y, [X|Z]) :- app(Xs, Y, Z).",
    );
    let (out, err, ok) = tablog(&["ground", f.to_str().unwrap(), "--profile"]);
    assert!(ok, "{err}");
    assert!(out.contains("gp$app/3"), "{out}");
    assert!(out.contains("phases:"), "{out}");
    // Without the flag there is no metrics table.
    let (plain, _, ok2) = tablog(&["ground", f.to_str().unwrap()]);
    assert!(ok2);
    assert!(!plain.contains("gp$app/3"), "{plain}");
}

#[test]
fn trace_flag_writes_json_lines() {
    let f = temp_file("graph_trace.pl", GRAPH);
    let trace = std::env::temp_dir()
        .join("tablog-cli-tests")
        .join("trace_out.jsonl");
    let (_, err, ok) = tablog(&[
        "query",
        f.to_str().unwrap(),
        "path(a, X)",
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert!(ok, "{err}");
    let text = std::fs::read_to_string(&trace).expect("trace file written");
    assert!(!text.is_empty());
    for line in text.lines() {
        tablog_trace::json::parse(line).expect("trace line is valid JSON");
    }
    assert!(text.contains("\"event\":\"new_subgoal\""), "{text}");
    assert!(text.contains("\"event\":\"answer_insert\""), "{text}");
}

#[test]
fn tables_top_reports_heap_attribution() {
    let f = temp_file("graph_top.pl", GRAPH);
    let (out, err, ok) = tablog(&["tables", f.to_str().unwrap(), "path(a, X)", "--top", "3"]);
    assert!(ok, "{err}");
    assert!(out.contains("attributed bytes"), "{out}");
    // GRAPH's left recursion makes only 2 tables, so --top 3 caps at 2.
    assert!(out.contains("top 2 by bytes"), "{out}");
    assert!(out.contains("top 2 by answers"), "{out}");
    assert!(out.contains("path(a,A)"), "{out}");
}

#[test]
fn tables_json_attribution_sums_to_total() {
    let f = temp_file("graph_tabjson.pl", GRAPH);
    let (out, err, ok) = tablog(&["tables", f.to_str().unwrap(), "path(a, X)", "--json"]);
    assert!(ok, "{err}");
    let v = tablog_trace::json::parse(out.trim()).expect("valid JSON");
    let total = v
        .get("total_bytes")
        .and_then(|t| t.as_f64())
        .expect("total_bytes");
    let tables = v
        .get("tables")
        .and_then(|t| t.as_arr())
        .expect("tables array");
    assert!(!tables.is_empty());
    let mut sum = 0.0;
    for row in tables {
        let part = |key: &str| row.get(key).and_then(|x| x.as_f64()).expect(key);
        // Attributed components sum per row and across the report.
        assert_eq!(
            part("bytes"),
            part("term_bytes") + part("entry_bytes") + part("prov_bytes"),
            "{out}"
        );
        sum += part("bytes");
    }
    assert_eq!(sum, total, "{out}");
}

#[test]
fn profile_reports_spans_and_sccs() {
    let f = temp_file("graph_prof.pl", GRAPH);
    let (out, err, ok) = tablog(&["profile", f.to_str().unwrap(), "path(a, X)"]);
    assert!(ok, "{err}");
    assert!(out.contains("spans:"), "{out}");
    assert!(out.contains("evaluate"), "{out}");
    assert!(out.contains("dispatch"), "{out}");
    assert!(out.contains("by scc:"), "{out}");
    assert!(out.contains("path/2"), "{out}");
}

#[test]
fn profile_json_embeds_span_tree_and_sccs() {
    let f = temp_file("graph_profjson.pl", GRAPH);
    let (out, err, ok) = tablog(&["profile", f.to_str().unwrap(), "path(a, X)", "--json"]);
    assert!(ok, "{err}");
    let v = tablog_trace::json::parse(out.trim()).expect("valid JSON");
    let spans = v.get("spans").expect("spans object");
    assert!(
        spans.get("count").and_then(|c| c.as_f64()).unwrap_or(0.0) > 0.0,
        "{out}"
    );
    assert!(
        spans
            .get("by_name")
            .and_then(|n| n.get("evaluate"))
            .is_some(),
        "{out}"
    );
    let sccs = v.get("sccs").and_then(|s| s.as_arr()).expect("sccs array");
    assert!(
        sccs.iter().any(|s| {
            s.get("scc")
                .and_then(|l| l.as_str())
                .is_some_and(|l| l.contains("path/2"))
        }),
        "{out}"
    );
    let engine = v.get("engine").expect("engine snapshot");
    assert!(
        engine.get("steps").and_then(|s| s.as_f64()).unwrap_or(0.0) > 0.0,
        "{out}"
    );
}

#[test]
fn profile_folded_writes_collapsed_stacks() {
    let f = temp_file("graph_folded.pl", GRAPH);
    let folded = std::env::temp_dir()
        .join("tablog-cli-tests")
        .join("profile_out.folded");
    let (_, err, ok) = tablog(&[
        "profile",
        f.to_str().unwrap(),
        "path(a, X)",
        "--folded",
        folded.to_str().unwrap(),
    ]);
    assert!(ok, "{err}");
    let text = std::fs::read_to_string(&folded).expect("folded file written");
    assert!(!text.is_empty());
    for line in text.lines() {
        // `frame;frame;… count` — count is a bare integer, frames nonempty.
        let (stack, count) = line.rsplit_once(' ').expect("stack and count");
        assert!(count.parse::<u64>().is_ok(), "bad count in {line:?}");
        assert!(
            stack.split(';').all(|fr| !fr.is_empty()),
            "bad stack in {line:?}"
        );
    }
    assert!(text.lines().any(|l| l.starts_with("evaluate")), "{text}");
    assert!(text.contains("dispatch:path/2"), "{text}");
}

#[test]
fn stats_json_embeds_engine_counters() {
    let (out, err, ok) = tablog(&[
        "stats",
        &repo_example("figure1.pl"),
        "gp_ap(X, Y, Z)",
        "--json",
    ]);
    assert!(ok, "{err}");
    let v = tablog_trace::json::parse(out.trim()).expect("valid JSON");
    let engine = v.get("engine").expect("engine object in stats --json");
    assert_eq!(
        engine.get("scheduler").and_then(|s| s.as_str()),
        Some("depth_first"),
        "{out}"
    );
    for key in [
        "steps",
        "clause_resolutions",
        "subgoals",
        "answers",
        "table_bytes",
    ] {
        assert!(
            engine.get(key).and_then(|x| x.as_f64()).unwrap_or(-1.0) >= 0.0,
            "missing engine counter {key} in {out}"
        );
    }
    assert!(
        engine.get("steps").and_then(|x| x.as_f64()).unwrap() > 0.0,
        "{out}"
    );
}

#[test]
fn timeline_emits_valid_chrome_trace_on_stdout() {
    let (out, err, ok) = tablog(&[
        "timeline",
        &repo_example("figure1.pl"),
        "gp_ap(X, Y, Z)",
        "--counters",
    ]);
    assert!(ok, "{err}");
    let v = tablog_trace::json::parse(out.trim()).expect("timeline emits valid JSON");
    assert_eq!(
        v.get("displayTimeUnit").and_then(|u| u.as_str()),
        Some("ms"),
        "{out}"
    );
    let events = v
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("traceEvents array");
    let phase = |e: &tablog_trace::json::JsonValue| {
        e.get("ph")
            .and_then(|p| p.as_str())
            .unwrap_or("")
            .to_owned()
    };
    assert!(events.iter().any(|e| phase(e) == "B"), "no span events");
    // All four counter tracks appear when --counters is on.
    for want in tablog_trace::CHROME_COUNTER_TRACKS {
        assert!(
            events.iter().any(|e| {
                phase(e) == "C" && e.get("name").and_then(|n| n.as_str()) == Some(want)
            }),
            "missing counter track {want}"
        );
    }
}

#[test]
fn timeline_without_counters_has_spans_but_no_counter_events() {
    let f = temp_file("graph_timeline.pl", GRAPH);
    let (out, err, ok) = tablog(&["timeline", f.to_str().unwrap(), "path(a, X)"]);
    assert!(ok, "{err}");
    let v = tablog_trace::json::parse(out.trim()).expect("valid JSON");
    let events = v
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("traceEvents array");
    let phase = |e: &tablog_trace::json::JsonValue| {
        e.get("ph")
            .and_then(|p| p.as_str())
            .unwrap_or("")
            .to_owned()
    };
    assert!(events.iter().any(|e| phase(e) == "B"), "{out}");
    assert!(!events.iter().any(|e| phase(e) == "C"), "{out}");
}

#[test]
fn timeline_out_flag_writes_trace_file() {
    let trace = std::env::temp_dir()
        .join("tablog-cli-tests")
        .join("figure1.trace.json");
    std::fs::create_dir_all(trace.parent().unwrap()).expect("mkdir");
    let (out, err, ok) = tablog(&[
        "timeline",
        &repo_example("figure1.pl"),
        "gp_ap(X, Y, Z)",
        "--counters",
        "--out",
        trace.to_str().unwrap(),
    ]);
    assert!(ok, "{err}");
    assert!(out.is_empty(), "--out keeps stdout clean: {out}");
    assert!(err.contains("wrote"), "{err}");
    assert!(err.contains("counter samples"), "{err}");
    let text = std::fs::read_to_string(&trace).expect("trace file written");
    tablog_trace::json::parse(&text).expect("written trace is valid JSON");
}

#[test]
fn tables_top_rejects_zero_and_non_numeric_values() {
    let f = temp_file("graph_badtop.pl", GRAPH);
    let (_, err, ok) = tablog(&["tables", f.to_str().unwrap(), "path(a, X)", "--top", "0"]);
    assert!(!ok, "--top 0 must be rejected");
    assert!(err.contains("bad --top value 0"), "{err}");
    assert!(err.contains("at least 1"), "{err}");
    let (_, err2, ok2) = tablog(&["tables", f.to_str().unwrap(), "path(a, X)", "--top", "abc"]);
    assert!(!ok2, "--top abc must be rejected");
    assert!(err2.contains("bad --top value abc"), "{err2}");
    assert!(err2.contains("positive integer"), "{err2}");
}

#[test]
fn trace_file_is_parseable_when_evaluation_dies_early() {
    // The goal body hits an undefined predicate mid-evaluation, so the
    // engine aborts with an error after some events have already been
    // buffered. The JSONL sink must still flush everything written up to
    // the abort, leaving a parseable (if truncated) trace behind.
    let f = temp_file(
        "aborting.pl",
        ":- table path/2.\n\
         path(X, Y) :- edge(X, Y).\n\
         path(X, Y) :- edge(X, Z), path(Z, Y).\n\
         edge(a, b). edge(b, c).\n\
         bad(X) :- path(a, X), nosuch(X).\n",
    );
    let trace = std::env::temp_dir()
        .join("tablog-cli-tests")
        .join("trace_killed.jsonl");
    let (_, err, ok) = tablog(&[
        "query",
        f.to_str().unwrap(),
        "bad(Q)",
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert!(!ok, "undefined predicate should be reported: {err}");
    assert!(err.contains("unknown predicate"), "{err}");
    let text = std::fs::read_to_string(&trace).expect("trace file written");
    assert!(!text.is_empty(), "events before the abort must be flushed");
    for line in text.lines() {
        tablog_trace::json::parse(line).expect("trace line is valid JSON");
    }
    assert!(text.contains("\"event\":\"new_subgoal\""), "{text}");
}

const NUMBERS: &str = ":- table num/1.\nnum(z).\nnum(s(X)) :- num(X).";

#[test]
fn watch_step_budget_reports_partial_answers_with_exit_zero() {
    let f = temp_file("watch_nums.pl", NUMBERS);
    let (out, err, ok) = tablog(&["watch", f.to_str().unwrap(), "num(N)", "--max-steps", "200"]);
    assert!(ok, "a tripped budget is graceful, not a failure: {err}");
    assert!(out.contains("N = z"), "partial answers printed: {out}");
    assert!(out.contains("truncated: step budget of 200"), "{out}");
    assert!(out.contains("sound partial result"), "{out}");
    // The live view streamed at least the final snapshot to stderr.
    assert!(err.contains("watch:"), "{err}");
}

#[test]
fn watch_json_round_trips_truncation_per_budget_kind() {
    let f = temp_file("watch_json.pl", NUMBERS);
    for (flag, value, reason) in [
        ("--max-steps", "200", "steps"),
        ("--deadline", "100", "deadline"),
        ("--max-table-bytes", "2048", "table_bytes"),
    ] {
        let (out, err, ok) = tablog(&[
            "watch",
            f.to_str().unwrap(),
            "num(N)",
            flag,
            value,
            "--json",
        ]);
        assert!(ok, "{flag}: {err}");
        let v = tablog_trace::json::parse(out.trim())
            .unwrap_or_else(|e| panic!("{flag}: bad JSON {e}: {out}"));
        assert_eq!(
            v.get("complete").cloned(),
            Some(tablog_trace::json::JsonValue::Bool(false)),
            "{flag}: {out}"
        );
        let count = v.get("count").and_then(|c| c.as_f64()).expect("count");
        assert!(count > 0.0, "{flag}: partial answers in {out}");
        let answers = v.get("answers").and_then(|a| a.as_arr()).expect("answers");
        assert_eq!(answers.len() as f64, count, "{flag}: {out}");
        let t = v.get("truncation").expect("truncation object");
        assert_eq!(
            t.get("reason").and_then(|r| r.as_str()),
            Some(reason),
            "{flag}: {out}"
        );
        assert_eq!(
            t.get("limit").and_then(|l| l.as_f64()),
            Some(value.parse::<f64>().unwrap()),
            "{flag}: {out}"
        );
        let snap = t.get("snapshot").expect("truncation snapshot");
        assert!(
            snap.get("steps").and_then(|s| s.as_f64()).unwrap_or(0.0) > 0.0,
            "{flag}: {out}"
        );
        // The health block mirrors the final snapshot.
        let health = v.get("health").expect("health object");
        assert!(
            health.get("table_bytes").and_then(|b| b.as_f64()).is_some(),
            "{flag}: {out}"
        );
    }
}

#[test]
fn watch_completed_run_reports_complete() {
    let f = temp_file("watch_done.pl", GRAPH);
    let (out, err, ok) = tablog(&[
        "watch",
        f.to_str().unwrap(),
        "path(a, X)",
        "--max-steps",
        "100000",
        "--json",
    ]);
    assert!(ok, "{err}");
    let v = tablog_trace::json::parse(out.trim()).expect("valid JSON");
    assert_eq!(
        v.get("complete").cloned(),
        Some(tablog_trace::json::JsonValue::Bool(true)),
        "{out}"
    );
    assert_eq!(
        v.get("truncation").cloned(),
        Some(tablog_trace::json::JsonValue::Null),
        "{out}"
    );
    assert_eq!(v.get("count").and_then(|c| c.as_f64()), Some(2.0), "{out}");
}

#[test]
fn watch_metrics_flag_writes_valid_openmetrics() {
    let f = temp_file("watch_metrics.pl", NUMBERS);
    let prom = std::env::temp_dir()
        .join("tablog-cli-tests")
        .join("watch.prom");
    let (_, err, ok) = tablog(&[
        "watch",
        f.to_str().unwrap(),
        "num(N)",
        "--max-steps",
        "500",
        "--interval",
        "1",
        "--metrics",
        prom.to_str().unwrap(),
    ]);
    assert!(ok, "{err}");
    assert!(err.contains("wrote"), "{err}");
    let text = std::fs::read_to_string(&prom).expect("metrics file written");
    tablog_trace::validate_openmetrics(&text)
        .unwrap_or_else(|e| panic!("invalid OpenMetrics: {e}\n{text}"));
    assert!(text.contains("tablog_steps_total"), "{text}");
    assert!(text.ends_with("# EOF\n"), "{text}");
}

#[test]
fn unwritable_output_paths_fail_naming_the_path() {
    let f = temp_file("unwritable.pl", GRAPH);
    let file = f.to_str().unwrap();
    let bad = "/nonexistent-dir/tablog-out";
    for args in [
        vec![
            "watch",
            file,
            "path(a, X)",
            "--max-steps",
            "50",
            "--metrics",
            bad,
        ],
        vec!["timeline", file, "path(a, X)", "--out", bad],
        vec!["profile", file, "path(a, X)", "--folded", bad],
        vec!["forest", file, "path(a, X)", "--dot", bad],
        vec!["query", file, "path(a, X)", "--trace", bad],
    ] {
        let (_, err, ok) = tablog(&args);
        assert!(!ok, "{args:?} must fail");
        assert!(err.contains("cannot write"), "{args:?}: {err}");
        assert!(err.contains(bad), "{args:?} must name the path: {err}");
    }
}

#[test]
fn progress_flag_is_silent_when_stderr_is_not_a_tty() {
    let f = temp_file("progress.pl", GRAPH);
    let (plain, _, ok1) = tablog(&["query", f.to_str().unwrap(), "path(a, X)"]);
    let (with_flag, err, ok2) = tablog(&["query", f.to_str().unwrap(), "path(a, X)", "--progress"]);
    assert!(ok1 && ok2, "{err}");
    assert_eq!(plain, with_flag, "--progress must not change stdout");
    assert!(
        err.is_empty(),
        "--progress writes nothing when stderr is piped: {err:?}"
    );
}

// ---- scheduler CLI surface ----------------------------------------------

#[test]
fn scheduler_rejects_unknown_strategy_naming_all_values() {
    let f = temp_file("graph_badsched.pl", GRAPH);
    let (_, err, ok) = tablog(&[
        "query",
        f.to_str().unwrap(),
        "path(a, X)",
        "--scheduler",
        "local",
    ]);
    assert!(!ok, "an unknown scheduler must be rejected");
    for name in ["depth_first", "breadth_first", "batched"] {
        assert!(err.contains(name), "error must list {name}: {err}");
    }
}

#[test]
fn scheduler_parallel_is_rejected_as_an_unknown_strategy() {
    let f = temp_file("graph_parsched.pl", GRAPH);
    let out = Command::new(env!("CARGO_BIN_EXE_tablog"))
        .args([
            "query",
            f.to_str().unwrap(),
            "path(a, X)",
            "--scheduler",
            "parallel",
        ])
        .output()
        .expect("spawn tablog");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(
        err.contains("unknown scheduling strategy `parallel`"),
        "{err}"
    );
    assert!(
        err.contains("expected depth_first, breadth_first, or batched"),
        "{err}"
    );
}

#[test]
fn help_lists_every_scheduler_value_and_threads_flag() {
    let (out, _, ok) = tablog(&["help"]);
    assert!(ok);
    for name in ["depth-first", "breadth-first", "batched"] {
        assert!(out.contains(name), "help must list {name}: {out}");
    }
    // One sequential engine: no parallel strategy and no --threads flag.
    assert!(!out.contains("parallel"), "{out}");
    assert!(!out.contains("--threads"), "{out}");
}

#[test]
fn cyclic_binding_is_a_typed_error_not_an_abort() {
    let file = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/cyclic.pl");
    for goal in ["p(Y)", "r(Y)"] {
        let out = Command::new(env!("CARGO_BIN_EXE_tablog"))
            .args(["query", file, goal])
            .output()
            .expect("spawn tablog");
        let err = String::from_utf8_lossy(&out.stderr);
        // Exit code 1 is the CLI's error path; a stack-overflow abort
        // would end the process by a signal instead.
        assert_eq!(out.status.code(), Some(1), "{goal}: {err}");
        assert!(
            err.contains("cyclic term: solving A=f(A)"),
            "{goal}: the error names the goal: {err}"
        );
    }
}

#[test]
fn direct_rejects_wide_predicates_under_both_backends() {
    let vars: Vec<String> = (0..27).map(|i| format!("X{i}")).collect();
    let f = temp_file(
        "wide.pl",
        &format!("p({}) :- q(X0).\nq(a).\n", vars.join(",")),
    );
    for domain in ["table", "bdd"] {
        let out = Command::new(env!("CARGO_BIN_EXE_tablog"))
            .args([
                "ground",
                f.to_str().unwrap(),
                "--direct",
                "--domain",
                domain,
            ])
            .output()
            .expect("spawn tablog");
        let err = String::from_utf8_lossy(&out.stderr);
        // Exit code 1 is the CLI's error path; a panic exits with 101.
        assert_eq!(out.status.code(), Some(1), "{domain}: {err}");
        assert!(
            err.contains("unsupported: predicate p/27 needs more than 26 Prop variables"),
            "{domain}: {err}"
        );
    }
}

#[test]
fn tabled_ground_rejects_wide_predicates_under_both_backends() {
    let file = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/wide.pl");
    let entry = format!("p({})", vec!["f"; 27].join(","));
    for domain in ["table", "bdd"] {
        for extra in [&[][..], &["--entry", entry.as_str()][..]] {
            let start = std::time::Instant::now();
            let out = Command::new(env!("CARGO_BIN_EXE_tablog"))
                .args(["ground", file, "--domain", domain])
                .args(extra)
                .output()
                .expect("spawn tablog");
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{domain} {extra:?}: {err}");
            assert!(
                err.contains("unsupported: predicate p/27 needs more than 26 Prop variables"),
                "{domain} {extra:?}: {err}"
            );
            assert!(
                start.elapsed() < std::time::Duration::from_secs(5),
                "{domain} {extra:?}: took {:?}",
                start.elapsed()
            );
        }
    }
}
