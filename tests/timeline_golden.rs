//! Golden-file and determinism tests for the Chrome-trace timeline export,
//! pinned on the paper's Figure 1 example (`examples/figure1.pl`, the
//! Prop-abstracted append) under the default depth-first scheduler — the
//! same program and goal the `tablog timeline` CI artifact uses.
//!
//! Timestamps vary run to run, so the golden file freezes the export's
//! *structural projection*: every event's phase, name, predicate
//! attribution, and counter values, in emission order, with `ts` stripped.
//! Spans nest deterministically and the counter series is exact (worklist
//! depths, table counts, answer counts, table bytes), so any change to the
//! instrumentation points, the sampling cadence, or the exporter's frame
//! layout shows up as a diff here. Bless an intentional change with
//! `UPDATE_GOLDEN=1 cargo test --test timeline_golden`.

use std::path::PathBuf;
use std::sync::Arc;
use tablog_engine::{Engine, EngineOptions, LoadMode, MetricsRegistry};
use tablog_trace::json::{parse, JsonValue};
use tablog_trace::{chrome_trace, CHROME_COUNTER_TRACKS};

const GOAL: &str = "gp_ap(X, Y, Z)";

fn figure1_source() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/figure1.pl");
    std::fs::read_to_string(path).expect("examples/figure1.pl exists")
}

/// Runs Figure 1 with spans and counters recording and exports the
/// Chrome-trace document, exactly as `tablog timeline --counters` does.
fn figure1_trace() -> String {
    let registry = Arc::new(MetricsRegistry::new());
    let opts = EngineOptions {
        trace: Some(registry.clone() as Arc<dyn tablog_trace::TraceSink>),
        record_spans: true,
        record_counters: true,
        ..Default::default()
    };
    let engine = Engine::from_source_with(&figure1_source(), LoadMode::Dynamic, opts)
        .expect("figure 1 loads");
    let mut b = tablog_term::Bindings::new();
    let (g, _) = tablog_syntax::parse_term(GOAL, &mut b).expect("goal parses");
    engine.evaluate(&[g], &[], &b).expect("figure 1 evaluates");
    chrome_trace(&registry.spans().snapshot(), &registry.counters().samples())
}

/// The timestamp-free projection of a trace document: one line per event
/// in emission order, carrying everything deterministic (phase, name,
/// predicate attribution, counter values).
fn fingerprint(doc: &str) -> String {
    let v = parse(doc).expect("chrome trace parses");
    let events = v
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .expect("traceEvents array");
    let mut out = String::new();
    for e in events {
        let str_of = |key: &str| e.get(key).and_then(JsonValue::as_str).map(str::to_owned);
        let ph = str_of("ph").expect("every event has ph");
        let name = str_of("name").expect("every event has name");
        out.push_str(&format!("{ph} {name}"));
        if let Some(args) = e.get("args") {
            for key in ["pred", "value", "expands", "returns"] {
                if let Some(val) = args.get(key) {
                    match (val.as_str(), val.as_f64()) {
                        (Some(s), _) => out.push_str(&format!(" {key}={s}")),
                        (None, Some(n)) => out.push_str(&format!(" {key}={n}")),
                        _ => {}
                    }
                }
            }
        }
        out.push('\n');
    }
    out
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/figure1_timeline.txt")
}

#[test]
fn figure1_timeline_structure_matches_golden_file() {
    let got = fingerprint(&figure1_trace());
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want =
        std::fs::read_to_string(&path).expect("golden file exists (UPDATE_GOLDEN=1 to create)");
    assert_eq!(
        got, want,
        "timeline structure drifted from the golden file; \
         re-bless with UPDATE_GOLDEN=1 if the change is intentional"
    );
}

#[test]
fn timeline_structure_is_deterministic_across_runs() {
    assert_eq!(fingerprint(&figure1_trace()), fingerprint(&figure1_trace()));
}

#[test]
fn timeline_is_valid_chrome_trace_with_all_counter_tracks() {
    let doc = figure1_trace();
    let v = parse(&doc).expect("chrome trace parses");
    assert_eq!(
        v.get("displayTimeUnit").and_then(JsonValue::as_str),
        Some("ms")
    );
    let events = v
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .expect("traceEvents array")
        .to_vec();
    let ph = |e: &JsonValue| e.get("ph").and_then(JsonValue::as_str).unwrap().to_owned();

    // Duration events balance and nest.
    let mut depth = 0i64;
    for e in &events {
        match ph(e).as_str() {
            "B" => depth += 1,
            "E" => {
                depth -= 1;
                assert!(depth >= 0, "E without matching B");
            }
            _ => {}
        }
    }
    assert_eq!(depth, 0, "unbalanced B/E events");
    assert!(events.iter().any(|e| ph(e) == "B"), "no span events at all");

    // All four counter tracks are present with monotone timestamps.
    let counter_names: Vec<String> = events
        .iter()
        .filter(|e| ph(e) == "C")
        .map(|e| {
            e.get("name")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_owned()
        })
        .collect();
    assert!(counter_names.len() >= CHROME_COUNTER_TRACKS.len());
    for want in CHROME_COUNTER_TRACKS {
        assert!(
            counter_names.iter().any(|n| n == want),
            "missing counter track {want}"
        );
    }
    let ts: Vec<f64> = events
        .iter()
        .filter_map(|e| e.get("ts").and_then(JsonValue::as_f64))
        .collect();
    assert!(ts.iter().all(|t| *t >= 0.0));
    assert_eq!(
        ts.iter().copied().fold(f64::INFINITY, f64::min),
        0.0,
        "timestamps must be normalized to the earliest observation"
    );
}
