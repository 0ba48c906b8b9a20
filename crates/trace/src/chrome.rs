//! Chrome Trace Event export: spans as `ph:"B"/"E"` duration events and
//! counter samples as `ph:"C"` counter tracks, loadable in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! The exporter consumes the same frozen structures the other exports do —
//! a [`SpanTree`] and the [`CounterSample`]s of a [`crate::CounterTrack`]
//! — so it composes with any recording setup. Timestamps are normalized to
//! the earliest observation (the first event lands at `ts: 0.000`), which
//! makes the output *deterministic modulo timestamps*: two runs of the same
//! program differ only in `ts` values, never in event order, names,
//! nesting, or counter values.
//!
//! Format notes (the Trace Event Format is JSON-array based):
//!
//! * duration events carry `ph:"B"` (begin) / `ph:"E"` (end) and nest by
//!   emission order within one `pid`/`tid` pair — the tree is walked
//!   depth-first, so every `B` is closed by its own `E` after its children;
//! * every span lands on the one `tid` lane, named `slg-engine`;
//! * counter events carry `ph:"C"`; multiple keys in `args` render as a
//!   stacked series (the `worklist` track stacks `expands` over `returns`);
//! * `ts` is in fractional microseconds;
//! * `ph:"M"` metadata events name the process and the thread lane.

use crate::counter::CounterSample;
use crate::json::escape;
use crate::span::SpanTree;
use std::fmt::Write as _;

/// The `pid` stamped on every event: one logical process per export.
const PID: u32 = 1;

/// The `tid` of the one span lane.
const TID: u32 = 1;

/// The counter track names the export emits, in emission order. The
/// `worklist` track carries two stacked series (`expands`, `returns`);
/// the rest carry a single `value` series.
pub const CHROME_COUNTER_TRACKS: [&str; 4] = ["worklist", "tables", "answers", "table_bytes"];

fn push_duration_events(tree: &SpanTree, t0: u64, out: &mut Vec<String>) {
    let ts = |t_ns: u64| (t_ns.saturating_sub(t0)) as f64 / 1000.0;
    enum Step {
        Enter(usize),
        Exit(usize),
    }
    let mut stack: Vec<Step> = tree.roots.iter().rev().map(|&r| Step::Enter(r)).collect();
    while let Some(step) = stack.pop() {
        match step {
            Step::Enter(i) => {
                let n = &tree.nodes[i];
                let mut e = format!(
                    "{{\"name\":\"{}\",\"cat\":\"engine\",\"ph\":\"B\",\"ts\":{:.3},\
                     \"pid\":{PID},\"tid\":{TID}",
                    escape(&n.name),
                    ts(n.start_ns),
                );
                if let Some(p) = &n.pred {
                    let _ = write!(e, ",\"args\":{{\"pred\":\"{}\"}}", escape(p));
                }
                e.push('}');
                out.push(e);
                stack.push(Step::Exit(i));
                for &c in n.children.iter().rev() {
                    stack.push(Step::Enter(c));
                }
            }
            Step::Exit(i) => {
                let n = &tree.nodes[i];
                out.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"engine\",\"ph\":\"E\",\"ts\":{:.3},\
                     \"pid\":{PID},\"tid\":{TID}}}",
                    escape(&n.name),
                    ts(n.start_ns + n.total_ns),
                ));
            }
        }
    }
}

fn push_counter_events(counters: &[CounterSample], t0: u64, out: &mut Vec<String>) {
    for c in counters {
        let ts = (c.t_ns.saturating_sub(t0)) as f64 / 1000.0;
        out.push(format!(
            "{{\"name\":\"worklist\",\"ph\":\"C\",\"ts\":{ts:.3},\"pid\":{PID},\
             \"args\":{{\"expands\":{},\"returns\":{}}}}}",
            c.expands, c.returns
        ));
        for (name, value) in [
            ("tables", c.tables),
            ("answers", c.answers),
            ("table_bytes", c.table_bytes),
        ] {
            out.push(format!(
                "{{\"name\":\"{name}\",\"ph\":\"C\",\"ts\":{ts:.3},\"pid\":{PID},\
                 \"args\":{{\"value\":{value}}}}}"
            ));
        }
    }
}

/// Renders a span tree plus counter samples as one Chrome-trace JSON
/// document (`{"traceEvents": [...], "displayTimeUnit": "ms"}`).
///
/// Event order is deterministic: metadata events, then the span forest
/// depth-first (each span's `B`, its children, its `E`), then the counter
/// events in sample order with the track order of
/// [`CHROME_COUNTER_TRACKS`]. Trace viewers sort by `ts`, so grouping by
/// kind is purely for structural stability of the file.
pub fn chrome_trace(tree: &SpanTree, counters: &[CounterSample]) -> String {
    let t0 = tree
        .nodes
        .iter()
        .map(|n| n.start_ns)
        .chain(counters.iter().map(|c| c.t_ns))
        .min()
        .unwrap_or(0);
    let mut events = vec![
        format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{PID},\
             \"args\":{{\"name\":\"tablog\"}}}}"
        ),
        format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{PID},\"tid\":{TID},\
             \"args\":{{\"name\":\"slg-engine\"}}}}"
        ),
    ];
    push_duration_events(tree, t0, &mut events);
    push_counter_events(counters, t0, &mut events);
    format!(
        "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}",
        events.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, JsonValue};
    use crate::span::{SpanEmitter, SpanRecorder};
    use tablog_term::Functor;

    fn sample_tree() -> SpanTree {
        let rec = SpanRecorder::new();
        let mut em = SpanEmitter::new();
        em.enter(&rec, "evaluate", None);
        em.enter(&rec, "dispatch", Some(Functor::new("p", 2)));
        em.exit(&rec);
        em.enter(&rec, "dispatch", Some(Functor::new("q", 1)));
        em.exit(&rec);
        em.exit(&rec);
        rec.snapshot()
    }

    fn samples() -> Vec<CounterSample> {
        vec![
            CounterSample {
                t_ns: 0,
                worklist: 2,
                expands: 2,
                returns: 0,
                tables: 1,
                answers: 0,
                table_bytes: 64,
            },
            CounterSample {
                t_ns: 1000,
                worklist: 0,
                expands: 0,
                returns: 0,
                tables: 2,
                answers: 3,
                table_bytes: 160,
            },
        ]
    }

    fn events(doc: &JsonValue) -> Vec<JsonValue> {
        doc.get("traceEvents")
            .and_then(JsonValue::as_arr)
            .expect("traceEvents array")
            .to_vec()
    }

    #[test]
    fn export_is_valid_json_with_balanced_begin_end_pairs() {
        let doc = chrome_trace(&sample_tree(), &samples());
        let v = parse(&doc).expect("chrome trace parses");
        let evs = events(&v);
        let ph = |e: &JsonValue| e.get("ph").and_then(JsonValue::as_str).unwrap().to_owned();
        let begins = evs.iter().filter(|e| ph(e) == "B").count();
        let ends = evs.iter().filter(|e| ph(e) == "E").count();
        assert_eq!(begins, 3);
        assert_eq!(begins, ends);
        // DFS emission: a depth counter driven by B/E never goes negative
        // and returns to zero — properly nested duration events.
        let mut depth = 0i64;
        for e in &evs {
            match ph(e).as_str() {
                "B" => depth += 1,
                "E" => {
                    depth -= 1;
                    assert!(depth >= 0);
                }
                _ => {}
            }
        }
        assert_eq!(depth, 0);
    }

    #[test]
    fn counter_tracks_cover_all_four_names() {
        let doc = chrome_trace(&sample_tree(), &samples());
        let v = parse(&doc).expect("parses");
        let evs = events(&v);
        let counter_names: Vec<String> = evs
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("C"))
            .map(|e| {
                e.get("name")
                    .and_then(JsonValue::as_str)
                    .unwrap()
                    .to_owned()
            })
            .collect();
        for want in CHROME_COUNTER_TRACKS {
            assert!(counter_names.iter().any(|n| n == want), "missing {want}");
        }
        // 2 samples x 4 tracks.
        assert_eq!(counter_names.len(), 8);
        let worklist = evs
            .iter()
            .find(|e| e.get("name").and_then(JsonValue::as_str) == Some("worklist"))
            .unwrap();
        let args = worklist.get("args").unwrap();
        assert_eq!(args.get("expands").and_then(JsonValue::as_f64), Some(2.0));
        assert_eq!(args.get("returns").and_then(JsonValue::as_f64), Some(0.0));
    }

    #[test]
    fn timestamps_are_normalized_to_the_earliest_observation() {
        let doc = chrome_trace(&sample_tree(), &samples());
        let v = parse(&doc).expect("parses");
        let ts: Vec<f64> = events(&v)
            .iter()
            .filter_map(|e| e.get("ts").and_then(JsonValue::as_f64))
            .collect();
        assert!(!ts.is_empty());
        let min = ts.iter().copied().fold(f64::INFINITY, f64::min);
        assert_eq!(min, 0.0, "earliest event must land at ts 0");
    }

    #[test]
    fn empty_inputs_still_produce_a_loadable_document() {
        let doc = chrome_trace(&SpanTree::default(), &[]);
        let v = parse(&doc).expect("parses");
        // Only the two metadata events.
        assert_eq!(events(&v).len(), 2);
    }

    #[test]
    fn span_args_carry_the_attributed_predicate() {
        let doc = chrome_trace(&sample_tree(), &[]);
        let v = parse(&doc).expect("parses");
        let pred_of = |name: &str| {
            events(&v)
                .iter()
                .find(|e| {
                    e.get("ph").and_then(JsonValue::as_str) == Some("B")
                        && e.get("name").and_then(JsonValue::as_str) == Some(name)
                })
                .and_then(|e| e.get("args"))
                .and_then(|a| a.get("pred"))
                .and_then(|p| p.as_str().map(str::to_owned))
        };
        assert_eq!(pred_of("dispatch"), Some("p/2".to_owned()));
        assert_eq!(pred_of("evaluate"), None);
    }
}
