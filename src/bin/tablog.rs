//! The `tablog` command-line tool: query tabled logic programs and run the
//! PLDI'96 analyses on program files.
//!
//! ```text
//! tablog query  FILE.pl GOAL            evaluate GOAL against FILE
//! tablog tables FILE.pl GOAL [--top N]  …and dump the call/answer tables;
//!                                       with --top (or --json), a per-table
//!                                       heap attribution report instead
//! tablog stats  FILE.pl GOAL            per-predicate engine statistics
//! tablog profile FILE.pl GOAL [--folded OUT]
//!                                       span-instrumented evaluation: self/
//!                                       total time per span name, predicate
//!                                       and SCC; --folded writes collapsed
//!                                       stacks for flamegraph.pl / inferno
//! tablog timeline FILE.pl GOAL [--out trace.json] [--counters]
//!                                       Chrome-trace/Perfetto timeline of
//!                                       the evaluation; --counters adds
//!                                       worklist/tables/answers/table_bytes
//!                                       counter tracks
//! tablog workers FILE.pl GOAL [--metrics OUT.prom]
//!                                       evaluate under --scheduler parallel
//!                                       and report per-worker load, SCC
//!                                       ownership, and the message matrix;
//!                                       --metrics writes worker-labeled
//!                                       gauges as OpenMetrics text
//! tablog watch FILE.pl GOAL [--interval MS] [--metrics OUT.prom]
//!             [--max-steps N] [--deadline MS] [--max-table-bytes B]
//!                                       evaluate under resource budgets,
//!                                       streaming health snapshots to
//!                                       stderr; a tripped budget reports
//!                                       the partial answers instead of
//!                                       failing. --metrics writes the
//!                                       snapshot series as OpenMetrics text
//! tablog explain FILE GOAL [--depth N] [--analysis A]
//!                                       justification trees for GOAL's
//!                                       answers (A: ground|depthk|strict|
//!                                       direct routes through an analyzer)
//! tablog forest FILE.pl GOAL [--dot OUT]
//!                                       derivation forest as DOT (or JSON
//!                                       with --json)
//! tablog ground FILE.pl [--entry SPEC] [--direct]
//!                                       Prop groundness analysis
//! tablog depthk FILE.pl [--k N] [--entry SPEC]
//!                                       depth-k groundness analysis
//! tablog modes  FILE.pl --entry SPEC    mode inference (+ / - / ?)
//! tablog strict FILE.eq                 strictness analysis
//! tablog types  FILE.eq                 Hindley-Milner type analysis
//! tablog run    FILE.eq [FUNCTION]      evaluate a functional program
//! ```
//!
//! Global flags (any command):
//!
//! * `--profile` — collect per-predicate engine metrics and phase timings;
//!   printed after the command's normal output.
//! * `--json` — render `stats` / `--profile` reports as JSON instead of a
//!   fixed-width table.
//! * `--trace FILE` — append every engine event to `FILE` as JSON lines.
//! * `--scheduler S` — SLG scheduling strategy for engine-backed commands:
//!   `depth-first` (default), `breadth-first`, `batched`, or `parallel`
//!   (one query evaluated across several worker threads; see `--threads`).
//! * `--domain D` — Prop-domain backend for the groundness analyses:
//!   `table` (default; enumerative truth tables) or `bdd` (hash-consed
//!   BDDs). Both compute identical results; they trade memory/time
//!   differently. Recorded in `stats`/`--profile` reports either way.
//! * `--threads N` — worker-thread count for `--scheduler parallel` and
//!   the `workers` command (default: one per available core). An error
//!   with any sequential strategy.
//! * `--jobs N` — for the analysis commands (`ground`, `depthk`), analyze
//!   multiple input files on up to `N` worker threads; output stays in
//!   input order.
//! * `--progress` — live single-line status on stderr (steps, answers,
//!   tables, table bytes), rewritten in place; automatically off when
//!   stderr is not a terminal.

use std::fs::File;
use std::io::{BufWriter, IsTerminal, Write};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tablog_core::depthk::DepthKAnalyzer;
use tablog_core::direct::DirectAnalyzer;
use tablog_core::groundness::{EntryPoint, GroundnessAnalyzer};
use tablog_core::strictness::StrictnessAnalyzer;
use tablog_domain::DomainKind;
use tablog_engine::{
    Engine, EngineOptions, HealthConfig, HealthSnapshot, HealthTrack, JsonLinesSink, LoadMode,
    MetricsRegistry, MetricsReport, MultiSink, Scheduling, TraceSink,
};
use tablog_syntax::term_to_string;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("tablog: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> String {
    "usage: tablog <query|tables|stats|profile|timeline|workers|watch|explain|forest|ground|depthk|modes|strict|types|run> FILE [ARGS…]\n\
     tables  FILE GOAL [--top N]  (--top/--json: per-table heap attribution)\n\
     profile FILE GOAL [--folded OUT]  (span timings; collapsed stacks)\n\
     timeline FILE GOAL [--out trace.json] [--counters]\n\
                                  (Chrome-trace/Perfetto timeline of the run;\n\
                                   --counters adds counter time-series tracks)\n\
     workers FILE GOAL [--metrics OUT.prom]\n\
                                  (parallel run: per-worker load, SCC owners,\n\
                                   message matrix; --metrics writes worker-\n\
                                   labeled gauges as OpenMetrics text)\n\
     watch   FILE GOAL [--interval MS] [--metrics OUT.prom] [--max-steps N]\n\
                       [--deadline MS] [--max-table-bytes B]\n\
                                  (budgeted evaluation with live health\n\
                                   snapshots; partial answers on a trip)\n\
     explain FILE GOAL [--depth N] [--analysis ground|depthk|strict|direct]\n\
     forest  FILE GOAL [--dot OUT]\n\
     ground|depthk accept multiple FILEs; --jobs N analyzes them concurrently\n\
     global flags: --profile  --json  --trace FILE  --scheduler S  --threads N\n\
                   --jobs N  --progress  --domain D\n\
     --scheduler: depth-first (default) | breadth-first | batched | parallel\n\
     --threads N: workers for --scheduler parallel (default: one per core)\n\
     --domain: table (default) | bdd  (Prop backend for groundness analyses)\n\
     see `tablog help` or the crate documentation"
        .to_owned()
}

fn read_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// Writes a command's output artifact (`--out`, `--folded`, `--dot`,
/// `--metrics`, …), failing with a CLI-friendly error naming the path.
fn write_output(path: &str, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {path}: {e}"))
}

/// The `FILE GOAL` positional pair shared by the engine-backed subcommands
/// (query, tables, stats, profile, explain, forest, timeline): reads the
/// program source and hands back the goal string.
fn file_goal(args: &[String]) -> Result<(String, &str), String> {
    let file = args.get(1).ok_or_else(usage)?;
    let goal = args.get(2).ok_or_else(usage)?;
    Ok((read_file(file)?, goal))
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// The engine's whole-evaluation counters, for embedding in reports.
fn engine_snapshot(
    eval: &tablog_engine::Evaluation,
    domain: DomainKind,
) -> tablog_trace::EngineSnapshot {
    let s = eval.stats();
    tablog_trace::EngineSnapshot {
        scheduler: eval.scheduler().to_string(),
        domain: domain.name().to_owned(),
        steps: s.steps as u64,
        clause_resolutions: s.clause_resolutions as u64,
        subgoals: s.subgoals as u64,
        answers: s.answers as u64,
        duplicate_answers: s.duplicate_answers as u64,
        table_bytes: s.table_bytes as u64,
    }
}

/// A `--progress` status line: one stderr line rewritten in place on every
/// health snapshot, erased when the run finishes. Only constructed when
/// stderr is a terminal, so piped/captured runs stay byte-clean.
struct ProgressSink;

impl ProgressSink {
    fn clear() {
        eprint!("\r\x1b[2K");
        let _ = std::io::stderr().flush();
    }
}

impl TraceSink for ProgressSink {
    fn event(&self, _e: &tablog_trace::TraceEvent) {}

    fn health(&self, s: &HealthSnapshot) {
        eprint!(
            "\r\x1b[2K{} steps | {} answers ({:.0}/s) | {}/{} tables | {} KiB | worklist {}{}",
            s.steps,
            s.answers,
            s.answer_rate,
            s.completed_tables,
            s.tables,
            s.table_bytes / 1024,
            s.worklist,
            if s.stalled { " | STALLED" } else { "" }
        );
        let _ = std::io::stderr().flush();
    }

    fn flush(&self) {
        Self::clear();
    }
}

/// `watch`'s live view: one stderr line per health snapshot, scrolling —
/// observable under pipes and `watch`-style supervision alike.
struct WatchLineSink;

impl TraceSink for WatchLineSink {
    fn event(&self, _e: &tablog_trace::TraceEvent) {}

    fn health(&self, s: &HealthSnapshot) {
        eprintln!(
            "watch: {} steps | {} answers ({:.0}/s) | {}/{} tables | {} KiB | worklist {}{}",
            s.steps,
            s.answers,
            s.answer_rate,
            s.completed_tables,
            s.tables,
            s.table_bytes / 1024,
            s.worklist,
            if s.stalled { " | STALLED" } else { "" }
        );
    }
}

/// Observability and execution settings pulled from the global flags.
struct Obs {
    profile: bool,
    json: bool,
    /// JSON-lines event sink when `--trace FILE` was given.
    sink: Option<Arc<dyn TraceSink>>,
    /// Live status line when `--progress` was given and stderr is a tty.
    progress: Option<Arc<dyn TraceSink>>,
    /// Snapshot cadence driving the `--progress` line.
    health: Option<HealthConfig>,
    /// SLG scheduling strategy for engine-backed commands.
    scheduling: Scheduling,
    /// Worker threads for `--scheduler parallel` (0 = one per core).
    threads: usize,
    /// Worker threads for multi-file analysis commands.
    jobs: usize,
    /// Prop-domain backend for the groundness analyses.
    domain: DomainKind,
}

impl Obs {
    /// The engine-facing trace sink: the `--trace` file writer, the
    /// metrics registry, the `--progress` line — fanned out as needed.
    fn engine_sink(&self, registry: Option<&Arc<MetricsRegistry>>) -> Option<Arc<dyn TraceSink>> {
        let mut sinks: Vec<Arc<dyn TraceSink>> = Vec::new();
        if let Some(t) = &self.sink {
            sinks.push(t.clone());
        }
        if let Some(r) = registry {
            sinks.push(r.clone());
        }
        if let Some(p) = &self.progress {
            sinks.push(p.clone());
        }
        match sinks.len() {
            0 => None,
            1 => sinks.pop(),
            _ => {
                let mut m = MultiSink::new();
                for s in sinks {
                    m = m.with(s);
                }
                Some(Arc::new(m) as Arc<dyn TraceSink>)
            }
        }
    }

    fn print_metrics(&self, metrics: Option<&MetricsReport>) {
        if let Some(m) = metrics {
            if self.json {
                println!("{}", m.to_json());
            } else {
                print!("{}", m.render_text());
            }
        }
    }
}

/// Splits the global observability flags off the argument list.
fn extract_obs(args: &[String]) -> Result<(Vec<String>, Obs), String> {
    let mut rest = Vec::new();
    let mut profile = false;
    let mut json = false;
    let mut progress = false;
    let mut trace_path: Option<String> = None;
    let mut scheduling = Scheduling::default();
    let mut threads = 0usize;
    let mut threads_explicit = false;
    let mut jobs = 1usize;
    let mut domain = DomainKind::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--profile" => profile = true,
            "--json" => json = true,
            "--progress" => progress = true,
            "--trace" => {
                let p = it.next().ok_or("--trace requires a file path")?;
                trace_path = Some(p.clone());
            }
            "--scheduler" => {
                let s = it.next().ok_or("--scheduler requires a strategy name")?;
                scheduling = s.parse()?;
            }
            "--domain" => {
                let d = it.next().ok_or("--domain requires a backend name")?;
                domain = d.parse()?;
            }
            "--threads" => {
                let n = it.next().ok_or("--threads requires a worker count")?;
                threads_explicit = true;
                threads = match n.parse::<usize>() {
                    Ok(0) => return Err(format!("bad --threads value {n} (must be at least 1)")),
                    Ok(v) => v,
                    Err(_) => {
                        return Err(format!(
                            "bad --threads value {n} (expected a positive integer)"
                        ))
                    }
                };
            }
            "--jobs" => {
                let n = it.next().ok_or("--jobs requires a thread count")?;
                jobs = n
                    .parse::<usize>()
                    .map_err(|_| format!("bad --jobs value {n}"))?
                    .max(1);
            }
            _ => rest.push(a.clone()),
        }
    }
    // A worker count on a sequential run would be silently meaningless;
    // refuse it rather than let the user believe they ran parallel. The
    // `workers` subcommand implies the parallel strategy, so it is exempt.
    if threads_explicit
        && scheduling != Scheduling::Parallel
        && rest.first().map(String::as_str) != Some("workers")
    {
        return Err("--threads requires --scheduler parallel".to_owned());
    }
    let sink = match trace_path {
        Some(p) => {
            let f = File::create(&p).map_err(|e| format!("cannot write {p}: {e}"))?;
            Some(Arc::new(JsonLinesSink::new(BufWriter::new(f))) as Arc<dyn TraceSink>)
        }
        None => None,
    };
    // `--progress` is a no-op when stderr is piped or captured: no sink is
    // attached and no health cadence is enabled, so output stays identical
    // to a run without the flag.
    let tty = progress && std::io::stderr().is_terminal();
    Ok((
        rest,
        Obs {
            profile,
            json,
            sink,
            progress: tty.then(|| Arc::new(ProgressSink) as Arc<dyn TraceSink>),
            health: tty.then(|| HealthConfig::every_ms(100)),
            scheduling,
            threads,
            jobs,
            domain,
        },
    ))
}

/// Positional (non-flag) arguments: skips `--flag value` pairs for the
/// value-taking flags and bare `--flags` for the rest.
fn positional(args: &[String]) -> Vec<&String> {
    const VALUED: [&str; 13] = [
        "--entry",
        "--k",
        "--depth",
        "--dot",
        "--analysis",
        "--top",
        "--folded",
        "--out",
        "--interval",
        "--metrics",
        "--max-steps",
        "--deadline",
        "--max-table-bytes",
    ];
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if VALUED.contains(&a.as_str()) {
            it.next();
        } else if !a.starts_with("--") {
            out.push(a);
        }
    }
    out
}

fn run(args: &[String]) -> Result<(), String> {
    let (args, obs) = extract_obs(args)?;
    let result = dispatch(&args, &obs);
    if let Some(p) = &obs.progress {
        p.flush(); // erase the status line before any final output
    }
    if let Some(s) = &obs.sink {
        s.flush();
    }
    result
}

fn dispatch(args: &[String], obs: &Obs) -> Result<(), String> {
    let cmd = args.first().ok_or_else(usage)?;
    match cmd.as_str() {
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        "query" | "tables" => {
            let (src, goal) = file_goal(args)?;
            let registry = obs.profile.then(|| Arc::new(MetricsRegistry::new()));
            let opts = EngineOptions {
                trace: obs.engine_sink(registry.as_ref()),
                scheduling: obs.scheduling,
                threads: obs.threads,
                domain: obs.domain,
                health: obs.health,
                ..Default::default()
            };
            let engine = Engine::from_source_with(&src, LoadMode::Dynamic, opts)
                .map_err(|e| e.to_string())?;
            if cmd == "query" {
                let sols = engine.solve(goal).map_err(|e| e.to_string())?;
                if sols.is_empty() {
                    println!("no");
                } else {
                    for row in sols.to_strings() {
                        println!("{row}");
                    }
                }
            } else {
                let top: Option<usize> = flag_value(args, "--top")
                    .map(|v| match v.parse::<usize>() {
                        Ok(0) => Err(format!("bad --top value {v} (must be at least 1)")),
                        Ok(n) => Ok(n),
                        Err(_) => Err(format!("bad --top value {v} (expected a positive integer)")),
                    })
                    .transpose()?;
                let mut b = tablog_term::Bindings::new();
                let (t, _) = tablog_syntax::parse_term(goal, &mut b).map_err(|e| e.to_string())?;
                let eval = engine.evaluate(&[t], &[], &b).map_err(|e| e.to_string())?;
                if obs.json {
                    println!("{}", eval.table_report().to_json());
                } else if let Some(n) = top {
                    print!("{}", eval.table_report().render_text(n));
                } else {
                    for view in eval.subgoals() {
                        println!(
                            "{}  [{} answers, {} bytes]",
                            term_to_string(&view.call_term()),
                            view.num_answers(),
                            view.table_bytes()
                        );
                        for a in view.answers() {
                            println!("    {}", term_to_string(&a));
                        }
                    }
                    println!("{:?}", eval.stats());
                }
            }
            if let Some(r) = registry {
                obs.print_metrics(Some(&r.snapshot()));
            }
            Ok(())
        }
        "stats" => {
            let (src, goal) = file_goal(args)?;
            let registry = Arc::new(MetricsRegistry::new());
            let opts = EngineOptions {
                trace: obs.engine_sink(Some(&registry)),
                scheduling: obs.scheduling,
                threads: obs.threads,
                domain: obs.domain,
                health: obs.health,
                ..Default::default()
            };
            let t0 = Instant::now();
            let engine = Engine::from_source_with(&src, LoadMode::Dynamic, opts)
                .map_err(|e| e.to_string())?;
            registry.record_phase("load", t0.elapsed());
            let mut b = tablog_term::Bindings::new();
            let (t, _) = tablog_syntax::parse_term(goal, &mut b).map_err(|e| e.to_string())?;
            let t1 = Instant::now();
            let eval = engine.evaluate(&[t], &[], &b).map_err(|e| e.to_string())?;
            registry.record_phase("evaluate", t1.elapsed());
            let mut report = registry.snapshot();
            report.options = engine.options().describe();
            report.engine = Some(engine_snapshot(&eval, obs.domain));
            if obs.json {
                // A parallel run stacks its load-balance report into the
                // same document, so one `stats --json` capture explains
                // both what was computed and who computed it.
                let doc = report.to_json();
                match eval.parallel_report() {
                    Some(p) => println!("{},\"parallel\":{}}}", &doc[..doc.len() - 1], p.to_json()),
                    None => println!("{doc}"),
                }
            } else {
                print!("{}", report.render_text());
                if let Some(p) = eval.parallel_report() {
                    print!("{}", p.render_text());
                }
            }
            Ok(())
        }
        "workers" => {
            let (src, goal) = file_goal(args)?;
            let metrics_path = flag_value(args, "--metrics");
            let registry = Arc::new(MetricsRegistry::new());
            let opts = EngineOptions {
                trace: obs.engine_sink(Some(&registry)),
                scheduling: Scheduling::Parallel,
                threads: obs.threads,
                domain: obs.domain,
                record_counters: metrics_path.is_some(),
                health: obs.health,
                ..Default::default()
            };
            let engine = Engine::from_source_with(&src, LoadMode::Dynamic, opts)
                .map_err(|e| e.to_string())?;
            let mut b = tablog_term::Bindings::new();
            let (t, _) = tablog_syntax::parse_term(goal, &mut b).map_err(|e| e.to_string())?;
            let eval = engine.evaluate(&[t], &[], &b).map_err(|e| e.to_string())?;
            let report = eval.parallel_report().ok_or(
                "workers: the evaluation produced no parallel report \
                 (the run fell back to sequential)",
            )?;
            if let Some(path) = metrics_path {
                let doc = tablog_trace::openmetrics_workers(&registry.counters().samples());
                write_output(path, &doc)?;
                eprintln!("wrote {path}: per-worker gauges as OpenMetrics text");
            }
            if obs.json {
                println!("{}", report.to_json());
            } else {
                print!("{}", report.render_text());
            }
            Ok(())
        }
        "profile" => {
            let (src, goal) = file_goal(args)?;
            let registry = Arc::new(MetricsRegistry::new());
            let opts = EngineOptions {
                trace: obs.engine_sink(Some(&registry)),
                scheduling: obs.scheduling,
                threads: obs.threads,
                domain: obs.domain,
                record_spans: true,
                health: obs.health,
                ..Default::default()
            };
            let t0 = Instant::now();
            let engine = Engine::from_source_with(&src, LoadMode::Dynamic, opts)
                .map_err(|e| e.to_string())?;
            registry.record_phase("load", t0.elapsed());
            let mut b = tablog_term::Bindings::new();
            let (t, _) = tablog_syntax::parse_term(goal, &mut b).map_err(|e| e.to_string())?;
            let t1 = Instant::now();
            let eval = engine.evaluate(&[t], &[], &b).map_err(|e| e.to_string())?;
            registry.record_phase("evaluate", t1.elapsed());
            let mut report = registry.snapshot();
            report.options = engine.options().describe();
            report.engine = Some(engine_snapshot(&eval, obs.domain));

            // Predicate -> SCC label, for the per-SCC span rollup. SCCs come
            // out reverse-topological, so the index orders callees first.
            let sccs = engine.db().predicate_sccs();
            let mut scc_of = std::collections::HashMap::new();
            for (i, scc) in sccs.iter().enumerate() {
                let members: Vec<String> = scc.iter().map(ToString::to_string).collect();
                let label = format!("scc{i:03} [{}]", members.join(" "));
                for m in members {
                    scc_of.insert(m, label.clone());
                }
            }
            let by_scc = report.spans.rollup_by_group(&|p| scc_of.get(p).cloned());

            if let Some(path) = flag_value(args, "--folded") {
                let folded = tablog_trace::folded_stacks(&report.spans);
                write_output(path, &folded)?;
                eprintln!(
                    "wrote {path}: {} collapsed stacks ({} spans)",
                    folded.lines().count(),
                    report.spans.len()
                );
            }
            if obs.json {
                let sccs_json: Vec<String> = by_scc
                    .iter()
                    .map(|(label, r)| {
                        format!(
                            "{{\"scc\":\"{}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                            tablog_trace::json::escape(label),
                            r.count,
                            r.total_ns,
                            r.self_ns
                        )
                    })
                    .collect();
                let doc = report.to_json();
                println!(
                    "{},\"sccs\":[{}]}}",
                    &doc[..doc.len() - 1],
                    sccs_json.join(",")
                );
            } else {
                print!("{}", report.render_text());
                if !by_scc.is_empty() {
                    println!("by scc:");
                    for (label, r) in &by_scc {
                        println!(
                            "  {label}  count={} total={}ns self={}ns",
                            r.count, r.total_ns, r.self_ns
                        );
                    }
                }
            }
            Ok(())
        }
        "timeline" => {
            let (src, goal) = file_goal(args)?;
            let counters = args.iter().any(|a| a == "--counters");
            let registry = Arc::new(MetricsRegistry::new());
            let opts = EngineOptions {
                trace: obs.engine_sink(Some(&registry)),
                scheduling: obs.scheduling,
                threads: obs.threads,
                domain: obs.domain,
                record_spans: true,
                record_counters: counters,
                health: obs.health,
                ..Default::default()
            };
            let engine = Engine::from_source_with(&src, LoadMode::Dynamic, opts)
                .map_err(|e| e.to_string())?;
            let mut b = tablog_term::Bindings::new();
            let (t, _) = tablog_syntax::parse_term(goal, &mut b).map_err(|e| e.to_string())?;
            let eval = engine.evaluate(&[t], &[], &b).map_err(|e| e.to_string())?;
            let tree = registry.spans().snapshot();
            let samples = registry.counters().samples();
            if counters && samples.is_empty() {
                // Silently writing a counter-free trace after the user asked
                // for counter tracks would hide a broken recording pipeline.
                return Err(
                    "timeline --counters recorded no counter samples: the engine ran \
                     without counter recording (this is a bug in the sink wiring)"
                        .to_string(),
                );
            }
            // A parallel run's cross-worker messages become flow arrows
            // between the worker lanes; sequential runs have none.
            let flows = eval
                .parallel_report()
                .map_or(&[] as &[_], |p| p.flows.as_slice());
            let doc = tablog_trace::chrome_trace_with_flows(&tree, &samples, flows);
            match flag_value(args, "--out") {
                Some(path) => {
                    write_output(path, &doc)?;
                    eprintln!(
                        "wrote {path}: {} spans, {} counter samples, {} message flows — \
                         load in https://ui.perfetto.dev or chrome://tracing",
                        tree.nodes.len(),
                        samples.len(),
                        flows.len()
                    );
                }
                None => println!("{doc}"),
            }
            Ok(())
        }
        "watch" => {
            let (src, goal) = file_goal(args)?;
            let interval: u64 = flag_value(args, "--interval")
                .map(|v| {
                    v.parse()
                        .map_err(|_| format!("bad --interval value {v} (milliseconds)"))
                })
                .transpose()?
                .unwrap_or(250);
            let max_steps: Option<usize> = flag_value(args, "--max-steps")
                .map(|v| v.parse().map_err(|_| format!("bad --max-steps value {v}")))
                .transpose()?;
            let deadline: Option<Duration> = flag_value(args, "--deadline")
                .map(|v| {
                    v.parse::<u64>()
                        .map_err(|_| format!("bad --deadline value {v} (milliseconds)"))
                })
                .transpose()?
                .map(Duration::from_millis);
            let max_table_bytes: Option<usize> = flag_value(args, "--max-table-bytes")
                .map(|v| {
                    v.parse()
                        .map_err(|_| format!("bad --max-table-bytes value {v}"))
                })
                .transpose()?;

            // The track keeps the snapshot series for --metrics; the line
            // sink streams each snapshot to stderr as it is taken.
            let track = Arc::new(HealthTrack::new());
            let mut fan = MultiSink::new()
                .with(track.clone() as Arc<dyn TraceSink>)
                .with(Arc::new(WatchLineSink) as Arc<dyn TraceSink>);
            if let Some(extra) = obs.engine_sink(None) {
                fan = fan.with(extra);
            }
            let opts = EngineOptions {
                trace: Some(Arc::new(fan) as Arc<dyn TraceSink>),
                scheduling: obs.scheduling,
                threads: obs.threads,
                domain: obs.domain,
                health: Some(HealthConfig::every_ms(interval)),
                max_steps,
                deadline,
                max_table_bytes,
                ..Default::default()
            };
            let engine = Engine::from_source_with(&src, LoadMode::Dynamic, opts)
                .map_err(|e| e.to_string())?;
            // A tripped budget is not a failure: the run ends gracefully
            // with the answers derived so far and exit code 0.
            let sols = engine.solve(goal).map_err(|e| e.to_string())?;
            if let Some(path) = flag_value(args, "--metrics") {
                let doc = tablog_trace::openmetrics_series(&track.samples());
                write_output(path, &doc)?;
                eprintln!(
                    "wrote {path}: {} snapshots as OpenMetrics text",
                    track.len()
                );
            }
            if obs.json {
                let answers: Vec<String> = sols
                    .to_strings()
                    .iter()
                    .map(|a| format!("\"{}\"", tablog_trace::json::escape(a)))
                    .collect();
                let truncation = sols
                    .truncation()
                    .map_or_else(|| "null".to_string(), |t| t.to_json());
                let health = track
                    .last()
                    .map_or_else(|| "null".to_string(), |s| s.to_json());
                println!(
                    "{{\"count\":{},\"complete\":{},\"answers\":[{}],\"truncation\":{},\"health\":{}}}",
                    sols.len(),
                    !sols.is_truncated(),
                    answers.join(","),
                    truncation,
                    health
                );
            } else {
                for row in sols.to_strings() {
                    println!("{row}");
                }
                match sols.truncation() {
                    Some(t) => println!(
                        "truncated: {} — the {} answer(s) above are a sound partial result",
                        t.reason,
                        sols.len()
                    ),
                    None => println!("complete: {} answer(s)", sols.len()),
                }
            }
            Ok(())
        }
        "explain" => {
            let (src, goal) = file_goal(args)?;
            let depth: usize = flag_value(args, "--depth")
                .map(|v| v.parse().map_err(|_| "bad --depth value".to_string()))
                .transpose()?
                .unwrap_or(32);
            let emit = |text: String, json: String| {
                if obs.json {
                    println!("{json}");
                } else {
                    print!("{text}");
                }
            };
            match flag_value(args, "--analysis") {
                None => {
                    let opts = EngineOptions {
                        trace: obs.engine_sink(None),
                        scheduling: obs.scheduling,
                        threads: obs.threads,
                        domain: obs.domain,
                        health: obs.health,
                        ..Default::default()
                    };
                    let engine = Engine::from_source_with(&src, LoadMode::Dynamic, opts)
                        .map_err(|e| e.to_string())?;
                    let ex = engine.explain(goal, depth).map_err(|e| e.to_string())?;
                    emit(ex.render_text(), ex.to_json());
                }
                Some("ground") => {
                    let program = tablog_syntax::parse_program(&src).map_err(|e| e.to_string())?;
                    let mut an = GroundnessAnalyzer::new();
                    an.options.domain = obs.domain;
                    let ex = an
                        .explain(&program, goal, depth)
                        .map_err(|e| e.to_string())?;
                    emit(ex.render_text(), ex.to_json());
                }
                Some("depthk") => {
                    let program = tablog_syntax::parse_program(&src).map_err(|e| e.to_string())?;
                    let k: usize = flag_value(args, "--k")
                        .map(|v| v.parse().map_err(|_| "bad --k value".to_string()))
                        .transpose()?
                        .unwrap_or(2);
                    let ex = DepthKAnalyzer::new(k)
                        .explain(&program, goal, depth)
                        .map_err(|e| e.to_string())?;
                    emit(ex.render_text(), ex.to_json());
                }
                Some("strict") => {
                    let prog =
                        tablog_funlang::parse_fun_program(&src).map_err(|e| e.to_string())?;
                    let ex = StrictnessAnalyzer::new()
                        .explain(&prog, goal, depth)
                        .map_err(|e| e.to_string())?;
                    emit(ex.render_text(), ex.to_json());
                }
                Some("direct") => {
                    let program = tablog_syntax::parse_program(&src).map_err(|e| e.to_string())?;
                    let mut an = DirectAnalyzer::new();
                    an.domain = obs.domain;
                    let ex = an.explain(&program, goal).map_err(|e| e.to_string())?;
                    emit(ex.render_text(), ex.to_json());
                }
                Some(other) => {
                    return Err(format!(
                        "unknown --analysis {other} (expected ground, depthk, strict or direct)"
                    ))
                }
            }
            Ok(())
        }
        "forest" => {
            let (src, goal) = file_goal(args)?;
            let opts = EngineOptions {
                record_provenance: true,
                trace: obs.engine_sink(None),
                scheduling: obs.scheduling,
                threads: obs.threads,
                domain: obs.domain,
                health: obs.health,
                ..Default::default()
            };
            let engine = Engine::from_source_with(&src, LoadMode::Dynamic, opts)
                .map_err(|e| e.to_string())?;
            let mut b = tablog_term::Bindings::new();
            let (t, _) = tablog_syntax::parse_term(goal, &mut b).map_err(|e| e.to_string())?;
            let eval = engine.evaluate(&[t], &[], &b).map_err(|e| e.to_string())?;
            let forest = eval.forest();
            match flag_value(args, "--dot") {
                Some(path) => {
                    write_output(path, &forest.to_dot())?;
                    println!(
                        "wrote {path}: {} subgoals, {} answers",
                        forest.subgoals.len(),
                        forest
                            .subgoals
                            .iter()
                            .map(|s| s.answers.len())
                            .sum::<usize>()
                    );
                }
                None => {
                    if obs.json {
                        println!("{}", forest.to_json());
                    } else {
                        print!("{}", forest.to_dot());
                    }
                }
            }
            Ok(())
        }
        "ground" => {
            let files = positional(&args[1..]);
            if files.is_empty() {
                return Err(usage());
            }
            let entries: Vec<EntryPoint> = match flag_value(args, "--entry") {
                Some(spec) => vec![EntryPoint::parse(spec).map_err(|e| e.to_string())?],
                None => Vec::new(),
            };
            if args.iter().any(|a| a == "--direct") {
                let outputs = tablog_core::analyze_many(obs.jobs, &files, |file| {
                    let src = read_file(file)?;
                    let program = tablog_syntax::parse_program(&src).map_err(|e| e.to_string())?;
                    let mut an = DirectAnalyzer::new();
                    an.profile = obs.profile;
                    an.domain = obs.domain;
                    an.analyze_with_entries(&program, &entries)
                        .map_err(|e| format!("{file}: {e}"))
                });
                for (file, result) in files.iter().zip(outputs) {
                    let report = result?;
                    if files.len() > 1 {
                        println!("== {file} ==");
                    }
                    for p in report.predicates() {
                        println!(
                            "{}/{}: ground={:?} models={}",
                            p.name,
                            p.arity,
                            p.definitely_ground,
                            p.prop.count()
                        );
                    }
                    println!(
                        "pairs={} iterations={} total={:?}",
                        report.pairs,
                        report.iterations,
                        report.timings.total()
                    );
                    if report.domain == DomainKind::Bdd {
                        println!(
                            "domain=bdd bdd_nodes={} domain_bytes={}B",
                            report.bdd_nodes, report.domain_bytes
                        );
                    }
                    obs.print_metrics(report.metrics.as_ref());
                }
            } else {
                let outputs = tablog_core::analyze_many(obs.jobs, &files, |file| {
                    let src = read_file(file)?;
                    let program = tablog_syntax::parse_program(&src).map_err(|e| e.to_string())?;
                    let mut an = GroundnessAnalyzer::new();
                    an.profile = obs.profile;
                    an.options.scheduling = obs.scheduling;
                    an.options.threads = obs.threads;
                    an.options.domain = obs.domain;
                    an.options.trace = obs.engine_sink(None);
                    an.options.health = obs.health;
                    an.analyze_with_entries(&program, &entries)
                        .map_err(|e| format!("{file}: {e}"))
                });
                for (file, result) in files.iter().zip(outputs) {
                    let report = result?;
                    if files.len() > 1 {
                        println!("== {file} ==");
                    }
                    for p in report.predicates() {
                        println!(
                            "{}/{}: ground={:?} answers={} calls={}",
                            p.name,
                            p.arity,
                            p.definitely_ground,
                            p.success_rows.len(),
                            p.call_patterns.len()
                        );
                    }
                    println!(
                        "total={:?} tables={}B",
                        report.timings.total(),
                        report.table_bytes()
                    );
                    if report.domain == DomainKind::Bdd {
                        println!(
                            "domain=bdd bdd_nodes={} domain_bytes={}B",
                            report.bdd_nodes, report.domain_bytes
                        );
                    }
                    obs.print_metrics(report.metrics.as_ref());
                }
            }
            Ok(())
        }
        "depthk" => {
            let files = positional(&args[1..]);
            if files.is_empty() {
                return Err(usage());
            }
            let k: usize = flag_value(args, "--k")
                .map(|v| v.parse().map_err(|_| "bad --k value".to_string()))
                .transpose()?
                .unwrap_or(2);
            let entries: Vec<EntryPoint> = match flag_value(args, "--entry") {
                Some(spec) => vec![EntryPoint::parse(spec).map_err(|e| e.to_string())?],
                None => Vec::new(),
            };
            let outputs = tablog_core::analyze_many(obs.jobs, &files, |file| {
                let src = read_file(file)?;
                let program = tablog_syntax::parse_program(&src).map_err(|e| e.to_string())?;
                let mut an = DepthKAnalyzer::new(k);
                an.profile = obs.profile;
                an.options.scheduling = obs.scheduling;
                an.options.threads = obs.threads;
                an.options.trace = obs.engine_sink(None);
                an.options.health = obs.health;
                an.analyze_with_entries(&program, &entries)
                    .map_err(|e| format!("{file}: {e}"))
            });
            for (file, result) in files.iter().zip(outputs) {
                let report = result?;
                if files.len() > 1 {
                    println!("== {file} ==");
                }
                for p in report.predicates() {
                    println!("{}/{}: ground={:?}", p.name, p.arity, p.definitely_ground);
                    for row in p.answers.iter().take(8) {
                        let rendered: Vec<String> = row.iter().map(term_to_string).collect();
                        println!("    ({})", rendered.join(", "));
                    }
                    if p.answers.len() > 8 {
                        println!("    … {} more", p.answers.len() - 8);
                    }
                }
                println!(
                    "total={:?} tables={}B",
                    report.timings.total(),
                    report.table_bytes()
                );
                obs.print_metrics(report.metrics.as_ref());
            }
            Ok(())
        }
        "modes" => {
            let file = args.get(1).ok_or_else(usage)?;
            let src = read_file(file)?;
            let program = tablog_syntax::parse_program(&src).map_err(|e| e.to_string())?;
            let entries: Vec<EntryPoint> = match flag_value(args, "--entry") {
                Some(spec) => vec![EntryPoint::parse(spec).map_err(|e| e.to_string())?],
                None => return Err("modes requires --entry 'pred(g, f, …)'".to_string()),
            };
            let report =
                tablog_core::modes::infer_modes(&program, &entries).map_err(|e| e.to_string())?;
            for p in report.predicates() {
                println!("{}", p.render());
            }
            Ok(())
        }
        "types" => {
            let file = args.get(1).ok_or_else(usage)?;
            let src = read_file(file)?;
            let prog = tablog_funlang::parse_fun_program(&src).map_err(|e| e.to_string())?;
            let report = tablog_core::types::infer_types(&prog).map_err(|e| e.to_string())?;
            for s in report.schemes() {
                println!("{}", s.render());
            }
            Ok(())
        }
        "strict" => {
            let file = args.get(1).ok_or_else(usage)?;
            let src = read_file(file)?;
            let mut an = StrictnessAnalyzer::new();
            an.profile = obs.profile;
            an.options.scheduling = obs.scheduling;
            an.options.threads = obs.threads;
            an.options.trace = obs.engine_sink(None);
            an.options.health = obs.health;
            let report = an.analyze_source(&src).map_err(|e| e.to_string())?;
            for f in report.functions() {
                println!("{}", f.summary());
            }
            println!(
                "total={:?} tables={}B",
                report.timings.total(),
                report.table_bytes()
            );
            obs.print_metrics(report.metrics.as_ref());
            Ok(())
        }
        "run" => {
            let file = args.get(1).ok_or_else(usage)?;
            let entry = args.get(2).map(String::as_str).unwrap_or("main");
            let src = read_file(file)?;
            let prog = tablog_funlang::parse_fun_program(&src).map_err(|e| e.to_string())?;
            let out =
                tablog_funlang::eval_call(&prog, entry, 10_000_000).map_err(|e| e.to_string())?;
            println!("{out}");
            Ok(())
        }
        other => Err(format!("unknown command {other}\n{}", usage())),
    }
}
