//! `e2e` — the end-to-end analysis benchmark.
//!
//! ```text
//! e2e --workload ground|strict|depthk|direct|gen --seed N --seconds S --trace 0|1
//! ```
//!
//! One client, one thread, closed loop: each query — source text in,
//! collected report out, through the analyzers' public entry points with
//! their default options — starts when the previous one has returned.
//! Set-up is input loading or generation plus one untimed warm-up pass;
//! it is done and timed [`SETUP_REPS`] times. The harness then runs whole
//! passes over the workload's programs, in a seeded shuffled order, until
//! `--seconds` have elapsed. Every result is then checked:
//! each query's rendering must fingerprint-match its program's warm-up
//! result, and that result must pass the workload's oracle (see
//! [`workloads::verify`]).
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` spends half the
//! time untraced (counts and phase times) and half traced — analyzer
//! `profile` and span recording on, a heap scope around each call, the
//! transform and the paper's plain-compile baseline timed standalone —
//! and reports the per-layer metrics. The last line of standard output is
//! the result object; the line before it holds every metric the run
//! measured, per-program medians included. See `README.md` beside this
//! file for the metrics and what each should move.

mod gen;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use tablog_alloc::{HeapDelta, HeapScope};
use tablog_core::groundness::{compile_time, transform_program, IffMode};
use tablog_core::AnalysisError;
use tablog_engine::{Database, LoadMode};
use workloads::{Expected, GenScale, Input, Outcome, Report, Workload};

// Installed in both the untraced and the traced run, so they pay the same
// allocator cost.
#[global_allocator]
static ALLOC: tablog_alloc::TrackingAlloc = tablog_alloc::TrackingAlloc;

/// Set-up is done this many times and its median time reported, so that
/// one slow repetition does not decide it.
const SETUP_REPS: usize = 5;

/// Salt separating the order-shuffling RNG stream from the generator's.
const SHUFFLE_SALT: u64 = 0x0123_4567_89ab_cdef;

/// Names of the result object's metrics under `--trace 0`.
const END_TO_END: [&str; 5] = [
    "setup_s",
    "throughput_aps",
    "latency_ms_p50",
    "latency_ms_p90",
    "peak_heap_mb",
];

/// Names of the result object's metrics under `--trace 1`.
const PER_LAYER: [&str; 32] = [
    "syntax.parse_ms",
    "syntax.clauses",
    "transform.ms",
    "transform.rules",
    "load.ms",
    "fixpoint.ms",
    "collect.ms",
    "engine.steps",
    "engine.clause_resolutions",
    "engine.subgoals",
    "engine.answers",
    "engine.duplicate_answers",
    "engine.answer_yield",
    "engine.calls_abstracted",
    "engine.answers_widened",
    "engine.table_kb",
    "engine.evaluate_self_pct",
    "engine.dispatch_self_pct",
    "engine.clause_resolution_self_pct",
    "engine.answer_return_self_pct",
    "engine.completion_self_pct",
    "direct.pairs",
    "direct.iterations",
    "domain.bytes",
    "domain.bdd_nodes",
    "alloc.mb",
    "alloc.count",
    "alloc.parse_mb",
    "alloc.analyze_mb",
    "paper.compile_increase_pct",
    "ledger.residual_pct",
    "trace.overhead_pct",
];

/// The engine spans whose self time the traced run attributes.
const ENGINE_SPANS: [&str; 5] = [
    "evaluate",
    "dispatch",
    "clause_resolution",
    "answer_return",
    "completion",
];

const MIB: f64 = 1024.0 * 1024.0;

struct Config {
    workload: Workload,
    seed: u64,
    /// Timed-phase length; under `traced` each half runs for half of it.
    seconds: f64,
    traced: bool,
    scale: GenScale,
    /// Fixed pass count instead of the time budget (tests).
    passes: Option<usize>,
    expected: Expected,
}

/// One timed query.
struct Sample {
    program: usize,
    latency: Duration,
    /// Peak live bytes above the live level at query start.
    peak: usize,
    heap: HeapDelta,
    result: Result<Outcome, String>,
}

/// One pass over every program.
struct Pass {
    wall: Duration,
    samples: Vec<Sample>,
    /// Traced only: standalone transform time and rule count, and the
    /// plain-compile baseline, summed over the pass's programs.
    transform: Duration,
    rules: usize,
    compile: Duration,
}

struct Run {
    inputs: Vec<Input>,
    setup: Vec<Duration>,
    untraced: Vec<Pass>,
    traced: Vec<Pass>,
    attempted: usize,
    failed: usize,
    /// First few failure reasons, for the log.
    failures: Vec<String>,
}

/// Times `f` as one query, with the heap it used above its starting level.
fn measure<T>(f: impl FnOnce() -> T) -> (T, Duration, usize, HeapDelta) {
    let scope = HeapScope::begin();
    let live = tablog_alloc::stats().live_bytes;
    let start = Instant::now();
    let out = f();
    let latency = start.elapsed();
    let heap = scope.measure().unwrap_or_default();
    (out, latency, heap.peak_bytes.saturating_sub(live), heap)
}

/// Standalone transform of one program (traced runs): the time and rule
/// count of the P→P♯ step the analyzer performs inside its preprocess.
/// A program that fails here has already failed its queries.
fn standalone_transform(w: Workload, input: &Input) -> (Duration, usize) {
    let start;
    let rules = if w == Workload::Strict {
        let prog = tablog_funlang::parse_fun_program(&input.source).ok();
        start = Instant::now();
        prog.and_then(|p| tablog_core::strictness::translate_program(&p).ok())
            .map(|r| r.len())
    } else {
        let prog = tablog_syntax::parse_program(&input.source).ok();
        start = Instant::now();
        prog.and_then(|p| match w {
            Workload::Depthk => tablog_core::depthk::transform_depthk(&p).ok(),
            _ => transform_program(&p, IffMode::Builtin).ok(),
        })
        .map(|(r, _)| r.len())
    };
    (start.elapsed(), rules.unwrap_or(0))
}

/// The paper's plain-compile baseline: parse and load the source with no
/// analysis (for functional programs, parse + translate + load).
fn plain_compile(w: Workload, input: &Input) -> Duration {
    if w != Workload::Strict {
        return compile_time(&input.source, LoadMode::Dynamic).unwrap_or_default();
    }
    let start = Instant::now();
    if let Ok(prog) = tablog_funlang::parse_fun_program(&input.source) {
        let mut db = Database::new(LoadMode::Dynamic);
        for r in tablog_core::strictness::translate_program(&prog).unwrap_or_default() {
            let _ = db.assert_clause(r.head, r.body);
        }
    }
    start.elapsed()
}

/// Runs whole passes until `budget` elapses (or until `passes` are done).
fn timed(
    cfg: &Config,
    inputs: &[Input],
    rng: &mut gen::Rng,
    traced: bool,
    budget: Duration,
) -> Vec<Pass> {
    let w = cfg.workload;
    let start = Instant::now();
    let mut passes = Vec::new();
    loop {
        let mut order: Vec<usize> = (0..inputs.len()).collect();
        rng.shuffle(&mut order);
        let pass_start = Instant::now();
        let mut answers = Vec::with_capacity(order.len());
        for &i in &order {
            let (answer, latency, peak, heap) = measure(|| workloads::query(w, &inputs[i], traced));
            answers.push((i, latency, peak, heap, answer));
        }
        let wall = pass_start.elapsed();
        // Rendering and fingerprinting the reports happens off the clock.
        let mut pass = Pass {
            wall,
            samples: answers
                .into_iter()
                .map(|(program, latency, peak, heap, answer)| Sample {
                    program,
                    latency,
                    peak,
                    heap,
                    result: answer.map(|a| a.outcome()).map_err(|e| e.to_string()),
                })
                .collect(),
            transform: Duration::ZERO,
            rules: 0,
            compile: Duration::ZERO,
        };
        if traced {
            for input in inputs {
                let (t, r) = standalone_transform(w, input);
                pass.transform += t;
                pass.rules += r;
                pass.compile += plain_compile(w, input);
            }
        }
        passes.push(pass);
        let done = match cfg.passes {
            Some(n) => passes.len() >= n,
            None => start.elapsed() >= budget,
        };
        if done {
            return passes;
        }
    }
}

/// Set-up: the inputs plus one untimed warm-up pass, whose results are the
/// references every timed query is checked against.
fn set_up(cfg: &Config) -> (Vec<Input>, Vec<Result<Report, AnalysisError>>) {
    let inputs = workloads::inputs(cfg.workload, cfg.seed, cfg.scale);
    let reports = inputs
        .iter()
        .map(|i| workloads::query(cfg.workload, i, false).map(|a| a.report))
        .collect();
    (inputs, reports)
}

fn run(cfg: &Config) -> Run {
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let (inputs, reports) = loop {
        let start = Instant::now();
        let done = set_up(cfg);
        setup.push(start.elapsed());
        if setup.len() == SETUP_REPS {
            break done;
        }
    };

    let mut rng = gen::Rng::new(cfg.seed ^ SHUFFLE_SALT);
    let budget = Duration::from_secs_f64(if cfg.traced {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    });
    let untraced = timed(cfg, &inputs, &mut rng, false, budget);
    let traced = if cfg.traced {
        timed(cfg, &inputs, &mut rng, true, budget)
    } else {
        Vec::new()
    };

    // Verification: each program's warm-up result against its oracle, then
    // every timed query against that result.
    let reference: Vec<Result<u64, String>> = inputs
        .iter()
        .zip(&reports)
        .map(|(input, r)| match r {
            Ok(report) => workloads::verify(input, report, &cfg.expected)
                .map(|()| workloads::fingerprint(&workloads::render(report))),
            Err(e) => Err(format!("{}: {e}", input.name)),
        })
        .collect();
    let mut attempted = 0;
    let mut failed = 0;
    let mut failures = Vec::new();
    for s in untraced.iter().chain(&traced).flat_map(|p| &p.samples) {
        attempted += 1;
        let verdict = match (&s.result, &reference[s.program]) {
            (Err(e), _) => Err(format!("{}: {e}", inputs[s.program].name)),
            (_, Err(e)) => Err(e.clone()),
            (Ok(o), Ok(fp)) if o.fingerprint != *fp => Err(format!(
                "{}: result differs from its warm-up run",
                inputs[s.program].name
            )),
            _ => Ok(()),
        };
        if let Err(e) = verdict {
            failed += 1;
            if failures.len() < 5 && !failures.contains(&e) {
                failures.push(e);
            }
        }
    }
    Run {
        inputs,
        setup,
        untraced,
        traced,
        attempted,
        failed,
        failures,
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank quantile: always one of the values.
fn nearest_rank(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v.get(rank.saturating_sub(1)).copied().unwrap_or(0.0)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median over passes of a per-pass sum over that pass's samples.
fn per_pass(passes: &[Pass], f: impl Fn(&Sample, &Outcome) -> f64) -> f64 {
    let sums: Vec<f64> = passes
        .iter()
        .map(|p| {
            p.samples
                .iter()
                .filter_map(|s| s.result.as_ref().ok().map(|o| f(s, o)))
                .sum()
        })
        .collect();
    median(&sums)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every metric the run measured, in report order: name, value, unit.
fn metrics(run: &Run) -> Vec<(String, f64, &'static str)> {
    let mut m: Vec<(String, f64, &'static str)> = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| m.push((name.into(), value, unit));
    let un = &run.untraced;
    let setup: Vec<f64> = run.setup.iter().map(Duration::as_secs_f64).collect();
    put("setup_s", median(&setup), "s");
    // Other tenants of the host only ever slow a query down, so the
    // minimum is the stable estimate of what a deterministic query costs:
    // throughput comes from the fastest whole pass, and the latencies are
    // quantiles over programs, one value each — its fastest timed query.
    // With n programs, p50 and p90 are the programs at ranks ⌈n/2⌉ and
    // ⌈0.9·n⌉; on `depthk` (n = 9) p90 is the slowest program, `read`.
    let best = un.iter().min_by_key(|p| p.wall).expect("at least one pass");
    put(
        "throughput_aps",
        ratio(best.samples.len() as f64, best.wall.as_secs_f64()),
        "analyses/s",
    );
    let mut fastest = vec![f64::INFINITY; run.inputs.len()];
    for s in un.iter().flat_map(|p| &p.samples) {
        fastest[s.program] = fastest[s.program].min(ms(s.latency));
    }
    fastest.retain(|v| v.is_finite());
    put("latency_ms_p50", nearest_rank(&fastest, 0.5), "ms");
    put("latency_ms_p90", nearest_rank(&fastest, 0.9), "ms");
    let peak = un.iter().flat_map(|p| &p.samples).map(|s| s.peak).max();
    put("peak_heap_mb", peak.unwrap_or(0) as f64 / MIB, "MiB");
    let queries: usize = un.iter().map(|p| p.samples.len()).sum();
    put("queries", queries as f64, "count");
    put("passes", un.len() as f64, "count");

    // Per-program medians; generated programs grouped by size tertile.
    let n = run.inputs.len();
    let mut by_size: Vec<usize> = (0..n).collect();
    by_size.sort_by_key(|&i| run.inputs[i].preds);
    let mut size_rank = vec![0; n];
    for (rank, &i) in by_size.iter().enumerate() {
        size_rank[i] = rank;
    }
    let mut by_program: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for s in un.iter().flat_map(|p| &p.samples) {
        let input = &run.inputs[s.program];
        let key = if input.preds == 0 {
            input.name.clone()
        } else {
            ["gen-s", "gen-m", "gen-l"][3 * size_rank[s.program] / n].to_owned()
        };
        by_program.entry(key).or_default().push(ms(s.latency));
    }
    for (name, v) in &by_program {
        put(&format!("prog.{name}.p50_ms"), median(v), "ms");
    }

    // Layers, untraced: counts and the analyzers' own phase times.
    let parse = per_pass(un, |_, o| ms(o.parse));
    let fixpoint = per_pass(un, |_, o| ms(o.timings.analysis));
    let collect = per_pass(un, |_, o| ms(o.timings.collection));
    put("syntax.parse_ms", parse, "ms");
    put(
        "syntax.clauses",
        per_pass(un, |_, o| o.clauses as f64),
        "count",
    );
    put("fixpoint.ms", fixpoint, "ms");
    put("collect.ms", collect, "ms");
    let count = |f: fn(&Outcome) -> usize| per_pass(un, |_, o| f(o) as f64);
    let steps = count(|o| o.stats.steps);
    let answers = count(|o| o.stats.answers);
    let duplicates = count(|o| o.stats.duplicate_answers);
    put("engine.steps", steps, "count");
    put(
        "engine.clause_resolutions",
        count(|o| o.stats.clause_resolutions),
        "count",
    );
    put("engine.subgoals", count(|o| o.stats.subgoals), "count");
    put("engine.answers", answers, "count");
    put("engine.duplicate_answers", duplicates, "count");
    put(
        "engine.answer_yield",
        ratio(answers, answers + duplicates),
        "ratio",
    );
    put("engine.ns_per_step", ratio(fixpoint * 1e6, steps), "ns");
    put(
        "engine.table_kb",
        count(|o| o.stats.table_bytes) / 1024.0,
        "KiB",
    );
    put("direct.pairs", count(|o| o.pairs), "count");
    put("direct.iterations", count(|o| o.iterations), "count");
    put("domain.bytes", count(|o| o.domain_bytes), "bytes");
    put("domain.bdd_nodes", count(|o| o.bdd_nodes), "count");
    put(
        "alloc.mb",
        per_pass(un, |s, _| s.heap.allocated_bytes as f64) / MIB,
        "MiB",
    );
    put(
        "alloc.count",
        per_pass(un, |s, _| s.heap.allocations as f64),
        "count",
    );
    let residual: Vec<f64> = un
        .iter()
        .map(|p| {
            let parts: Duration = p
                .samples
                .iter()
                .filter_map(|s| s.result.as_ref().ok())
                .map(|o| o.parse + o.timings.total())
                .sum();
            100.0
                * ratio(
                    (p.wall.saturating_sub(parts)).as_secs_f64(),
                    p.wall.as_secs_f64(),
                )
        })
        .collect();
    put("ledger.residual_pct", median(&residual), "%");

    // Layers, traced: standalone transform, span self times, heap per call.
    let tr = &run.traced;
    if !tr.is_empty() {
        let transform = median(&tr.iter().map(|p| ms(p.transform)).collect::<Vec<_>>());
        put("transform.ms", transform, "ms");
        put(
            "transform.rules",
            median(&tr.iter().map(|p| p.rules as f64).collect::<Vec<_>>()),
            "count",
        );
        // Within each traced pass: the analyzers' preprocess minus the
        // standalone transform of the same programs.
        let load: Vec<f64> = tr
            .iter()
            .map(|p| {
                let preprocess: Duration = p
                    .samples
                    .iter()
                    .filter_map(|s| s.result.as_ref().ok())
                    .map(|o| o.timings.preprocess)
                    .sum();
                ms(preprocess) - ms(p.transform)
            })
            .collect();
        put("load.ms", median(&load), "ms");
        put(
            "engine.calls_abstracted",
            per_pass(tr, |_, o| o.calls_abstracted as f64),
            "count",
        );
        put(
            "engine.answers_widened",
            per_pass(tr, |_, o| o.answers_widened as f64),
            "count",
        );
        let traced_wall = median(&tr.iter().map(|p| ms(p.wall)).collect::<Vec<_>>());
        for span in ENGINE_SPANS {
            let self_ms = per_pass(tr, |_, o| {
                o.span_self_ns.get(span).copied().unwrap_or(0) as f64 / 1e6
            });
            put(&format!("engine.{span}_self_ms"), self_ms, "ms");
            put(
                &format!("engine.{span}_self_pct"),
                100.0 * ratio(self_ms, traced_wall),
                "%",
            );
        }
        let heap_mb = |f: fn(&(HeapDelta, HeapDelta)) -> u64| {
            per_pass(tr, |_, o| o.heap.as_ref().map_or(0, f) as f64) / MIB
        };
        put("alloc.parse_mb", heap_mb(|h| h.0.allocated_bytes), "MiB");
        put("alloc.analyze_mb", heap_mb(|h| h.1.allocated_bytes), "MiB");
        let totals = per_pass(tr, |_, o| ms(o.parse + o.timings.total()));
        let compile = median(&tr.iter().map(|p| ms(p.compile)).collect::<Vec<_>>());
        put(
            "paper.compile_increase_pct",
            100.0 * ratio(totals, compile),
            "%",
        );
        let fastest = |passes: &[Pass]| passes.iter().map(|p| ms(p.wall)).fold(f64::MAX, f64::min);
        put(
            "trace.overhead_pct",
            100.0 * (ratio(fastest(tr), fastest(un)) - 1.0),
            "%",
        );
    }
    m
}

fn json_metrics(m: &[(String, f64, &'static str)], names: Option<&[&str]>) -> String {
    let mut out = String::from("{");
    let chosen = m
        .iter()
        .filter(|(n, _, _)| names.is_none_or(|names| names.contains(&n.as_str())));
    for (i, (name, value, unit)) in chosen.enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push('}');
    out
}

/// The result object: the end-to-end metrics, or with `traced` the
/// per-layer ones.
fn result_line(run: &Run, m: &[(String, f64, &'static str)], traced: bool) -> String {
    let names: &[&str] = if traced { &PER_LAYER } else { &END_TO_END };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.failed == 0,
        run.attempted,
        run.failed,
        json_metrics(m, Some(names))
    )
}

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                traced = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Config {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced,
        scale: workloads::FULL_SCALE,
        passes: None,
        expected: workloads::expected(workload),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!(
                "e2e: {e}\nusage: e2e --workload ground|strict|depthk|direct|gen \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let run = run(&cfg);
    for f in &run.failures {
        eprintln!("e2e: FAILED {f}");
    }
    let m = metrics(&run);
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"metrics\": {}}}",
        cfg.workload.name(),
        cfg.seed,
        u8::from(cfg.traced),
        json_metrics(&m, None)
    );
    println!("{}", result_line(&run, &m, cfg.traced));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    static SERIAL: Mutex<()> = Mutex::new(());

    /// The allocator counters are process-wide and the ledger compares
    /// wall times, so every test of this binary runs alone.
    pub fn serial() -> MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The smallest `gen` size: two programs of the minimum predicate count.
    const SMOKE_SCALE: GenScale = GenScale {
        programs: 2,
        min: gen::MIN_PREDS,
        max: gen::MIN_PREDS,
    };

    fn one_pass(workload: Workload, traced: bool, expected: Expected) -> Run {
        run(&Config {
            workload,
            seed: 1,
            seconds: 0.0,
            traced,
            scale: SMOKE_SCALE,
            passes: Some(1),
            expected,
        })
    }

    #[test]
    fn every_workload_verifies_in_one_pass() {
        let _g = serial();
        for w in Workload::ALL {
            let run = one_pass(w, false, workloads::expected(w));
            assert!(run.attempted > 0, "{}", w.name());
            assert_eq!(run.failed, 0, "{}: {:?}", w.name(), run.failures);
        }
    }

    #[test]
    fn a_corrupted_expected_entry_fails_its_queries() {
        let _g = serial();
        let mut expected = workloads::expected(Workload::Strict);
        let entry = expected
            .get_mut("quicksort")
            .expect("quicksort is expected");
        *entry = entry.replacen("e->e", "e->n", 1);
        let run = one_pass(Workload::Strict, false, expected);
        assert_eq!(run.failed, 1, "{:?}", run.failures);
    }

    #[test]
    fn allocation_free_query_reports_no_peak() {
        let _g = serial();
        // Live memory the harness already holds must not count.
        let held = vec![0u8; 1 << 20];
        let ((), _, peak, _) = measure(|| {
            std::hint::black_box(());
        });
        drop(held);
        // The test runner's other threads may allocate a few bytes meanwhile.
        assert!(peak < 16 * 1024, "peak {peak} bytes");
    }

    #[test]
    fn phases_account_for_the_pass_wall_time() {
        let _g = serial();
        for w in [Workload::Ground, Workload::Strict] {
            let run = one_pass(w, false, workloads::expected(w));
            let m = metrics(&run);
            let residual = m
                .iter()
                .find(|(n, _, _)| n == "ledger.residual_pct")
                .expect("ledger reported")
                .1;
            assert!(residual < 5.0, "{}: residual {residual:.2}%", w.name());
        }
    }

    #[test]
    fn benchmark_json_names_every_emitted_metric_with_its_unit() {
        let _g = serial();
        let doc = tablog_trace::json::parse(include_str!("../../../../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let run = one_pass(Workload::Ground, true, Expected::new());
        let m = metrics(&run);
        for (key, traced) in [("end_to_end", false), ("per_layer", true)] {
            let line = tablog_trace::json::parse(&result_line(&run, &m, traced))
                .expect("result line parses");
            let emitted = line.get("metrics").expect("metrics object");
            let declared = doc.get(key).and_then(|v| v.as_arr()).expect(key);
            for d in declared {
                let name = d.get("name").and_then(|v| v.as_str()).expect("name");
                let unit = d.get("unit").and_then(|v| v.as_str());
                let got = emitted
                    .get(name)
                    .unwrap_or_else(|| panic!("{name} missing"));
                assert_eq!(got.get("unit").and_then(|v| v.as_str()), unit, "{name}");
            }
            let emitted_count = match emitted {
                tablog_trace::json::JsonValue::Obj(o) => o.len(),
                _ => 0,
            };
            assert_eq!(
                emitted_count,
                declared.len(),
                "{key}: extra metrics emitted"
            );
        }
    }

    /// Rewrites `expected/*.txt` from the current analyzers. Run with
    /// `cargo test --manifest-path crates/bench/src/bin/e2e/Cargo.toml --
    /// --ignored bless_expected` after an intended change to a strictness
    /// or depth-k result.
    #[test]
    #[ignore]
    fn bless_expected_files() {
        let _g = serial();
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("expected");
        for (w, file) in [
            (Workload::Strict, "strict.txt"),
            (Workload::Depthk, "depthk.txt"),
        ] {
            let mut text = String::new();
            for input in workloads::inputs(w, 0, SMOKE_SCALE) {
                let answer = workloads::query(w, &input, false).expect("suite analyzes");
                let _ = write!(
                    text,
                    "== {}\n{}",
                    input.name,
                    workloads::render(&answer.report)
                );
            }
            std::fs::write(dir.join(file), text).expect("expected file written");
        }
    }
}
