//! The five workloads: which programs each one queries, the query itself
//! (source text in, collected report out, through each analyzer's public
//! entry points), the canonical rendering a result is fingerprinted by,
//! and the independent check each result must pass.

use crate::gen;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use tablog_alloc::{HeapDelta, HeapScope};
use tablog_core::depthk::{DepthKAnalyzer, DepthKReport};
use tablog_core::direct::{DirectAnalyzer, DirectReport};
use tablog_core::groundness::{
    transform_program, EntryPoint, GroundnessAnalyzer, GroundnessReport, IffMode,
};
use tablog_core::strictness::{StrictnessAnalyzer, StrictnessReport};
use tablog_core::{AnalysisError, PhaseTimings};
use tablog_engine::TableStats;
use tablog_magic::BottomUp;
use tablog_suite::{depthk_benchmarks, fun_benchmarks, logic_benchmarks, LogicBenchmark};
use tablog_syntax::{parse_program, TermWriter};
use tablog_term::{atom, intern, sym_name, Functor, Term};

/// Truncation depth of the `depthk` workload (the paper's Table 4).
const DEPTH_K: usize = 1;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Ground,
    Strict,
    Depthk,
    Direct,
    Gen,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Ground,
        Workload::Strict,
        Workload::Depthk,
        Workload::Direct,
        Workload::Gen,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Ground => "ground",
            Workload::Strict => "strict",
            Workload::Depthk => "depthk",
            Workload::Direct => "direct",
            Workload::Gen => "gen",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One program a workload queries.
pub struct Input {
    pub name: String,
    pub source: String,
    /// Goal-directed entry point; `None` analyzes every predicate with
    /// open calls.
    pub entry: Option<EntryPoint>,
    /// Predicate count of a generated program (0 for suite programs).
    pub preds: usize,
}

/// How many `gen` programs a seed yields and their predicate range.
#[derive(Clone, Copy, Debug)]
pub struct GenScale {
    pub programs: usize,
    pub min: usize,
    pub max: usize,
}

pub const FULL_SCALE: GenScale = GenScale {
    programs: gen::PROGRAMS,
    min: gen::MIN_PREDS,
    max: gen::MAX_PREDS,
};

/// The programs of workload `w`. Only `gen` depends on the seed.
pub fn inputs(w: Workload, seed: u64, scale: GenScale) -> Vec<Input> {
    let logic = |benchmarks: Vec<LogicBenchmark>| -> Vec<Input> {
        benchmarks
            .into_iter()
            .map(|b| Input {
                name: b.name.to_owned(),
                source: b.source.to_owned(),
                entry: Some(EntryPoint::parse(b.entry).expect("suite entry points parse")),
                preds: 0,
            })
            .collect()
    };
    match w {
        Workload::Ground | Workload::Direct => logic(logic_benchmarks()),
        Workload::Depthk => logic(depthk_benchmarks()),
        Workload::Strict => fun_benchmarks()
            .into_iter()
            .map(|b| Input {
                name: b.name.to_owned(),
                source: b.source.to_owned(),
                entry: None,
                preds: 0,
            })
            .collect(),
        Workload::Gen => gen::programs(seed, scale.programs, scale.min, scale.max)
            .into_iter()
            .map(|p| Input {
                name: p.name,
                source: p.source,
                entry: None,
                preds: p.preds,
            })
            .collect(),
    }
}

/// An analyzer's report.
pub enum Report {
    Ground(GroundnessReport),
    Strict(StrictnessReport),
    Depthk(DepthKReport),
    Direct(DirectReport),
}

/// One query's result.
pub struct Answer {
    pub parse: Duration,
    pub clauses: usize,
    pub report: Report,
    /// Heap cost of the parse and of the analyzer call, measured only
    /// when traced (each opens its own `HeapScope`).
    pub heap: Option<(HeapDelta, HeapDelta)>,
}

fn heap_scope(traced: bool) -> Option<HeapScope> {
    traced.then(HeapScope::begin)
}

/// Runs one query end to end: parse the source, then call the analyzer,
/// which returns the collected report. `traced` turns on the analyzer's
/// `profile` and span recording and measures the heap of each call.
pub fn query(w: Workload, input: &Input, traced: bool) -> Result<Answer, AnalysisError> {
    let start = Instant::now();
    let parse_heap = heap_scope(traced);
    if w == Workload::Strict {
        let prog = tablog_funlang::parse_fun_program(&input.source)?;
        let parse = start.elapsed();
        let parse_heap = parse_heap.and_then(|s| s.measure());
        let analyze_heap = heap_scope(traced);
        let mut an = StrictnessAnalyzer::new();
        an.profile = traced;
        an.options.record_spans = traced;
        let report = Report::Strict(an.analyze_program(&prog)?);
        return Ok(Answer {
            parse,
            clauses: prog.equations.len(),
            report,
            heap: parse_heap.zip(analyze_heap.and_then(|s| s.measure())),
        });
    }
    let prog = parse_program(&input.source)?;
    let parse = start.elapsed();
    let parse_heap = parse_heap.and_then(|s| s.measure());
    let analyze_heap = heap_scope(traced);
    let entries = input.entry.as_slice();
    let report = match w {
        Workload::Ground | Workload::Gen => {
            let mut an = GroundnessAnalyzer::new();
            an.profile = traced;
            an.options.record_spans = traced;
            Report::Ground(match &input.entry {
                Some(_) => an.analyze_with_entries(&prog, entries)?,
                None => an.analyze_program(&prog)?,
            })
        }
        Workload::Depthk => {
            let mut an = DepthKAnalyzer::new(DEPTH_K);
            an.profile = traced;
            an.options.record_spans = traced;
            Report::Depthk(an.analyze_with_entries(&prog, entries)?)
        }
        Workload::Direct => {
            let an = DirectAnalyzer {
                profile: traced,
                record_spans: traced,
                ..DirectAnalyzer::new()
            };
            Report::Direct(an.analyze_with_entries(&prog, entries)?)
        }
        Workload::Strict => unreachable!("strictness queries return above"),
    };
    Ok(Answer {
        parse,
        clauses: prog.len(),
        report,
        heap: parse_heap.zip(analyze_heap.and_then(|s| s.measure())),
    })
}

/// What the harness keeps of one answer: the fingerprint of its rendered
/// result, its phase times and its counters.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    pub fingerprint: u64,
    pub parse: Duration,
    pub clauses: usize,
    /// The analyzer's own preprocess / analysis / collection split.
    pub timings: PhaseTimings,
    pub stats: TableStats,
    pub pairs: usize,
    pub iterations: usize,
    pub domain_bytes: usize,
    pub bdd_nodes: usize,
    pub calls_abstracted: u64,
    pub answers_widened: u64,
    /// Span self time in ns by span name (traced only).
    pub span_self_ns: BTreeMap<String, u64>,
    pub heap: Option<(HeapDelta, HeapDelta)>,
}

impl Answer {
    pub fn outcome(&self) -> Outcome {
        let mut o = Outcome {
            fingerprint: fingerprint(&render(&self.report)),
            parse: self.parse,
            clauses: self.clauses,
            heap: self.heap,
            ..Outcome::default()
        };
        let metrics = match &self.report {
            Report::Ground(r) => {
                (o.timings, o.stats) = (r.timings, r.stats);
                (o.domain_bytes, o.bdd_nodes) = (r.domain_bytes, r.bdd_nodes);
                &r.metrics
            }
            Report::Strict(r) => {
                (o.timings, o.stats) = (r.timings, r.stats);
                &r.metrics
            }
            Report::Depthk(r) => {
                (o.timings, o.stats) = (r.timings, r.stats);
                &r.metrics
            }
            Report::Direct(r) => {
                o.timings = r.timings;
                (o.pairs, o.iterations) = (r.pairs, r.iterations);
                (o.domain_bytes, o.bdd_nodes) = (r.domain_bytes, r.bdd_nodes);
                &r.metrics
            }
        };
        if let Some(m) = metrics {
            let t = m.totals();
            o.calls_abstracted = t.calls_abstracted;
            o.answers_widened = t.answers_widened;
            for (name, r) in m.spans.rollup_by_name() {
                o.span_self_ns.insert(name, r.self_ns);
            }
        }
        o
    }
}

/// FNV-1a, 64 bit.
pub fn fingerprint(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn bits(v: &[bool]) -> String {
    v.iter().map(|&b| if b { '1' } else { '0' }).collect()
}

fn partial_row(r: &[Option<bool>]) -> String {
    r.iter()
        .map(|b| match b {
            Some(true) => 't',
            Some(false) => 'f',
            None => '_',
        })
        .collect()
}

/// Renders terms as one tuple with variables named by first occurrence,
/// so two runs' answers compare equal whatever variable numbers the
/// engine assigned.
fn tuple(args: &[Term]) -> String {
    TermWriter::new().write(&Term::Struct(intern("t"), args.into()))
}

fn sorted_join(mut v: Vec<String>) -> String {
    v.sort();
    v.join(" ")
}

/// Canonical text of a result: one line per predicate or function, rows
/// and call patterns sorted so a scheduling change that only reorders
/// answers renders the same.
pub fn render(report: &Report) -> String {
    let mut out = String::new();
    match report {
        Report::Ground(r) => {
            for p in r.predicates() {
                let _ = writeln!(
                    out,
                    "{}/{} ground={} rows={} calls={}",
                    p.name,
                    p.arity,
                    bits(&p.definitely_ground),
                    sorted_join(p.success_rows.iter().map(|x| partial_row(x)).collect()),
                    sorted_join(p.call_patterns.iter().map(|x| partial_row(x)).collect()),
                );
            }
        }
        Report::Direct(r) => {
            for p in r.predicates() {
                let _ = writeln!(
                    out,
                    "{}/{} ground={} rows={}",
                    p.name,
                    p.arity,
                    bits(&p.definitely_ground),
                    sorted_join(p.prop.rows().iter().map(|x| bits(x)).collect()),
                );
            }
        }
        Report::Strict(r) => {
            for f in r.functions() {
                let _ = writeln!(out, "{}", f.summary());
            }
        }
        Report::Depthk(r) => {
            for p in r.predicates() {
                let _ = writeln!(
                    out,
                    "{}/{} ground={} answers={} calls={}",
                    p.name,
                    p.arity,
                    bits(&p.definitely_ground),
                    sorted_join(p.answers.iter().map(|a| tuple(a)).collect()),
                    sorted_join(p.call_patterns.iter().map(|c| tuple(c)).collect()),
                );
            }
        }
    }
    out
}

/// Committed renderings for the workloads whose independent oracles do not
/// exist yet: one block per program, headed `== name`.
pub type Expected = BTreeMap<String, String>;

fn parse_expected(text: &str) -> Expected {
    let mut out = Expected::new();
    let mut current: Option<&mut String> = None;
    for line in text.lines() {
        if let Some(name) = line.strip_prefix("== ") {
            current = Some(out.entry(name.to_owned()).or_default());
        } else if let Some(block) = current.as_mut() {
            block.push_str(line);
            block.push('\n');
        }
    }
    out
}

pub fn expected(w: Workload) -> Expected {
    match w {
        Workload::Strict => parse_expected(include_str!("expected/strict.txt")),
        Workload::Depthk => parse_expected(include_str!("expected/depthk.txt")),
        _ => Expected::new(),
    }
}

/// Checks one program's result against its oracle:
///
/// * `ground` / `direct` — the other groundness analyzer, goal-directed
///   from the same entry, must agree on every reached predicate;
/// * `gen` — plain bottom-up evaluation (`tablog_magic::BottomUp`) of the
///   same abstract program must derive the same success set for every
///   predicate;
/// * `strict` / `depthk` — the rendering must equal the committed one.
pub fn verify(input: &Input, report: &Report, expected: &Expected) -> Result<(), String> {
    let program = || parse_program(&input.source).map_err(|e| e.to_string());
    let entries = input.entry.as_slice();
    match report {
        Report::Ground(tabled) if input.entry.is_some() => {
            let direct = DirectAnalyzer::new()
                .analyze_with_entries(&program()?, entries)
                .map_err(|e| format!("direct oracle: {e}"))?;
            groundness_agree(tabled, &direct)
        }
        Report::Direct(direct) => {
            let tabled = GroundnessAnalyzer::new()
                .analyze_with_entries(&program()?, entries)
                .map_err(|e| format!("tabled oracle: {e}"))?;
            groundness_agree(&tabled, direct)
        }
        Report::Ground(tabled) => bottom_up_agree(&program()?, tabled),
        Report::Strict(_) | Report::Depthk(_) => match expected.get(&input.name) {
            Some(want) if *want == render(report) => Ok(()),
            Some(_) => Err(format!(
                "{}: result differs from the expected file",
                input.name
            )),
            None => Err(format!("{}: no expected entry", input.name)),
        },
    }
}

/// The tabled and direct analyzers reach the same predicates from the
/// same entry and find the same arguments definitely ground.
fn groundness_agree(tabled: &GroundnessReport, direct: &DirectReport) -> Result<(), String> {
    for p in tabled.predicates().filter(|p| !p.success_rows.is_empty()) {
        let d = direct
            .output_groundness(&p.name, p.arity)
            .ok_or_else(|| format!("{}/{}: missing from the direct result", p.name, p.arity))?;
        if d.definitely_ground != p.definitely_ground {
            return Err(format!(
                "{}/{}: tabled ground={} direct ground={}",
                p.name,
                p.arity,
                bits(&p.definitely_ground),
                bits(&d.definitely_ground)
            ));
        }
    }
    for d in direct.predicates().filter(|d| !d.prop.rows().is_empty()) {
        let reached = tabled
            .output_groundness(&d.name, d.arity)
            .is_some_and(|p| !p.success_rows.is_empty());
        if !reached {
            return Err(format!(
                "{}/{}: succeeds only in the direct result",
                d.name, d.arity
            ));
        }
    }
    Ok(())
}

/// Every predicate's tabled success set equals the relation bottom-up
/// evaluation of the same Figure 1 abstract program derives.
fn bottom_up_agree(
    program: &tablog_syntax::Program,
    tabled: &GroundnessReport,
) -> Result<(), String> {
    let (rules, preds) = transform_program(program, IffMode::Builtin).map_err(|e| e.to_string())?;
    let mut eval = BottomUp::new(rules);
    eval.run().map_err(|e| format!("bottom-up oracle: {e}"))?;
    let truth = atom("true");
    for &(name, arity) in preds.keys() {
        let pname = sym_name(name);
        let t = tabled
            .output_groundness(&pname, arity)
            .ok_or_else(|| format!("{pname}/{arity}: missing from the tabled result"))?;
        let mut rows = t.prop.rows();
        rows.sort();
        let f = Functor {
            name: intern(&format!("gp${pname}")),
            arity,
        };
        let mut derived: Vec<Vec<bool>> = eval
            .relation(f)
            .iter()
            .map(|tuple| tuple.iter().map(|v| *v == truth).collect())
            .collect();
        derived.sort();
        derived.dedup();
        if rows != derived {
            return Err(format!(
                "{pname}/{arity}: tabled has {} rows, bottom-up {}",
                rows.len(),
                derived.len()
            ));
        }
    }
    Ok(())
}
