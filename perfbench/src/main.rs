//! Host-performance benchmark of the Rambda simulator on the paper's three
//! case studies (see `perfbench/README.md` for the workloads and metrics).
//!
//! ```text
//! rambda-perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Untraced (`--trace 0`): repeats a set-up build (the design at one
//! request) and a full-size run until `--seconds` is spent, and prints
//! `host_req_per_s`, `setup_s` and `peak_rss_mb`. Traced (`--trace 1`):
//! untraced repetitions for the baseline, one profiled run for the
//! deterministic counts, then one timed replay of the request path for the
//! per-layer host times. Every report is validated and every repetition of
//! a seed must render byte-identical JSON. The last stdout line is the
//! result object; the exit code is non-zero when any check fails.

mod prof;
mod replay;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use rambda::{Design, SimBuilder, Testbed};
use rambda_accel::DataLocation;
use rambda_dlrm::{DlrmDesigns, DlrmParams};
use rambda_kvs::{KvsDesigns, KvsParams};
use rambda_metrics::{MetricSet, RunReport};
use rambda_txn::{TxnDesigns, TxnParams};
use rambda_workloads::{DlrmProfile, TxnSpec};

use crate::prof::{Prof, LAYERS};
use crate::replay::Replay;

/// Full-size repetitions an untraced run makes even when `--seconds` is
/// spent sooner.
const MIN_REPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    KvsRambdaGet,
    TxnRambdaRw,
    DlrmRambdaBooks,
}

const WORKLOADS: [(&str, Workload); 3] = [
    ("kvs_rambda_get", Workload::KvsRambdaGet),
    ("txn_rambda_rw", Workload::TxnRambdaRw),
    ("dlrm_rambda_books", Workload::DlrmRambdaBooks),
];

fn kvs_params(seed: Option<u64>, requests: u64) -> KvsParams {
    let p = KvsParams::paper();
    KvsParams { seed: seed.unwrap_or(p.seed), requests, ..p }
}

fn txn_params(seed: Option<u64>, txns: u64) -> TxnParams {
    let p = TxnParams::paper(TxnSpec::read_write(64));
    TxnParams { seed: seed.unwrap_or(p.seed), txns, ..p }
}

fn books() -> DlrmProfile {
    DlrmProfile::by_name("Books").expect("Books is a paper profile")
}

fn dlrm_params(seed: Option<u64>, queries: u64) -> DlrmParams {
    let p = DlrmParams::paper(books());
    DlrmParams { seed: seed.unwrap_or(p.seed), queries, ..p }
}

impl Workload {
    fn name(self) -> &'static str {
        WORKLOADS.iter().find(|(_, w)| *w == self).expect("every workload is listed").0
    }

    /// The paper's request count, which sets the run length.
    fn requests(self) -> u64 {
        match self {
            Workload::KvsRambdaGet => KvsParams::paper().requests,
            Workload::TxnRambdaRw => TxnParams::paper(TxnSpec::read_write(64)).txns,
            Workload::DlrmRambdaBooks => DlrmParams::paper(books()).queries,
        }
    }

    /// The design call and its parameters, for the run's log.
    fn describe(self, seed: Option<u64>) -> String {
        let n = self.requests();
        match self {
            Workload::KvsRambdaGet => format!("Design::kvs_rambda(HostDram) with {:?}", kvs_params(seed, n)),
            Workload::TxnRambdaRw => {
                format!("Design::txn_rambda_tx, 1 client x window 1, with {:?}", txn_params(seed, n))
            }
            Workload::DlrmRambdaBooks => {
                format!("Design::dlrm_rambda(HostDram) with {:?}", dlrm_params(seed, n))
            }
        }
    }

    fn design(self, seed: Option<u64>, requests: u64) -> Design {
        match self {
            Workload::KvsRambdaGet => Design::kvs_rambda(kvs_params(seed, requests), DataLocation::HostDram),
            Workload::TxnRambdaRw => Design::txn_rambda_tx(txn_params(seed, requests)),
            Workload::DlrmRambdaBooks => {
                Design::dlrm_rambda(dlrm_params(seed, requests), DataLocation::HostDram)
            }
        }
    }

    fn replay(self, seed: Option<u64>, testbed: &Testbed, prof: &mut Prof) -> Replay {
        let n = self.requests();
        match self {
            Workload::KvsRambdaGet => replay::kvs(&kvs_params(seed, n), testbed, prof),
            Workload::TxnRambdaRw => replay::txn(&txn_params(seed, n), testbed, prof),
            Workload::DlrmRambdaBooks => replay::dlrm(&dlrm_params(seed, n), testbed, prof),
        }
    }
}

struct Args {
    workload: Workload,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args { workload: Workload::KvsRambdaGet, seed: None, seconds: 10.0, trace: false };
    let mut workload = None;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
                let found = WORKLOADS.iter().find(|(n, _)| *n == value);
                workload =
                    Some(found.ok_or_else(|| bad(&format!("expected one of {}", names.join(", "))))?.1);
            }
            "--seed" => args.seed = Some(value.parse().map_err(|e| bad(&e))?),
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err(bad(&"expected 0 < seconds <= 3600"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// Failure accounting and the byte-identity check across repetitions.
#[derive(Default)]
struct Gate {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// JSON of the first full-size untraced report of this seed.
    reference: Option<String>,
}

impl Gate {
    /// Counts one repetition of `requests` simulated requests. Requests the
    /// design shed count as failed; a repetition whose report fails
    /// validation (or, for `compare`, differs from the first) fails whole.
    fn repetition(&mut self, report: &RunReport, requests: u64, compare: bool) {
        self.attempted += requests;
        let mut problem = report.validate().err();
        if compare && problem.is_none() {
            let json = report.to_json_string();
            match &self.reference {
                None => {
                    println!(
                        "report digest: fnv1a64 {:016x} over {} bytes of JSON",
                        fnv1a64(&json),
                        json.len()
                    );
                    self.reference = Some(json);
                }
                Some(first) if *first != json => {
                    problem = Some("two repetitions of one seed rendered different report JSON".into())
                }
                Some(_) => {}
            }
        }
        match problem {
            Some(e) => self.fail(requests, e),
            None => self.failed += stage_count(report, "shed"),
        }
    }

    fn fail(&mut self, requests: u64, error: String) {
        self.failed += requests;
        self.errors.push(error);
    }
}

fn stage_count(report: &RunReport, stage: &str) -> u64 {
    report.stages.iter().find(|(name, _)| name == stage).map_or(0, |(_, h)| h.count)
}

fn fnv1a64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

fn run(workload: Workload, seed: Option<u64>, requests: u64) -> (RunReport, f64) {
    let t = Instant::now();
    let report = SimBuilder::new(workload.design(seed, requests)).config(&Testbed::default()).run();
    (report, t.elapsed().as_secs_f64())
}

/// Alternates set-up builds and full-size runs until `budget` is spent
/// (at least `min_reps` of each). Returns the wall seconds of each and the
/// last full-size report.
fn repetitions(
    args: &Args,
    gate: &mut Gate,
    budget: Duration,
    min_reps: usize,
) -> (Vec<f64>, Vec<f64>, RunReport) {
    let start = Instant::now();
    let n = args.workload.requests();
    let (mut setup, mut full) = (Vec::new(), Vec::new());
    let mut last;
    loop {
        let iteration = Instant::now();
        let (report, secs) = run(args.workload, args.seed, 1);
        gate.repetition(&report, 1, false);
        setup.push(secs);
        let (report, secs) = run(args.workload, args.seed, n);
        gate.repetition(&report, n, true);
        full.push(secs);
        last = report;
        if full.len() >= min_reps && start.elapsed() + iteration.elapsed() > budget {
            break;
        }
    }
    (setup, full, last)
}

/// A named metric value with its unit.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

fn peak_rss_mb() -> Result<f64, String> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).ok_or("no VmHWM in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unreadable line `{line}`"))?;
    Ok(kb / 1024.0)
}

fn untraced(args: &Args, gate: &mut Gate) -> Vec<Metric> {
    let n = args.workload.requests();
    let (setup, full, _) = repetitions(args, gate, Duration::from_secs_f64(args.seconds), MIN_REPS);
    let setup_s = median(&setup);
    let rates: Vec<f64> = full.iter().map(|f| n as f64 / (f - setup_s).max(1e-9)).collect();
    println!("set-up builds (s): {}", list(&setup));
    println!("full runs (s):     {}", list(&full));
    println!("host req/s:        {}", list(&rates));
    let rss = peak_rss_mb().unwrap_or_else(|e| {
        gate.fail(0, e);
        0.0
    });
    vec![
        metric("host_req_per_s", median(&rates), "req/s"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", rss, "MB"),
    ]
}

fn list(values: &[f64]) -> String {
    values.iter().map(|v| format!("{v:.4}")).collect::<Vec<_>>().join(" ")
}

/// Work and wait counters of one run, summed over machine prefixes.
struct Counts {
    messages: u64,
    fabric_queue_ps: u64,
    wqes: u64,
    doorbells: u64,
    pipeline_admitted: u64,
    mem_transfers: u64,
    mem_queue_ps: u64,
    accel_mem_ops: u64,
    slot_wait_ps: u64,
}

impl Counts {
    fn of(m: &MetricSet) -> Counts {
        let sum = |keep: &dyn Fn(&[&str]) -> bool| -> u64 {
            m.counters().filter(|(name, _)| keep(&name.split('.').collect::<Vec<_>>())).map(|(_, v)| v).sum()
        };
        Counts {
            messages: sum(&|p| p == ["net", "messages"]),
            fabric_queue_ps: sum(&|p| p[0] == "net" && p[p.len() - 1] == "queue_ps"),
            wqes: sum(&|p| matches!(p, [_, "rnic", "wqes"])),
            doorbells: sum(&|p| matches!(p, [_, "rnic", "doorbells"])),
            pipeline_admitted: sum(&|p| matches!(p, [_, "rnic", "pipeline", "admitted"])),
            mem_transfers: sum(&|p| matches!(p, [_, "mem", _, "transfers"])),
            mem_queue_ps: sum(&|p| matches!(p, [_, "mem", _, "queue_ps"])),
            accel_mem_ops: sum(&|p| matches!(p, [a, "mem_ops"] if a.starts_with("accel"))),
            slot_wait_ps: sum(&|p| matches!(p, [a, "slots", "wait_ps"] if a.starts_with("accel"))),
        }
    }
}

/// The traced run's simulated statistics must equal the untraced run's:
/// profiling observes, it does not perturb.
fn same_simulation(plain: &RunReport, profiled: &RunReport) -> Result<(), String> {
    if plain.completed != profiled.completed
        || plain.throughput_ops.to_bits() != profiled.throughput_ops.to_bits()
        || plain.latency != profiled.latency
        || plain.total != profiled.total
        || plain.stages != profiled.stages
    {
        return Err(
            "the profiled run's completions, throughput or latency differ from the plain run's".into()
        );
    }
    for (name, value) in plain.resources.counters() {
        if profiled.resources.counter(name) != Some(value) {
            return Err(format!(
                "profiled counter {name} = {:?}, plain run says {value}",
                profiled.resources.counter(name)
            ));
        }
    }
    Ok(())
}

/// The replay must have done the report's work: same work counters, same
/// queue dispatches, same issue→completion histogram.
fn fidelity(report: &RunReport, replay: &Replay) -> Result<(), String> {
    let (want, got) = (Counts::of(&report.resources), Counts::of(&replay.resources));
    let pairs = [
        ("fabric.messages", want.messages, got.messages),
        ("rnic.wqes", want.wqes, got.wqes),
        ("rnic.doorbells", want.doorbells, got.doorbells),
        ("rnic.pipeline_admitted", want.pipeline_admitted, got.pipeline_admitted),
        ("mem.transfers", want.mem_transfers, got.mem_transfers),
        ("accel.mem_ops", want.accel_mem_ops, got.accel_mem_ops),
        (
            "event_core.dispatched",
            report.event_core.as_ref().map_or(0, |e| e.dispatched),
            replay.queue.dispatched,
        ),
        ("requests", report.total.count, replay.total.count),
    ];
    let off: Vec<String> = pairs
        .iter()
        .filter(|(_, w, g)| w != g)
        .map(|(n, w, g)| format!("{n}: report {w}, replay {g}"))
        .collect();
    if !off.is_empty() {
        return Err(format!("replay diverged from the design: {}", off.join("; ")));
    }
    if replay.total != report.total {
        return Err("replay's issue→completion histogram differs from the report's".into());
    }
    println!(
        "replay fidelity: {}",
        pairs.iter().map(|(n, w, _)| format!("{n}={w}")).collect::<Vec<_>>().join(" ")
    );
    Ok(())
}

/// Stages of the three designs' partitions, reported as `sim.<stage>.mean_us`.
const STAGES: [&str; 14] = [
    "apu_compute",
    "apu_dispatch",
    "chain_round",
    "coherence",
    "commit",
    "cpu_preprocess",
    "dispatch",
    "doorbell",
    "fabric_request",
    "fabric_response",
    "gather",
    "ring_read",
    "ring_write",
    "sq_wqe",
];

/// Set-up phases the replay times; only the workload's own is non-zero.
const SETUPS: [&str; 3] = ["kvs.load", "txn.preload", "dlrm.model"];

fn traced(args: &Args, gate: &mut Gate) -> Vec<Metric> {
    let workload = args.workload;
    let n = workload.requests();
    let testbed = Testbed::default();

    // The untraced baseline first, so the profiled run and the replay start
    // warm.
    let (setup, full, plain) = repetitions(args, gate, Duration::from_secs_f64(args.seconds / 2.0), 2);
    let setup_s = median(&setup);
    let untraced_s = median(&full) - setup_s;

    let t = Instant::now();
    let profiled = SimBuilder::new(workload.design(args.seed, n)).config(&testbed).profile().run();
    let profiled_s = t.elapsed().as_secs_f64() - setup_s;
    gate.repetition(&profiled, n, false);
    if let Err(e) = same_simulation(&plain, &profiled) {
        gate.fail(n, e);
    }

    let mut prof = Prof::new();
    let replayed = prof.span("replay", "", n, |prof| workload.replay(args.seed, &testbed, prof));
    gate.attempted += n;
    if let Err(e) = fidelity(&profiled, &replayed) {
        gate.fail(n, e);
    }

    let report_ms = median(
        &(0..5)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box((plain.validate().is_ok(), plain.to_json_string()));
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect::<Vec<_>>(),
    );

    let per_req = |v: f64| v / n as f64;
    let self_ns = prof.layer_self_ns();
    let mut out: Vec<Metric> = LAYERS
        .iter()
        .zip(self_ns)
        .map(|(l, ns)| metric(format!("{}_ns", l.name), per_req(ns), "ns/req"))
        .collect();
    out.push(metric("metrics.report_ms", report_ms, "ms"));
    for name in SETUPS {
        out.push(metric(format!("{name}_ms"), prof.span_ns(name).map_or(0.0, |ns| ns / 1e6), "ms"));
    }
    out.push(metric("replay.coverage", self_ns.iter().sum::<f64>() / (untraced_s * 1e9), "ratio"));
    out.push(metric("trace.overhead", profiled_s / untraced_s - 1.0, "ratio"));

    let (dispatched, far_frac) = match &profiled.event_core {
        Some(core) => (core.dispatched, core.far_hits as f64 / core.enqueued.max(1) as f64),
        None => {
            gate.fail(0, "profiled report has no event_core section".into());
            (0, 0.0)
        }
    };
    let c = Counts::of(&profiled.resources);
    let count = |v: u64| per_req(v as f64);
    let sim_us = |ps: u64| per_req(ps as f64) / 1e6;
    out.extend([
        metric("event_core.dispatched", count(dispatched), "count/req"),
        metric("event_core.far_frac", far_frac, "ratio"),
        metric("fabric.messages", count(c.messages), "count/req"),
        metric("fabric.queue_us", sim_us(c.fabric_queue_ps), "sim_us/req"),
        metric("rnic.wqes", count(c.wqes), "count/req"),
        metric("rnic.doorbells", count(c.doorbells), "count/req"),
        metric("rnic.pipeline_admitted", count(c.pipeline_admitted), "count/req"),
        metric("mem.transfers", count(c.mem_transfers), "count/req"),
        metric("mem.queue_us", sim_us(c.mem_queue_ps), "sim_us/req"),
        metric("accel.mem_ops", count(c.accel_mem_ops), "count/req"),
        metric("accel.slot_wait_us", sim_us(c.slot_wait_ps), "sim_us/req"),
        metric("dlrm.memo_frac", replayed.memo_rows.0 as f64 / replayed.memo_rows.1.max(1) as f64, "ratio"),
    ]);
    for stage in STAGES {
        let mean = profiled.stages.iter().find(|(s, _)| s == stage).map_or(0.0, |(_, h)| h.mean_us());
        out.push(metric(format!("sim.{stage}.mean_us"), mean, "sim_us"));
    }
    for (stage, _) in &profiled.stages {
        if !STAGES.contains(&stage.as_str()) {
            println!("note: stage `{stage}` is outside the benchmark's stage list");
        }
    }

    println!("empty timed region: {:.1} ns", prof.empty_ns());
    println!(
        "simulate phase: untraced {:.1} ns/req, profiled {:.1} ns/req",
        per_req(untraced_s * 1e9),
        per_req(profiled_s * 1e9)
    );
    let mut layers: Vec<(&str, f64, u64)> = LAYERS
        .iter()
        .zip(self_ns)
        .zip(prof.calls())
        .map(|((l, ns), calls)| (l.name, per_req(ns), calls))
        .collect();
    layers.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (name, ns, calls) in &layers {
        println!("  {name:<14} {ns:>9.1} ns/req over {calls} calls");
    }
    println!("largest layer: {}", layers[0].0);
    write_spans(args, &prof);
    out
}

/// Writes the replay's spans to `perfbench/out/` (relative to the working
/// directory, the repository root).
fn write_spans(args: &Args, prof: &Prof) {
    let dir = std::path::Path::new("perfbench").join("out");
    let seed = args.seed.map_or("default".to_string(), |s| s.to_string());
    let path = dir.join(format!("{}-seed{seed}.spans.json", args.workload.name()));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, prof.to_json().render())) {
        Ok(()) => println!("spans: {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

fn result_line(gate: &Gate, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(body, "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        gate.errors.is_empty() && gate.failed == 0,
        gate.attempted,
        gate.failed
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("workload {}: {}", args.workload.name(), args.workload.describe(args.seed));
    let mut gate = Gate::default();
    let metrics = if args.trace { traced(&args, &mut gate) } else { untraced(&args, &mut gate) };
    for e in &gate.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    println!("{}", result_line(&gate, &metrics));
    if gate.errors.is_empty() && gate.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
