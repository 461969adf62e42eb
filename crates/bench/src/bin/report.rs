//! `report` — runs a reduced version of every experiment and prints the
//! paper's headline claims next to the measured values. The per-figure
//! benches (`cargo bench -p rambda-bench`) print the full tables.
//!
//! With `--trace <dir>` (or `RAMBDA_TRACE=<dir>`) it instead runs one
//! quick-mode runner (`--trace-runner <name|all>`, default `kvs.rambda`)
//! with the flight recorder attached and writes three artifacts per runner:
//! `<name>.trace.json` (Chrome trace-event JSON — open in
//! `ui.perfetto.dev`), `<name>.trace.bin` (compact deterministic binary),
//! and `<name>.tail.json` (tail-latency attribution for the `--worst <n>`
//! slowest requests, default 10).
//!
//! With `--profile <dir>` it runs one quick-mode runner (`--profile-runner
//! <name|all>`, default `kvs.rambda`) in profile mode, with the flight
//! recorder attached to cross-validate the run against its report, and
//! writes `<name>.profile.json` (the profiled run report, event-core
//! section included; deterministic) plus a shared `host.folded`
//! (wall-clock flamegraph input, non-deterministic).
//!
//! With `--scopes <name|all>` it runs the selected quick-mode runner(s)
//! under the scoped-metrics registry (DESIGN.md §15) and prints each
//! runner's per-scope latency table, hot-key sketch, and SLO digest. With
//! `--scopes-out <dir>` it additionally writes `<name>.scopes.json` (the
//! full scoped run report, byte-identical across same-seed runs) and
//! `<name>.unscoped.json` (the same run without scopes — byte-identical
//! to the committed goldens for the golden-pinned runners).
//!
//! With `--loss <rate>` a seeded lossy fault plan is injected into the
//! fabric. In headline mode this prints a clean-vs-lossy comparison of the
//! KVS Rambda design (recovery counters, tail cost); in trace mode the
//! traced runner(s) execute under the lossy plan and the fault/retransmit
//! events land in the exported artifacts. The profile and scoped modes take
//! no fault plan, so `--loss` there is rejected.

use std::fs;
use std::process::exit;

use rambda::designs::RUNNER_NAMES;
use rambda::micro::MicroParams;
use rambda::{Design, SimBuilder, Testbed};
use rambda_accel::DataLocation;
use rambda_bench::Table;
use rambda_dlrm::{DlrmDesigns, DlrmParams};
use rambda_fabric::FaultConfig;
use rambda_kvs::{KvsDesigns, KvsParams};
use rambda_metrics::{Json, RunReport, ScopeConfig};
use rambda_power::{kop_per_watt, Design as PowerDesign, PowerConfig};
use rambda_trace::{HostProf, Tracer};
use rambda_txn::{TxnDesigns, TxnParams};
use rambda_workloads::{DlrmProfile, TxnSpec};

/// Seed for the `--loss` fault plan — fixed so repeated invocations are
/// byte-reproducible.
const FAULT_SEED: u64 = 0xFA17;

fn usage() -> ! {
    eprintln!("usage: report [--trace <dir>] [--trace-runner <name|all>] [--worst <n>] [--loss <rate>]");
    eprintln!("              [--profile <dir>] [--profile-runner <name|all>]");
    eprintln!("              [--scopes <name|all>] [--scopes-out <dir>]");
    eprintln!("runners: {}", RUNNER_NAMES.join(", "));
    exit(2);
}

/// Fail-fast runner-name validation shared by `--trace-runner`,
/// `--profile-runner` and `--scopes`: rejects an unknown name with the
/// valid-runner listing before any runner executes or any output directory
/// is created.
fn check_runner(flag: &str, name: &str) {
    if let Err(e) = rambda::designs::check_runner(name) {
        eprintln!("{e} (for {flag})");
        exit(2);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut trace_dir = std::env::var("RAMBDA_TRACE").ok();
    let mut runner = "kvs.rambda".to_string();
    let mut trace_flags_seen = false;
    let mut profile_dir: Option<String> = None;
    let mut profile_runner = "kvs.rambda".to_string();
    let mut profile_flags_seen = false;
    let mut scopes_runner: Option<String> = None;
    let mut scopes_out: Option<String> = None;
    let mut worst = 10usize;
    let mut loss: Option<f64> = None;
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| args.get(i + 1).cloned().unwrap_or_else(|| usage());
        match args[i].as_str() {
            "--trace" => {
                trace_dir = Some(value(i));
                i += 2;
            }
            "--trace-runner" => {
                runner = value(i);
                trace_flags_seen = true;
                i += 2;
            }
            "--worst" => {
                worst = value(i).parse().unwrap_or_else(|_| usage());
                trace_flags_seen = true;
                i += 2;
            }
            "--profile" => {
                profile_dir = Some(value(i));
                i += 2;
            }
            "--profile-runner" => {
                profile_runner = value(i);
                profile_flags_seen = true;
                i += 2;
            }
            "--scopes" => {
                scopes_runner = Some(value(i));
                i += 2;
            }
            "--scopes-out" => {
                scopes_out = Some(value(i));
                i += 2;
            }
            "--loss" => {
                let rate: f64 = value(i).parse().unwrap_or_else(|_| usage());
                if !(0.0..=1.0).contains(&rate) {
                    eprintln!("--loss must be a probability in [0, 1]");
                    exit(2);
                }
                loss = Some(rate);
                i += 2;
            }
            _ => usage(),
        }
    }
    // Fail fast on a bad or pointless selection, before any runner executes
    // or any output directory is created.
    check_runner("--trace-runner", &runner);
    check_runner("--profile-runner", &profile_runner);
    if let Some(name) = &scopes_runner {
        check_runner("--scopes", name);
    }
    if trace_flags_seen && trace_dir.is_none() {
        eprintln!("--trace-runner/--worst have no effect without --trace <dir> (or RAMBDA_TRACE=<dir>)");
        exit(2);
    }
    if profile_flags_seen && profile_dir.is_none() {
        eprintln!("--profile-runner has no effect without --profile <dir>");
        exit(2);
    }
    if scopes_out.is_some() && scopes_runner.is_none() {
        eprintln!("--scopes-out has no effect without --scopes <name|all>");
        exit(2);
    }
    let modes = [scopes_runner.is_some(), trace_dir.is_some(), profile_dir.is_some()];
    if modes.iter().filter(|&&m| m).count() > 1 {
        eprintln!("--trace, --profile, and --scopes are mutually exclusive — pick one export mode");
        exit(2);
    }
    if loss.is_some() && (profile_dir.is_some() || scopes_runner.is_some()) {
        eprintln!(
            "--loss has no effect with --profile or --scopes (it applies to the headline run and --trace)"
        );
        exit(2);
    }

    let tb = Testbed::default();
    let loss = loss.unwrap_or(0.0);
    let faults = FaultConfig::lossy(FAULT_SEED, loss);
    if let Some(dir) = trace_dir {
        trace_exports(&tb, &dir, &runner, worst, &faults);
        return;
    }
    if let Some(dir) = profile_dir {
        profile_exports(&tb, &dir, &profile_runner);
        return;
    }
    if let Some(name) = scopes_runner {
        scopes_exports(&tb, &name, scopes_out.as_deref());
        return;
    }
    if faults.is_active() {
        fault_quickstart(&tb, &faults, loss);
        return;
    }
    let mut t = Table::new(
        "Rambda reproduction — headline claims (paper vs measured)",
        &["claim", "paper", "measured"],
    );

    let run = |design: Design| SimBuilder::new(design).config(&tb).run();

    // Microbenchmark: cpoll gain, local-memory gain, adaptive DDIO.
    let mp = MicroParams { requests: 60_000, ..MicroParams::paper() };
    let polling = run(Design::micro_rambda(mp, DataLocation::HostDram, false, 1)).throughput_mops();
    let cpoll = run(Design::micro_rambda(mp, DataLocation::HostDram, true, 1)).throughput_mops();
    let lh = run(Design::micro_rambda(mp, DataLocation::LocalHbm, true, 1)).throughput_mops();
    t.row(vec![
        "cpoll over spin-polling".into(),
        "+21.6%".into(),
        format!("{:+.1}%", (cpoll / polling - 1.0) * 100.0),
    ]);
    t.row(vec!["Rambda-LH over Rambda (micro)".into(), "~2.66x".into(), format!("{:.2}x", lh / cpoll)]);
    let mn = mp.with_nvm();
    let adaptive = run(Design::micro_rambda(mn, DataLocation::HostDram, true, 1)).throughput_mops();
    let ddio = run(Design::micro_rambda_always_ddio(mn, true, 1)).throughput_mops();
    t.row(vec![
        "adaptive DDIO on NVM".into(),
        "~+20%".into(),
        format!("{:+.1}%", (adaptive / ddio - 1.0) * 100.0),
    ]);

    // KVS: throughput edge, tail latency, power efficiency.
    let kp = KvsParams { requests: 60_000, ..KvsParams::quick() };
    let cpu = run(Design::kvs_cpu(kp.clone()));
    let rambda = run(Design::kvs_rambda(kp.clone(), DataLocation::HostDram));
    t.row(vec![
        "KVS throughput vs CPU".into(),
        "+2.3-8.3%".into(),
        format!("{:+.1}%", (rambda.throughput_mops() / cpu.throughput_mops() - 1.0) * 100.0),
    ]);
    let mut lat = kp.clone();
    lat.window = 2;
    let cpu_l = run(Design::kvs_cpu(lat.clone()));
    let rambda_l = run(Design::kvs_rambda(lat, DataLocation::HostDram));
    t.row(vec![
        "KVS p99 vs CPU".into(),
        "-30.1%".into(),
        format!("{:+.1}%", (rambda_l.p99_us() / cpu_l.p99_us() - 1.0) * 100.0),
    ]);
    let power = PowerConfig::default();
    let kopw_cpu = kop_per_watt(cpu.throughput_ops, power.design_watts(PowerDesign::Cpu { cores: 10 }));
    let kopw_rambda = kop_per_watt(rambda.throughput_ops, power.design_watts(PowerDesign::Rambda));
    t.row(vec![
        "power efficiency vs CPU".into(),
        "~1.45x (188.7/130.4)".into(),
        format!("{:.2}x", kopw_rambda / kopw_cpu),
    ]);

    // Transactions: (4,2) latency saving.
    let tp = TxnParams::quick(TxnSpec::read_write(64));
    let hl = run(Design::txn_hyperloop(tp.clone()));
    let rt = run(Design::txn_rambda_tx(tp));
    t.row(vec![
        "TX (4,2) avg latency saving".into(),
        "63.2-66.8%".into(),
        format!("{:.1}%", (1.0 - rt.mean_us() / hl.mean_us()) * 100.0),
    ]);

    // DLRM (Books): prototype penalty and LH gain.
    let dp = DlrmParams { queries: 10_000, ..DlrmParams::quick(DlrmProfile::by_name("Books").unwrap()) };
    let c1 = run(Design::dlrm_cpu(dp.clone(), 1)).throughput_mops();
    let c8 = run(Design::dlrm_cpu(dp.clone(), 8)).throughput_mops();
    let r = run(Design::dlrm_rambda(dp.clone(), DataLocation::HostDram)).throughput_mops();
    let dlh = run(Design::dlrm_rambda(dp, DataLocation::LocalHbm)).throughput_mops();
    t.row(vec!["DLRM Rambda vs 1 core".into(), "19.7-31.3%".into(), format!("{:.1}%", r / c1 * 100.0)]);
    t.row(vec!["DLRM Rambda-LH vs 8 cores".into(), "1.6-3.1x".into(), format!("{:.2}x", dlh / c8)]);

    t.print();

    // Per-stage latency breakdowns from the observability layer: where do
    // the microseconds go on each design's critical path?
    let micro_report = run(Design::micro_rambda(MicroParams::quick(), DataLocation::HostDram, true, 1));
    let kvs_report = run(Design::kvs_rambda(KvsParams::quick(), DataLocation::HostDram));
    let txn_report = run(Design::txn_rambda_tx(TxnParams::quick(TxnSpec::read_write(64))));
    for report in [&micro_report, &kvs_report, &txn_report] {
        print_breakdown(report);
    }

    println!("\nFull tables: cargo bench -p rambda-bench");
    println!("Machine-readable run reports: RunReport::to_json_string() (see tests/goldens/)");
    println!("Flight-recorder traces: report --trace <dir> [--trace-runner <name|all>]");
    println!("Scoped metrics & SLOs: report --scopes <name|all> [--scopes-out <dir>]");
}

/// Builds the quick-mode [`Design`] for a named runner from the shared
/// registry ([`rambda_bench::quick_registry`]) — the same factories the
/// bench harness and the integration tests use.
fn design_for(name: &str) -> Design {
    rambda_bench::quick_registry().design(name).unwrap_or_else(|| {
        eprintln!("unknown runner {name}");
        usage()
    })
}

/// Sums every counter whose name ends with `suffix` (the same reduction
/// the report's fault identities use).
fn counter_sum(report: &RunReport, suffix: &str) -> u64 {
    report.resources.counters().filter(|(name, _)| name.ends_with(suffix)).map(|(_, v)| v).sum()
}

/// The `--loss` quickstart: runs the KVS Rambda design clean and under the
/// seeded lossy plan, and prints the recovery counters next to the tail
/// cost. Both reports are validated, so the fault/recovery identities hold.
fn fault_quickstart(tb: &Testbed, faults: &FaultConfig, loss: f64) {
    let p = KvsParams::quick();
    let clean = SimBuilder::new(Design::kvs_rambda(p.clone(), DataLocation::HostDram)).config(tb).run();
    let lossy = SimBuilder::new(Design::kvs_rambda(p, DataLocation::HostDram))
        .config(tb)
        .faults(faults.clone())
        .run();
    clean.validate().expect("inconsistent clean run report");
    lossy.validate().expect("inconsistent lossy run report");
    let mut t = Table::new(
        &format!("kvs.rambda under injected loss (rate {loss:e}, seed {FAULT_SEED:#x})"),
        &["metric", "clean", "lossy"],
    );
    t.row(vec![
        "throughput Mops".into(),
        format!("{:.3}", clean.throughput_ops / 1e6),
        format!("{:.3}", lossy.throughput_ops / 1e6),
    ]);
    t.row(vec![
        "p50 us".into(),
        format!("{:.2}", clean.latency.p50_ps as f64 / 1e6),
        format!("{:.2}", lossy.latency.p50_ps as f64 / 1e6),
    ]);
    t.row(vec![
        "p99 us".into(),
        format!("{:.2}", clean.latency.p99_ps as f64 / 1e6),
        format!("{:.2}", lossy.latency.p99_ps as f64 / 1e6),
    ]);
    for suffix in [
        ".faults.dropped",
        ".faults.corrupted",
        ".faults.flapped",
        ".timeouts",
        ".nacks",
        ".retransmits",
        ".retries_exhausted",
    ] {
        let name = suffix.trim_start_matches('.');
        t.row(vec![
            name.into(),
            counter_sum(&clean, suffix).to_string(),
            counter_sum(&lossy, suffix).to_string(),
        ]);
    }
    t.print();
    println!("Fault/recovery identities validated on both reports (RunReport::validate).");
}

/// Runs the selected runner(s) with tracing, self-validates the trace
/// against the run report, writes the three artifacts per runner, and
/// prints each runner's tail attribution.
fn trace_exports(tb: &Testbed, dir: &str, runner: &str, worst: usize, faults: &FaultConfig) {
    fs::create_dir_all(dir).expect("create trace output dir");
    let names: Vec<&str> = if runner == "all" { RUNNER_NAMES.to_vec() } else { vec![runner] };
    for name in names {
        let mut tracer = Tracer::flight_recorder();
        let report =
            SimBuilder::new(design_for(name)).config(tb).faults(faults.clone()).tracer(&mut tracer).run();
        report.validate().expect("inconsistent run report");
        if let Err(e) = tracer.cross_validate(&report) {
            eprintln!("{name}: trace/report cross-validation failed: {e}");
            exit(1);
        }

        // Self-check the Chrome export before writing it: it must parse and
        // carry a non-empty traceEvents array.
        let chrome = tracer.export_chrome_json();
        let parsed = Json::parse(&chrome).expect("chrome trace export must be valid JSON");
        match parsed.get("traceEvents") {
            Some(Json::Arr(events)) if !events.is_empty() => {}
            _ => {
                eprintln!("{name}: chrome trace export has no events");
                exit(1);
            }
        }
        let tail = tracer.tail_report(worst);
        fs::write(format!("{dir}/{name}.trace.json"), &chrome).expect("write chrome trace");
        fs::write(format!("{dir}/{name}.trace.bin"), tracer.export_binary()).expect("write binary trace");
        fs::write(format!("{dir}/{name}.tail.json"), tail.to_json().render()).expect("write tail report");

        let mut t = Table::new(
            &format!(
                "{name} — tail attribution (exact p99 {:.2} us / p99.9 {:.2} us; tail dominated by {} on {})",
                tail.p99_ps as f64 / 1.0e6,
                tail.p999_ps as f64 / 1.0e6,
                tail.dominant_tail_stage,
                tail.dominant_tail_track
            ),
            &["worst req", "total us", "dominant stage", "track"],
        );
        for w in &tail.worst {
            t.row(vec![
                w.req.to_string(),
                format!("{:.2}", w.total_ps as f64 / 1.0e6),
                w.dominant_stage.clone(),
                w.dominant_track.clone(),
            ]);
        }
        t.print();
        println!("{name}: {} -> {dir}/{name}.trace.json (+ .trace.bin, .tail.json)", tracer.summary());
    }
}

/// Runs the selected runner(s) in profile mode under the flight recorder,
/// exits 1 if a trace disagrees with its run report, and writes one artifact
/// per runner plus one per invocation:
///
/// * `<name>.profile.json` — the profiled run report (its `event_core`
///   section carries the scheduler telemetry); byte-identical across
///   same-seed runs.
/// * `host.folded` — folded-stack wall-clock attribution across all
///   profiled runners (`<name>;<phase> <ns>` lines for `flamegraph.pl`);
///   non-deterministic by nature, git-ignored, never golden-tested.
fn profile_exports(tb: &Testbed, dir: &str, runner: &str) {
    fs::create_dir_all(dir).expect("create profile output dir");
    // The wall-clock side: `Instant` is fine here (binaries are exempt from
    // the determinism rules); the sim crates only ever see the closure.
    let t0 = std::time::Instant::now();
    let mut prof = HostProf::new(move || t0.elapsed().as_nanos() as u64);
    let names: Vec<&str> = if runner == "all" { RUNNER_NAMES.to_vec() } else { vec![runner] };
    for name in names {
        let mut tracer = Tracer::flight_recorder();
        let report = prof.time(&format!("{name};run"), || {
            SimBuilder::new(design_for(name)).config(tb).tracer(&mut tracer).profile().run()
        });
        prof.time(&format!("{name};validate"), || {
            report.validate().expect("inconsistent run report");
            if let Err(e) = tracer.cross_validate(&report) {
                eprintln!("{name}: trace/report cross-validation failed: {e}");
                exit(1);
            }
        });
        let doc = prof.time(&format!("{name};render"), || report.to_json_string());
        fs::write(format!("{dir}/{name}.profile.json"), &doc).expect("write profile json");
        let dispatched = report.event_core.as_ref().map_or(0, |ec| ec.dispatched);
        println!("{name}: {dispatched} events dispatched, profile -> {dir}/{name}.profile.json");
    }
    fs::write(format!("{dir}/host.folded"), prof.export_folded()).expect("write folded stacks");
    println!("Wall-clock attribution (non-deterministic): {dir}/host.folded");
}

/// The scoped-run configuration for a named runner: the default sketch
/// capacity, with a per-design p99 SLO target sized to each workload's
/// quick-mode latency regime (the microbenchmark completes in a few µs,
/// the replicated transactions in tens).
fn scope_config_for(name: &str) -> ScopeConfig {
    let slo_p99_ps = match name.split('.').next() {
        Some("micro") => 10_000_000, // 10 us
        Some("kvs") => 25_000_000,   // 25 us
        Some("txn") => 100_000_000,  // 100 us
        _ => 150_000_000,            // 150 us (DLRM reductions are heavy)
    };
    ScopeConfig { slo_p99_ps, ..ScopeConfig::default() }
}

/// Runs the selected runner(s) under the scoped-metrics registry, checks
/// the scope conservation identities and same-seed byte-determinism, and
/// prints each runner's per-scope latency table, hot-key sketch, and SLO
/// digest. With an output directory it also writes `<name>.scopes.json`
/// (the scoped report) and `<name>.unscoped.json` (the same run without
/// scopes — byte-identical to the committed goldens for the golden-pinned
/// runners).
fn scopes_exports(tb: &Testbed, runner: &str, out: Option<&str>) {
    if let Some(dir) = out {
        fs::create_dir_all(dir).expect("create scopes output dir");
    }
    let names: Vec<&str> = if runner == "all" { RUNNER_NAMES.to_vec() } else { vec![runner] };
    for name in names {
        let config = scope_config_for(name);
        let scoped = SimBuilder::new(design_for(name)).config(tb).scopes(config).run();
        scoped.validate().expect("inconsistent scoped run report");
        let again = SimBuilder::new(design_for(name)).config(tb).scopes(config).run();
        if scoped.to_json_string() != again.to_json_string() {
            eprintln!("{name}: same-seed scoped runs serialized differently");
            exit(1);
        }
        let sc = scoped.scopes.as_ref().expect("scoped run must carry a scopes section");

        let mut t = Table::new(
            &format!(
                "{name} — scoped metrics ({} scopes, hot fraction {:.3}, SLO p99 {:.0} us)",
                sc.scopes.len(),
                sc.hot_fraction(),
                config.slo_p99_ps as f64 / 1.0e6,
            ),
            &["scope", "requests", "mean us", "p99 us", "share"],
        );
        for s in sc.scopes.iter().filter(|s| s.latency.count > 0) {
            t.row(vec![
                s.name.clone(),
                s.latency.count.to_string(),
                format!("{:.2}", s.latency.mean_ps as f64 / 1.0e6),
                format!("{:.2}", s.latency.p99_ps as f64 / 1.0e6),
                format!("{:.3}", s.latency.count as f64 / sc.merged.count.max(1) as f64),
            ]);
        }
        t.print();

        let keys: Vec<String> = sc
            .hot_keys
            .iter()
            .map(|e| {
                if e.err == 0 {
                    format!("{}:{}", e.key, e.count)
                } else {
                    format!("{}:{}±{}", e.key, e.count, e.err)
                }
            })
            .collect();
        println!("{name}: hot keys (top-{}, {} observed): {}", sc.top_k, sc.keys_observed, keys.join(" "));
        println!(
            "{name}: slo windows={} violations={} burn_rate={:.3}",
            sc.slo.windows, sc.slo.violations, sc.slo.burn_rate
        );
        println!("{name}: scope conservation identities validated (RunReport::validate)");

        if let Some(dir) = out {
            let unscoped = SimBuilder::new(design_for(name)).config(tb).run();
            unscoped.validate().expect("inconsistent unscoped run report");
            fs::write(format!("{dir}/{name}.scopes.json"), scoped.to_json_string())
                .expect("write scoped report");
            fs::write(format!("{dir}/{name}.unscoped.json"), unscoped.to_json_string())
                .expect("write unscoped report");
            println!("{name}: reports -> {dir}/{name}.scopes.json (+ .unscoped.json)");
        }
    }
}

/// Renders a run report's critical-path stage breakdown as a table.
fn print_breakdown(report: &RunReport) {
    report.validate().expect("inconsistent run report");
    let mut t = Table::new(
        &format!(
            "{} — stage breakdown ({} reqs, mean {:.2} us)",
            report.name,
            report.completed,
            report.latency.mean_us()
        ),
        &["stage", "mean us", "share"],
    );
    for (stage, mean_us, share) in report.breakdown() {
        t.row(vec![stage, format!("{mean_us:.3}"), format!("{:.1}%", share * 100.0)]);
    }
    t.print();
}
