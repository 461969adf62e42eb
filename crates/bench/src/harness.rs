//! The continuous-benchmark harness behind `cargo xtask bench`.
//!
//! Declarative sweep definitions reproduce the paper's curve-style results
//! (Fig. 7 design comparison, Fig. 9 KVS load sweep, Fig. 12 transaction
//! latency, Fig. 13 DLRM serving): each sweep runs a grid of seeded
//! [`SimBuilder`] points, digests every [`RunReport`] — headline numbers
//! plus the windowed-timeline telemetry — into a [`BenchPoint`], and
//! serializes the whole [`SweepResult`] with the deterministic JSON encoder
//! so same-seed runs emit byte-identical `BENCH_<sweep>.json` files.
//!
//! [`compare`] diffs a fresh result against a committed baseline and
//! reports regressions — throughput drops or p99 rises beyond the sweep's
//! tolerance — as readable lines; the `bench` binary turns a non-empty diff
//! into a non-zero exit, which CI gates on.
//!
//! Everything in this module is pure simulation + formatting: no
//! wall-clock, filesystem or environment access (the workspace analyzer's
//! R2 bans them here). I/O and self-profiling live in `src/bin/bench.rs`.

use rambda::{micro, Design, SimBuilder, Testbed};
use rambda_accel::DataLocation;
use rambda_fabric::FaultConfig;
use rambda_metrics::{Json, RunReport};
use rambda_workloads::{DlrmProfile, TxnSpec};

use crate::Table;

/// The canonical quick-mode design registry: every runner in
/// [`rambda::designs::RUNNER_NAMES`] mapped to its quick-mode factory.
///
/// The framework crate owns the name list but cannot see the application
/// crates, so this is where the nine factories are installed. The `report`
/// binary, the bench harness, and the integration test suites all draw
/// their designs from here, so a new runner lands everywhere by adding it
/// to `RUNNER_NAMES` and installing its factory below — `is_complete()`
/// (asserted here) catches a list/registry mismatch at first use.
pub fn quick_registry() -> rambda::designs::Registry {
    use rambda_dlrm::{DlrmDesigns, DlrmParams};
    use rambda_kvs::{KvsDesigns, KvsParams};
    use rambda_txn::{TxnDesigns, TxnParams};
    let books = || DlrmProfile::by_name("Books").expect("Books DLRM profile exists");
    let mut reg = rambda::designs::Registry::new();
    reg.install("micro.cpu", || Design::micro_cpu(micro::MicroParams::quick(), 8, 16));
    reg.install("micro.rambda", || {
        Design::micro_rambda(micro::MicroParams::quick(), DataLocation::HostDram, true, 1)
    });
    reg.install("kvs.cpu", || Design::kvs_cpu(KvsParams::quick()));
    reg.install("kvs.rambda", || Design::kvs_rambda(KvsParams::quick(), DataLocation::HostDram));
    reg.install("kvs.smartnic", || Design::kvs_smartnic(KvsParams::quick()));
    reg.install("txn.hyperloop", || Design::txn_hyperloop(TxnParams::quick(TxnSpec::read_write(64))));
    reg.install("txn.rambda_tx", || Design::txn_rambda_tx(TxnParams::quick(TxnSpec::read_write(64))));
    reg.install("dlrm.cpu", move || Design::dlrm_cpu(DlrmParams::quick(books()), 8));
    reg.install("dlrm.rambda", move || {
        Design::dlrm_rambda(DlrmParams::quick(books()), DataLocation::HostDram)
    });
    assert!(reg.is_complete(), "quick registry must cover every runner in RUNNER_NAMES");
    reg
}

/// Per-sweep regression budget applied by [`compare`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Maximum allowed fractional throughput drop vs. baseline (0.05 = 5 %).
    pub max_throughput_drop: f64,
    /// Maximum allowed fractional p99 latency rise vs. baseline.
    pub max_p99_rise: f64,
}

/// One point of a sweep: a run's headline numbers plus its windowed
/// telemetry digest.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchPoint {
    /// Design under test (`"rambda"`, `"cpu-8"`, `"smartnic"`, ...).
    pub design: String,
    /// Sweep coordinate label (`"window=16"`, `"spec=r4w2"`, ...).
    pub x: String,
    /// Measured (post-warm-up) completions.
    pub completed: u64,
    /// Steady-state throughput, operations per second.
    pub throughput_ops: f64,
    /// Mean / median / tail latency, picoseconds.
    pub mean_ps: u64,
    /// Median latency, picoseconds.
    pub p50_ps: u64,
    /// 99th-percentile latency, picoseconds.
    pub p99_ps: u64,
    /// 99.9th-percentile latency, picoseconds.
    pub p999_ps: u64,
    /// Run makespan, picoseconds.
    pub elapsed_ps: u64,
    /// Timeline window width, picoseconds.
    pub window_ps: u64,
    /// Completions per timeline window (the throughput curve within the
    /// run; also the sparkline the summary table renders).
    pub window_completed: Vec<u64>,
    /// Largest per-window p99 across the run, picoseconds.
    pub peak_window_p99_ps: u64,
    /// Largest per-window utilization across all resources.
    pub peak_utilization: f64,
}

impl BenchPoint {
    /// Digests a validated report into a sweep point.
    ///
    /// # Errors
    ///
    /// Returns the report's validation error, or a description of a
    /// missing timeline — a bench point must never be built from telemetry
    /// that fails its own identities.
    pub fn from_report(design: &str, x: &str, report: &RunReport) -> Result<BenchPoint, String> {
        report.validate().map_err(|e| format!("{design}/{x}: {e}"))?;
        let tl = report.timeline.as_ref().ok_or_else(|| format!("{design}/{x}: report has no timeline"))?;
        Ok(BenchPoint {
            design: design.to_string(),
            x: x.to_string(),
            completed: report.completed,
            throughput_ops: report.throughput_ops,
            mean_ps: report.latency.mean_ps,
            p50_ps: report.latency.p50_ps,
            p99_ps: report.latency.p99_ps,
            p999_ps: report.latency.p999_ps,
            elapsed_ps: report.elapsed_ps,
            window_ps: tl.window_ps,
            window_completed: tl.windows.iter().map(|w| w.count).collect(),
            peak_window_p99_ps: tl.peak_p99_ps(),
            peak_utilization: tl.peak_utilization(),
        })
    }

    fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.push("design", Json::Str(self.design.clone()));
        o.push("x", Json::Str(self.x.clone()));
        o.push("completed", Json::U64(self.completed));
        o.push("throughput_ops", Json::F64(self.throughput_ops));
        o.push("mean_ps", Json::U64(self.mean_ps));
        o.push("p50_ps", Json::U64(self.p50_ps));
        o.push("p99_ps", Json::U64(self.p99_ps));
        o.push("p999_ps", Json::U64(self.p999_ps));
        o.push("elapsed_ps", Json::U64(self.elapsed_ps));
        o.push("window_ps", Json::U64(self.window_ps));
        o.push("window_completed", Json::Arr(self.window_completed.iter().map(|&v| Json::U64(v)).collect()));
        o.push("peak_window_p99_ps", Json::U64(self.peak_window_p99_ps));
        o.push("peak_utilization", Json::F64(self.peak_utilization));
        o
    }

    fn from_json(j: &Json) -> Result<BenchPoint, String> {
        Ok(BenchPoint {
            design: get_str(j, "design")?,
            x: get_str(j, "x")?,
            completed: get_u64(j, "completed")?,
            throughput_ops: get_f64(j, "throughput_ops")?,
            mean_ps: get_u64(j, "mean_ps")?,
            p50_ps: get_u64(j, "p50_ps")?,
            p99_ps: get_u64(j, "p99_ps")?,
            p999_ps: get_u64(j, "p999_ps")?,
            elapsed_ps: get_u64(j, "elapsed_ps")?,
            window_ps: get_u64(j, "window_ps")?,
            window_completed: get_u64_arr(j, "window_completed")?,
            peak_window_p99_ps: get_u64(j, "peak_window_p99_ps")?,
            peak_utilization: get_f64(j, "peak_utilization")?,
        })
    }
}

/// Runs one sweep point, optionally under a fault plan.
fn run_point(
    design: Design,
    name: &str,
    x: &str,
    tb: &Testbed,
    faults: Option<FaultConfig>,
) -> Result<BenchPoint, String> {
    let mut builder = SimBuilder::new(design).config(tb);
    if let Some(f) = faults {
        builder = builder.faults(f);
    }
    BenchPoint::from_report(name, x, &builder.run())
}

/// A complete sweep: its identity, mode, tolerance, and curve points.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// Sweep name (`"kvs_load"`, ...; see [`sweep_names`]).
    pub sweep: String,
    /// `"quick"` (CI-sized) or `"full"` (paper-scale) — compared files
    /// must agree, or every number diff is meaningless.
    pub mode: String,
    /// Regression budget for [`compare`].
    pub tolerance: Tolerance,
    /// Curve points in deterministic definition order.
    pub points: Vec<BenchPoint>,
}

impl SweepResult {
    /// Renders the sweep as a deterministic JSON value.
    pub fn to_json(&self) -> Json {
        let mut tol = Json::obj();
        tol.push("max_throughput_drop", Json::F64(self.tolerance.max_throughput_drop));
        tol.push("max_p99_rise", Json::F64(self.tolerance.max_p99_rise));
        let mut o = Json::obj();
        o.push("sweep", Json::Str(self.sweep.clone()));
        o.push("mode", Json::Str(self.mode.clone()));
        o.push("tolerance", tol);
        o.push("points", Json::Arr(self.points.iter().map(|p| p.to_json()).collect()));
        o
    }

    /// Canonical pretty-printed JSON — byte-identical across same-seed runs.
    pub fn to_json_string(&self) -> String {
        self.to_json().render()
    }

    /// Parses a `BENCH_<sweep>.json` document.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed or missing field.
    pub fn from_json_str(text: &str) -> Result<SweepResult, String> {
        let j = Json::parse(text)?;
        let tol = j.get("tolerance").ok_or("missing tolerance")?;
        let points = match j.get("points") {
            Some(Json::Arr(items)) => items.iter().map(BenchPoint::from_json).collect::<Result<_, _>>()?,
            _ => return Err("missing points array".to_string()),
        };
        Ok(SweepResult {
            sweep: get_str(&j, "sweep")?,
            mode: get_str(&j, "mode")?,
            tolerance: Tolerance {
                max_throughput_drop: get_f64(tol, "max_throughput_drop")?,
                max_p99_rise: get_f64(tol, "max_p99_rise")?,
            },
            points,
        })
    }

    /// Renders the sweep as an ASCII table with a per-run throughput
    /// sparkline (completions per timeline window).
    pub fn render_table(&self) -> String {
        let headers = ["design", "x", "Mops", "p50 us", "p99 us", "peak util", "throughput/window"];
        let mut t = Table::new(&format!("{} [{}]", self.sweep, self.mode), &headers);
        for p in &self.points {
            t.row(vec![
                p.design.clone(),
                p.x.clone(),
                format!("{:.3}", p.throughput_ops / 1.0e6),
                format!("{:.2}", p.p50_ps as f64 / 1.0e6),
                format!("{:.2}", p.p99_ps as f64 / 1.0e6),
                format!("{:.2}", p.peak_utilization),
                sparkline(&p.window_completed),
            ]);
        }
        t.render()
    }
}

/// Renders values as a unicode sparkline, scaled to the series maximum.
pub fn sparkline(values: &[u64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().copied().max().unwrap_or(0);
    if max == 0 {
        return "▁".repeat(values.len());
    }
    values.iter().map(|&v| BARS[((v * 7).div_ceil(max).min(7)) as usize]).collect()
}

/// Compares a fresh sweep against a baseline; returns human-readable
/// regression lines (empty = pass). Gates on the *baseline's* tolerance so
/// loosening the budget requires touching the committed file.
pub fn compare(current: &SweepResult, baseline: &SweepResult) -> Vec<String> {
    let mut diffs = Vec::new();
    if current.mode != baseline.mode {
        diffs.push(format!(
            "{}: mode mismatch — current is \"{}\", baseline is \"{}\"",
            current.sweep, current.mode, baseline.mode
        ));
        return diffs;
    }
    let tol = baseline.tolerance;
    for base in &baseline.points {
        let key = format!("{}/{}", base.design, base.x);
        let Some(cur) = current.points.iter().find(|p| p.design == base.design && p.x == base.x) else {
            diffs.push(format!("{}: point {key} disappeared from the sweep", current.sweep));
            continue;
        };
        let floor = base.throughput_ops * (1.0 - tol.max_throughput_drop);
        if cur.throughput_ops < floor {
            diffs.push(format!(
                "{}: {key} throughput {:.3} Mops < {:.3} Mops (baseline {:.3} − {:.0} % budget)",
                current.sweep,
                cur.throughput_ops / 1.0e6,
                floor / 1.0e6,
                base.throughput_ops / 1.0e6,
                tol.max_throughput_drop * 100.0
            ));
        }
        let ceiling = base.p99_ps as f64 * (1.0 + tol.max_p99_rise);
        if cur.p99_ps as f64 > ceiling {
            diffs.push(format!(
                "{}: {key} p99 {:.2} us > {:.2} us (baseline {:.2} + {:.0} % budget)",
                current.sweep,
                cur.p99_ps as f64 / 1.0e6,
                ceiling / 1.0e6,
                base.p99_ps as f64 / 1.0e6,
                tol.max_p99_rise * 100.0
            ));
        }
    }
    diffs
}

/// The defined sweeps, in the order the harness runs them.
pub fn sweep_names() -> &'static [&'static str] {
    &["micro_designs", "kvs_load", "txn_latency", "dlrm_load", "faults_sweep"]
}

/// Whether a sweep participates in the baseline comparison gate.
///
/// `faults_sweep` characterizes degraded-mode behaviour (its whole point is
/// a worse tail under injected loss), so it never gates — the `bench`
/// binary skips its comparison. Its committed baseline is still pinned byte
/// for byte by the integration tests, like every other sweep's.
pub fn is_gating(name: &str) -> bool {
    name != "faults_sweep"
}

/// Runs one sweep end to end.
///
/// # Errors
///
/// Returns an unknown-sweep message (listing valid names), or the first
/// report that failed its telemetry validation.
pub fn run_sweep(name: &str, quick: bool) -> Result<SweepResult, String> {
    let mode = if quick { "quick" } else { "full" };
    let points = match name {
        "micro_designs" => micro_designs(quick)?,
        "kvs_load" => kvs_load(quick)?,
        "txn_latency" => txn_latency(quick)?,
        "dlrm_load" => dlrm_load(quick)?,
        "faults_sweep" => faults_sweep(quick)?,
        other => return Err(format!("unknown sweep `{other}` — valid sweeps: {}", sweep_names().join(", "))),
    };
    let tolerance = Tolerance { max_throughput_drop: 0.05, max_p99_rise: 0.10 };
    Ok(SweepResult { sweep: name.to_string(), mode: mode.to_string(), tolerance, points })
}

/// Fig. 7-style design comparison: CPU core scaling vs. the Rambda
/// variants on the pointer-chase microbenchmark.
fn micro_designs(quick: bool) -> Result<Vec<BenchPoint>, String> {
    let tb = Testbed::default();
    let p = if quick {
        micro::MicroParams { requests: 6_000, ..micro::MicroParams::quick() }
    } else {
        micro::MicroParams::paper()
    };
    let mut points = Vec::new();
    for cores in [1usize, 8, 16] {
        points.push(run_point(Design::micro_cpu(p, cores, 16), &format!("cpu-{cores}"), "micro", &tb, None)?);
    }
    let variants: [(&str, DataLocation, bool); 4] = [
        ("rambda-polling", DataLocation::HostDram, false),
        ("rambda", DataLocation::HostDram, true),
        ("rambda-ld", DataLocation::LocalDdr, true),
        ("rambda-lh", DataLocation::LocalHbm, true),
    ];
    for (design, location, cpoll) in variants {
        points.push(run_point(Design::micro_rambda(p, location, cpoll, 1), design, "micro", &tb, None)?);
    }
    Ok(points)
}

/// Fig. 9-style KVS offered-load sweep: per-client pipeline window × design.
fn kvs_load(quick: bool) -> Result<Vec<BenchPoint>, String> {
    use rambda_kvs::{KvsDesigns, KvsParams};
    let tb = Testbed::default();
    let base = if quick { KvsParams { requests: 8_000, ..KvsParams::quick() } } else { KvsParams::paper() };
    let mut points = Vec::new();
    for window in [1usize, 4, 16] {
        let p = KvsParams { window, ..base.clone() };
        let x = format!("window={window}");
        points.push(run_point(Design::kvs_cpu(p.clone()), "cpu", &x, &tb, None)?);
        points.push(run_point(
            Design::kvs_rambda(p.clone(), DataLocation::HostDram),
            "rambda",
            &x,
            &tb,
            None,
        )?);
        points.push(run_point(Design::kvs_smartnic(p.clone()), "smartnic", &x, &tb, None)?);
    }
    Ok(points)
}

/// Fig. 12-style replicated-transaction comparison: HyperLoop chain vs.
/// Rambda-Tx, for write-only and read-write transactions.
fn txn_latency(quick: bool) -> Result<Vec<BenchPoint>, String> {
    use rambda_txn::{TxnDesigns, TxnParams};
    let tb = Testbed::default();
    let specs: [(&str, TxnSpec); 2] =
        [("spec=w1", TxnSpec::single_write(64)), ("spec=r4w2", TxnSpec::read_write(64))];
    let mut points = Vec::new();
    for (x, spec) in specs {
        let p =
            if quick { TxnParams { txns: 1_500, ..TxnParams::quick(spec) } } else { TxnParams::paper(spec) };
        points.push(run_point(Design::txn_hyperloop(p.clone()), "hyperloop", x, &tb, None)?);
        points.push(run_point(Design::txn_rambda_tx(p.clone()), "rambda_tx", x, &tb, None)?);
    }
    Ok(points)
}

/// Fig. 13-style DLRM serving comparison on the Books embedding profile.
fn dlrm_load(quick: bool) -> Result<Vec<BenchPoint>, String> {
    use rambda_dlrm::{DlrmDesigns, DlrmParams};
    let tb = Testbed::default();
    let embeddings = DlrmProfile::by_name("Books").ok_or("Books DLRM profile missing")?;
    let p = if quick {
        DlrmParams { queries: 1_500, ..DlrmParams::quick(embeddings) }
    } else {
        DlrmParams::paper(embeddings)
    };
    let mut points = Vec::new();
    for cores in [1usize, 8] {
        points.push(run_point(
            Design::dlrm_cpu(p.clone(), cores),
            &format!("cpu-{cores}"),
            "Books",
            &tb,
            None,
        )?);
    }
    points.push(run_point(
        Design::dlrm_rambda(p.clone(), DataLocation::HostDram),
        "rambda",
        "Books",
        &tb,
        None,
    )?);
    points.push(run_point(
        Design::dlrm_rambda(p.clone(), DataLocation::LocalHbm),
        "rambda-lh",
        "Books",
        &tb,
        None,
    )?);
    Ok(points)
}

/// Degraded-fabric characterization (non-gating): the KVS and transaction
/// Rambda designs under increasing injected packet loss. The zero-loss point
/// anchors each curve; the lossy points show the recovery layer's cost
/// (retransmissions push the tail up while throughput barely moves).
fn faults_sweep(quick: bool) -> Result<Vec<BenchPoint>, String> {
    use rambda_kvs::{KvsDesigns, KvsParams};
    use rambda_txn::{TxnDesigns, TxnParams};
    let tb = Testbed::default();
    let kp = if quick { KvsParams { requests: 8_000, ..KvsParams::quick() } } else { KvsParams::paper() };
    let spec = TxnSpec::read_write(64);
    let xp = if quick { TxnParams { txns: 1_500, ..TxnParams::quick(spec) } } else { TxnParams::paper(spec) };
    let mut points = Vec::new();
    for (x, loss) in [("loss=0", 0.0), ("loss=1e-4", 1e-4), ("loss=1e-3", 1e-3)] {
        points.push(run_point(
            Design::kvs_rambda(kp.clone(), DataLocation::HostDram),
            "kvs_rambda",
            x,
            &tb,
            Some(FaultConfig::lossy(0xFA17, loss)),
        )?);
        points.push(run_point(
            Design::txn_rambda_tx(xp.clone()),
            "txn_rambda_tx",
            x,
            &tb,
            Some(FaultConfig::lossy(0xFA17, loss)),
        )?);
    }
    Ok(points)
}

fn get_str(j: &Json, key: &str) -> Result<String, String> {
    match j.get(key) {
        Some(Json::Str(s)) => Ok(s.clone()),
        _ => Err(format!("missing string field `{key}`")),
    }
}

fn get_u64(j: &Json, key: &str) -> Result<u64, String> {
    match j.get(key) {
        Some(Json::U64(v)) => Ok(*v),
        _ => Err(format!("missing integer field `{key}`")),
    }
}

fn get_f64(j: &Json, key: &str) -> Result<f64, String> {
    match j.get(key) {
        Some(Json::F64(v)) => Ok(*v),
        Some(Json::U64(v)) => Ok(*v as f64),
        _ => Err(format!("missing number field `{key}`")),
    }
}

fn get_u64_arr(j: &Json, key: &str) -> Result<Vec<u64>, String> {
    match j.get(key) {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|v| match v {
                Json::U64(n) => Ok(*n),
                _ => Err(format!("non-integer element in `{key}`")),
            })
            .collect(),
        _ => Err(format!("missing array field `{key}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_sweep() -> SweepResult {
        SweepResult {
            sweep: "demo".to_string(),
            mode: "quick".to_string(),
            tolerance: Tolerance { max_throughput_drop: 0.05, max_p99_rise: 0.10 },
            points: vec![BenchPoint {
                design: "rambda".to_string(),
                x: "window=16".to_string(),
                completed: 1000,
                throughput_ops: 2.0e6,
                mean_ps: 5_000_000,
                p50_ps: 4_000_000,
                p99_ps: 9_000_000,
                p999_ps: 11_000_000,
                elapsed_ps: 500_000_000,
                window_ps: 50_000_000,
                window_completed: vec![100, 120, 130, 120, 110, 100, 120, 100, 50, 50],
                peak_window_p99_ps: 10_000_000,
                peak_utilization: 0.85,
            }],
        }
    }

    #[test]
    fn json_round_trips() {
        let sweep = tiny_sweep();
        let text = sweep.to_json_string();
        let parsed = SweepResult::from_json_str(&text).expect("parses");
        assert_eq!(parsed, sweep);
        assert_eq!(parsed.to_json_string(), text);
    }

    #[test]
    fn self_compare_passes() {
        let sweep = tiny_sweep();
        assert!(compare(&sweep, &sweep).is_empty());
    }

    #[test]
    fn throughput_drop_beyond_budget_fails() {
        let baseline = tiny_sweep();
        let mut current = tiny_sweep();
        current.points[0].throughput_ops *= 0.90; // 10 % drop vs. 5 % budget
        let diffs = compare(&current, &baseline);
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert!(diffs[0].contains("throughput"), "{}", diffs[0]);
        // A drop within budget passes.
        let mut ok = tiny_sweep();
        ok.points[0].throughput_ops *= 0.97;
        assert!(compare(&ok, &baseline).is_empty());
    }

    #[test]
    fn p99_rise_beyond_budget_fails() {
        let baseline = tiny_sweep();
        let mut current = tiny_sweep();
        current.points[0].p99_ps = (current.points[0].p99_ps as f64 * 1.2) as u64;
        let diffs = compare(&current, &baseline);
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert!(diffs[0].contains("p99"), "{}", diffs[0]);
    }

    #[test]
    fn missing_point_and_mode_mismatch_fail() {
        let baseline = tiny_sweep();
        let mut current = tiny_sweep();
        current.points.clear();
        assert!(compare(&current, &baseline)[0].contains("disappeared"));
        let mut full = tiny_sweep();
        full.mode = "full".to_string();
        assert!(compare(&full, &baseline)[0].contains("mode mismatch"));
    }

    #[test]
    fn unknown_sweep_lists_valid_names() {
        let err = run_sweep("nope", true).unwrap_err();
        for name in sweep_names() {
            assert!(err.contains(name), "{err}");
        }
    }

    #[test]
    fn sparkline_scales_to_max() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0, 0]), "▁▁");
        let s = sparkline(&[1, 4, 8]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.ends_with('█'));
    }
}
