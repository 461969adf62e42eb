//! End-to-end checks for the continuous-benchmark harness behind
//! `cargo xtask bench` (DESIGN.md §10).
//!
//! The regression gate is only trustworthy if (a) same-seed sweeps are
//! byte-deterministic, (b) every point's telemetry digest is internally
//! consistent with its run report, and (c) `compare` actually fails when a
//! baseline promises more than the simulator delivers. The committed
//! quick-mode baselines under `bench/baselines/` are themselves pinned
//! byte-for-byte, so any model change that shifts a curve must regenerate
//! them in the same commit.

use std::path::Path;

use rambda_bench::harness::{compare, is_gating, run_sweep, sweep_names, SweepResult};

/// Same seed, same sweep, same bytes — the property the CI gate stands on.
#[test]
fn quick_sweeps_are_byte_deterministic_and_self_consistent() {
    for name in sweep_names() {
        let a = run_sweep(name, true, false, false).expect(name);
        let b = run_sweep(name, true, false, false).expect(name);
        let text = a.to_json_string();
        assert_eq!(text, b.to_json_string(), "{name}: same-seed sweeps serialized differently");

        let parsed = SweepResult::from_json_str(&text).expect(name);
        assert_eq!(parsed, a, "{name}: JSON round-trip lost information");
        assert_eq!(parsed.to_json_string(), text);

        assert!(compare(&a, &b).is_empty(), "{name}: identical sweeps must not diff");

        for p in &a.points {
            // The per-window throughput curve must tile the run. The
            // windows hold every *traced* request (warm-up included; the
            // exact identity vs the traced total is enforced by
            // RunReport::validate inside from_report), so they cover at
            // least the measured completions, and the window grid covers
            // the makespan.
            let windowed: u64 = p.window_completed.iter().sum();
            assert!(
                windowed >= p.completed,
                "{name} {}/{}: windows hold {windowed} < {} completions",
                p.design,
                p.x,
                p.completed
            );
            let covered = p.window_ps * p.window_completed.len() as u64;
            assert!(covered >= p.elapsed_ps, "{name} {}/{}: windows do not cover the run", p.design, p.x);
            assert!(
                p.peak_window_p99_ps >= p.p50_ps,
                "{name} {}/{}: peak window p99 below run p50",
                p.design,
                p.x
            );
        }
    }
}

/// Profiled sweeps stay byte-deterministic, carry the profiler rows, and
/// never perturb the headline numbers of the run they observe.
#[test]
fn profiled_sweeps_are_deterministic_and_additive() {
    let plain = run_sweep("micro_designs", true, false, false).expect("plain");
    let a = run_sweep("micro_designs", true, true, false).expect("profiled");
    let b = run_sweep("micro_designs", true, true, false).expect("profiled");
    assert_eq!(a.to_json_string(), b.to_json_string(), "same-seed profiled sweeps must match");
    assert!(a.to_json_string().contains("events_dispatched"));
    assert!(!plain.to_json_string().contains("events_dispatched"), "unprofiled sweeps must omit the key");
    for (p, q) in plain.points.iter().zip(&a.points) {
        assert_eq!(p.throughput_ops, q.throughput_ops, "profiling perturbed {}", p.design);
        assert_eq!(p.p99_ps, q.p99_ps, "profiling perturbed {}", p.design);
        assert!(q.events_dispatched.is_some_and(|n| n > 0), "{}", q.design);
    }
}

/// Scoped sweeps stay byte-deterministic, carry the hot-fraction digest,
/// and never perturb the headline numbers of the run they observe
/// (scoped metrics only attribute what the run already records).
#[test]
fn scoped_sweeps_are_deterministic_and_additive() {
    let plain = run_sweep("kvs_load", true, false, false).expect("plain");
    let a = run_sweep("kvs_load", true, false, true).expect("scoped");
    let b = run_sweep("kvs_load", true, false, true).expect("scoped");
    assert_eq!(a.to_json_string(), b.to_json_string(), "same-seed scoped sweeps must match");
    assert!(a.to_json_string().contains("hot_fraction"));
    assert!(!plain.to_json_string().contains("hot_fraction"), "unscoped sweeps must omit the key");
    for (p, q) in plain.points.iter().zip(&a.points) {
        assert_eq!(p.throughput_ops, q.throughput_ops, "scoping perturbed {}", p.design);
        assert_eq!(p.p99_ps, q.p99_ps, "scoping perturbed {}", p.design);
        assert!(q.hot_fraction.is_some_and(|h| h > 0.0 && h <= 1.0), "{}", q.design);
    }
}

/// The gate must fire when a baseline claims better numbers than the
/// current build produces (equivalently: when the current build regresses
/// against what was committed).
#[test]
fn compare_fails_against_a_perturbed_baseline() {
    let current = run_sweep("micro_designs", true, false, false).expect("micro_designs");

    let mut inflated = current.clone();
    inflated.points[0].throughput_ops *= 1.20; // pretend the baseline was 20 % faster
    let diffs = compare(&current, &inflated);
    assert!(diffs.iter().any(|d| d.contains("throughput")), "no throughput regression reported: {diffs:?}");

    let mut tighter_tail = current.clone();
    tighter_tail.points[0].p99_ps = (tighter_tail.points[0].p99_ps as f64 * 0.5) as u64;
    let diffs = compare(&current, &tighter_tail);
    assert!(diffs.iter().any(|d| d.contains("p99")), "no p99 regression reported: {diffs:?}");
}

/// The committed baselines parse, gate-pass against a fresh run, and are
/// byte-identical to what the harness produces today. If a deliberate model
/// change moves a curve, regenerate them in the same commit:
/// `cargo xtask bench --quick --out bench/baselines`.
#[test]
fn committed_baselines_are_current() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("workspace root").join("bench/baselines");
    // The non-gating sweeps (faults_sweep) ship no baseline: their numbers
    // characterize degraded fabrics and are expected to look like
    // regressions. Their determinism is still covered above.
    for name in sweep_names().iter().filter(|n| is_gating(n)) {
        let file = dir.join(format!("BENCH_{name}.json"));
        let text = std::fs::read_to_string(&file).unwrap_or_else(|e| {
            panic!(
                "missing baseline {} ({e}) — run cargo xtask bench --quick --out bench/baselines",
                file.display()
            )
        });
        let baseline = SweepResult::from_json_str(&text).expect(name);
        assert_eq!(baseline.sweep, *name);
        assert_eq!(baseline.mode, "quick", "{name}: committed baselines must be quick-mode");

        let current = run_sweep(name, true, false, false).expect(name);
        let diffs = compare(&current, &baseline);
        assert!(diffs.is_empty(), "{name} regressed vs committed baseline: {diffs:?}");
        assert_eq!(
            current.to_json_string(),
            text,
            "{name}: baseline stale — regenerate with cargo xtask bench --quick --out bench/baselines"
        );
    }
}
