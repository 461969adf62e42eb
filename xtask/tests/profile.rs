//! Integration tests for the `--profile-compare` throughput gate: the
//! synthetic-slowdown fixture must fail the gate, the within-tolerance
//! fixture must pass, and the committed floor under `bench/profile-baselines`
//! must itself be a parseable, self-consistent profile.

use std::path::PathBuf;

use xtask::profile::{compare, parse, Profile, GATED_METRIC, NON_GATING, TOLERANCE};

fn fixture(name: &str) -> Profile {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/profile")
        .join(name)
        .join("BENCH_PROFILE.json");
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The negative fixture: micro_designs and txn_latency run at half the
/// floor throughput (an injected event-core slowdown). The gate must fail
/// on exactly those, and not on the near-floor or non-gating sweeps.
#[test]
fn synthetic_slowdown_fails_the_gate() {
    let regressions = compare(&fixture("slow"), &fixture("floor"));
    let sweeps: Vec<&str> = regressions.iter().map(|r| r.sweep.as_str()).collect();
    assert_eq!(sweeps, ["micro_designs", "txn_latency"], "regressions: {regressions:#?}");
    for r in &regressions {
        assert!(r.current < r.threshold);
        assert!((r.threshold - r.floor * (1.0 - TOLERANCE)).abs() < 1e-9);
        // The message a CI log shows names the sweep and both numbers.
        let msg = r.to_string();
        assert!(msg.contains(&r.sweep) && msg.contains(GATED_METRIC), "{msg}");
    }
}

/// faults_sweep is 10x below floor in the slow fixture, but is not gating.
#[test]
fn slowdown_in_non_gating_sweep_is_ignored() {
    assert!(NON_GATING.contains(&"faults_sweep"));
    let regressions = compare(&fixture("slow"), &fixture("floor"));
    assert!(regressions.iter().all(|r| r.sweep != "faults_sweep"), "{regressions:#?}");
}

/// A run that is slower than the floor but within the 40% tolerance passes.
#[test]
fn within_tolerance_run_passes() {
    let regressions = compare(&fixture("ok"), &fixture("floor"));
    assert!(regressions.is_empty(), "{regressions:#?}");
}

/// A floor always accepts itself (guards against an off-by-one that would
/// make freshly recorded floors fail their own gate).
#[test]
fn floor_accepts_itself() {
    let floor = fixture("floor");
    assert!(compare(&floor, &floor).is_empty());
}

/// The committed floor the CI bench-gate job actually uses must parse and
/// carry the gated metric for every gating sweep.
#[test]
fn committed_floor_is_well_formed() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask has a parent")
        .join("bench/profile-baselines/BENCH_PROFILE.json");
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let floor = parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let gating: Vec<&str> = floor.sweep_names().filter(|s| Profile::is_gating(s)).collect();
    assert!(!gating.is_empty(), "committed floor gates no sweeps");
    for sweep in gating {
        let v = floor.metric(sweep, GATED_METRIC);
        assert!(v.is_some_and(|v| v > 0.0), "{sweep} lacks a positive {GATED_METRIC}");
    }
    assert!(compare(&floor, &floor).is_empty());
}
