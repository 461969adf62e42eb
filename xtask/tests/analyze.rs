//! Integration tests for `cargo xtask analyze`: the negative fixtures under
//! `tests/fixtures/` must trip every rule (through the library *and* through
//! the binary's exit code), and the real workspace must analyze clean.

use std::path::PathBuf;
use std::process::Command;

use xtask::rules::{analyze, Config};

fn fixture_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).parent().expect("xtask has a parent").to_path_buf()
}

#[test]
fn bad_fixture_trips_every_rule() {
    let analysis = analyze(&Config::rambda(fixture_root("bad"))).expect("fixture scans");
    let hits: Vec<(&str, &str, &str)> =
        analysis.violations.iter().map(|v| (v.rule, v.path.as_str(), v.token.as_str())).collect();

    let kvs = "crates/kvs/src/lib.rs";
    let ring = "crates/ring/src/lib.rs";
    let fabric = "crates/fabric/src/lib.rs";
    for expected in [
        ("R1", kvs, "HashMap"),
        ("R1", kvs, "HashSet"),
        ("R2", kvs, "Instant"),
        ("R2", kvs, "thread::spawn"),
        ("R2", kvs, "std::env"),
        ("R2", kvs, "static mut EPOCH"),
        ("R2", kvs, "thread_local!"),
        ("R3", kvs, "forbid(unsafe_code)"),
        ("R3", ring, "forbid(unsafe_code)"),
        ("R3", ring, "unsafe"),
        ("R5", fabric, "println!"),
        ("R5", fabric, "eprintln!"),
    ] {
        assert!(hits.contains(&expected), "missing expected violation {expected:?} in {hits:#?}");
    }

    // The driver binary under src/bin/ reads std::env and prints, yet must
    // trip nothing: R1/R2/R5 exempt bin targets.
    assert!(
        hits.iter().all(|(_, p, _)| !p.contains("/src/bin/")),
        "driver binaries are exempt from R1/R2/R5: {hits:#?}"
    );
    // The println! inside the fabric fixture's #[cfg(test)] module is
    // masked: exactly the two library-code prints fire.
    let r5_fabric = hits.iter().filter(|(r, p, _)| *r == "R5" && *p == fabric).count();
    assert_eq!(r5_fabric, 2, "test-module prints must be masked: {hits:#?}");

    // R3 fires exactly twice in the ring fixture: its SAFETY comment does
    // not excuse the `unsafe`. The HashMap and the thread-local inside the
    // kvs fixture's #[cfg(test)] module must NOT be flagged: every R1 and
    // R2 hit sits outside the test module.
    let r3_ring = hits.iter().filter(|(r, p, _)| *r == "R3" && *p == ring).count();
    assert_eq!(r3_ring, 2, "the unsafe and the missing forbid: {hits:#?}");
    let kvs_lines: Vec<u32> = analysis
        .violations
        .iter()
        .filter(|v| matches!(v.rule, "R1" | "R2") && v.path == kvs)
        .map(|v| v.line)
        .collect();
    assert!(
        kvs_lines.iter().all(|&l| l < 28),
        "R1/R2 must skip the #[cfg(test)] module (lines >= 28): {kvs_lines:?}"
    );
}

#[test]
fn bad_fixture_fails_through_the_binary() {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["analyze", "--root"])
        .arg(fixture_root("bad"))
        .output()
        .expect("xtask binary runs");
    assert_eq!(out.status.code(), Some(1), "violations must exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[R1] HashMap"), "diagnostic names the token:\n{stdout}");
    assert!(stdout.contains("crates/kvs/src/lib.rs:"), "diagnostic is file:line:\n{stdout}");
}

#[test]
fn r8_fixture_trips_rng_provenance_and_clean_twin_passes() {
    let analysis = analyze(&Config::rambda(fixture_root("r8/bad"))).expect("fixture scans");
    let hits: Vec<(&str, &str)> = analysis.violations.iter().map(|v| (v.rule, v.token.as_str())).collect();
    for expected in [("R8", "thread_rng"), ("R8", "rng.clone()")] {
        assert!(hits.contains(&expected), "missing expected violation {expected:?} in {hits:#?}");
    }
    // The literal seed and the unsalted seed each fire once; the
    // `SimRng::seed(params.seed)` call must not.
    let seeds = hits.iter().filter(|(r, t)| *r == "R8" && *t == "SimRng::seed").count();
    assert_eq!(seeds, 2, "literal + unsalted seed, nothing else: {hits:#?}");
    assert_eq!(hits.len(), 4, "exactly the four provenance breaks fire: {hits:#?}");

    // The clean twin exercises the exemptions: a bare-literal seed() inside
    // `impl SimRng` and a literal seed under #[cfg(test)].
    let clean = analyze(&Config::rambda(fixture_root("r8/clean"))).expect("fixture scans");
    assert!(clean.is_clean(), "R8 exemptions must hold: {:#?}", clean.violations);
}

#[test]
fn r9_fixture_trips_unguarded_counters_and_clean_twin_passes() {
    let analysis = analyze(&Config::rambda(fixture_root("r9/bad"))).expect("fixture scans");
    let hits: Vec<(&str, &str, &str)> =
        analysis.violations.iter().map(|v| (v.rule, v.path.as_str(), v.token.as_str())).collect();
    let rnic = "crates/rnic/src/lib.rs";
    assert!(hits.contains(&("R9", rnic, "doorbells")), "unguarded counter fires: {hits:#?}");
    assert!(hits.contains(&("R9", rnic, "cqes")), "unguarded counter fires: {hits:#?}");
    // `.wqes` is mentioned by the identity; the error prose naming
    // "doorbells" contains whitespace and must not count as coverage.
    assert!(!hits.contains(&("R9", rnic, "wqes")), "guarded counter must not fire: {hits:#?}");
    assert_eq!(hits.len(), 2, "exactly the two unguarded counters fire: {hits:#?}");

    let clean = analyze(&Config::rambda(fixture_root("r9/clean"))).expect("fixture scans");
    assert!(clean.is_clean(), "fully guarded counters must pass: {:#?}", clean.violations);
}

#[test]
fn r9_covers_the_metrics_crate_event_core_publisher() {
    // The metrics crate is itself a stats crate now: the event-core
    // summary's `publish_metrics` (an impl method, not a free fn) must be
    // scanned, and an identity that skips one of its suffixes must fire.
    let analysis = analyze(&Config::rambda(fixture_root("r9ec/bad"))).expect("fixture scans");
    let hits: Vec<(&str, &str, &str)> =
        analysis.violations.iter().map(|v| (v.rule, v.path.as_str(), v.token.as_str())).collect();
    let metrics = "crates/metrics/src/lib.rs";
    assert!(hits.contains(&("R9", metrics, "dwell_ps")), "unguarded scheduler counter fires: {hits:#?}");
    assert!(!hits.contains(&("R9", metrics, "enqueued")), "guarded counter must not fire: {hits:#?}");
    assert!(!hits.contains(&("R9", metrics, "dispatched")), "guarded counter must not fire: {hits:#?}");
    assert_eq!(hits.len(), 1, "exactly the unguarded counter fires: {hits:#?}");

    let clean = analyze(&Config::rambda(fixture_root("r9ec/clean"))).expect("fixture scans");
    assert!(clean.is_clean(), "fully guarded event-core publisher passes: {:#?}", clean.violations);
}

#[test]
fn github_annotations_through_the_binary() {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["analyze", "--github", "--root"])
        .arg(fixture_root("bad"))
        .output()
        .expect("xtask binary runs");
    assert_eq!(out.status.code(), Some(1), "violations still exit 1 under --github");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("::error file=crates/kvs/src/lib.rs,line=10,title=analyze R2::static mut EPOCH"),
        "workflow annotations name file, line, rule and token:\n{stdout}"
    );
}

#[test]
fn allowlist_entry_without_reason_refuses_to_run() {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["analyze", "--root"])
        .arg(fixture_root("noreason"))
        .output()
        .expect("xtask binary runs");
    assert_eq!(out.status.code(), Some(2), "an unjustified allowlist entry is an I/O-class error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no `# reason`"), "error names the missing reason:\n{stderr}");
}

#[test]
fn stale_allowlist_entry_is_an_error() {
    let analysis = analyze(&Config::rambda(fixture_root("stale"))).expect("fixture scans");
    assert!(analysis.violations.is_empty(), "fixture itself is clean: {:#?}", analysis.violations);
    assert_eq!(analysis.stale_allows.len(), 1, "the unused entry must be reported");
    assert!(!analysis.is_clean(), "stale entries alone must fail the run");

    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["analyze", "--root"])
        .arg(fixture_root("stale"))
        .output()
        .expect("xtask binary runs");
    assert_eq!(out.status.code(), Some(1), "stale allowlist entries must exit 1");
}

#[test]
fn real_workspace_is_clean() {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["analyze", "--root"])
        .arg(workspace_root())
        .output()
        .expect("xtask binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "workspace must analyze clean:\n{stdout}\n{stderr}");
}

#[test]
fn unknown_flags_are_usage_errors() {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["analyze", "--frobnicate"])
        .output()
        .expect("xtask binary runs");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
}
