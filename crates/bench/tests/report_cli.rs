//! CLI contract of the `report` binary's export modes (DESIGN.md §13.2):
//! bad selections and pointless flag combinations fail fast — before any
//! simulation runs or output directory is created.

use std::path::Path;
use std::process::{Command, Output};

fn report(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_report")).args(args).output().expect("spawn report")
}

#[test]
fn unknown_runner_fails_fast_with_listing() {
    let dir = format!("{}/unknown-runner", env!("CARGO_TARGET_TMPDIR"));
    for (mode, flag) in [("--trace", "--trace-runner"), ("--profile", "--profile-runner")] {
        let out = report(&[mode, &dir, flag, "nope"]);
        assert_eq!(out.status.code(), Some(2), "bad {flag} must exit 2");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(flag), "{err}");
        // The shared check prints every valid runner, so the user can fix
        // the invocation without reading the source.
        for runner in ["micro.cpu", "kvs.rambda", "txn.rambda_tx", "dlrm.rambda"] {
            assert!(err.contains(runner), "listing missing {runner}: {err}");
        }
        assert!(!Path::new(&dir).exists(), "fail-fast must not create the {mode} dir");
    }
}

#[test]
fn trace_combined_with_profile_fails_fast() {
    let trace = format!("{}/trace-vs-profile.trace", env!("CARGO_TARGET_TMPDIR"));
    let profile = format!("{}/trace-vs-profile.profile", env!("CARGO_TARGET_TMPDIR"));
    let out = report(&["--trace", &trace, "--profile", &profile]);
    assert_eq!(out.status.code(), Some(2), "--trace + --profile must exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("mutually exclusive"), "{err}");
    assert!(!Path::new(&trace).exists(), "fail-fast must not create the --trace dir");
    assert!(!Path::new(&profile).exists(), "fail-fast must not create the --profile dir");
}

#[test]
fn loss_outside_the_headline_and_trace_modes_fails_fast() {
    // Only the headline comparison and --trace take the fault plan; a
    // profiled run would silently ignore it.
    let dir = format!("{}/loss-ignored", env!("CARGO_TARGET_TMPDIR"));
    let out = report(&["--profile", &dir, "--profile-runner", "kvs.rambda", "--loss", "0.5"]);
    assert_eq!(out.status.code(), Some(2), "--profile with --loss must exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--loss has no effect"), "{err}");
    assert!(!Path::new(&dir).exists(), "fail-fast must not create the --profile dir");
}
