//! Acceptance tests for the deterministic fault-injection and recovery
//! layer (DESIGN.md §11).
//!
//! The contract under test:
//!
//! - same seed + same [`FaultConfig`] ⇒ byte-identical [`RunReport`] JSON
//!   (the fault plan draws from its own RNG stream, so it perturbs nothing
//!   it shouldn't);
//! - a zero-loss plan is indistinguishable from no plan at all — the
//!   committed golden snapshots stay byte-for-byte valid;
//! - injected loss is *visible*: retransmissions land in the validated
//!   report and push the exact p99 strictly up against the clean run;
//! - exhausting the retry cap surfaces as a shed request, never a panic.

use std::fs;
use std::path::PathBuf;

use rambda::micro::MicroParams;
use rambda::{Design, SimBuilder, Testbed};
use rambda_accel::DataLocation;
use rambda_dlrm::{DlrmDesigns, DlrmParams};
use rambda_fabric::FaultConfig;
use rambda_kvs::{KvsDesigns, KvsParams};
use rambda_metrics::RunReport;
use rambda_trace::Tracer;
use rambda_txn::{TxnDesigns, TxnParams};
use rambda_workloads::{DlrmProfile, TxnSpec};

const FAULT_SEED: u64 = 0xFA17;

/// Sums every counter whose name ends with `suffix`, mirroring the
/// reduction `RunReport::validate` applies to the fault identities.
fn counter_sum(report: &RunReport, suffix: &str) -> u64 {
    report.resources.counters().filter(|(name, _)| name.ends_with(suffix)).map(|(_, v)| v).sum()
}

fn kvs_with_faults(p: &KvsParams, faults: FaultConfig) -> RunReport {
    SimBuilder::new(Design::kvs_rambda(p.clone(), DataLocation::HostDram))
        .config(&Testbed::default())
        .faults(faults)
        .run()
}

#[test]
fn same_seed_and_plan_render_byte_identical_reports() {
    let p = KvsParams::quick();
    let a = kvs_with_faults(&p, FaultConfig::lossy(FAULT_SEED, 1e-3));
    let b = kvs_with_faults(&p, FaultConfig::lossy(FAULT_SEED, 1e-3));
    assert_eq!(
        a.to_json_string(),
        b.to_json_string(),
        "identical seeds and fault plans must reproduce the run byte-for-byte"
    );
    // A different fault seed moves the drops and therefore the run.
    let c = kvs_with_faults(&p, FaultConfig::lossy(FAULT_SEED + 1, 1e-3));
    assert_ne!(a.to_json_string(), c.to_json_string(), "the fault seed must matter");
}

#[test]
fn zero_loss_plan_matches_the_disabled_baseline_and_golden() {
    let p = KvsParams::quick();
    let baseline = SimBuilder::new(Design::kvs_rambda(p.clone(), DataLocation::HostDram))
        .config(&Testbed::default())
        .run();
    let zero = kvs_with_faults(&p, FaultConfig::lossy(FAULT_SEED, 0.0));
    assert_eq!(
        baseline.to_json_string(),
        zero.to_json_string(),
        "a zero-loss fault plan must be a no-op on the simulation"
    );
    // And both still match the committed golden snapshot: enabling the
    // fault layer with nothing to inject cannot drift any pinned artifact.
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("goldens/kvs_rambda.json");
    let golden = fs::read_to_string(&golden).expect("committed kvs_rambda golden");
    assert_eq!(zero.to_json_string(), golden, "zero-loss run drifted from the golden snapshot");
}

#[test]
fn injected_loss_is_recovered_and_costs_exact_tail_latency() {
    let p = KvsParams::quick();
    let run = |loss: f64| {
        let mut tracer = Tracer::flight_recorder();
        let report = SimBuilder::new(Design::kvs_rambda(p.clone(), DataLocation::HostDram))
            .config(&Testbed::default())
            .faults(FaultConfig::lossy(FAULT_SEED, loss))
            .tracer(&mut tracer)
            .run();
        report.validate().expect("report with faults must satisfy the recovery identities");
        let p99 = tracer.tail_report(1).p99_ps;
        (report, p99)
    };
    let (clean, clean_p99) = run(0.0);
    let (lossy, lossy_p99) = run(1e-3);

    assert_eq!(counter_sum(&clean, ".retransmits"), 0, "clean fabric must not retransmit");
    assert!(counter_sum(&lossy, ".retransmits") > 0, "1e-3 loss must provoke retransmissions");
    assert!(counter_sum(&lossy, ".faults.dropped") > 0, "the plan must actually drop frames");
    // The recovery layer hides drops from correctness but not from the
    // tail: timeout + backoff lands squarely on the affected requests.
    // Compare *exact* percentiles from the flight recorder — the report's
    // histogram buckets are too coarse to resolve a 1e-3 perturbation.
    assert!(
        lossy_p99 > clean_p99,
        "injected loss must raise the exact p99 ({lossy_p99} ps vs {clean_p99} ps clean)"
    );
    assert_eq!(clean.completed, lossy.completed, "recovery must not lose requests at 1e-3 loss");
}

#[test]
fn retry_cap_exhaustion_sheds_the_request_instead_of_panicking() {
    // Total loss: every data-path frame drops, so every RC operation burns
    // its full retry budget and fails. Each design must degrade — shed
    // requests and report them — rather than assert. The designs without
    // RC verbs (the single-machine micro designs and the Smart NIC, whose
    // raw sends the plan does not judge) must not notice the plan at all.
    let micro = MicroParams { requests: 2_000, ..MicroParams::quick() };
    let kvs = KvsParams { requests: 300, ..KvsParams::quick() };
    let txn = TxnParams { txns: 100, ..TxnParams::quick(TxnSpec::read_write(64)) };
    let dlrm = DlrmParams { queries: 200, ..DlrmParams::quick(DlrmProfile::by_name("Books").unwrap()) };
    let designs: [(bool, Box<dyn Fn() -> Design>); 9] = [
        (false, Box::new(move || Design::micro_cpu(micro, 8, 16))),
        (false, Box::new(move || Design::micro_rambda(micro, DataLocation::HostDram, true, 1))),
        (true, Box::new(|| Design::kvs_cpu(kvs.clone()))),
        (true, Box::new(|| Design::kvs_rambda(kvs.clone(), DataLocation::HostDram))),
        (false, Box::new(|| Design::kvs_smartnic(kvs.clone()))),
        (true, Box::new(|| Design::txn_hyperloop(txn.clone()))),
        (true, Box::new(|| Design::txn_rambda_tx(txn.clone()))),
        (true, Box::new(|| Design::dlrm_cpu(dlrm.clone(), 8))),
        (true, Box::new(|| Design::dlrm_rambda(dlrm.clone(), DataLocation::HostDram))),
    ];
    for (rc_verbs, design) in designs {
        let name = design().name();
        let lossy = SimBuilder::new(design()).faults(FaultConfig::lossy(FAULT_SEED, 1.0)).run();
        lossy.validate().unwrap_or_else(|e| panic!("{name}: a fully lossy run fails validation: {e}"));
        if !rc_verbs {
            let clean = SimBuilder::new(design()).run();
            assert_eq!(lossy.to_json_string(), clean.to_json_string(), "{name}: the plan moved the run");
            continue;
        }
        assert!(counter_sum(&lossy, ".retries_exhausted") > 0, "{name}: total loss must exhaust retry caps");
        let shed = lossy.stages.iter().find(|(stage, _)| stage == "shed").map_or(0, |(_, s)| s.count);
        assert_eq!(shed, lossy.total.count, "{name}: every request must be shed");
    }
}
