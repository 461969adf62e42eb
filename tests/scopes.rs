//! Scoped observability (DESIGN.md §15) across every design: the per-entity
//! metric registry must validate its conservation identities on all nine
//! runners, stay a pure function of the seed (byte-identical same-seed
//! JSON), and never perturb the simulated run it observes — the committed
//! goldens are unscoped and must keep matching after scoped runs exist.

use std::fs;
use std::path::PathBuf;
use std::sync::OnceLock;

use proptest::prelude::*;
use rambda::micro::MicroParams;
use rambda::{Design, SimBuilder, Testbed};
use rambda_accel::DataLocation;
use rambda_des::{Histogram, SimTime, Span};
use rambda_dlrm::{DlrmDesigns, DlrmParams};
use rambda_kvs::{KvsDesigns, KvsParams};
use rambda_metrics::{RunReport, ScopeConfig, ScopedMetrics, Timeline};
use rambda_txn::{TxnDesigns, TxnParams};
use rambda_workloads::{DlrmProfile, TxnSpec};

type Builder = fn() -> Design;

/// Every runner the report binary knows, as fresh-design constructors.
fn all_designs() -> Vec<(&'static str, Builder)> {
    vec![
        ("micro.cpu", || Design::micro_cpu(MicroParams::quick(), 8, 16)),
        ("micro.rambda", || Design::micro_rambda(MicroParams::quick(), DataLocation::HostDram, true, 1)),
        ("kvs.cpu", || Design::kvs_cpu(KvsParams::quick())),
        ("kvs.rambda", || Design::kvs_rambda(KvsParams::quick(), DataLocation::HostDram)),
        ("kvs.smartnic", || Design::kvs_smartnic(KvsParams::quick())),
        ("txn.hyperloop", || Design::txn_hyperloop(TxnParams::quick(TxnSpec::read_write(64)))),
        ("txn.rambda_tx", || Design::txn_rambda_tx(TxnParams::quick(TxnSpec::read_write(64)))),
        ("dlrm.cpu", || Design::dlrm_cpu(DlrmParams::quick(DlrmProfile::by_name("Books").unwrap()), 8)),
        ("dlrm.rambda", || {
            Design::dlrm_rambda(
                DlrmParams::quick(DlrmProfile::by_name("Books").unwrap()),
                DataLocation::HostDram,
            )
        }),
    ]
}

fn scoped(design: Design) -> RunReport {
    SimBuilder::new(design).config(&Testbed::default()).scopes(ScopeConfig::default()).run()
}

fn plain(design: Design) -> RunReport {
    SimBuilder::new(design).config(&Testbed::default()).run()
}

/// The first scoped report of each design, in `all_designs()` order. The
/// identity, same-seed and perturbation tests all read it, so the suite
/// runs each design three times: this scoped run, a second scoped run to
/// compare bytes with, and a plain run to compare headlines with. Tests run
/// on parallel threads; whichever reaches a design first runs it.
fn first_scoped_report(index: usize) -> &'static RunReport {
    static REPORTS: OnceLock<Vec<OnceLock<RunReport>>> = OnceLock::new();
    let designs = all_designs();
    let reports = REPORTS.get_or_init(|| designs.iter().map(|_| OnceLock::new()).collect());
    reports[index].get_or_init(|| scoped((designs[index].1)()))
}

#[test]
fn every_design_validates_its_scope_identities() {
    for (i, (name, _)) in all_designs().into_iter().enumerate() {
        let report = first_scoped_report(i);
        report.validate().unwrap_or_else(|e| panic!("{name}: scoped report fails validation: {e}"));
        let sc = report.scopes.as_ref().unwrap_or_else(|| panic!("{name}: scoped run lost its registry"));
        assert!(!sc.scopes.is_empty(), "{name}: at least one scope must exist");
        assert!(sc.merged.count > 0, "{name}: scoped requests were recorded");
        let hot = sc.hot_fraction();
        assert!(hot > 0.0 && hot <= 1.0, "{name}: hot fraction {hot} out of range");
        assert!(sc.slo.windows > 0, "{name}: SLO digest saw at least one window");
        assert!(report.to_json_string().contains("\"scopes\""), "{name}: JSON carries the scopes section");
    }
}

#[test]
fn same_seed_scoped_runs_are_byte_identical() {
    for (i, (name, design)) in all_designs().into_iter().enumerate() {
        let b = scoped(design()).to_json_string();
        let a = first_scoped_report(i).to_json_string();
        assert_eq!(a, b, "{name}: same-seed scoped reports must render byte-identically");
    }
}

#[test]
fn scoping_never_perturbs_the_run_it_observes() {
    for (i, (name, design)) in all_designs().into_iter().enumerate() {
        let bare = plain(design());
        let observed = first_scoped_report(i);
        assert_eq!(bare.completed, observed.completed, "{name}: completion count changed");
        assert_eq!(bare.elapsed_ps, observed.elapsed_ps, "{name}: makespan changed");
        assert_eq!(bare.latency.p99_ps, observed.latency.p99_ps, "{name}: tail latency changed");
        assert!(bare.scopes.is_none(), "{name}: unscoped report must omit the registry");
        assert!(
            !bare.to_json_string().contains("\"scopes\""),
            "{name}: unscoped JSON must stay free of the scopes section"
        );
    }
}

#[test]
fn unscoped_golden_still_matches_after_a_scoped_run() {
    // Run the scoped variant first so any registry residue (a leaked scope,
    // a mutated global histogram) would surface in the following unscoped
    // render, then compare that render to the committed snapshot.
    let _ = scoped(Design::kvs_rambda(KvsParams::quick(), DataLocation::HostDram));
    let bare = plain(Design::kvs_rambda(KvsParams::quick(), DataLocation::HostDram));
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("goldens/kvs_rambda.json");
    let snapshot = fs::read_to_string(&golden).expect("committed golden exists");
    assert_eq!(bare.to_json_string(), snapshot, "unscoped report drifted from its golden");
}

proptest! {
    /// Telescoping conservation on synthetic traffic: for any scope count,
    /// request count, and spacing, the per-scope histograms and windows must
    /// merge back to exactly the global totals, and the busiest scope's
    /// share must bound every other scope's.
    #[test]
    fn scope_rollups_telescope_to_the_global_totals(
        nscopes in 1usize..6,
        requests in 1u64..400,
        spacing_us in 1u64..90,
    ) {
        let mut sm = ScopedMetrics::active(ScopeConfig::default());
        let mut global = Timeline::default();
        let mut direct = Histogram::new();
        for i in 0..requests {
            let issued = SimTime::from_us(i * spacing_us);
            let done = SimTime::from_us(i * spacing_us + 3 + (i % 7));
            let scope = format!("s{}", i as usize % nscopes);
            sm.record(&scope, issued, done);
            global.record(issued, done);
            direct.record(done.saturating_since(issued));
        }
        let makespan = Span::from_us(requests * spacing_us + 16);
        let tl = global.finalize(makespan, &rambda_metrics::MetricSet::new());
        let summary = sm.finalize(Some(&tl));

        prop_assert_eq!(summary.merged.count, requests);
        prop_assert_eq!(summary.merged.sum_ps, direct.sum_ps());
        prop_assert_eq!(summary.merged.p99_ps, direct.percentile(0.99).as_ps());
        let per_scope: u64 = summary.scopes.iter().map(|s| s.latency.count).sum();
        prop_assert_eq!(per_scope, requests);
        for (i, w) in tl.windows.iter().enumerate() {
            let count: u64 = summary.scopes.iter().map(|s| s.windows[i].count).sum();
            prop_assert_eq!(count, w.count);
        }
        let hot = summary.hot_fraction();
        prop_assert!(hot >= 1.0 / nscopes as f64 - 1e-9 && hot <= 1.0);
    }
}
