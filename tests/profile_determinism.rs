//! Profile mode is passive and deterministic: a profiled run renders the
//! same report as the plain run plus its `event_core` section (and that
//! section's `event_core.*` counter mirror), same-seed profiled reports are
//! byte-identical, the event-core section validates, and the flight
//! recorder's trace of a profiled run agrees with its report.

use rambda::{Design, SimBuilder, Testbed};
use rambda_accel::DataLocation;
use rambda_kvs::{KvsDesigns, KvsParams};
use rambda_metrics::{MetricSet, RunReport};
use rambda_trace::Tracer;
use rambda_txn::{TxnDesigns, TxnParams};
use rambda_workloads::TxnSpec;

fn kvs_design() -> Design {
    Design::kvs_rambda(KvsParams::quick(), DataLocation::HostDram)
}

fn txn_design() -> Design {
    Design::txn_rambda_tx(TxnParams::quick(TxnSpec::read_write(64)))
}

/// A named design constructor.
type NamedDesign = (&'static str, fn() -> Design);

/// The two headline designs the profiler is exercised on.
fn designs() -> [NamedDesign; 2] {
    [("kvs.rambda", kvs_design), ("txn.rambda_tx", txn_design)]
}

/// Runs `design` once in profile mode under the flight recorder.
fn profiled(design: Design) -> RunReport {
    let mut tracer = Tracer::flight_recorder();
    let report = SimBuilder::new(design).config(&Testbed::default()).tracer(&mut tracer).profile().run();
    report.validate().expect("profiled report validates its event-core identities");
    tracer.cross_validate(&report).expect("trace agrees with the report");
    report
}

#[test]
fn same_seed_profiles_are_byte_identical() {
    for (name, design) in designs() {
        let a = profiled(design()).to_json_string();
        let b = profiled(design()).to_json_string();
        assert_eq!(a, b, "{name}: same-seed profiled reports must be byte-identical");
    }
}

#[test]
fn profiled_reports_carry_the_event_core_section() {
    for (name, design) in designs() {
        let report = profiled(design());
        let ec = report.event_core.as_ref().expect("profiled report carries event-core telemetry");
        assert!(ec.dispatched > 0, "{name}: the scheduler dispatched work");
        assert!(ec.enqueued >= ec.dispatched, "{name}: dispatch conservation");
        assert_eq!(report.resources.counter("event_core.dispatched"), Some(ec.dispatched));
        assert!(report.to_json_string().contains("\"event_core\""), "{name}: section is serialized");
    }
}

#[test]
fn profiling_never_perturbs_the_run_it_observes() {
    for (name, design) in designs() {
        let plain = SimBuilder::new(design()).config(&Testbed::default()).run();
        let profiled = profiled(design());
        assert!(plain.event_core.is_none(), "{name}: only profiled runs carry the section");

        // Strip the section and its mirror: what is left renders exactly
        // the plain report, field for field, every counter and gauge
        // included.
        let mut stripped = profiled.clone();
        stripped.event_core = None;
        let mut resources = MetricSet::new();
        for (counter, value) in profiled.resources.counters().filter(|(c, _)| !c.starts_with("event_core.")) {
            resources.set(counter, value);
        }
        for (gauge, value) in profiled.resources.gauges() {
            resources.gauge(gauge, value);
        }
        stripped.resources = resources;
        assert_eq!(
            stripped.to_json_string(),
            plain.to_json_string(),
            "{name}: profiling perturbed the report"
        );
    }
}
