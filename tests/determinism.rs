//! Reproducibility: every experiment is a deterministic function of its
//! seed — identical runs, bit-for-bit identical statistics.

use rambda::micro::MicroParams;
use rambda::{Design, SimBuilder, Testbed};
use rambda_accel::DataLocation;
use rambda_kvs::{KvsDesigns, KvsParams};
use rambda_metrics::RunReport;
use rambda_trace::Tracer;
use rambda_txn::{TxnDesigns, TxnParams};
use rambda_workloads::TxnSpec;

fn run(design: Design) -> RunReport {
    SimBuilder::new(design).config(&Testbed::default()).run()
}

fn same(a: &RunReport, b: &RunReport) -> bool {
    a.completed == b.completed
        && a.throughput_ops.to_bits() == b.throughput_ops.to_bits()
        && a.latency.mean_ps == b.latency.mean_ps
        && a.latency.p99_ps == b.latency.p99_ps
}

#[test]
fn micro_runs_are_reproducible() {
    let p = MicroParams::quick();
    let a = run(Design::micro_rambda(p, DataLocation::HostDram, true, 7));
    let b = run(Design::micro_rambda(p, DataLocation::HostDram, true, 7));
    assert!(same(&a, &b));
    let c = run(Design::micro_rambda(p.with_nvm(), DataLocation::HostDram, false, 7));
    let d = run(Design::micro_rambda(p.with_nvm(), DataLocation::HostDram, false, 7));
    assert!(same(&c, &d));
    // The CPU run takes no seed: fully deterministic.
    assert!(same(&run(Design::micro_cpu(p, 4, 16)), &run(Design::micro_cpu(p, 4, 16))));
}

#[test]
fn kvs_runs_are_reproducible_and_seed_sensitive() {
    let p = KvsParams { requests: 10_000, ..KvsParams::quick() }.with_zipf(0.9);
    let a = run(Design::kvs_rambda(p.clone(), DataLocation::HostDram));
    let b = run(Design::kvs_rambda(p.clone(), DataLocation::HostDram));
    assert!(same(&a, &b));

    let mut p2 = p.clone();
    p2.seed = p.seed + 1;
    let c = run(Design::kvs_cpu(p));
    let d = run(Design::kvs_cpu(p2));
    // A different seed produces a (slightly) different run.
    assert!(c.latency.mean_ps != d.latency.mean_ps || c.throughput_ops != d.throughput_ops);
}

#[test]
fn every_runner_report_is_byte_identical_across_runs() {
    // Stronger than `same()`: each runner is executed twice in fresh worlds
    // and must render byte-identical RunReport JSON — the exact property the
    // golden snapshots and CI gate rely on (DESIGN.md §8). This covers every
    // design, including the runners the golden files do not snapshot, so a
    // nondeterministic container sneaking into any simulator state (the
    // analyzer's rule R1 territory) fails here at runtime too.
    // The canonical quick-mode registry covers every named runner, so this
    // loop automatically picks up new designs as they are installed.
    let reg = rambda_bench::quick_registry();
    assert!(reg.is_complete(), "quick registry must cover every runner");
    for name in reg.names() {
        let first = run(reg.design(name).unwrap()).to_json_string();
        let second = run(reg.design(name).unwrap()).to_json_string();
        assert_eq!(first, second, "{name}: report JSON differs between identical runs");
    }
}

#[test]
fn txn_runs_are_reproducible() {
    let p = TxnParams { txns: 2_000, ..TxnParams::quick(TxnSpec::read_write(64)) };
    let a = run(Design::txn_rambda_tx(p.clone()));
    let b = run(Design::txn_rambda_tx(p));
    assert!(same(&a, &b));
}

#[test]
fn traced_runs_export_byte_identical_artifacts() {
    // The flight recorder must not weaken the reproducibility guarantee:
    // with tracing enabled, two runs of the same seed render byte-identical
    // compact binaries and byte-identical Chrome JSON — the property the
    // `.trace.bin` format exists to make checkable.
    let tb = Testbed::default();

    let micro_run = || {
        let mut t = Tracer::flight_recorder();
        let r = SimBuilder::new(Design::micro_rambda(MicroParams::quick(), DataLocation::HostDram, true, 7))
            .config(&tb)
            .tracer(&mut t)
            .run();
        (r, t)
    };
    let (ra, ta) = micro_run();
    let (rb, tb_) = micro_run();
    assert_eq!(ra.to_json_string(), rb.to_json_string());
    assert_eq!(ta.export_binary(), tb_.export_binary(), "micro.rambda binary traces differ");
    assert_eq!(ta.export_chrome_json(), tb_.export_chrome_json(), "micro.rambda chrome traces differ");

    let p = KvsParams::quick();
    let kvs_run = || {
        let mut t = Tracer::flight_recorder();
        let r = SimBuilder::new(Design::kvs_rambda(p.clone(), DataLocation::HostDram))
            .config(&tb)
            .tracer(&mut t)
            .run();
        (r, t)
    };
    let (ra, ta) = kvs_run();
    let (rb, tb_) = kvs_run();
    assert_eq!(ra.to_json_string(), rb.to_json_string());
    assert_eq!(ta.export_binary(), tb_.export_binary(), "kvs.rambda binary traces differ");
    assert_eq!(ta.export_chrome_json(), tb_.export_chrome_json(), "kvs.rambda chrome traces differ");
}
