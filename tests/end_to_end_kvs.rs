//! End-to-end KVS integration: the three serving designs run the same
//! workload over the same functional store and must agree functionally
//! while exhibiting the paper's performance ordering.

use rambda::{Design, SimBuilder, Testbed};
use rambda_accel::DataLocation;
use rambda_des::SimRng;
use rambda_kvs::store::{KvConfig, KvStore};
use rambda_kvs::{KvsDesigns, KvsParams};
use rambda_metrics::RunReport;
use rambda_workloads::{KeyDist, KvMix};

fn cpu_report(tb: &Testbed, p: &KvsParams) -> RunReport {
    SimBuilder::new(Design::kvs_cpu(p.clone())).config(tb).run()
}

fn rambda_report(tb: &Testbed, p: &KvsParams, location: DataLocation) -> RunReport {
    SimBuilder::new(Design::kvs_rambda(p.clone(), location)).config(tb).run()
}

fn smartnic_report(tb: &Testbed, p: &KvsParams) -> RunReport {
    SimBuilder::new(Design::kvs_smartnic(p.clone())).config(tb).run()
}

#[test]
fn all_designs_complete_the_full_workload() {
    let tb = Testbed::default();
    let p = KvsParams { requests: 20_000, ..KvsParams::quick() };
    let expected = p.requests - (p.requests as f64 * 0.1) as u64; // post-warm-up
    for report in [
        cpu_report(&tb, &p),
        smartnic_report(&tb, &p),
        rambda_report(&tb, &p, DataLocation::HostDram),
        rambda_report(&tb, &p, DataLocation::LocalDdr),
        rambda_report(&tb, &p, DataLocation::LocalHbm),
    ] {
        assert_eq!(report.completed, expected, "lost or duplicated requests");
        assert!(report.throughput_ops > 0.0);
        assert!(report.latency.count == report.completed);
    }
}

#[test]
fn designs_see_identical_operation_streams() {
    // The workload generator is seeded: every design must process the exact
    // same sequence of operations, leaving identical stores.
    let p = KvsParams { requests: 5_000, ..KvsParams::quick() };
    let apply = |seed: u64| {
        let mut store = KvStore::new(KvConfig::for_pairs(p.pairs as usize, 64));
        let mix = KvMix::new(KeyDist::uniform(p.pairs), 0.5, 64);
        let mut rng = SimRng::seed(seed);
        for _ in 0..p.requests {
            match mix.next_op(&mut rng) {
                rambda_workloads::KvOp::Get { key } => {
                    store.get(key);
                }
                rambda_workloads::KvOp::Put { key, .. } => {
                    store.put(key, vec![1; 64]);
                }
            }
        }
        store.len()
    };
    assert_eq!(apply(p.seed), apply(p.seed));
}

#[test]
fn performance_ordering_matches_fig8() {
    let tb = Testbed::default();
    let p = KvsParams { requests: 20_000, ..KvsParams::quick() };
    let cpu = cpu_report(&tb, &p).throughput_mops();
    let snic = smartnic_report(&tb, &p).throughput_mops();
    let rambda = rambda_report(&tb, &p, DataLocation::HostDram).throughput_mops();
    assert!(rambda > cpu, "one-sided Rambda should edge out two-sided CPU");
    assert!(cpu > 2.0 * snic, "uniform keys should crush the Smart NIC");
}

#[test]
fn network_saturation_is_the_shared_ceiling() {
    // CPU and Rambda both saturate the same 25 GbE port: their peak
    // throughputs must be within ~15% of the analytic message rate.
    let tb = Testbed::default();
    let p = KvsParams { requests: 30_000, ..KvsParams::quick() };
    let cap = tb.net_msg_rate(72) / 1e6; // GET response: 8 + 64 B payload
    let rambda = rambda_report(&tb, &p, DataLocation::HostDram).throughput_mops();
    let cpu = cpu_report(&tb, &p).throughput_mops();
    assert!(rambda <= cap * 1.02, "rambda {rambda} above wire cap {cap}");
    assert!(rambda >= cap * 0.85, "rambda {rambda} far below wire cap {cap}");
    assert!(cpu >= cap * 0.80, "cpu {cpu} far below wire cap {cap}");
}

#[test]
fn window_scales_latency_not_peak_throughput() {
    // Closed-loop sanity: doubling the outstanding window at saturation
    // raises latency, not throughput.
    let tb = Testbed::default();
    let mut small = KvsParams { requests: 20_000, ..KvsParams::quick() };
    small.window = 8;
    let mut big = small.clone();
    big.window = 32;
    let s = rambda_report(&tb, &small, DataLocation::HostDram);
    let b = rambda_report(&tb, &big, DataLocation::HostDram);
    assert!((b.throughput_mops() / s.throughput_mops() - 1.0).abs() < 0.1);
    assert!(b.mean_us() > 2.0 * s.mean_us());
}
