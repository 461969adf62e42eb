//! Quickstart: the smallest end-to-end Rambda tour. Serves the linked-list
//! microbenchmark on the simulated testbed and compares a CPU core with the
//! Rambda accelerator (Sec. VI-A).
//!
//! Run: `cargo run --release -p rambda-examples --bin quickstart`

use rambda::micro::MicroParams;
use rambda::{Design, SimBuilder, Testbed};
use rambda_accel::DataLocation;
use rambda_examples::{banner, metric};

fn main() {
    banner("microbenchmark on the simulated testbed");
    let testbed = Testbed::default();
    let params = MicroParams::quick();
    let cpu = SimBuilder::new(Design::micro_cpu(params, 1, 16)).config(&testbed).run();
    let rambda = SimBuilder::new(Design::micro_rambda(params, DataLocation::HostDram, true, 42))
        .config(&testbed)
        .run();
    metric("one CPU core (Mops)", format!("{:.2}", cpu.throughput_mops()));
    metric("Rambda accelerator (Mops)", format!("{:.2}", rambda.throughput_mops()));
    metric("speedup", format!("{:.1}x", rambda.throughput_mops() / cpu.throughput_mops()));
    metric("Rambda mean latency (us)", format!("{:.2}", rambda.mean_us()));
    println!("\nNext: kvs_cluster, chain_txn, dlrm_inference.");
}
