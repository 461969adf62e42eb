//! Fig. 10: impact of the batch size on throughput and latency (100 % GET,
//! Zipf 0.9).
//!
//! Expectations: CPU (per-core) and Smart NIC gain substantially from
//! batching; Rambda gains ~2× from doorbell batching alone; Rambda's
//! latency grows *sub-linearly* with batch (it never waits to fill a
//! batch), unlike the baselines.

use rambda::{Design, SimBuilder, Testbed};
use rambda_accel::DataLocation;
use rambda_bench::{mops, us, Table};
use rambda_kvs::{KvsDesigns, KvsParams};

fn main() {
    let tb = Testbed::default();
    let run = |design: Design| SimBuilder::new(design).config(&tb).run();
    let mut table = Table::new(
        "Fig. 10 — batch-size sweep, 100% GET, zipf 0.9",
        &["batch", "CPU Mops", "CPU us", "CPU(2c) Mops", "SNIC Mops", "SNIC us", "Rambda Mops", "Rambda us"],
    );
    for batch in [1usize, 2, 4, 8, 16, 32] {
        let p = KvsParams { requests: 60_000, ..KvsParams::quick() }.with_zipf(0.9).with_batch(batch);
        let mut p2 = p.clone();
        p2.cores = 2; // per-core batching effect (10 cores stay network-bound)
        let cpu = run(Design::kvs_cpu(p.clone()));
        let cpu2 = run(Design::kvs_cpu(p2));
        let snic = run(Design::kvs_smartnic(p.clone()));
        let rambda = run(Design::kvs_rambda(p, DataLocation::HostDram));
        table.row(vec![
            batch.to_string(),
            mops(cpu.throughput_mops()),
            us(cpu.mean_us()),
            mops(cpu2.throughput_mops()),
            mops(snic.throughput_mops()),
            us(snic.mean_us()),
            mops(rambda.throughput_mops()),
            us(rambda.mean_us()),
        ]);
    }
    table.print();
    println!(
        "shape check: baselines gain strongly with batch; Rambda ~2x; Rambda latency grows sub-linearly."
    );
}
