//! KVS serving comparison: one client machine with ten client instances
//! drives a server running each of the paper's designs — CPU (two-sided
//! RDMA RPC), Smart NIC, and Rambda — on a Zipf-skewed GET/PUT mix.
//!
//! Run: `cargo run --release -p rambda-examples --bin kvs_cluster`

use rambda::{Design, SimBuilder, Testbed};
use rambda_accel::DataLocation;
use rambda_examples::{banner, metric};
use rambda_kvs::store::{KvConfig, KvStore};
use rambda_kvs::{KvsDesigns, KvsParams, KvsWorkload};

fn main() {
    banner("functional store sanity");
    let mut store = KvStore::new(KvConfig::for_pairs(10_000, 64));
    store.put(7, b"hello rambda".to_vec());
    let (value, trace) = store.get(7);
    metric("GET 7", String::from_utf8_lossy(value.unwrap()).to_string());
    metric("memory accesses for that GET", trace.accesses());

    let testbed = Testbed::default();
    let run = |design: Design| SimBuilder::new(design).config(&testbed).run();
    let params = KvsParams::quick().with_zipf(0.9).with_workload(KvsWorkload::WriteIntensive);

    banner("50/50 GET/PUT, zipf 0.9, batch 32");
    let cpu = run(Design::kvs_cpu(params.clone()));
    let snic = run(Design::kvs_smartnic(params.clone()));
    let rambda = run(Design::kvs_rambda(params, DataLocation::HostDram));
    for (name, report) in [("CPU x10 cores", &cpu), ("Smart NIC", &snic), ("Rambda", &rambda)] {
        metric(
            name,
            format!(
                "{:>6.2} Mops   avg {:>6.2} us   p99 {:>6.2} us",
                report.throughput_mops(),
                report.mean_us(),
                report.p99_us()
            ),
        );
    }

    banner("key-distribution sensitivity (100% GET)");
    let uniform = KvsParams::quick();
    let zipf = KvsParams::quick().with_zipf(0.9);
    let snic_u = run(Design::kvs_smartnic(uniform.clone())).throughput_mops();
    let snic_z = run(Design::kvs_smartnic(zipf.clone())).throughput_mops();
    let rambda_u = run(Design::kvs_rambda(uniform, DataLocation::HostDram)).throughput_mops();
    let rambda_z = run(Design::kvs_rambda(zipf, DataLocation::HostDram)).throughput_mops();
    metric("Smart NIC uniform / zipf", format!("{snic_u:.2} / {snic_z:.2} Mops"));
    metric("Rambda    uniform / zipf", format!("{rambda_u:.2} / {rambda_z:.2} Mops"));
    println!("\nThe Smart NIC collapses when the working set misses its on-board cache;");
    println!("Rambda reads host memory coherently and does not care about skew.");
}
