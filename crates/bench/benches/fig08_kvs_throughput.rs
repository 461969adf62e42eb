//! Fig. 8: KVS peak throughput per design × key distribution × workload
//! (batch 32).
//!
//! Expectations: CPU and Rambda are network-bound and distribution-
//! insensitive, Rambda a few percent ahead; the Smart NIC collapses under
//! the uniform distribution; LD/LH match Rambda (the network is the limit);
//! the 50/50 PUT workload changes little (MICA-style partitioning).

use rambda::{Design, SimBuilder, Testbed};
use rambda_accel::DataLocation;
use rambda_bench::{mops, Table};
use rambda_kvs::{KvsDesigns, KvsParams, KvsWorkload};

fn main() {
    let tb = Testbed::default();
    let mops_of = |design: Design| SimBuilder::new(design).config(&tb).run().throughput_mops();
    let base = KvsParams { requests: 100_000, ..KvsParams::paper() };

    let mut table = Table::new(
        "Fig. 8 — KVS peak throughput (Mops), batch 32",
        &["workload", "dist", "CPU", "SmartNIC", "Rambda", "Rambda-LD", "Rambda-LH"],
    );
    for workload in [KvsWorkload::ReadIntensive, KvsWorkload::WriteIntensive] {
        for (dist_name, zipf) in [("uniform", None), ("zipf0.9", Some(0.9))] {
            let mut p = base.clone().with_workload(workload);
            p.zipf = zipf;
            let cpu = mops_of(Design::kvs_cpu(p.clone()));
            let snic = mops_of(Design::kvs_smartnic(p.clone()));
            let rambda = mops_of(Design::kvs_rambda(p.clone(), DataLocation::HostDram));
            let ld = mops_of(Design::kvs_rambda(p.clone(), DataLocation::LocalDdr));
            let lh = mops_of(Design::kvs_rambda(p, DataLocation::LocalHbm));
            let wl = match workload {
                KvsWorkload::ReadIntensive => "100% GET",
                KvsWorkload::WriteIntensive => "50/50",
            };
            table.row(vec![
                wl.into(),
                dist_name.into(),
                mops(cpu),
                mops(snic),
                mops(rambda),
                mops(ld),
                mops(lh),
            ]);
        }
    }
    table.print();
    println!(
        "shape check: Rambda ~2-8% over CPU; SmartNIC uniform << zipf; LD/LH == Rambda (network-bound)."
    );
}
