//! Fig. 13: MERCI-based DLRM inference throughput on the six Amazon-Review
//! dataset stand-ins: CPU 1/2/4/8/16 cores vs Rambda / Rambda-LD / Rambda-LH.
//!
//! Expectations: CPU scales ~linearly to 8 cores then saturates; the
//! prototype Rambda reaches only ~20–50 % of *one* core (serial gather
//! issue across the interconnect); Rambda-LD recovers to roughly the 8-core
//! level; Rambda-LH exceeds the CPU until the RDMA network becomes the
//! limit.

use rambda::{Design, SimBuilder, Testbed};
use rambda_accel::DataLocation;
use rambda_bench::{mops, Table};
use rambda_dlrm::{DlrmDesigns, DlrmParams};
use rambda_workloads::DlrmProfile;

fn main() {
    let tb = Testbed::default();
    let mops_of = |design: Design| mops(SimBuilder::new(design).config(&tb).run().throughput_mops());
    let mut table = Table::new(
        "Fig. 13 — DLRM (MERCI) inference throughput (Mq/s)",
        &["dataset", "CPUx1", "CPUx2", "CPUx4", "CPUx8", "CPUx16", "Rambda", "LD", "LH"],
    );
    for profile in DlrmProfile::all() {
        let p = DlrmParams { queries: 30_000, ..DlrmParams::quick(profile) };
        let name = p.profile.name;
        let mut cells = vec![name.to_string()];
        for cores in [1usize, 2, 4, 8, 16] {
            cells.push(mops_of(Design::dlrm_cpu(p.clone(), cores)));
        }
        for loc in [DataLocation::HostDram, DataLocation::LocalDdr, DataLocation::LocalHbm] {
            cells.push(mops_of(Design::dlrm_rambda(p.clone(), loc)));
        }
        table.row(cells);
    }
    table.print();
    println!(
        "shape check: CPU ~linear to 8 cores; Rambda << 1 core; LD ~8-core level; LH > CPU (network-capped)."
    );
}
