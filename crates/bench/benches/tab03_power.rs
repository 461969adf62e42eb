//! Tab. III: overall power efficiency (Kop/W) of the KVS designs at the
//! uniform-distribution GET operating point.
//!
//! Paper: CPU 130.4, Smart NIC 25.2, Rambda 188.7 Kop/W — and ~38 % lower
//! whole-server power for Rambda at comparable throughput.

use rambda::{Design, SimBuilder, Testbed};
use rambda_accel::DataLocation;
use rambda_bench::Table;
use rambda_kvs::{KvsDesigns, KvsParams};
use rambda_power::{kop_per_watt, Design as PowerDesign, PowerConfig};

fn main() {
    let tb = Testbed::default();
    let p = KvsParams { requests: 100_000, ..KvsParams::paper() };
    let power = PowerConfig::default();

    let run = |design: Design| SimBuilder::new(design).config(&tb).run().throughput_ops;
    let cpu = run(Design::kvs_cpu(p.clone()));
    let snic = run(Design::kvs_smartnic(p.clone()));
    let rambda = run(Design::kvs_rambda(p, DataLocation::HostDram));

    let mut table = Table::new(
        "Tab. III — power efficiency, uniform GET (paper: CPU 130.4 / SNIC 25.2 / Rambda 188.7 Kop/W)",
        &["design", "Mops", "W", "Kop/W"],
    );
    for (name, ops, design) in [
        ("CPU", cpu, PowerDesign::Cpu { cores: 10 }),
        ("SmartNIC", snic, PowerDesign::SmartNic),
        ("Rambda", rambda, PowerDesign::Rambda),
    ] {
        let w = power.design_watts(design);
        table.row(vec![
            name.into(),
            format!("{:.2}", ops / 1e6),
            format!("{w:.0}"),
            format!("{:.1}", kop_per_watt(ops, w)),
        ]);
    }
    table.print();

    let cpu_box = power.server_watts(PowerDesign::Cpu { cores: 10 });
    let rambda_box = power.server_watts(PowerDesign::Rambda);
    println!(
        "server box power: CPU {cpu_box:.0} W vs Rambda {rambda_box:.0} W ({:.0}% lower; paper ~38% incl. uncore/DIMM deltas)",
        (1.0 - rambda_box / cpu_box) * 100.0
    );
}
