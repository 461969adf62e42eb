//! Fig. 9: KVS latency (avg and p99) on the 100 % GET workload, batch 32.
//!
//! Expectations: the Smart NIC's average collapses under uniform keys;
//! Rambda's average is slightly above CPU's (UPI on the data path) but its
//! p99 is ~30 % *below* CPU's (no OS scheduling noise); LD/LH remove the
//! UPI data-path penalty (tail latency inapplicable for them, as in the
//! paper — their latency is emulated from averages).

use rambda::{Design, SimBuilder, Testbed};
use rambda_accel::DataLocation;
use rambda_bench::{us, Table};
use rambda_kvs::{KvsDesigns, KvsParams};

fn main() {
    let tb = Testbed::default();
    let run = |design: Design| SimBuilder::new(design).config(&tb).run();
    let mut base = KvsParams { requests: 100_000, ..KvsParams::paper() };
    base.window = 2; // light load: measure service latency, not saturation

    let mut table =
        Table::new("Fig. 9 — KVS latency, 100% GET, batch 32 (us)", &["design", "dist", "avg", "p99"]);
    for (dist_name, zipf) in [("uniform", None), ("zipf0.9", Some(0.9))] {
        let mut p = base.clone();
        p.zipf = zipf;
        let cpu = run(Design::kvs_cpu(p.clone()));
        let snic = run(Design::kvs_smartnic(p.clone()));
        let rambda = run(Design::kvs_rambda(p.clone(), DataLocation::HostDram));
        let ld = run(Design::kvs_rambda(p.clone(), DataLocation::LocalDdr));
        let lh = run(Design::kvs_rambda(p, DataLocation::LocalHbm));
        for (name, report, tail_ok) in [
            ("CPU", &cpu, true),
            ("SmartNIC", &snic, true),
            ("Rambda", &rambda, true),
            ("Rambda-LD", &ld, false),
            ("Rambda-LH", &lh, false),
        ] {
            table.row(vec![
                name.into(),
                dist_name.into(),
                us(report.mean_us()),
                if tail_ok { us(report.p99_us()) } else { "n/a".into() },
            ]);
        }
    }
    table.print();
    println!("shape check: Rambda p99 < CPU p99 (paper: -30.1%); Rambda p99 << SmartNIC p99 (paper: -52%).");
}
