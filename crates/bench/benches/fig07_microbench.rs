//! Fig. 7: single-machine microbenchmark — normalized throughput of CPU
//! cores vs Rambda variants on the linked-list traversal, for DRAM and NVM.
//!
//! Expectations: CPU scales ~linearly with cores; Rambda-polling lands near
//! 8 cores; cpoll adds ~20 %; Rambda-LD/LH add a further ~2.1×/~2.7×; on
//! NVM, adaptive DDIO beats always-on DDIO by ~20 %.

use rambda::micro::MicroParams;
use rambda::{Design, SimBuilder, Testbed};
use rambda_accel::DataLocation;
use rambda_bench::{mops, ratio, Table};

fn main() {
    let tb = Testbed::default();
    let p = MicroParams { requests: 120_000, ..MicroParams::paper() };
    let mops_of = |design: Design| SimBuilder::new(design).config(&tb).run().throughput_mops();
    let cpu = |p: MicroParams, cores: usize| mops_of(Design::micro_cpu(p, cores, 16));
    let rambda = |p: MicroParams, location: DataLocation, cpoll: bool| {
        mops_of(Design::micro_rambda(p, location, cpoll, 1))
    };

    // DRAM panel (normalized to one core, as in the paper).
    let c1 = cpu(p, 1);
    let c8 = cpu(p, 8);
    let c16 = cpu(p, 16);
    let polling = rambda(p, DataLocation::HostDram, false);
    let cpoll = rambda(p, DataLocation::HostDram, true);
    let ld = rambda(p, DataLocation::LocalDdr, true);
    let lh = rambda(p, DataLocation::LocalHbm, true);

    let mut dram = Table::new(
        "Fig. 7 (DRAM) — microbenchmark throughput (normalized to 1 core)",
        &["design", "Mops", "vs 1 core"],
    );
    for (name, v) in [
        ("CPU x1", c1),
        ("CPU x8", c8),
        ("CPU x16", c16),
        ("Rambda-polling", polling),
        ("Rambda (cpoll)", cpoll),
        ("Rambda-LD", ld),
        ("Rambda-LH", lh),
    ] {
        dram.row(vec![name.into(), mops(v), ratio(v / c1)]);
    }
    dram.print();
    println!(
        "cpoll gain over polling: {} (paper ~21.6%); LD/LH over Rambda: {} / {} (paper ~2.14x / ~2.66x)",
        ratio(cpoll / polling),
        ratio(ld / cpoll),
        ratio(lh / cpoll),
    );

    // NVM panel (normalized to Rambda-DDIO, as in the paper).
    let pn = p.with_nvm();
    let n_c8 = cpu(pn, 8);
    let n_c16 = cpu(pn, 16);
    let n_polling = rambda(pn, DataLocation::HostDram, false);
    let n_ddio = mops_of(Design::micro_rambda_always_ddio(pn, true, 1));
    let n_adaptive = rambda(pn, DataLocation::HostDram, true);

    let mut nvm = Table::new(
        "Fig. 7 (NVM) — microbenchmark throughput (normalized to Rambda-DDIO)",
        &["design", "Mops", "vs Rambda-DDIO"],
    );
    for (name, v) in [
        ("CPU x8", n_c8),
        ("CPU x16", n_c16),
        ("Rambda-polling", n_polling),
        ("Rambda-DDIO", n_ddio),
        ("Rambda (adaptive)", n_adaptive),
    ] {
        nvm.row(vec![name.into(), mops(v), ratio(v / n_ddio)]);
    }
    nvm.print();
    println!("adaptive-DDIO gain: {} (paper ~20%)", ratio(n_adaptive / n_ddio));
}
