//! Design-choice ablations beyond the paper's figures:
//!
//! 1. cpoll region scaling: pinned request rings vs the pointer buffer
//!    (Fig. 3(b)/(c)) against the 64 KB local cache.
//! 2. A hardened (2 GHz-class) coherence controller, the Sec. V
//!    "future FPGAs" fix, on the microbenchmark and the DLRM gather.
//! 3. Unsignaled WQEs: CQE traffic with and without selective signaling.
//! 4. Doorbell batching alone (Rambda KVS batch 1 vs 32 — also in Fig. 10).

use rambda::micro::MicroParams;
use rambda::{Design, SimBuilder, Testbed};
use rambda_accel::{AccelConfig, AccelEngine, DataLocation};
use rambda_bench::{mops, ratio, Table};
use rambda_coherence::{CcConfig, CpollChecker};
use rambda_des::SimTime;
use rambda_mem::{MemConfig, MemorySystem};

fn cpoll_scaling() {
    let mut table = Table::new(
        "Ablation 1 — cpoll region vs 64 KB pinned cache",
        &["connections", "ring bytes", "pinned rings", "pointer buffer"],
    );
    for (conns, ring_bytes) in [(16u64, 1u64 << 10), (64, 1 << 10), (16, 1 << 20), (1024, 1 << 20)] {
        let mut pinned = CpollChecker::new(64 * 1024);
        let pinned_ok = pinned.register(0, conns * ring_bytes, ring_bytes).is_ok();
        let mut ptr = CpollChecker::new(64 * 1024);
        // 4 B per ring, padded to one 64 B line per entry group.
        let ptr_bytes = (conns * 4).div_ceil(64) * 64;
        let ptr_ok = ptr.register(0, ptr_bytes.max(64), 64).is_ok();
        table.row(vec![
            conns.to_string(),
            ring_bytes.to_string(),
            if pinned_ok { "fits" } else { "OVERFLOW" }.into(),
            if ptr_ok { format!("fits ({ptr_bytes} B)") } else { "OVERFLOW".into() },
        ]);
    }
    table.print();
}

fn hardened_controller() {
    let tb = Testbed::default();
    let p = MicroParams { requests: 60_000, ..MicroParams::paper() };
    let micro_mops = |tb: &Testbed| {
        SimBuilder::new(Design::micro_rambda(p, DataLocation::HostDram, true, 1))
            .config(tb)
            .run()
            .throughput_mops()
    };
    let soft = micro_mops(&tb);
    let tb_hard = Testbed { cc: CcConfig::hardened(), ..Testbed::default() };
    let hard = micro_mops(&tb_hard);

    // DLRM-style gather rate, soft vs hardened.
    let gather_rate = |cc: CcConfig| {
        let mut engine =
            AccelEngine::new(AccelConfig { cc, ..AccelConfig::prototype(DataLocation::HostDram) });
        let mut mem = MemorySystem::new(MemConfig::default(), true);
        let rows = 4_000usize;
        let done = engine.gather(SimTime::ZERO, rows, 256, &mut mem);
        rows as f64 * 256.0 / done.as_secs_f64() / 1e9
    };
    let soft_gather = gather_rate(CcConfig::default());
    let hard_gather = gather_rate(CcConfig::hardened());

    let mut table = Table::new(
        "Ablation 2 — hardened coherence controller (Sec. V outlook)",
        &["metric", "soft 400MHz", "hardened", "gain"],
    );
    table.row(vec!["microbench Mops".into(), mops(soft), mops(hard), ratio(hard / soft)]);
    table.row(vec![
        "DLRM gather GB/s".into(),
        format!("{soft_gather:.2}"),
        format!("{hard_gather:.2}"),
        ratio(hard_gather / soft_gather),
    ]);
    table.print();
}

fn unsignaled_wqes() {
    use rambda_fabric::{NodeId, PcieConfig};
    use rambda_rnic::{MrInfo, RnicConfig, RnicEndpoint};

    let mut table = Table::new(
        "Ablation 3 — selective signaling (CQE DMA traffic per 1000 responses)",
        &["policy", "CQEs", "CQE bytes DMA-ed"],
    );
    for (name, every) in [("all signaled", 1usize), ("1-in-32 signaled", 32)] {
        let mut nic = RnicEndpoint::new(NodeId(0), RnicConfig::default(), PcieConfig::default());
        let mut mem = MemorySystem::new(MemConfig::default(), true);
        let _ = nic.register_region(MrInfo::adaptive(rambda_mem::MemKind::Dram));
        for i in 0..1000usize {
            if i % every == 0 {
                nic.complete(SimTime::from_us(i as u64), &mut mem);
            }
        }
        table.row(vec![name.into(), nic.stats().cqes.to_string(), (nic.stats().cqes * 64).to_string()]);
    }
    table.print();
}

fn network_scaling() {
    use rambda_kvs::{KvsDesigns, KvsParams};

    let p = KvsParams { requests: 40_000, ..KvsParams::quick() };
    let mut table = Table::new(
        "Ablation 4 — Sec. III-F network scalability (KVS, 100% GET)",
        &["network", "CPU x10 Mops", "Rambda Mops", "Rambda/CPU"],
    );
    for gbps in [25.0, 50.0, 100.0, 400.0] {
        let tb = Testbed::default().with_network_gbps(gbps);
        let mops_of = |design: Design| SimBuilder::new(design).config(&tb).run().throughput_mops();
        let cpu = mops_of(Design::kvs_cpu(p.clone()));
        let rambda = mops_of(Design::kvs_rambda(p.clone(), DataLocation::HostDram));
        table.row(vec![format!("{gbps:.0} GbE"), mops(cpu), mops(rambda), ratio(rambda / cpu)]);
    }
    table.print();
}

fn main() {
    cpoll_scaling();
    hardened_controller();
    unsignaled_wqes();
    network_scaling();
    println!("\n(doorbell-batching ablation: see fig10_kvs_batching, Rambda column)");
}
