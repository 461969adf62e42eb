//! Quickstart: the smallest end-to-end Rambda tour.
//!
//! 1. Pass messages through the lock-free ring-buffer abstraction with
//!    credit flow control (the unified communication layer, Sec. III-A).
//! 2. Watch cpoll turn a coherence invalidation into a notification
//!    (Sec. III-B).
//! 3. Serve the linked-list microbenchmark on the simulated testbed and
//!    compare a CPU core with the Rambda accelerator (Sec. VI-A).
//!
//! Run: `cargo run --release -p rambda-examples --bin quickstart`

use rambda::micro::MicroParams;
use rambda::{Design, SimBuilder, Testbed};
use rambda_accel::DataLocation;
use rambda_coherence::{AgentId, CpollChecker, Directory, LineAddr};
use rambda_examples::{banner, metric};
use rambda_ring::BufferPair;

fn main() {
    banner("1. ring buffers with credit flow control");
    let (mut client, mut server) = BufferPair::with_capacity::<u64, u64>(8);
    while client.can_issue() {
        client.issue(client.issued()).unwrap();
    }
    metric("requests issued before credits ran out", client.in_flight());
    let mut served = 0;
    while let Some(req) = server.next_request() {
        server.respond(req * 2).unwrap();
        served += 1;
    }
    let mut last = 0;
    while let Some(resp) = client.poll() {
        last = resp;
    }
    metric("requests served", served);
    metric("last response (request * 2)", last);
    metric("credits restored", client.can_issue());

    banner("2. cpoll: coherence-assisted notification");
    let mut dir = Directory::new();
    let mut checker = CpollChecker::new(64 * 1024);
    checker.register(0x1000, 16 * 1024, 1024).unwrap(); // 16 rings
    let slot = LineAddr::containing(0x1000 + 5 * 1024); // ring 5, entry 0
    dir.write(AgentId::ACCEL, slot); // accelerator pins/owns the line
    let events = dir.write(AgentId::IO, slot); // RNIC delivers a request
    let note = events.iter().find_map(|e| checker.observe(e)).unwrap();
    metric("coherence events from the DMA write", events.len());
    metric("cpoll dispatched to ring", note.ring);

    banner("3. microbenchmark on the simulated testbed");
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
