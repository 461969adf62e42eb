//! Chain-replication transactions: functional ACID behaviour (conflict
//! queueing, crash recovery) plus the HyperLoop-vs-Rambda latency
//! comparison on multi-operation transactions.
//!
//! Run: `cargo run --release -p rambda-examples --bin chain_txn`

use rambda::{Design, SimBuilder, Testbed};
use rambda_examples::{banner, metric};
use rambda_txn::{Chain, TxnDesigns, TxnParams, TxnWrite};
use rambda_workloads::TxnSpec;

fn main() {
    banner("functional chain: replicate, crash, recover");
    let mut chain = Chain::new(3);
    for key in 0..100u64 {
        chain.execute(&[], vec![TxnWrite { key, value: vec![key as u8; 32] }]);
    }
    // Multi-write transaction commits atomically as one log record.
    chain.execute(
        &[],
        vec![
            TxnWrite { key: 1, value: b"updated-1".to_vec() },
            TxnWrite { key: 2, value: b"updated-2".to_vec() },
        ],
    );
    metric("replicas", chain.len());
    metric("log records at head", chain.replica(0).log_len());
    chain.replica_mut(2).crash();
    metric("tail after crash holds keys", chain.replica(2).len());
    chain.replica_mut(2).recover();
    metric("tail after recovery holds keys", chain.replica(2).len());
    chain.check_consistency().expect("chain must be consistent after recovery");
    metric("key 1 on recovered tail", String::from_utf8_lossy(chain.replica(2).get(1).unwrap()).to_string());

    banner("Fig. 12 style latency comparison (2-replica emulation)");
    let testbed = Testbed::default();
    for (label, spec) in [
        ("(0,1) x 64B ", TxnSpec::single_write(64)),
        ("(4,2) x 64B ", TxnSpec::read_write(64)),
        ("(4,2) x 1KB ", TxnSpec::read_write(1024)),
    ] {
        let params = TxnParams::quick(spec);
        let hl = SimBuilder::new(Design::txn_hyperloop(params.clone())).config(&testbed).run();
        let rt = SimBuilder::new(Design::txn_rambda_tx(params)).config(&testbed).run();
        metric(
            label,
            format!(
                "HyperLoop {:>6.2} us   Rambda {:>6.2} us   saving {:>5.1}%",
                hl.mean_us(),
                rt.mean_us(),
                (1.0 - rt.mean_us() / hl.mean_us()) * 100.0
            ),
        );
    }
    println!("\nOne combined near-data transaction replaces one chain round per KV pair.");
}
