//! Fig. 12: chain-replication transaction latency, HyperLoop vs Rambda-Tx,
//! for value sizes {64 B, 1024 B} and transaction shapes {(0,1), (4,2)}.
//!
//! Expectations: (0,1) is a wash (Rambda a few percent slower); (4,2) gives
//! Rambda a 63–67 % average-latency reduction (64.5–69.1 % at p99), because
//! HyperLoop issues one chain round per KV pair while Rambda issues one
//! combined near-data transaction.

use rambda::{Design, SimBuilder, Testbed};
use rambda_bench::{ratio, us, Table};
use rambda_txn::{TxnDesigns, TxnParams};
use rambda_workloads::TxnSpec;

fn main() {
    let tb = Testbed::default();
    let run = |design: Design| SimBuilder::new(design).config(&tb).run();
    let mut table = Table::new(
        "Fig. 12 — transaction latency (us), 2-replica chain",
        &["txn (r,w)", "value", "HL avg", "HL p99", "Rambda avg", "Rambda p99", "avg saving"],
    );
    for value in [64u32, 1024] {
        for spec in [TxnSpec::single_write(value), TxnSpec::read_write(value)] {
            let p = TxnParams { txns: 20_000, ..TxnParams::paper(spec) };
            let hl = run(Design::txn_hyperloop(p.clone()));
            let rt = run(Design::txn_rambda_tx(p));
            table.row(vec![
                format!("({},{})", spec.reads, spec.writes),
                format!("{value}B"),
                us(hl.mean_us()),
                us(hl.p99_us()),
                us(rt.mean_us()),
                us(rt.p99_us()),
                format!("{:.1}%", (1.0 - rt.mean_us() / hl.mean_us()) * 100.0),
            ]);
        }
    }
    table.print();
    println!("shape check: (0,1) ~wash; (4,2) saving ~63-67% avg (paper), p99 saving similar.");
    let _ = ratio(1.0);
}
