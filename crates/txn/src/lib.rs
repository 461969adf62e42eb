//! Distributed transactions with NVM-based chain replication
//! (Sec. IV-B / VI-C).
//!
//! * [`store`] — a log-structured persistent key-value store (the RocksDB
//!   stand-in): a volatile memtable over a durable write-ahead redo log in
//!   (simulated) NVM, with crash recovery by log replay.
//! * [`chain`] — the chain-replication protocol with Rambda-Tx's
//!   concurrency-control unit: per-key FIFO queueing so any single pair has
//!   at most one outstanding transaction, multi-tuple redo-log entries
//!   (`count || (data, len, offset)*`), head→tail propagation and
//!   back-propagated ACKs.
//! * [`designs`] — the Fig. 11 two-replica emulation and the Fig. 12
//!   latency comparison between HyperLoop (one group-RDMA round per KV
//!   pair, sequential) and Rambda-Tx (one combined request processed
//!   near-data by the accelerator at each replica).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chain;
pub mod designs;
#[cfg(test)]
mod reference;
pub mod store;

pub use chain::{Chain, ConcurrencyControl, TxnOutcome, TxnWrite};
pub use designs::{TxnDesigns, TxnParams};
pub use store::{PersistentStore, WalRecord};
