//! In-memory key-value store on Rambda (Sec. IV-A / VI-B).
//!
//! * [`store`] — the functional MICA-style store: set-associative hash
//!   buckets of one key line each, with pointer-linked overflow buckets, a
//!   slab-allocated value pool and a bucket-order bulk loader. Every
//!   operation reports the memory locations it touched, which drives the
//!   timing models (the paper's "three accesses per GET, four per PUT"
//!   emerges from the structure rather than being assumed).
//! * [`KvApu`] — the Rambda APU: pipelined hash unit + data-structure
//!   walker over the store.
//! * [`designs`] — end-to-end serving experiments for the three designs of
//!   Fig. 8–10 (CPU two-sided RDMA-RPC, Smart NIC, Rambda and its LD/LH
//!   variants), returning throughput and latency statistics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod designs;
#[cfg(test)]
mod reference;
pub mod store;

mod apu;

pub use apu::{KvApu, KvRequest, KvResponse};
pub use designs::{KvsDesigns, KvsParams, KvsWorkload};
pub use store::{KvConfig, KvStore, OpTrace};
