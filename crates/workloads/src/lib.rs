//! Workload generators for the Rambda evaluation.
//!
//! * [`Zipf`] — rejection-inversion Zipfian sampler (the evaluation's
//!   "Zipfian 0.9" skew) plus analytic cache-hit-rate helpers used to model
//!   the Smart NIC's on-board cache.
//! * [`KeyDist`] / [`KvMix`] — the KVS workloads of Sec. VI-B (uniform vs
//!   Zipf 0.9; 100 % GET vs 50/50 GET/PUT over 100 M 64 B pairs).
//! * [`TxnSpec`] — the chain-replication transaction shapes of Sec. VI-C
//!   ((0,1) and (4,2) read/write counts at 64 B / 1024 B values).
//! * [`DlrmProfile`] — the six Amazon-Review dataset stand-ins of Sec. VI-D
//!   with per-profile pooling factors, popularity skews and the feature
//!   co-occurrence that MERCI's memoization exploits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dlrm;
mod kv;
mod zipf;

pub use dlrm::{DlrmProfile, DlrmQuery};
pub use kv::{KeyDist, KvMix, KvOp, TxnSpec};
pub use zipf::Zipf;
