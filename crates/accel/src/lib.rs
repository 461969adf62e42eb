//! The Rambda cc-accelerator (Fig. 4).
//!
//! The accelerator consists of infrastructure shared by every application —
//! coherence controller, local cache with the pinned cpoll region,
//! round-robin scheduler, a table-based FSM supporting 256 outstanding
//! requests, and the RDMA SQ handler — plus the **APU** (application
//! processing unit), the only application-specific block. This crate models
//! the infrastructure's timing and defines the [`Apu`] trait that
//! `rambda-kvs`, `rambda-txn`, and `rambda-dlrm` implement. The scheduler
//! and FSM are charged as a fixed per-request dispatch overhead
//! ([`AccelConfig::dispatch_overhead`]); address translation is not charged.
//!
//! Timing honesty: every memory request issued by the APU passes through the
//! coherence controller's serial issue throttle and the cc-interconnect (for
//! host-resident data) or the local memory controller (Rambda-LD/LH). This
//! reproduces both the prototype's documented soft-logic bottleneck and the
//! envisioned local-memory variants.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod apu;
mod engine;

pub use apu::{Apu, ApuCtx};
pub use engine::{AccelConfig, AccelEngine, AccelStats, DataLocation};
