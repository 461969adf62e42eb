//! RDMA NIC model.
//!
//! Implements the verbs-level machinery the paper relies on (Sec. II-A,
//! Sec. III):
//!
//! * the send-queue processing pipeline,
//! * WQE posting with MMIO doorbells and **doorbell batching** (one MMIO for
//!   a chain of WQEs, only the last signaled — the optimization Rambda's SQ
//!   handler and the HERD-style baselines both use),
//! * **unsignaled WQEs** (CQEs generated only for selected operations),
//! * memory-region registration carrying the **TPH knob** of Sec. III-D, so
//!   an RDMA write to a DRAM region steers into the LLC while a write to an
//!   NVM region bypasses it,
//! * end-to-end one-sided write / read paths composing the PCIe, network,
//!   and memory models.
//!
//! The model charges time and routes bytes; it carries no message contents.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod endpoint;
mod ops;

pub use endpoint::{MrInfo, MrKey, PostPath, RetryPolicy, RnicConfig, RnicEndpoint, RnicStats};
pub use ops::{
    rdma_read, rdma_write, two_sided_send, PostFlags, RdmaError, ReadOutcome, WriteOpts, WriteOutcome,
};
