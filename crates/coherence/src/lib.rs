//! Cache-coherence domain model for the Rambda reproduction.
//!
//! Rambda's key architectural bet (Sec. III) is that a *cache-coherent*
//! accelerator can observe request arrival through ordinary coherence
//! traffic instead of spin-polling, and can exchange fine-grained data with
//! the CPU over the coherent interconnect instead of PCIe. This crate
//! provides:
//!
//! * [`CcInterconnect`] — the UPI/CXL link model (Tab. II: 20.8 GB/s, one
//!   hop to the CPU);
//! * [`Notifier`] — cpoll vs spin-polling notification cost model used by
//!   the Fig. 7 ablation;
//! * [`CpollChecker`] — the cpoll region's registration rule in the
//!   accelerator coherence controller (Fig. 3): pinned-cache-region
//!   capacity, overlap and ring geometry.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cpoll;
mod interconnect;
mod notify;

pub use cpoll::{CpollChecker, CpollError};
pub use interconnect::{CcConfig, CcInterconnect};
pub use notify::{Notifier, NotifyCost};
