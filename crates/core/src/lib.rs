//! # Rambda — RDMA-driven acceleration framework (HPCA'23 reproduction)
//!
//! Rambda is a network/architecture co-design for memory-intensive µs-scale
//! datacenter applications: a standard RDMA NIC delivers client requests by
//! one-sided write directly into lock-free ring buffers in server memory; a
//! *cache-coherent accelerator* discovers them through coherence traffic
//! (**cpoll**) instead of spin-polling, processes them with an
//! application-specific APU, and drives the RNIC itself to send responses —
//! the host CPU stays out of the data path. A TPH-based **adaptive DDIO**
//! mechanism steers inbound DMA into the LLC for DRAM-backed buffers and
//! around it for NVM-backed buffers.
//!
//! This crate is the framework layer of the reproduction: it composes the
//! substrate crates (`rambda-des`, `-mem`, `-coherence`, `-fabric`, `-rnic`,
//! `-accel`, `-smartnic`) into simulated machines and serving designs,
//! provides the closed-loop measurement driver, and implements the Sec. VI-A
//! microbenchmark. The three applications (`rambda-kvs`, `rambda-txn`,
//! `rambda-dlrm`) build on it.
//!
//! ## Quick start
//!
//! ```
//! use rambda::{micro, Design, SimBuilder, Testbed};
//! use rambda_accel::DataLocation;
//!
//! let testbed = Testbed::default(); // Tab. II configuration
//! // One Rambda accelerator serving the linked-list microbenchmark:
//! let design = Design::micro_rambda(micro::MicroParams::quick(), DataLocation::HostDram, true, 7);
//! let report = SimBuilder::new(design).config(&testbed).run();
//! assert!(report.throughput_mops() > 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod driver;
mod machine;

pub mod cpu;
pub mod micro;
mod report;
pub mod sim;

pub use config::{CpuConfig, Testbed};
pub use driver::DriverConfig;
pub use machine::Machine;
pub use sim::{Design, Machines, Req, SimBuilder};
