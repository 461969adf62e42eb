//! Deterministic discrete-event simulation core for the Rambda reproduction.
//!
//! This crate provides the timing substrate every hardware model in the
//! workspace is built on:
//!
//! * [`SimTime`] / [`Span`] — picosecond-resolution instants and durations.
//! * [`Server`] — a `k`-way FIFO resource with busy-until semantics
//!   (CPU cores, APU slots, ARM cores, NVM DIMM write buffers, ...).
//! * [`Link`] — a serializing bandwidth + propagation-latency resource
//!   (Ethernet ports, PCIe links, the cc-interconnect, DRAM channels, ...).
//! * [`Throttle`] — a fixed per-operation issue-rate limiter (e.g. the
//!   soft-logic coherence controller that can only issue one memory request
//!   every few cycles).
//! * [`Histogram`] — log-binned latency histogram producing mean/p50/p99.
//! * [`EventQueue`] — a time-ordered queue used by closed-loop drivers.
//! * [`SampleClock`] — a deterministic periodic grid for time-series
//!   sampling (the flight recorder's counter samplers tick on it).
//! * [`SimRng`] — a seeded RNG so every experiment is reproducible.
//! * [`DetHashMap`] — a hash map whose iteration is always key-sorted
//!   (rule R1's escape hatch for O(1)-lookup hot paths).
//!
//! Queueing delay — and therefore tail latency — *emerges* from contention on
//! `Server`/`Link` resources rather than being assumed.
//!
//! # Example
//!
//! ```
//! use rambda_des::{Link, Server, SimTime, Span};
//!
//! // A 25 Gb/s network port and a single-core server.
//! let mut port = Link::new(25.0e9 / 8.0, Span::from_ns(850));
//! let mut core = Server::new(1);
//!
//! let t0 = SimTime::ZERO;
//! let arrival = port.transfer(t0, 64).arrive;
//! let done = core.acquire(arrival, Span::from_ns(500)) + Span::from_ns(500);
//! assert!(done > arrival);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod detmap;
mod hist;
mod queue;
mod resource;
mod rng;
mod sampler;
mod time;

pub use detmap::DetHashMap;
pub use hist::Histogram;
pub use queue::{EventCoreStats, EventKind, EventQueue, KindStats};
pub use resource::{Link, Server, Throttle, Transfer};
pub use rng::SimRng;
pub use sampler::SampleClock;
pub use time::{SimTime, Span};
