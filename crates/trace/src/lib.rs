//! Deterministic per-request flight recorder for the Rambda simulators.
//!
//! The RunReport layer (`rambda-metrics`) answers *aggregate* questions —
//! stage sums, whole-run percentiles. This crate answers the per-request
//! ones the paper's Figs. 1/9/11 reasoning needs: where did the *slowest*
//! requests spend their microseconds, and on which resource? A [`Tracer`]
//! is threaded through a runner's serve closure alongside the
//! `StageRecorder`; when enabled it records, per request:
//!
//! * one [`TraceEvent::Span`] per critical-path leg, carrying a causal
//!   parent id (the enclosing request span) and a [`Track`] classifying the
//!   resource (rnic → fabric → coherence → accel/smartnic → mem → cpu);
//! * one [`TraceEvent::Request`] covering issue → completion;
//! * periodic [`TraceEvent::Sample`]s of cumulative resource counters on a
//!   deterministic [`rambda_des::SampleClock`] grid (queue depths, link
//!   bytes, busy time), plus one final sample at the run makespan.
//!
//! Everything is a pure function of the simulation's seed: no wall-clock,
//! no host state, bounded memory (a drop-oldest ring of events). Exporters
//! render three artifacts:
//!
//! * [`Tracer::export_chrome_json`] — Chrome trace-event JSON loadable in
//!   Perfetto (`ui.perfetto.dev`), legs as duration events on per-track
//!   threads, requests as async spans, samples as counter series;
//! * [`Tracer::export_binary`] — a compact length-prefixed binary the
//!   determinism tests byte-compare across runs;
//! * [`Tracer::tail_report`] — a tail-attribution report naming, for the
//!   worst-N requests and for the p99 tail as a whole, the dominating
//!   stage and resource.
//!
//! [`Tracer::cross_validate`] checks a trace against the run's
//! [`rambda_metrics::RunReport`]: traced leg spans must partition every
//! traced request total exactly (and therefore the aggregate stage sums),
//! and the final counter samples must equal the report's resource counters
//! — the sampler integral of busy-time matches the resources' busy-time.
//!
//! When disabled ([`Tracer::disabled`]), every call is a branch on a
//! `None`, so untraced runs share the instrumented serve code.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod export;
mod hostprof;
mod tail;
mod tracer;
mod validate;

pub use event::{TraceEvent, Track};
pub use hostprof::HostProf;
pub use tail::{TailAttribution, WorstRequest};
pub use tracer::{ReqObs, Tracer};
