//! The `event_core` report section: deterministic scheduler telemetry.
//!
//! The DES event queue counts every push and pop it performs — per event
//! kind, per wheel tier — plus the cumulative sim-time dwell between enqueue
//! and fire. [`EventCoreSummary`] freezes those counters (with the pending
//! backlog at capture time) into a serializable section whose conservation
//! identities `RunReport::validate_event_core` checks: dispatches equal
//! enqueues minus cancellations minus the pending backlog, tier hits
//! telescope to the total enqueues, and the per-kind breakdown partitions
//! both sides exactly.

use rambda_des::EventCoreStats;

use crate::json::Json;
use crate::set::MetricSet;

/// One event kind's frozen telemetry (see `rambda_des::KindStats`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventKindSummary {
    /// Kind name as registered on the queue (`"event"`, `"prime"`, ...).
    pub name: String,
    /// Events of this kind scheduled.
    pub pushes: u64,
    /// Events of this kind dispatched.
    pub pops: u64,
    /// Cumulative enqueue→fire sim-time dwell, picoseconds.
    pub held_ps: u64,
}

/// Frozen event-core telemetry for one run, attached to a [`crate::RunReport`]
/// via `attach_event_core` when profiling is enabled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventCoreSummary {
    /// Total events scheduled.
    pub enqueued: u64,
    /// Total events fired.
    pub dispatched: u64,
    /// Total events cancelled before firing.
    pub cancelled: u64,
    /// Events still pending when the summary was captured.
    pub pending: u64,
    /// Cumulative enqueue→fire sim-time dwell across all events, picoseconds.
    pub dwell_ps: u64,
    /// Pushes routed into the already-drained time range.
    pub drain_hits: u64,
    /// Pushes routed into the near wheel.
    pub near_hits: u64,
    /// Pushes routed into the far overflow.
    pub far_hits: u64,
    /// Wheel re-anchor events.
    pub reanchors: u64,
    /// Tickets redistributed from the far overflow across all re-anchors.
    pub redistributed: u64,
    /// Per-kind breakdown, in registration order.
    pub kinds: Vec<EventKindSummary>,
}

impl EventCoreSummary {
    /// Freezes the queue's live stats, recording `pending` as the backlog
    /// still scheduled at capture time.
    pub fn of(stats: &EventCoreStats, pending: u64) -> Self {
        EventCoreSummary {
            enqueued: stats.enqueued,
            dispatched: stats.dispatched,
            cancelled: stats.cancelled,
            pending,
            dwell_ps: stats.dwell_ps,
            drain_hits: stats.drain_hits,
            near_hits: stats.near_hits,
            far_hits: stats.far_hits,
            reanchors: stats.reanchors,
            redistributed: stats.redistributed,
            kinds: stats
                .kinds
                .iter()
                .map(|k| EventKindSummary {
                    name: k.name.to_string(),
                    pushes: k.pushes,
                    pops: k.pops,
                    held_ps: k.held_ps,
                })
                .collect(),
        }
    }

    /// Publishes every telemetry value as a counter under `prefix`, so the
    /// analyzer's R9 identity-coverage rule ties each one to
    /// `validate_event_core`.
    pub fn publish_metrics(&self, m: &mut MetricSet, prefix: &str) {
        m.set(&format!("{prefix}.enqueued"), self.enqueued);
        m.set(&format!("{prefix}.dispatched"), self.dispatched);
        m.set(&format!("{prefix}.cancelled"), self.cancelled);
        m.set(&format!("{prefix}.pending"), self.pending);
        m.set(&format!("{prefix}.dwell_ps"), self.dwell_ps);
        m.set(&format!("{prefix}.tier.drain_hits"), self.drain_hits);
        m.set(&format!("{prefix}.tier.near_hits"), self.near_hits);
        m.set(&format!("{prefix}.tier.far_hits"), self.far_hits);
        m.set(&format!("{prefix}.tier.reanchors"), self.reanchors);
        m.set(&format!("{prefix}.tier.redistributed"), self.redistributed);
        for k in &self.kinds {
            let base = format!("{prefix}.kind.{}", k.name);
            m.set(&format!("{base}.pushes"), k.pushes);
            m.set(&format!("{base}.pops"), k.pops);
            m.set(&format!("{base}.held_ps"), k.held_ps);
        }
    }

    /// Renders the section as a deterministic JSON value.
    pub fn to_json(&self) -> Json {
        let mut kinds = Json::obj();
        for k in &self.kinds {
            let mut o = Json::obj();
            o.push("pushes", Json::U64(k.pushes));
            o.push("pops", Json::U64(k.pops));
            o.push("held_ps", Json::U64(k.held_ps));
            kinds.push(&k.name, o);
        }
        let mut tier = Json::obj();
        tier.push("drain_hits", Json::U64(self.drain_hits));
        tier.push("near_hits", Json::U64(self.near_hits));
        tier.push("far_hits", Json::U64(self.far_hits));
        tier.push("reanchors", Json::U64(self.reanchors));
        tier.push("redistributed", Json::U64(self.redistributed));
        let mut out = Json::obj();
        out.push("enqueued", Json::U64(self.enqueued));
        out.push("dispatched", Json::U64(self.dispatched));
        out.push("cancelled", Json::U64(self.cancelled));
        out.push("pending", Json::U64(self.pending));
        out.push("dwell_ps", Json::U64(self.dwell_ps));
        out.push("tier", tier);
        out.push("kinds", kinds);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rambda_des::{EventQueue, SimTime};

    #[test]
    fn summary_freezes_queue_stats_and_serializes_deterministically() {
        let mut q = EventQueue::new();
        let serve = q.kind("serve");
        q.push(SimTime::from_ns(5), 1u32);
        q.push_kind(SimTime::from_ns(9), serve, 2);
        q.pop();
        let s = EventCoreSummary::of(q.stats(), q.len() as u64);
        assert_eq!(s.enqueued, 2);
        assert_eq!(s.dispatched, 1);
        assert_eq!(s.pending, 1);
        assert_eq!(s.kinds.len(), 2);
        let a = s.to_json().render();
        let b = EventCoreSummary::of(q.stats(), q.len() as u64).to_json().render();
        assert_eq!(a, b);
        assert!(a.contains("\"serve\""));

        let mut m = MetricSet::new();
        s.publish_metrics(&mut m, "event_core");
        assert_eq!(m.counter("event_core.enqueued"), Some(2));
        assert_eq!(m.counter("event_core.kind.serve.pushes"), Some(1));
        assert_eq!(m.counter("event_core.tier.near_hits"), Some(2));
    }
}
