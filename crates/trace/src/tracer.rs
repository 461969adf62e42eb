//! The flight recorder itself: a bounded, drop-oldest ring of events.

use std::collections::{BTreeMap, VecDeque};

use rambda_des::{SampleClock, SimTime, Span};
use rambda_metrics::{MetricSet, ReqTrace, StageRecorder};

use crate::event::{TraceEvent, Track};

/// Default ring capacity: one million events (~64 MB worst case), enough to
/// hold every event of a quick-mode run without dropping.
const DEFAULT_CAP: usize = 1 << 20;

/// Default sampler grid: 50 µs of simulated time between counter samples.
const DEFAULT_INTERVAL_US: u64 = 50;

/// Live recorder state, present only when tracing is enabled.
#[derive(Debug, Clone)]
struct Buf {
    events: VecDeque<TraceEvent>,
    cap: usize,
    dropped: u64,
    next_id: u64,
    next_req: u64,
    clock: SampleClock,
    final_counters: BTreeMap<String, u64>,
    final_at_ps: Option<u64>,
}

impl Buf {
    fn alloc_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.events.len() == self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }
}

/// A per-request span that has been opened but not yet finished.
#[derive(Debug, Clone, Copy)]
struct OpenReq {
    span_id: u64,
    req: u64,
    start_ps: u64,
    cursor_ps: u64,
}

/// The deterministic flight recorder.
///
/// Construct with [`Tracer::disabled`] for uninstrumented runs (every call
/// is a branch on a `None`) or [`Tracer::flight_recorder`] /
/// [`Tracer::bounded`] to record. See the crate docs for the event model.
#[derive(Debug, Clone)]
pub struct Tracer {
    buf: Option<Buf>,
}

impl Tracer {
    /// A recorder that records nothing; all observation calls are no-ops.
    pub fn disabled() -> Self {
        Tracer { buf: None }
    }

    /// A recorder with the default ring capacity (2^20 events) and sampler
    /// grid (50 µs of simulated time).
    pub fn flight_recorder() -> Self {
        Tracer::bounded(DEFAULT_CAP, Span::from_us(DEFAULT_INTERVAL_US))
    }

    /// A recorder holding at most `cap` events (oldest dropped first) and
    /// sampling counters every `interval` of simulated time.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero or `interval` is zero (via
    /// [`SampleClock::new`]).
    pub fn bounded(cap: usize, interval: Span) -> Self {
        assert!(cap > 0, "trace ring capacity must be positive");
        Tracer {
            buf: Some(Buf {
                events: VecDeque::new(),
                cap,
                dropped: 0,
                next_id: 0,
                next_req: 0,
                clock: SampleClock::new(interval),
                final_counters: BTreeMap::new(),
                final_at_ps: None,
            }),
        }
    }

    /// Whether this tracer records.
    pub fn is_enabled(&self) -> bool {
        self.buf.is_some()
    }

    /// Number of events currently held in the ring.
    pub fn len(&self) -> usize {
        self.buf.as_ref().map_or(0, |b| b.events.len())
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.buf.as_ref().map_or(0, |b| b.dropped)
    }

    /// Iterates the held events in recording order.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter().flat_map(|b| b.events.iter())
    }

    /// The final counter snapshot recorded by [`Tracer::final_sample`], in
    /// name order.
    pub(crate) fn final_counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.buf.iter().flat_map(|b| b.final_counters.iter().map(|(k, v)| (k.as_str(), *v)))
    }

    /// The instant of the final counter snapshot, if one was taken.
    pub(crate) fn final_at_ps(&self) -> Option<u64> {
        self.buf.as_ref().and_then(|b| b.final_at_ps)
    }

    /// Opens a traced request at `issued`: pairs a [`ReqTrace`] cursor from
    /// `rec` with a request span in this tracer. The returned [`ReqObs`]
    /// mirrors the `ReqTrace` API (`leg` / `now` / `finish`), so serve
    /// closures are written once and work for traced and untraced runs.
    pub fn observe<'a>(&'a mut self, rec: &'a mut StageRecorder, issued: SimTime) -> ReqObs<'a> {
        let open = self.buf.as_mut().map(|b| {
            let span_id = b.alloc_id();
            let req = b.next_req;
            b.next_req += 1;
            OpenReq { span_id, req, start_ps: issued.as_ps(), cursor_ps: issued.as_ps() }
        });
        ReqObs { tr: rec.trace(issued), tracer: self, open }
    }

    /// Feeds one periodic counter sample to both deterministic sinks: this
    /// tracer's ring (when its grid is due) and `rec`'s windowed timeline
    /// (when its snapshot grid is due). `fill` builds the cumulative
    /// counter set and runs at most once, only if at least one sink is due
    /// — so serve closures pay the sampling cost at the grid rate, not per
    /// request, and traced and untraced runs share one call site. The ring
    /// records one [`TraceEvent::Sample`] per counter, stamped at the grid
    /// instant (not at `now`).
    pub fn sample_with(&mut self, rec: &mut StageRecorder, now: SimTime, fill: impl FnOnce(&mut MetricSet)) {
        let ring_tick = self.buf.as_mut().and_then(|b| b.clock.due(now));
        let timeline_tick = rec.timeline_due(now);
        if ring_tick.is_none() && timeline_tick.is_none() {
            return;
        }
        let mut set = MetricSet::new();
        fill(&mut set);
        if let (Some(tick), Some(buf)) = (ring_tick, self.buf.as_mut()) {
            for (name, value) in set.counters() {
                buf.push(TraceEvent::Sample { name: name.to_string(), at_ps: tick.as_ps(), value });
            }
        }
        if let Some(tick) = timeline_tick {
            rec.timeline_snapshot(tick, &set);
        }
    }

    /// Records one injected fabric fault as an instant event. Runners drain
    /// their network's fault-event log through this after the run (the ops
    /// layer has no tracer access), so `at` may lie in the past relative to
    /// the ring's newest event — consumers order by timestamp, not ring
    /// position.
    pub fn fault(&mut self, kind: &'static str, at: SimTime, from: u16, to: u16) {
        if let Some(buf) = self.buf.as_mut() {
            buf.push(TraceEvent::Fault { kind, at_ps: at.as_ps(), from, to });
        }
    }

    /// Records the run's final counter snapshot at `at` (normally the run
    /// makespan). Besides emitting one last [`TraceEvent::Sample`] per
    /// counter, the snapshot is retained so
    /// [`Tracer::cross_validate`](crate::Tracer::cross_validate) can check
    /// it against the report's resource counters.
    pub fn final_sample(&mut self, at: SimTime, set: &MetricSet) {
        let Some(buf) = self.buf.as_mut() else { return };
        for (name, value) in set.counters() {
            buf.push(TraceEvent::Sample { name: name.to_string(), at_ps: at.as_ps(), value });
        }
        buf.final_counters = set.counters().map(|(k, v)| (k.to_string(), v)).collect();
        buf.final_at_ps = Some(at.as_ps());
    }
}

/// A traced request in flight: a [`ReqTrace`] cursor plus the tracer-side
/// request span. Mirrors the [`ReqTrace`] API so serve closures need no
/// changes beyond construction via [`Tracer::observe`].
#[derive(Debug)]
pub struct ReqObs<'a> {
    tr: ReqTrace<'a>,
    tracer: &'a mut Tracer,
    open: Option<OpenReq>,
}

impl ReqObs<'_> {
    /// Ends the current leg at `now`, charging it to `stage`; records a
    /// [`TraceEvent::Span`] parented to this request.
    pub fn leg(&mut self, stage: &'static str, now: SimTime) {
        self.tr.leg(stage, now);
        if let (Some(open), Some(buf)) = (self.open.as_mut(), self.tracer.buf.as_mut()) {
            let end_ps = now.as_ps().max(open.cursor_ps);
            let track = Track::of_stage(stage);
            let ev = TraceEvent::Span {
                id: buf.alloc_id(),
                parent: open.span_id,
                req: open.req,
                track,
                stage,
                start_ps: open.cursor_ps,
                end_ps,
            };
            buf.push(ev);
            open.cursor_ps = end_ps;
        }
    }

    /// The current cursor position.
    pub fn now(&self) -> SimTime {
        self.tr.now()
    }

    /// Closes the request at `done`: records the [`TraceEvent::Request`]
    /// span and forwards to [`ReqTrace::finish`].
    pub fn finish(self, done: SimTime) {
        let ReqObs { tr, tracer, open } = self;
        tr.finish(done);
        if let (Some(open), Some(buf)) = (open, tracer.buf.as_mut()) {
            let end_ps = done.as_ps().max(open.cursor_ps);
            let ev = TraceEvent::Request { id: open.span_id, req: open.req, start_ps: open.start_ps, end_ps };
            buf.push(ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(n: u64) -> SimTime {
        SimTime::from_ns(n)
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut rec = StageRecorder::active();
        let mut tracer = Tracer::disabled();
        let mut obs = tracer.observe(&mut rec, ns(0));
        obs.leg("fabric_request", ns(10));
        obs.finish(ns(10));
        tracer.sample_with(&mut rec, ns(1_000_000), |s| s.set("cpu.busy_ps", 1));
        assert!(!tracer.is_enabled());
        assert!(tracer.is_empty());
        // The underlying recorder still records.
        assert_eq!(rec.total().count(), 1);
    }

    #[test]
    fn spans_are_parented_and_partition_the_request() {
        let mut rec = StageRecorder::active();
        let mut tracer = Tracer::flight_recorder();
        let mut obs = tracer.observe(&mut rec, ns(100));
        obs.leg("fabric_request", ns(130));
        obs.leg("apu_compute", ns(180));
        assert_eq!(obs.now(), ns(180));
        obs.finish(ns(180));

        let events: Vec<_> = tracer.events().cloned().collect();
        assert_eq!(events.len(), 3);
        let TraceEvent::Span { parent: p0, start_ps: s0, end_ps: e0, track, .. } = events[0] else {
            panic!("expected a leg span first");
        };
        let TraceEvent::Span { parent: p1, start_ps: s1, end_ps: e1, .. } = events[1] else {
            panic!("expected a second leg span");
        };
        let TraceEvent::Request { id, start_ps, end_ps, req } = events[2] else {
            panic!("expected the request span last");
        };
        assert_eq!((p0, p1), (id, id), "legs must be parented to the request span");
        assert_eq!(track, Track::Fabric);
        assert_eq!((s0, e0), (100_000, 130_000));
        assert_eq!((s1, e1), (130_000, 180_000));
        assert_eq!((start_ps, end_ps, req), (100_000, 180_000, 0));
        // Legs partition the request interval exactly.
        assert_eq!((e0 - s0) + (e1 - s1), end_ps - start_ps);
    }

    #[test]
    fn ring_drops_oldest_when_full() {
        let mut rec = StageRecorder::active();
        let mut tracer = Tracer::bounded(4, Span::from_us(50));
        for i in 0..3u64 {
            let t0 = ns(i * 100);
            let mut obs = tracer.observe(&mut rec, t0);
            obs.leg("fabric_request", t0 + Span::from_ns(10));
            obs.finish(t0 + Span::from_ns(10));
        }
        // 3 requests × 2 events = 6 pushed into a 4-slot ring.
        assert_eq!(tracer.len(), 4);
        assert_eq!(tracer.dropped(), 2);
    }

    #[test]
    fn sampler_fires_on_the_grid_and_records_counters() {
        // The recorder's 50 µs timeline grid is not due before 50 µs, so
        // only the ring's 10 µs grid decides when `fill` runs here.
        let mut rec = StageRecorder::active();
        let mut tracer = Tracer::bounded(64, Span::from_us(10));
        tracer.sample_with(&mut rec, SimTime::from_ns(500), |_| panic!("before the first grid point"));
        tracer.sample_with(&mut rec, SimTime::from_us(25), |s| {
            s.set("net.bytes", 4096);
            s.set("accel.busy_ps", 77);
        });
        let samples: Vec<_> = tracer.events().cloned().collect();
        assert_eq!(samples.len(), 2);
        let TraceEvent::Sample { ref name, at_ps, value } = samples[0] else { panic!("expected sample") };
        // Name-sorted, stamped at the 20 µs grid point, not at 25 µs.
        assert_eq!((name.as_str(), at_ps, value), ("accel.busy_ps", 20_000_000, 77));
        // Second call inside the same grid interval does not fire.
        tracer.sample_with(&mut rec, SimTime::from_us(26), |_| panic!("grid interval already sampled"));
    }

    #[test]
    fn sample_with_feeds_ring_and_timeline() {
        let mut rec = StageRecorder::active();
        let mut tracer = Tracer::bounded(64, Span::from_us(10));
        tracer.sample_with(&mut rec, SimTime::from_ns(500), |_| panic!("no sink due yet"));
        // At 60 µs both grids are due: the ring (10 µs grid) and the
        // recorder's timeline (50 µs default window).
        tracer.sample_with(&mut rec, SimTime::from_us(60), |s| s.set("net.busy_ps", 42));
        assert_eq!(tracer.len(), 1, "one ring sample recorded");
        // The timeline snapshot shows up as the interior busy attribution.
        rec.request(SimTime::ZERO, SimTime::from_us(100));
        let mut finals = MetricSet::new();
        finals.set("net.busy_ps", 100);
        rec.finalize_timeline(Span::from_us(100), &finals);
        let tl = rec.timeline_summary().expect("timeline finalized");
        assert_eq!(tl.resources[0].busy_delta_ps, vec![42, 58]);
    }

    #[test]
    fn sample_with_feeds_timeline_even_when_tracer_is_disabled() {
        let mut rec = StageRecorder::active();
        let mut tracer = Tracer::disabled();
        let mut filled = false;
        tracer.sample_with(&mut rec, SimTime::from_us(75), |s| {
            filled = true;
            s.set("cpu.busy_ps", 7);
        });
        assert!(filled, "timeline snapshot must still be taken");
        assert!(tracer.is_empty());
    }

    #[test]
    fn final_sample_snapshot_is_retained() {
        let mut tracer = Tracer::flight_recorder();
        let mut set = MetricSet::new();
        set.set("cpu.busy_ps", 123);
        set.gauge("cpu.utilization", 0.5); // gauges are not sampled
        tracer.final_sample(SimTime::from_us(7), &set);
        assert_eq!(tracer.len(), 1);
        assert_eq!(tracer.final_at_ps(), Some(7_000_000));
        let finals: Vec<_> = tracer.final_counters().map(|(k, v)| (k.to_string(), v)).collect();
        assert_eq!(finals, [("cpu.busy_ps".to_string(), 123)]);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = Tracer::bounded(0, Span::from_us(1));
    }
}
