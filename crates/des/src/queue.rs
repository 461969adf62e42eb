//! A time-ordered event queue for closed-loop simulation drivers.
//!
//! The queue is a calendar/time-wheel scheduler (Brown, CACM'88) with three
//! tiers — a sorted *drain* run, a bucketed *near* wheel, and an unsorted
//! *far* overflow — plus a slab arena for event payloads. Push and pop are
//! O(1) amortized for the near-horizon common case that dominates closed-loop
//! simulations, while pop order remains *exactly* the (time, insertion
//! sequence) order the original binary-heap implementation produced, so every
//! golden report stays byte-identical (DESIGN.md §12).

use crate::time::SimTime;

/// Number of near-wheel buckets. Must be a power of two; 256 keeps the
/// re-anchor scan short while making bucket collisions rare at µs scale.
const BUCKETS: usize = 256;

/// Initial bucket width exponent: 2^20 ps ≈ 1 µs per bucket, so the initial
/// wheel spans ~268 µs — a good fit for the µs-scale workloads the paper
/// models. The width re-adapts on every re-anchor.
const INITIAL_WIDTH_SHIFT: u32 = 20;

/// A scheduled-event ticket: time, global insertion sequence, arena slot,
/// event-kind index.
///
/// Tickets are `Copy` and small, so sorting a bucket never moves event
/// payloads — those stay put in the arena until popped.
type Ticket = (SimTime, u64, u32, u8);

/// A registered event-kind handle, returned by [`EventQueue::kind`] and
/// accepted by [`EventQueue::push_kind`]. Kind `0` is the pre-registered
/// default every plain [`EventQueue::push`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventKind(u8);

/// Per-event-kind telemetry: how many events of this kind were scheduled
/// and fired, and their cumulative sim-time dwell (enqueue→fire).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KindStats {
    /// Kind name as registered via [`EventQueue::kind`].
    pub name: &'static str,
    /// Events of this kind scheduled.
    pub pushes: u64,
    /// Events of this kind dispatched.
    pub pops: u64,
    /// Cumulative scheduled-ahead sim time (fire time minus the queue's
    /// current time at push), picoseconds.
    pub held_ps: u64,
}

/// Deterministic event-core telemetry, accumulated by every push/pop.
///
/// All counters are pure functions of the event sequence, so same-seed runs
/// produce identical stats. The conservation identities the metrics layer
/// checks (`validate_event_core`): `dispatched == enqueued − cancelled −
/// pending`, and the tier hits telescope to the total enqueues
/// (`drain_hits + near_hits + far_hits == enqueued`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventCoreStats {
    /// Total events scheduled.
    pub enqueued: u64,
    /// Total events fired.
    pub dispatched: u64,
    /// Total events cancelled before firing (reserved; the queue has no
    /// cancel API yet, so this is always zero today).
    pub cancelled: u64,
    /// Cumulative enqueue→fire sim-time dwell across all events,
    /// picoseconds.
    pub dwell_ps: u64,
    /// Pushes routed into the already-drained time range.
    pub drain_hits: u64,
    /// Pushes routed into the near wheel.
    pub near_hits: u64,
    /// Pushes routed into the far overflow.
    pub far_hits: u64,
    /// Wheel re-anchor events (near range exhausted, overflow redistributed).
    pub reanchors: u64,
    /// Tickets redistributed from the far overflow across all re-anchors.
    pub redistributed: u64,
    /// Per-kind breakdown, in registration order (kind 0 first).
    pub kinds: Vec<KindStats>,
}

/// A deterministic time-ordered queue of events.
///
/// Ties on time pop in insertion order, so simulations are fully
/// reproducible.
///
/// ```
/// use rambda_des::{EventQueue, SimTime};
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_ns(20), "b");
/// q.push(SimTime::from_ns(10), "a");
/// assert_eq!(q.pop(), Some((SimTime::from_ns(10), "a")));
/// assert_eq!(q.pop(), Some((SimTime::from_ns(20), "b")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    /// Arena of event payloads; `None` slots are free for reuse.
    slots: Vec<Option<E>>,
    /// Free-list of arena slot indices.
    free: Vec<u32>,
    /// Next insertion sequence number (the deterministic FIFO tie-break).
    seq: u64,
    /// Live event count across all tiers.
    len: usize,
    /// Drain tier: tickets sorted *descending* by `(time, seq)`; `pop`
    /// removes from the back. Holds exactly the events with `time < floor`.
    drain: Vec<Ticket>,
    /// Near wheel: `BUCKETS` buckets of unsorted tickets, bucket `b` covering
    /// `[near_start + b·width, near_start + (b+1)·width)`.
    near: Vec<Vec<Ticket>>,
    /// One bit per bucket: set iff the bucket is non-empty. Lets the cursor
    /// jump over empty runs in O(words) instead of O(buckets) — the common
    /// case for sparse queues (e.g. a serial closed-loop driver with one
    /// event in flight).
    occupied: [u64; BUCKETS / 64],
    /// Total tickets currently in the near wheel.
    near_len: usize,
    /// Time at the base of bucket 0.
    near_start: SimTime,
    /// First instant at or beyond the wheel (`near_start + BUCKETS·width`,
    /// saturating): pushes at or past it overflow to `far`.
    horizon: SimTime,
    /// log2 of the bucket width in picoseconds.
    width_shift: u32,
    /// Next bucket to promote into the drain. Buckets before the cursor are
    /// empty.
    cursor: usize,
    /// Boundary between the drain and the wheel: every stored event with
    /// `time < floor` lives in `drain`, everything else in `near`/`far`.
    /// Equals `near_start + cursor·width` whenever control is outside `pop`.
    floor: SimTime,
    /// Far overflow: unsorted tickets at or beyond the wheel horizon.
    far: Vec<Ticket>,
    /// Time of the most recent pop — the queue's notion of "now", used to
    /// charge each push its enqueue→fire dwell.
    last_pop: SimTime,
    /// Always-on deterministic telemetry (see [`EventCoreStats`]).
    stats: EventCoreStats,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            slots: Vec::new(),
            free: Vec::new(),
            seq: 0,
            len: 0,
            drain: Vec::new(),
            near: (0..BUCKETS).map(|_| Vec::new()).collect(),
            occupied: [0; BUCKETS / 64],
            near_len: 0,
            near_start: SimTime::ZERO,
            horizon: SimTime::from_ps(Self::horizon_ps(SimTime::ZERO, INITIAL_WIDTH_SHIFT)),
            width_shift: INITIAL_WIDTH_SHIFT,
            cursor: 0,
            floor: SimTime::ZERO,
            far: Vec::new(),
            last_pop: SimTime::ZERO,
            stats: EventCoreStats {
                kinds: vec![KindStats { name: "event", ..KindStats::default() }],
                ..EventCoreStats::default()
            },
        }
    }

    /// Registers (or looks up) an event kind by name, for per-kind
    /// telemetry. Returns the existing handle when the name is already
    /// registered. At most 256 kinds per queue.
    pub fn kind(&mut self, name: &'static str) -> EventKind {
        if let Some(i) = self.stats.kinds.iter().position(|k| k.name == name) {
            return EventKind(i as u8);
        }
        assert!(self.stats.kinds.len() < 256, "event-kind registry is full");
        self.stats.kinds.push(KindStats { name, ..KindStats::default() });
        EventKind((self.stats.kinds.len() - 1) as u8)
    }

    /// The telemetry accumulated so far.
    pub fn stats(&self) -> &EventCoreStats {
        &self.stats
    }

    /// `start + BUCKETS·2^shift`, saturating. When saturated, every
    /// representable time routes into the wheel, which stays correct: the
    /// bucket index `(at - start) >> shift` is then always below `BUCKETS`
    /// except for `at == u64::MAX` itself, which overflows to `far`.
    fn horizon_ps(start: SimTime, shift: u32) -> u64 {
        start.as_ps().saturating_add((BUCKETS as u64) << shift)
    }

    /// Stores `event` in the arena and returns its slot index.
    fn alloc(&mut self, event: E) -> u32 {
        match self.free.pop() {
            Some(idx) => {
                self.slots[idx as usize] = Some(event);
                idx
            }
            None => {
                self.slots.push(Some(event));
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// Removes a ticket's payload from the arena, recycling the slot.
    fn release(&mut self, idx: u32) -> E {
        let event = self.slots[idx as usize].take().expect("ticket slot is occupied");
        self.free.push(idx);
        event
    }

    /// Schedules `event` at `at` under the default kind.
    pub fn push(&mut self, at: SimTime, event: E) {
        self.push_kind(at, EventKind(0), event);
    }

    /// Schedules `event` at `at`, attributing it to `kind` in the telemetry.
    pub fn push_kind(&mut self, at: SimTime, kind: EventKind, event: E) {
        let seq = self.seq;
        self.seq += 1;
        let idx = self.alloc(event);
        let ticket = (at, seq, idx, kind.0);
        self.len += 1;
        let held = at.as_ps().saturating_sub(self.last_pop.as_ps());
        self.stats.enqueued += 1;
        self.stats.dwell_ps += held;
        let ks = &mut self.stats.kinds[kind.0 as usize];
        ks.pushes += 1;
        ks.held_ps += held;
        if at < self.floor {
            // Push into the already-drained time range (e.g. zero-span
            // rescheduling at `now`): keep the drain sorted. `partition_point`
            // finds where the descending (time, seq) order admits the new
            // ticket; same-time events sort after lower sequences, keeping
            // FIFO ties exact.
            self.stats.drain_hits += 1;
            let pos = self.drain.partition_point(|&(t, s, _, _)| (t, s) > (at, seq));
            self.drain.insert(pos, ticket);
        } else if at < self.horizon {
            self.stats.near_hits += 1;
            let bucket = ((at.as_ps() - self.near_start.as_ps()) >> self.width_shift) as usize;
            self.near[bucket].push(ticket);
            self.occupied[bucket / 64] |= 1 << (bucket % 64);
            self.near_len += 1;
        } else {
            self.stats.far_hits += 1;
            self.far.push(ticket);
        }
    }

    /// The first non-empty bucket at or after `from`, via the occupancy
    /// bitmap.
    fn next_occupied(&self, from: usize) -> Option<usize> {
        if from >= BUCKETS {
            return None;
        }
        let mut word = from / 64;
        let mut bits = self.occupied[word] & (u64::MAX << (from % 64));
        loop {
            if bits != 0 {
                return Some(word * 64 + bits.trailing_zeros() as usize);
            }
            word += 1;
            if word >= self.occupied.len() {
                return None;
            }
            bits = self.occupied[word];
        }
    }

    /// Promotes the next non-empty near bucket into the drain, re-anchoring
    /// the wheel from the far overflow when the near range is exhausted.
    /// Returns `false` if no events remain anywhere.
    fn refill_drain(&mut self) -> bool {
        loop {
            if let Some(b) = if self.near_len > 0 { self.next_occupied(self.cursor) } else { None } {
                self.cursor = b + 1;
                self.floor = SimTime::from_ps(
                    self.near_start.as_ps().saturating_add((self.cursor as u64) << self.width_shift),
                );
                self.occupied[b / 64] &= !(1 << (b % 64));
                std::mem::swap(&mut self.drain, &mut self.near[b]);
                self.near_len -= self.drain.len();
                // Descending (time, seq): pop() takes from the back, so the
                // earliest event — lowest time, then lowest sequence — leaves
                // first.
                self.drain.sort_unstable_by_key(|&(at, seq, _, _)| std::cmp::Reverse((at, seq)));
                return true;
            }
            if self.far.is_empty() {
                return false;
            }
            // Re-anchor: size the wheel so the whole overflow fits, then
            // redistribute it. Width must exceed span/BUCKETS so the maximum
            // lands strictly inside the last bucket.
            self.stats.reanchors += 1;
            self.stats.redistributed += self.far.len() as u64;
            let (mut min, mut max) = (self.far[0].0, self.far[0].0);
            for t in &self.far[1..] {
                min = min.min(t.0);
                max = max.max(t.0);
            }
            let span = max.as_ps() - min.as_ps();
            let needed = span / BUCKETS as u64 + 1;
            self.width_shift = needed.next_power_of_two().trailing_zeros().max(INITIAL_WIDTH_SHIFT);
            self.near_start = min;
            self.horizon = SimTime::from_ps(Self::horizon_ps(min, self.width_shift));
            self.cursor = 0;
            self.floor = min;
            for ticket in std::mem::take(&mut self.far) {
                let bucket = ((ticket.0.as_ps() - min.as_ps()) >> self.width_shift) as usize;
                self.near[bucket].push(ticket);
                self.occupied[bucket / 64] |= 1 << (bucket % 64);
                self.near_len += 1;
            }
        }
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.drain.is_empty() && !self.refill_drain() {
            return None;
        }
        let (at, _, idx, kind) = self.drain.pop().expect("drain was just refilled");
        self.len -= 1;
        self.last_pop = at;
        self.stats.dispatched += 1;
        self.stats.kinds[kind as usize].pops += 1;
        Some((at, self.release(idx)))
    }

    /// The time of the earliest event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        if let Some(&(at, _, _, _)) = self.drain.last() {
            return Some(at);
        }
        if let Some(b) = self.next_occupied(self.cursor) {
            return self.near[b].iter().map(|t| t.0).min();
        }
        self.far.iter().map(|t| t.0).min()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue").field("len", &self.len).field("next", &self.peek_time()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(30), 3);
        q.push(SimTime::from_ns(10), 1);
        q.push(SimTime::from_ns(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime::from_ns(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_ns(7), ());
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(7)));
    }

    #[test]
    fn interleaved_push_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(10), "a");
        assert_eq!(q.pop().unwrap().1, "a");
        q.push(SimTime::from_ns(5), "b");
        q.push(SimTime::from_ns(1), "c");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "b");
    }

    #[test]
    fn push_at_drained_time_keeps_fifo() {
        // Two events at the same instant, one pushed after that instant has
        // already been promoted into the drain: insertion order must hold.
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(10), "first");
        q.push(SimTime::from_ns(30), "later");
        assert_eq!(q.pop().unwrap().1, "first");
        q.push(SimTime::from_ns(30), "second");
        assert_eq!(q.pop().unwrap(), (SimTime::from_ns(30), "later"));
        assert_eq!(q.pop().unwrap(), (SimTime::from_ns(30), "second"));
    }

    #[test]
    fn far_future_overflow_promotes_in_order() {
        // Events far past the initial wheel horizon (~268 µs) land in the
        // overflow and must still pop in (time, seq) order after re-anchor.
        let mut q = EventQueue::new();
        q.push(SimTime::from_us(500_000), 2);
        q.push(SimTime::from_us(100_000), 1);
        q.push(SimTime::from_us(900_000), 3);
        q.push(SimTime::from_ns(50), 0);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn wheel_rollover_boundary_is_exact() {
        // An event exactly on the initial horizon must overflow, one a tick
        // before it must not — and both must pop in time order.
        let horizon = (BUCKETS as u64) << INITIAL_WIDTH_SHIFT;
        let mut q = EventQueue::new();
        q.push(SimTime::from_ps(horizon), "on");
        q.push(SimTime::from_ps(horizon - 1), "before");
        assert_eq!(q.far.len(), 1);
        assert_eq!(q.pop().unwrap(), (SimTime::from_ps(horizon - 1), "before"));
        assert_eq!(q.pop().unwrap(), (SimTime::from_ps(horizon), "on"));
    }

    #[test]
    fn event_core_stats_identities_hold() {
        let mut q = EventQueue::new();
        let serve = q.kind("serve");
        assert_eq!(q.kind("serve"), serve, "re-registering a kind returns the same handle");
        q.push(SimTime::from_ns(10), "a");
        q.push_kind(SimTime::from_ns(20), serve, "b");
        q.push(SimTime::from_us(500_000), "far");
        assert_eq!(q.pop().unwrap().1, "a");
        let s = q.stats();
        assert_eq!(s.enqueued, 3);
        assert_eq!(s.dispatched, 1);
        assert_eq!(s.drain_hits + s.near_hits + s.far_hits, s.enqueued);
        assert_eq!(s.far_hits, 1, "the far-future push overflows the wheel");
        assert_eq!(s.dispatched, s.enqueued - s.cancelled - q.len() as u64);
        // Dwell is charged at push relative to the queue's current time
        // (zero before any pop), total and per kind.
        assert_eq!(s.dwell_ps, 10_000 + 20_000 + 500_000_000_000);
        assert_eq!(s.kinds[0].name, "event");
        assert_eq!(s.kinds[0].pushes, 2);
        assert_eq!(s.kinds[1].name, "serve");
        assert_eq!(s.kinds[1].pushes, 1);
        assert_eq!(s.kinds[1].held_ps, 20_000);
        assert_eq!(s.kinds.iter().map(|k| k.pushes).sum::<u64>(), s.enqueued);
        // Drain the rest: the re-anchor redistributes the overflow ticket.
        while q.pop().is_some() {}
        let s = q.stats();
        assert_eq!(s.dispatched, s.enqueued);
        assert_eq!(s.kinds.iter().map(|k| k.pops).sum::<u64>(), s.dispatched);
        assert_eq!(s.reanchors, 1);
        assert_eq!(s.redistributed, 1);
    }

    #[test]
    fn arena_slots_are_recycled() {
        let mut q = EventQueue::new();
        for round in 0..10u64 {
            q.push(SimTime::from_ns(round), round);
            assert_eq!(q.pop().unwrap().1, round);
        }
        assert_eq!(q.slots.len(), 1, "steady-state churn reuses one slot");
    }
}
