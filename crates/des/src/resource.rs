//! Simulated resources: FIFO servers with busy-until semantics, and links
//! and throttles that are fluid queues.
//!
//! The simulation style used throughout the workspace is *time-advancing
//! tokens*: a request carries its current timestamp through a pipeline of
//! resources; each resource returns when the request could actually start
//! (and advances its own bookkeeping). Queueing delay — and hence tail
//! latency under load — falls out of the bookkeeping.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::{SimTime, Span};

/// Unit-count threshold below which [`Server`] tracks per-unit busy-until
/// times in a flat vector (linear min-scan) instead of a binary min-heap.
/// Most servers in the workspace are small (1–16 cores); the scan is
/// branch-predictable and allocation-free there, while large servers (e.g.
/// the APU's 256 outstanding-request slots) need the heap's O(log n).
const LINEAR_SCAN_MAX_UNITS: usize = 16;

/// Per-unit busy-until bookkeeping, sized to the unit count.
///
/// Both variants are observationally identical: `acquire` always picks *a*
/// unit with the minimum busy-until time, and the returned start depends
/// only on that minimum value, never on which unit held it.
#[derive(Debug, Clone)]
enum FreeList {
    /// Unsorted busy-until times, min found by linear scan.
    Flat(Vec<SimTime>),
    /// Min-heap of busy-until times.
    Heap(BinaryHeap<Reverse<SimTime>>),
}

/// A `k`-way FIFO server: `k` identical units, each serving one request at a
/// time (CPU cores, APU outstanding-request slots, ARM cores, ...).
///
/// ```
/// use rambda_des::{Server, SimTime, Span};
/// let mut cores = Server::new(2);
/// let s = Span::from_ns(100);
/// assert_eq!(cores.acquire(SimTime::ZERO, s), SimTime::ZERO);
/// assert_eq!(cores.acquire(SimTime::ZERO, s), SimTime::ZERO);
/// // Both units busy until 100ns; third request queues.
/// assert_eq!(cores.acquire(SimTime::ZERO, s), SimTime::from_ns(100));
/// ```
#[derive(Debug, Clone)]
pub struct Server {
    free: FreeList,
    units: usize,
    acquisitions: u64,
    busy_ps: u64,
    wait_ps: u64,
}

impl Server {
    /// Creates a server with `units` parallel units.
    ///
    /// # Panics
    ///
    /// Panics if `units == 0`.
    pub fn new(units: usize) -> Self {
        assert!(units > 0, "a Server needs at least one unit");
        let free = if units <= LINEAR_SCAN_MAX_UNITS {
            FreeList::Flat(vec![SimTime::ZERO; units])
        } else {
            FreeList::Heap((0..units).map(|_| Reverse(SimTime::ZERO)).collect())
        };
        Server { free, units, acquisitions: 0, busy_ps: 0, wait_ps: 0 }
    }

    /// Number of parallel units.
    pub fn units(&self) -> usize {
        self.units
    }

    /// Acquires a unit at or after `at`, holding it for `hold`.
    ///
    /// Returns the service *start* time (`>= at`); the caller computes its
    /// own completion as `start + hold`.
    pub fn acquire(&mut self, at: SimTime, hold: Span) -> SimTime {
        let start;
        match &mut self.free {
            FreeList::Flat(free) => {
                let mut best = 0;
                for (i, &t) in free.iter().enumerate().skip(1) {
                    if t < free[best] {
                        best = i;
                    }
                }
                start = at.max(free[best]);
                free[best] = start + hold;
            }
            FreeList::Heap(free) => {
                let Reverse(free_at) = free.pop().expect("server has at least one unit");
                start = at.max(free_at);
                free.push(Reverse(start + hold));
            }
        }
        self.acquisitions += 1;
        self.busy_ps = self.busy_ps.saturating_add(hold.as_ps());
        self.wait_ps = self.wait_ps.saturating_add((start - at).as_ps());
        start
    }

    /// The earliest instant any unit is free.
    pub fn earliest_free(&self) -> SimTime {
        match &self.free {
            FreeList::Flat(free) => free.iter().copied().min().unwrap_or(SimTime::ZERO),
            FreeList::Heap(free) => free.peek().map(|Reverse(t)| *t).unwrap_or(SimTime::ZERO),
        }
    }

    /// Number of successful [`acquire`](Self::acquire) calls.
    pub fn acquisitions(&self) -> u64 {
        self.acquisitions
    }

    /// Aggregate hold time across all acquisitions (unit-seconds of work).
    pub fn busy_time(&self) -> Span {
        Span::from_ps(self.busy_ps)
    }

    /// Aggregate queueing delay suffered by acquirers (start − arrival).
    pub fn queue_wait(&self) -> Span {
        Span::from_ps(self.wait_ps)
    }

    /// Resets all units to free-at-zero and clears the counters.
    pub fn reset(&mut self) {
        match &mut self.free {
            FreeList::Flat(free) => free.fill(SimTime::ZERO),
            FreeList::Heap(free) => {
                let units = self.units;
                free.clear();
                free.extend((0..units).map(|_| Reverse(SimTime::ZERO)));
            }
        }
        self.acquisitions = 0;
        self.busy_ps = 0;
        self.wait_ps = 0;
    }
}

/// Result of pushing bytes through a [`Link`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// When the last byte has left the sender (sender may continue then).
    pub depart: SimTime,
    /// When the last byte arrives at the receiver (depart + propagation).
    pub arrive: SimTime,
}

/// A serializing bandwidth resource with propagation latency: an Ethernet
/// port, a PCIe link, a UPI/CXL hop, or an aggregate DRAM channel.
///
/// Transfers queue behind a fluid backlog that drains at `bytes_per_sec`
/// (see [`transfer`](Self::transfer)); each transfer then takes an extra
/// `latency` to propagate.
///
/// ```
/// use rambda_des::{Link, SimTime, Span};
/// // 1 GB/s, 100ns propagation: 1000 bytes take 1us to serialize.
/// let mut l = Link::new(1.0e9, Span::from_ns(100));
/// let t = l.transfer(SimTime::ZERO, 1000);
/// assert_eq!(t.depart, SimTime::from_ns(1000));
/// assert_eq!(t.arrive, SimTime::from_ns(1100));
/// ```
#[derive(Debug, Clone)]
pub struct Link {
    bytes_per_sec: f64,
    latency: Span,
    /// Fluid-queue state: outstanding bytes not yet drained at `last_time`.
    backlog_bytes: f64,
    last_time: SimTime,
    /// The last `(bytes, serialization(bytes))` computed: callers repeat a
    /// few fixed sizes (16 B requests, 64 B lines), so most transfers reuse
    /// it instead of recomputing the same span.
    last_serialization: (u64, Span),
    bytes_moved: u64,
    transfers: u64,
    busy_ps: u64,
    queue_ps: u64,
}

impl Link {
    /// Creates a link with the given bandwidth (bytes/second) and
    /// propagation latency.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is not strictly positive and finite.
    pub fn new(bytes_per_sec: f64, latency: Span) -> Self {
        assert!(
            bytes_per_sec.is_finite() && bytes_per_sec > 0.0,
            "link bandwidth must be positive, got {bytes_per_sec}"
        );
        Link {
            bytes_per_sec,
            latency,
            backlog_bytes: 0.0,
            last_time: SimTime::ZERO,
            // `serialization(0)` is zero at any bandwidth.
            last_serialization: (0, Span::ZERO),
            bytes_moved: 0,
            transfers: 0,
            busy_ps: 0,
            queue_ps: 0,
        }
    }

    /// The configured bandwidth in bytes per second.
    pub fn bytes_per_sec(&self) -> f64 {
        self.bytes_per_sec
    }

    /// The configured propagation latency.
    pub fn latency(&self) -> Span {
        self.latency
    }

    /// Serialization time for `bytes` on this link (no queueing).
    pub fn serialization(&self, bytes: u64) -> Span {
        Span::from_secs_f64(bytes as f64 / self.bytes_per_sec)
    }

    /// Pushes `bytes` through the link at or after `at`.
    ///
    /// The link is a *fluid queue*: backlog drains at the configured
    /// bandwidth; a transfer waits behind the backlog present when it
    /// arrives. Unlike a strict busy-until resource, this tolerates
    /// reservations arriving out of timestamp order (concurrent in-flight
    /// requests simulated one after another), which only share bandwidth
    /// rather than strictly serializing.
    pub fn transfer(&mut self, at: SimTime, bytes: u64) -> Transfer {
        // Drain the backlog over the elapsed simulated time. An empty
        // backlog drains to exactly zero, so only the clock moves.
        if at > self.last_time {
            if self.backlog_bytes > 0.0 {
                let elapsed = (at - self.last_time).as_secs_f64();
                self.backlog_bytes = (self.backlog_bytes - elapsed * self.bytes_per_sec).max(0.0);
            }
            self.last_time = at;
        }
        let queue_delay = if self.backlog_bytes > 0.0 {
            Span::from_secs_f64(self.backlog_bytes / self.bytes_per_sec)
        } else {
            Span::ZERO
        };
        if self.last_serialization.0 != bytes {
            self.last_serialization = (bytes, self.serialization(bytes));
        }
        let serialization = self.last_serialization.1;
        self.backlog_bytes += bytes as f64;
        self.bytes_moved = self.bytes_moved.saturating_add(bytes);
        self.transfers += 1;
        self.busy_ps = self.busy_ps.saturating_add(serialization.as_ps());
        self.queue_ps = self.queue_ps.saturating_add(queue_delay.as_ps());
        let depart = at + queue_delay + serialization;
        Transfer { depart, arrive: depart + self.latency }
    }

    /// Total bytes ever pushed through the link.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    /// Number of transfers pushed through the link.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Aggregate serialization time across all transfers.
    pub fn busy_time(&self) -> Span {
        Span::from_ps(self.busy_ps)
    }

    /// Aggregate queueing delay transfers spent waiting behind the backlog.
    pub fn queue_delay_total(&self) -> Span {
        Span::from_ps(self.queue_ps)
    }

    /// Average consumed bandwidth (bytes/sec) over `[SimTime::ZERO, now]`.
    pub fn consumed_bandwidth(&self, now: SimTime) -> f64 {
        let secs = now.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.bytes_moved as f64 / secs
        }
    }

    /// The instant the current backlog fully drains.
    pub fn next_free(&self) -> SimTime {
        self.last_time + Span::from_secs_f64(self.backlog_bytes / self.bytes_per_sec)
    }

    /// Resets occupancy and all counters.
    pub fn reset(&mut self) {
        self.backlog_bytes = 0.0;
        self.last_time = SimTime::ZERO;
        self.bytes_moved = 0;
        self.transfers = 0;
        self.busy_ps = 0;
        self.queue_ps = 0;
    }
}

/// A fixed per-operation issue-rate limiter.
///
/// Models resources whose constraint is *operations per second* rather than
/// bytes per second — e.g. the Rambda prototype's 400 MHz soft coherence
/// controller, which issues memory requests serially (Sec. V of the paper).
///
/// ```
/// use rambda_des::{Throttle, SimTime, Span};
/// let mut t = Throttle::new(Span::from_ns(10));
/// assert_eq!(t.admit(SimTime::ZERO), SimTime::ZERO);
/// assert_eq!(t.admit(SimTime::ZERO), SimTime::from_ns(10));
/// ```
#[derive(Debug, Clone)]
pub struct Throttle {
    gap: Span,
    /// `gap` in seconds, the divisor of every drain.
    gap_secs: f64,
    /// Fluid-queue state: operations admitted but not yet drained.
    backlog_ops: f64,
    last_time: SimTime,
    admitted: u64,
    delay_ps: u64,
}

impl Throttle {
    /// Creates a throttle admitting one operation per `gap`.
    pub fn new(gap: Span) -> Self {
        Throttle {
            gap,
            gap_secs: gap.as_secs_f64(),
            backlog_ops: 0.0,
            last_time: SimTime::ZERO,
            admitted: 0,
            delay_ps: 0,
        }
    }

    /// Creates a throttle from an operations-per-second rate.
    ///
    /// # Panics
    ///
    /// Panics if `ops_per_sec` is not strictly positive and finite.
    pub fn from_rate(ops_per_sec: f64) -> Self {
        assert!(
            ops_per_sec.is_finite() && ops_per_sec > 0.0,
            "throttle rate must be positive, got {ops_per_sec}"
        );
        Throttle::new(Span::from_secs_f64(1.0 / ops_per_sec))
    }

    /// The minimum gap between admitted operations.
    pub fn gap(&self) -> Span {
        self.gap
    }

    /// Admits one operation at or after `at`; returns the admit time.
    ///
    /// Like [`Link`], the throttle is a fluid queue tolerant of
    /// out-of-timestamp-order admissions.
    pub fn admit(&mut self, at: SimTime) -> SimTime {
        if self.gap.is_zero() {
            self.admitted += 1;
            return at;
        }
        // As in `Link::transfer`, an empty backlog stays empty and starts
        // the operation on arrival.
        if at > self.last_time {
            if self.backlog_ops > 0.0 {
                let elapsed = (at - self.last_time).as_secs_f64();
                self.backlog_ops = (self.backlog_ops - elapsed / self.gap_secs).max(0.0);
            }
            self.last_time = at;
        }
        let start = if self.backlog_ops > 0.0 { at + self.gap.mul_f64(self.backlog_ops) } else { at };
        self.backlog_ops += 1.0;
        self.admitted += 1;
        self.delay_ps = self.delay_ps.saturating_add((start - at).as_ps());
        start
    }

    /// Number of operations admitted so far.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Aggregate admission delay (admit time − arrival) across operations.
    pub fn admit_delay_total(&self) -> Span {
        Span::from_ps(self.delay_ps)
    }

    /// Resets occupancy and the counters.
    pub fn reset(&mut self) {
        self.backlog_ops = 0.0;
        self.last_time = SimTime::ZERO;
        self.admitted = 0;
        self.delay_ps = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_queues_in_fifo_order() {
        let mut s = Server::new(1);
        let hold = Span::from_ns(10);
        assert_eq!(s.acquire(SimTime::ZERO, hold), SimTime::ZERO);
        assert_eq!(s.acquire(SimTime::ZERO, hold), SimTime::from_ns(10));
        assert_eq!(s.acquire(SimTime::from_ns(5), hold), SimTime::from_ns(20));
        // Arrival after the backlog drains starts immediately.
        assert_eq!(s.acquire(SimTime::from_ns(100), hold), SimTime::from_ns(100));
    }

    #[test]
    fn server_parallel_units() {
        let mut s = Server::new(3);
        let hold = Span::from_ns(10);
        for _ in 0..3 {
            assert_eq!(s.acquire(SimTime::ZERO, hold), SimTime::ZERO);
        }
        assert_eq!(s.acquire(SimTime::ZERO, hold), SimTime::from_ns(10));
        assert_eq!(s.units(), 3);
    }

    #[test]
    fn server_reset() {
        let mut s = Server::new(1);
        s.acquire(SimTime::ZERO, Span::from_us(10));
        s.reset();
        assert_eq!(s.acquire(SimTime::ZERO, Span::ZERO), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one unit")]
    fn server_zero_units_panics() {
        let _ = Server::new(0);
    }

    /// Servers above the linear-scan threshold use the heap free list;
    /// behavior must be indistinguishable from the flat variant.
    #[test]
    fn large_server_matches_small_semantics() {
        let units = 256;
        let mut s = Server::new(units);
        let hold = Span::from_ns(10);
        for _ in 0..units {
            assert_eq!(s.acquire(SimTime::ZERO, hold), SimTime::ZERO);
        }
        // All units busy until 10ns: the next wave queues behind them.
        for _ in 0..units {
            assert_eq!(s.acquire(SimTime::ZERO, hold), SimTime::from_ns(10));
        }
        assert_eq!(s.earliest_free(), SimTime::from_ns(20));
        s.reset();
        assert_eq!(s.earliest_free(), SimTime::ZERO);
        assert_eq!(s.acquire(SimTime::ZERO, Span::ZERO), SimTime::ZERO);
    }

    #[test]
    fn link_serializes_back_to_back() {
        let mut l = Link::new(1.0e9, Span::from_ns(50));
        let a = l.transfer(SimTime::ZERO, 500);
        let b = l.transfer(SimTime::ZERO, 500);
        assert_eq!(a.depart, SimTime::from_ns(500));
        assert_eq!(b.depart, SimTime::from_ns(1000));
        assert_eq!(b.arrive, SimTime::from_ns(1050));
        assert_eq!(l.bytes_moved(), 1000);
    }

    #[test]
    fn link_idle_gap_is_not_charged() {
        let mut l = Link::new(1.0e9, Span::ZERO);
        l.transfer(SimTime::ZERO, 100);
        let t = l.transfer(SimTime::from_us(5), 100);
        assert_eq!(t.depart, SimTime::from_us(5) + Span::from_ns(100));
    }

    #[test]
    fn link_consumed_bandwidth() {
        let mut l = Link::new(1.0e9, Span::ZERO);
        l.transfer(SimTime::ZERO, 1_000_000);
        let bw = l.consumed_bandwidth(SimTime::from_us(1_000));
        assert!((bw - 1.0e9).abs() / 1.0e9 < 1e-9, "bw={bw}");
        assert_eq!(l.consumed_bandwidth(SimTime::ZERO), 0.0);
    }

    #[test]
    fn throttle_enforces_gap() {
        let mut t = Throttle::from_rate(1.0e8); // one per 10ns
        assert_eq!(t.gap(), Span::from_ns(10));
        assert_eq!(t.admit(SimTime::ZERO), SimTime::ZERO);
        assert_eq!(t.admit(SimTime::from_ns(3)), SimTime::from_ns(10));
        assert_eq!(t.admit(SimTime::from_ns(40)), SimTime::from_ns(40));
        assert_eq!(t.admitted(), 3);
    }

    #[test]
    fn server_counts_busy_and_wait() {
        let mut s = Server::new(1);
        let hold = Span::from_ns(10);
        s.acquire(SimTime::ZERO, hold); // starts at 0, no wait
        s.acquire(SimTime::ZERO, hold); // starts at 10, waits 10
        assert_eq!(s.acquisitions(), 2);
        assert_eq!(s.busy_time(), Span::from_ns(20));
        assert_eq!(s.queue_wait(), Span::from_ns(10));
        s.reset();
        assert_eq!(s.acquisitions(), 0);
        assert_eq!(s.busy_time(), Span::ZERO);
        assert_eq!(s.queue_wait(), Span::ZERO);
    }

    #[test]
    fn link_counts_transfers_and_queueing() {
        let mut l = Link::new(1.0e9, Span::ZERO);
        l.transfer(SimTime::ZERO, 1000); // 1us serialization, no queue
        l.transfer(SimTime::ZERO, 1000); // queues behind the first
        assert_eq!(l.transfers(), 2);
        assert_eq!(l.busy_time(), Span::from_us(2));
        assert_eq!(l.queue_delay_total(), Span::from_us(1));
        l.reset();
        assert_eq!(l.transfers(), 0);
        assert_eq!(l.busy_time(), Span::ZERO);
    }

    #[test]
    fn throttle_counts_admit_delay() {
        let mut t = Throttle::new(Span::from_ns(10));
        t.admit(SimTime::ZERO); // immediate
        t.admit(SimTime::ZERO); // delayed 10ns
        assert_eq!(t.admit_delay_total(), Span::from_ns(10));
        t.reset();
        assert_eq!(t.admit_delay_total(), Span::ZERO);
    }

    #[test]
    fn zero_gap_throttle_has_no_delay() {
        let mut t = Throttle::new(Span::ZERO);
        t.admit(SimTime::ZERO);
        t.admit(SimTime::ZERO);
        assert_eq!(t.admitted(), 2);
        assert_eq!(t.admit_delay_total(), Span::ZERO);
    }

    #[test]
    fn reset_clears_state() {
        let mut l = Link::new(1.0e9, Span::ZERO);
        l.transfer(SimTime::ZERO, 100);
        l.reset();
        assert_eq!(l.bytes_moved(), 0);
        assert_eq!(l.next_free(), SimTime::ZERO);
        let mut l2 = Link::new(1.0e9, Span::ZERO);
        l2.transfer(SimTime::ZERO, 1000);
        assert_eq!(l2.next_free(), SimTime::from_ns(1000));

        let mut th = Throttle::new(Span::from_ns(10));
        th.admit(SimTime::ZERO);
        th.reset();
        assert_eq!(th.admitted(), 0);
    }

    // Differential exactness: `Link` and `Throttle` against the formulas
    // they had before their fast paths (serialization memo, zero-backlog
    // shortcuts, the inline rounding in `Span`). Equal means equal bits,
    // internal backlog included.

    /// `Span::from_secs_f64` with the libm rounding it used to call.
    fn reference_span(secs: f64) -> Span {
        assert!(secs.is_finite() && secs >= 0.0);
        Span::from_ps((secs * 1e12).round() as u64)
    }

    /// The original `Link::transfer` recurrence.
    struct ReferenceLink {
        bytes_per_sec: f64,
        latency: Span,
        backlog_bytes: f64,
        last_time: SimTime,
        bytes_moved: u64,
        transfers: u64,
        busy_ps: u64,
        queue_ps: u64,
    }

    impl ReferenceLink {
        fn new(bytes_per_sec: f64, latency: Span) -> Self {
            ReferenceLink {
                bytes_per_sec,
                latency,
                backlog_bytes: 0.0,
                last_time: SimTime::ZERO,
                bytes_moved: 0,
                transfers: 0,
                busy_ps: 0,
                queue_ps: 0,
            }
        }

        fn serialization(&self, bytes: u64) -> Span {
            reference_span(bytes as f64 / self.bytes_per_sec)
        }

        fn transfer(&mut self, at: SimTime, bytes: u64) -> Transfer {
            if at > self.last_time {
                let elapsed = (at - self.last_time).as_secs_f64();
                self.backlog_bytes = (self.backlog_bytes - elapsed * self.bytes_per_sec).max(0.0);
                self.last_time = at;
            }
            let queue_delay = reference_span(self.backlog_bytes / self.bytes_per_sec);
            self.backlog_bytes += bytes as f64;
            self.bytes_moved = self.bytes_moved.saturating_add(bytes);
            self.transfers += 1;
            self.busy_ps = self.busy_ps.saturating_add(self.serialization(bytes).as_ps());
            self.queue_ps = self.queue_ps.saturating_add(queue_delay.as_ps());
            let depart = at + queue_delay + self.serialization(bytes);
            Transfer { depart, arrive: depart + self.latency }
        }

        fn next_free(&self) -> SimTime {
            self.last_time + reference_span(self.backlog_bytes / self.bytes_per_sec)
        }
    }

    /// The original `Throttle::admit` recurrence.
    struct ReferenceThrottle {
        gap: Span,
        backlog_ops: f64,
        last_time: SimTime,
        admitted: u64,
        delay_ps: u64,
    }

    impl ReferenceThrottle {
        fn new(gap: Span) -> Self {
            ReferenceThrottle { gap, backlog_ops: 0.0, last_time: SimTime::ZERO, admitted: 0, delay_ps: 0 }
        }

        fn admit(&mut self, at: SimTime) -> SimTime {
            if self.gap.is_zero() {
                self.admitted += 1;
                return at;
            }
            if at > self.last_time {
                let elapsed = (at - self.last_time).as_secs_f64();
                self.backlog_ops = (self.backlog_ops - elapsed / self.gap.as_secs_f64()).max(0.0);
                self.last_time = at;
            }
            let factor = self.backlog_ops;
            let start = at + Span::from_ps((self.gap.as_ps() as f64 * factor).round() as u64);
            self.backlog_ops += 1.0;
            self.admitted += 1;
            self.delay_ps = self.delay_ps.saturating_add((start - at).as_ps());
            start
        }
    }

    /// The workspace's configured link bandwidths (cc-link, PCIe, 25 GbE,
    /// DRAM, NVM, accelerator DDR/HBM, NIC DRAM, DLRM gather rooflines).
    const BANDWIDTHS: [f64; 11] =
        [20.8e9, 16.0e9, 25.0e9 / 8.0, 120.0e9, 39.0e9, 13.0e9, 36.0e9, 425.0e9, 25.6e9, 6.5e9, 1.0e9];

    /// The workspace's configured issue gaps, plus zero.
    fn gaps() -> [Span; 7] {
        [
            Span::from_ns_f64(2.5),
            Span::from_ns(48),
            Span::from_ns_f64(0.5),
            Span::from_ns(6),
            Span::from_ns(10),
            Span::from_ps(1),
            Span::ZERO,
        ]
    }

    /// Next arrival in a differential sequence: forward, backward (out of
    /// order), the same instant, exactly when the backlog drains, or just
    /// around that instant.
    fn next_at(prev: SimTime, drains_at: SimTime, kind: u8, delta: u64) -> SimTime {
        match kind % 6 {
            0 => prev + Span::from_ps(delta),
            1 => prev - Span::from_ps(delta),
            2 => prev,
            3 => drains_at,
            4 => drains_at + Span::from_ps(delta % 8),
            _ => drains_at - Span::from_ps(delta % 8),
        }
    }

    /// Transfer sizes: zero, the gather's fixed 16 B and 64 B, a 256 B row,
    /// or anything up to 1 MB.
    fn pick_bytes(choice: u64) -> u64 {
        match choice % 6 {
            0 => 0,
            1 | 2 => 16,
            3 => 64,
            4 => 256,
            _ => choice % 1_000_000,
        }
    }

    fn assert_link_matches(fast: &Link, reference: &ReferenceLink) {
        assert_eq!(fast.backlog_bytes.to_bits(), reference.backlog_bytes.to_bits());
        assert_eq!(fast.last_time, reference.last_time);
        assert_eq!(fast.bytes_moved(), reference.bytes_moved);
        assert_eq!(fast.transfers(), reference.transfers);
        assert_eq!(fast.busy_time().as_ps(), reference.busy_ps);
        assert_eq!(fast.queue_delay_total().as_ps(), reference.queue_ps);
        assert_eq!(fast.next_free(), reference.next_free());
    }

    fn assert_throttle_matches(fast: &Throttle, reference: &ReferenceThrottle) {
        assert_eq!(fast.backlog_ops.to_bits(), reference.backlog_ops.to_bits());
        assert_eq!(fast.last_time, reference.last_time);
        assert_eq!(fast.admitted(), reference.admitted);
        assert_eq!(fast.admit_delay_total().as_ps(), reference.delay_ps);
    }

    /// Runs one `(kind, delta, bytes)` sequence through both links.
    fn check_link(bw: f64, latency: Span, steps: &[(u8, u64, u64)]) {
        let mut fast = Link::new(bw, latency);
        let mut reference = ReferenceLink::new(bw, latency);
        let mut at = SimTime::from_ns(1);
        for &(kind, delta, choice) in steps {
            at = next_at(at, reference.next_free(), kind, delta);
            let bytes = pick_bytes(choice);
            assert_eq!(fast.serialization(bytes), reference.serialization(bytes), "bw {bw}, {bytes} B");
            assert_eq!(
                fast.transfer(at, bytes),
                reference.transfer(at, bytes),
                "bw {bw}, {bytes} B at {at:?}"
            );
            assert_link_matches(&fast, &reference);
        }
        fast.reset();
        reference = ReferenceLink::new(bw, latency);
        assert_link_matches(&fast, &reference);
        // The serialization memo survives the reset and stays exact.
        for &(_, _, choice) in steps.iter().take(8) {
            let bytes = pick_bytes(choice);
            assert_eq!(fast.transfer(at, bytes), reference.transfer(at, bytes));
        }
        assert_link_matches(&fast, &reference);
    }

    /// Runs one `(kind, delta)` sequence through both throttles.
    fn check_throttle(gap: Span, steps: &[(u8, u64, u64)]) {
        let mut fast = Throttle::new(gap);
        let mut reference = ReferenceThrottle::new(gap);
        let mut at = SimTime::from_ns(1);
        for &(kind, delta, _) in steps {
            let drains_at = reference.last_time
                + Span::from_ps((gap.as_ps() as f64 * reference.backlog_ops).round() as u64);
            at = next_at(at, drains_at, kind, delta);
            assert_eq!(fast.admit(at), reference.admit(at), "gap {gap:?} at {at:?}");
            assert_throttle_matches(&fast, &reference);
        }
    }

    proptest::proptest! {
        #[test]
        fn link_fast_path_equals_reference(
            steps in proptest::collection::vec((0u8..6, 0u64..200_000, proptest::prelude::any::<u64>()), 1..400),
            which in 0usize..12,
            random_bw in 1.0e6f64..5.0e11,
            latency_ps in 0u64..1_000_000,
        ) {
            let bw = BANDWIDTHS.get(which).copied().unwrap_or(random_bw);
            check_link(bw, Span::from_ps(latency_ps), &steps);
        }

        #[test]
        fn throttle_fast_path_equals_reference(
            steps in proptest::collection::vec((0u8..6, 0u64..200_000, 0u64..1), 1..400),
            which in 0usize..8,
            random_gap_ps in 1u64..1_000_000,
        ) {
            let gap = gaps().get(which).copied().unwrap_or(Span::from_ps(random_gap_ps));
            check_throttle(gap, &steps);
        }
    }

    /// A long gather-shaped stream: bursts of 16 B requests and 64 B lines
    /// issued at one instant per row, rows arriving a little out of order,
    /// with idle gaps that drain the queues to zero, on the cc-link and the
    /// DRAM channel.
    #[test]
    fn gather_stream_equals_reference() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut steps = Vec::with_capacity(200_000);
        for _ in 0..200_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let (kind, delta) = match x % 16 {
                0 => (0, (x >> 8) % 2_000_000), // an idle gap, often long enough to drain
                1 => (1, (x >> 8) % 60_000),    // an earlier row
                2..=9 => (2, 0),                // another line of the same row
                10 => (3, 0),                   // exactly when the backlog drains
                _ => (0, (x >> 8) % 60_000),    // the next row
            };
            let bytes = if x.is_multiple_of(3) { 1 } else { 3 };
            steps.push((kind, delta, bytes));
        }
        for bw in [20.8e9, 120.0e9] {
            check_link(bw, Span::from_ns(70), &steps);
        }
        check_throttle(Span::from_ns(48), &steps);
        check_throttle(Span::from_ns_f64(2.5), &steps);
    }
}
