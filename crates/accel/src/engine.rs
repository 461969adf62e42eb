//! The accelerator engine: shared infrastructure blocks and their timing.

use rambda_coherence::{CcConfig, CcInterconnect, Notifier};
use rambda_des::{Server, SimRng, SimTime, Span, Throttle};
use rambda_mem::{AccessKind, MemKind, MemReq, MemorySystem};
use rambda_metrics::MetricSet;
use serde::{Deserialize, Serialize};

/// Where the application's data lives, from the accelerator's perspective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DataLocation {
    /// Host DRAM across the cc-interconnect (the prototype).
    HostDram,
    /// Host NVM across the cc-interconnect (Rambda-Tx).
    HostNvm,
    /// Accelerator-local DDR4 (Rambda-LD).
    LocalDdr,
    /// Accelerator-local HBM2 (Rambda-LH).
    LocalHbm,
}

impl DataLocation {
    /// Whether accesses cross the cc-interconnect.
    pub fn is_host(self) -> bool {
        matches!(self, DataLocation::HostDram | DataLocation::HostNvm)
    }

    /// The memory medium behind this location.
    pub fn mem_kind(self) -> MemKind {
        match self {
            DataLocation::HostDram => MemKind::Dram,
            DataLocation::HostNvm => MemKind::Nvm,
            DataLocation::LocalDdr => MemKind::AccelDdr,
            DataLocation::LocalHbm => MemKind::AccelHbm,
        }
    }
}

/// Accelerator configuration (defaults = the prototype in Tab. II / Sec. V).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AccelConfig {
    /// cc-interconnect + coherence-controller parameters.
    pub cc: CcConfig,
    /// Outstanding-request slots in the table-based FSM (256 in Sec. V).
    pub outstanding: usize,
    /// Where application data lives.
    pub location: DataLocation,
    /// Notification mechanism (cpoll by default).
    pub notifier: Notifier,
    /// One ALU operation (hash step, comparison, aggregation step).
    pub alu_op: Span,
    /// Effective issue gap of the pipelined local DDR4 controller
    /// ([`DataLocation::LocalDdr`]).
    pub local_issue_gap: Span,
    /// Effective issue gap of the many-channel HBM2 controllers
    /// ([`DataLocation::LocalHbm`]).
    pub hbm_issue_gap: Span,
    /// Fixed per-request scheduler + FSM bookkeeping overhead.
    pub dispatch_overhead: Span,
}

impl Default for AccelConfig {
    fn default() -> Self {
        AccelConfig {
            cc: CcConfig::default(),
            outstanding: 256,
            location: DataLocation::HostDram,
            notifier: Notifier::Cpoll,
            alu_op: Span::from_ns(5),
            local_issue_gap: Span::from_ns_f64(1.1),
            hbm_issue_gap: Span::from_ns_f64(1.5),
            dispatch_overhead: Span::from_ns(20),
        }
    }
}

impl AccelConfig {
    /// Prototype configuration with data in host memory of `kind`.
    pub fn prototype(location: DataLocation) -> Self {
        AccelConfig { location, ..AccelConfig::default() }
    }

    /// The spin-polling ablation variant ("Rambda-polling" in Fig. 7).
    pub fn with_spin_polling(mut self) -> Self {
        self.notifier = Notifier::spin_poll_default();
        self
    }
}

/// Counters for the accelerator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccelStats {
    /// Requests fully processed.
    pub requests: u64,
    /// Memory operations issued by the APU.
    pub mem_ops: u64,
    /// Bytes moved for the APU (all media).
    pub mem_bytes: u64,
    /// ALU operations executed.
    pub alu_ops: u64,
    /// Notifications delivered.
    pub notifications: u64,
}

/// The accelerator's shared infrastructure.
#[derive(Debug, Clone)]
pub struct AccelEngine {
    cfg: AccelConfig,
    cc: CcInterconnect,
    slots: Server,
    local_issue: Throttle,
    stats: AccelStats,
}

impl AccelEngine {
    /// Creates an engine from a configuration.
    pub fn new(cfg: AccelConfig) -> Self {
        let local_gap = match cfg.location {
            DataLocation::LocalHbm => cfg.hbm_issue_gap,
            _ => cfg.local_issue_gap,
        };
        AccelEngine {
            cc: CcInterconnect::new(cfg.cc.clone()),
            slots: Server::new(cfg.outstanding),
            local_issue: Throttle::new(local_gap),
            cfg,
            stats: AccelStats::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &AccelConfig {
        &self.cfg
    }

    /// Counters.
    pub fn stats(&self) -> &AccelStats {
        &self.stats
    }

    /// The cc-interconnect (for bandwidth inspection).
    pub fn cc(&self) -> &CcInterconnect {
        &self.cc
    }

    /// Publishes the engine's counters under `prefix`: the APU stats, the
    /// cc-interconnect traffic, the outstanding-request slots, and the
    /// local-memory issue throttle.
    pub fn publish_metrics(&self, m: &mut MetricSet, prefix: &str) {
        m.set(&format!("{prefix}.requests"), self.stats.requests);
        m.set(&format!("{prefix}.mem_ops"), self.stats.mem_ops);
        m.set(&format!("{prefix}.mem_bytes"), self.stats.mem_bytes);
        m.set(&format!("{prefix}.alu_ops"), self.stats.alu_ops);
        m.set(&format!("{prefix}.notifications"), self.stats.notifications);
        m.set(&format!("{prefix}.cc.bytes"), self.cc.bytes_moved());
        m.observe_server(&format!("{prefix}.slots"), &self.slots);
        m.observe_throttle(&format!("{prefix}.local_issue"), &self.local_issue);
    }

    /// Computes when a request written to the cpoll region at `written_at`
    /// is discovered by the scheduler (cpoll signal or spin-poll cycle).
    pub fn discover(&mut self, written_at: SimTime, monitored_rings: usize, rng: &mut SimRng) -> SimTime {
        self.stats.notifications += 1;
        let cost = self.cfg.notifier.discover(written_at, &mut self.cc, monitored_rings, rng);
        cost.discovered_at
    }

    /// Claims an outstanding-request slot for a request arriving at
    /// `arrival`; returns when processing may start (slot free + dispatch
    /// overhead). Pair with [`release_slot`](Self::release_slot).
    pub fn claim_slot(&mut self, arrival: SimTime) -> SimTime {
        self.slots.earliest_free().max(arrival) + self.cfg.dispatch_overhead
    }

    /// Releases the slot claimed at `arrival`, held until `end`.
    pub fn release_slot(&mut self, arrival: SimTime, end: SimTime) {
        // Mirror `claim_slot`'s start computation, then occupy the unit
        // until `end`.
        let start = self.slots.earliest_free().max(arrival);
        let hold = end.saturating_since(start);
        let _ = self.slots.acquire(arrival, hold);
        self.stats.requests += 1;
    }

    /// One APU memory access (read or write) of `bytes` starting at `at`.
    /// Returns the completion time.
    ///
    /// Host-resident data pays the coherence controller's serial issue gap,
    /// one interconnect hop each way, and the host media time; local data
    /// pays the local controller gap and the local media time.
    pub fn mem_access(&mut self, at: SimTime, bytes: u64, write: bool, mem: &mut MemorySystem) -> SimTime {
        self.stats.mem_ops += 1;
        self.stats.mem_bytes += bytes;
        let kind = self.cfg.location.mem_kind();
        let access = if write { AccessKind::Write } else { AccessKind::Read };
        if self.cfg.location.is_host() {
            if write {
                // Write: payload crosses the link, then commits at the media.
                let at_host = self.cc.accel_request(at, bytes);
                mem.access(at_host, MemReq { kind, access, bytes })
            } else {
                // Read: small request crosses, data returns over the link.
                let at_host = self.cc.accel_request(at, 16);
                let data_ready = mem.access(at_host, MemReq { kind, access, bytes });
                self.cc.toward_accel(data_ready, bytes)
            }
        } else {
            let issued = self.local_issue.admit(at);
            mem.access(issued, MemReq { kind, access, bytes })
        }
    }

    /// `n` *dependent* reads of `bytes` each (pointer chase): latencies
    /// accumulate serially.
    pub fn read_chain(&mut self, at: SimTime, n: usize, bytes: u64, mem: &mut MemorySystem) -> SimTime {
        let mut t = at;
        for _ in 0..n {
            t = self.mem_access(t, bytes, false, mem);
        }
        t
    }

    /// `n` *independent* reads of `bytes` each (the FSM keeps them all in
    /// flight): issue serializes at the controller, completions overlap;
    /// returns when the last one lands.
    pub fn read_fanout(&mut self, at: SimTime, n: usize, bytes: u64, mem: &mut MemorySystem) -> SimTime {
        let mut last = at;
        for _ in 0..n {
            let done = self.mem_access(at, bytes, false, mem);
            last = last.max(done);
        }
        last
    }

    /// Gathers `rows` independent objects of `row_bytes` each (e.g. DLRM
    /// embedding rows): each object is fetched as 64 B lines through the
    /// controller's slow gather path for host-resident data, or the local
    /// memory controller for accelerator-local data. Returns when the last
    /// row lands.
    pub fn gather(&mut self, at: SimTime, rows: usize, row_bytes: u64, mem: &mut MemorySystem) -> SimTime {
        let kind = self.cfg.location.mem_kind();
        let lines = row_bytes.div_ceil(64).max(1);
        let mut last = at;
        for _ in 0..rows {
            self.stats.mem_ops += 1;
            self.stats.mem_bytes += row_bytes;
            if self.cfg.location.is_host() {
                let mut line_done = at;
                for _ in 0..lines {
                    let at_host = self.cc.accel_gather_line(at, 16);
                    let ready = mem.access(at_host, MemReq { kind, access: AccessKind::Read, bytes: 64 });
                    line_done = self.cc.toward_accel(ready, 64);
                }
                last = last.max(line_done);
            } else {
                // Local memory controllers burst the whole row.
                let issued = self.local_issue.admit(at);
                let done = mem.access(issued, MemReq { kind, access: AccessKind::Read, bytes: row_bytes });
                last = last.max(done);
            }
        }
        last
    }

    /// `n` ALU operations.
    pub fn compute(&mut self, at: SimTime, n: u64) -> SimTime {
        self.stats.alu_ops += n;
        at + self.cfg.alu_op * n
    }

    /// The SQ handler assembling and writing one WQE into the connection's
    /// WQ in host memory over the interconnect. Doorbell cost is charged by
    /// the RNIC model on `post`.
    pub fn sq_write_wqe(&mut self, at: SimTime) -> SimTime {
        self.cc.accel_request(at, 64)
    }

    /// Writes a response message of `bytes` into an intra-machine response
    /// ring in host memory (CPU⇄accelerator path of Sec. III-A).
    pub fn ring_write(&mut self, at: SimTime, bytes: u64, mem: &mut MemorySystem) -> SimTime {
        let at_host = self.cc.accel_request(at, bytes);
        mem.access(at_host, MemReq { kind: MemKind::Dram, access: AccessKind::Write, bytes })
    }

    /// Reads a request of `bytes` from a ring in host memory. The cpoll
    /// region is pinned in the local cache, but the *data* was just
    /// invalidated by the producer's write, so it is fetched across the
    /// interconnect.
    pub fn ring_read(&mut self, at: SimTime, bytes: u64, mem: &mut MemorySystem) -> SimTime {
        let at_host = self.cc.accel_request(at, 16);
        let ready = mem.access(at_host, MemReq { kind: MemKind::Dram, access: AccessKind::Read, bytes });
        self.cc.toward_accel(ready, bytes)
    }

    /// Resets all dynamic state (configuration and registrations persist).
    pub fn reset(&mut self) {
        self.cc.reset();
        self.slots.reset();
        self.local_issue.reset();
        self.stats = AccelStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rambda_mem::MemConfig;

    fn engine(location: DataLocation) -> (AccelEngine, MemorySystem) {
        (AccelEngine::new(AccelConfig::prototype(location)), MemorySystem::new(MemConfig::default(), true))
    }

    #[test]
    fn host_read_pays_link_and_media() {
        let (mut e, mut mem) = engine(DataLocation::HostDram);
        let t = e.mem_access(SimTime::ZERO, 64, false, &mut mem);
        // gap(15 implicit 0 first) + hop 70 + dram 90 + hop 70 ≈ 230ns+.
        let ns = t.as_ns_f64();
        assert!((220.0..260.0).contains(&ns), "{ns}");
    }

    #[test]
    fn local_read_is_cheaper_than_host_read() {
        let (mut eh, mut memh) = engine(DataLocation::HostDram);
        let (mut el, mut meml) = engine(DataLocation::LocalDdr);
        let th = eh.mem_access(SimTime::ZERO, 64, false, &mut memh);
        let tl = el.mem_access(SimTime::ZERO, 64, false, &mut meml);
        assert!(tl < th, "local {tl} vs host {th}");
    }

    #[test]
    fn chain_is_serial_fanout_overlaps() {
        let (mut e, mut mem) = engine(DataLocation::HostDram);
        let chain = e.read_chain(SimTime::ZERO, 8, 64, &mut mem);
        let (mut e2, mut mem2) = engine(DataLocation::HostDram);
        let fanout = e2.read_fanout(SimTime::ZERO, 8, 64, &mut mem2);
        assert!(chain.as_ns_f64() > 2.0 * fanout.as_ns_f64(), "chain {chain} fanout {fanout}");
    }

    #[test]
    fn fanout_issue_is_limited_by_controller_gap() {
        let (mut e, mut mem) = engine(DataLocation::HostDram);
        let n = 2048;
        let t = e.read_fanout(SimTime::ZERO, n, 64, &mut mem);
        // Issue alone takes n * 2.5ns = 5.12us; the last completes one
        // round-trip after its issue slot.
        assert!(t.as_us_f64() > 5.1, "{}", t.as_us_f64());
    }

    #[test]
    fn local_hbm_fanout_beats_host_fanout() {
        let (mut eh, mut memh) = engine(DataLocation::HostDram);
        let (mut el, mut meml) = engine(DataLocation::LocalHbm);
        let th = eh.read_fanout(SimTime::ZERO, 64, 64, &mut memh);
        let tl = el.read_fanout(SimTime::ZERO, 64, 64, &mut meml);
        assert!(tl < th);
    }

    #[test]
    fn compute_charges_alu() {
        let (mut e, _) = engine(DataLocation::HostDram);
        let t = e.compute(SimTime::ZERO, 10);
        assert_eq!(t, SimTime::ZERO + Span::from_ns(50));
        assert_eq!(e.stats().alu_ops, 10);
    }

    #[test]
    fn slots_gate_concurrency() {
        let cfg = AccelConfig { outstanding: 1, dispatch_overhead: Span::ZERO, ..AccelConfig::default() };
        let mut e = AccelEngine::new(cfg);
        let s1 = e.claim_slot(SimTime::ZERO);
        assert_eq!(s1, SimTime::ZERO);
        e.release_slot(SimTime::ZERO, SimTime::from_ns(500));
        let s2 = e.claim_slot(SimTime::ZERO);
        assert_eq!(s2, SimTime::from_ns(500));
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let (mut e, mut mem) = engine(DataLocation::HostDram);
        e.mem_access(SimTime::ZERO, 64, true, &mut mem);
        e.compute(SimTime::ZERO, 1);
        assert_eq!(e.stats().mem_ops, 1);
        assert_eq!(e.stats().mem_bytes, 64);
        e.reset();
        assert_eq!(*e.stats(), AccelStats::default());
    }

    #[test]
    fn ring_round_trip() {
        let (mut e, mut mem) = engine(DataLocation::HostDram);
        let read = e.ring_read(SimTime::ZERO, 128, &mut mem);
        let written = e.ring_write(read, 128, &mut mem);
        assert!(written > read);
        assert!(read.as_ns_f64() > 200.0);
    }
}
