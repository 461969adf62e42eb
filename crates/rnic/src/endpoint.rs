//! Per-machine RNIC state: regions, pipelines, doorbells.

use rambda_des::{SimTime, Span, Throttle};
use rambda_fabric::{NodeId, PcieConfig, PcieLink};
use rambda_mem::{DmaRoute, MemKind, MemorySystem};
use serde::{Deserialize, Serialize};

/// A registered memory region key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MrKey(pub u32);

/// A registered memory region: where it lives and whether inbound RDMA
/// writes to it should set the TPH bit (the adaptive-DDIO knob of Fig. 6:
/// TPH for DRAM regions, not for NVM regions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MrInfo {
    /// The medium backing the region.
    pub dest: MemKind,
    /// Whether the RNIC sets TPH on writes into this region.
    pub tph: bool,
}

impl MrInfo {
    /// The adaptive policy the paper proposes: steer DRAM-backed regions
    /// into the LLC, let NVM-backed regions bypass it.
    pub fn adaptive(dest: MemKind) -> MrInfo {
        MrInfo { dest, tph: matches!(dest, MemKind::Dram) }
    }
}

/// How WQEs reach the NIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PostPath {
    /// Host CPU writes WQEs to the SQ and rings the doorbell via MMIO.
    HostMmio,
    /// The cc-accelerator's SQ handler writes WQEs to the SQ (in host
    /// memory, over the cc-interconnect — charged by the caller) and rings
    /// the doorbell via MMIO. The paper notes MMIO + `sfence` from the
    /// accelerator is relatively expensive, which doorbell batching
    /// amortizes (Sec. VI-B).
    AccelMmio,
}

/// Loss-recovery parameters for the per-QP retransmission machinery.
///
/// The RC transport detects a lost frame by retransmission timeout and a
/// corrupted frame by the receiver's NACK; either way the sender backs off
/// and re-emits from its retry buffer, doubling the timeout per consecutive
/// loss of the same WQE up to [`RetryPolicy::max_timeout`], and abandons the
/// operation with an error completion after [`RetryPolicy::max_retries`]
/// retransmissions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Retransmissions allowed per operation before it completes in error
    /// (the initial transmission is not counted).
    pub max_retries: u32,
    /// Retransmission timeout armed for the first attempt.
    pub base_timeout: Span,
    /// Cap on the exponentially growing timeout.
    pub max_timeout: Span,
    /// Sender-side pause after a NACK before the retransmit is posted
    /// (NACKs arrive on the wire, so no timeout is burned waiting).
    pub nack_backoff: Span,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 7,
            base_timeout: Span::from_us(16),
            max_timeout: Span::from_us(256),
            nack_backoff: Span::from_us(2),
        }
    }
}

impl RetryPolicy {
    /// The timeout armed for attempt `attempt` (0-based): exponential
    /// backoff from [`RetryPolicy::base_timeout`], capped at
    /// [`RetryPolicy::max_timeout`].
    pub fn timeout(&self, attempt: u32) -> Span {
        let scaled = self.base_timeout.as_ps().saturating_mul(1u64 << attempt.min(32));
        Span::from_ps(scaled.min(self.max_timeout.as_ps()))
    }
}

/// RNIC timing parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RnicConfig {
    /// Per-WQE processing time in the NIC pipeline.
    pub wqe_gap: Span,
    /// Bytes DMA-fetched per WQE from the send queue.
    pub wqe_bytes: u64,
    /// Extra cost of an accelerator-issued doorbell (`sfence` + slower MMIO
    /// path from the FPGA).
    pub accel_doorbell_extra: Span,
    /// CQE size written back to the host on signaled completions.
    pub cqe_bytes: u64,
    /// Loss-recovery behavior of the RC transport.
    pub retry: RetryPolicy,
}

impl Default for RnicConfig {
    fn default() -> Self {
        RnicConfig {
            wqe_gap: Span::from_ns(25),
            wqe_bytes: 64,
            accel_doorbell_extra: Span::from_ns(100),
            cqe_bytes: 64,
            retry: RetryPolicy::default(),
        }
    }
}

/// Operation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RnicStats {
    /// Doorbell MMIOs observed.
    pub doorbells: u64,
    /// WQEs processed.
    pub wqes: u64,
    /// CQEs delivered to the host.
    pub cqes: u64,
    /// Inbound RDMA writes delivered to memory/LLC.
    pub inbound_writes: u64,
    /// Inbound RDMA reads served from host memory.
    pub inbound_reads: u64,
    /// Frames re-emitted from the retry buffer (after a timeout or NACK).
    pub retransmits: u64,
    /// Losses detected by retransmission timeout (drops and link flaps).
    pub timeouts: u64,
    /// NACKs received for frames that arrived corrupted.
    pub nacks: u64,
    /// Operations abandoned with an error completion at the retry cap.
    pub retries_exhausted: u64,
    /// Cumulative nanoseconds the transport spent stalled in recovery
    /// (timeout waits plus NACK backoff).
    pub backoff_ns: u64,
}

/// One machine's RNIC: PCIe attachment, SQ pipeline, regions, counters.
#[derive(Debug, Clone)]
pub struct RnicEndpoint {
    node: NodeId,
    cfg: RnicConfig,
    pcie: PcieLink,
    pipeline: Throttle,
    regions: Vec<MrInfo>,
    stats: RnicStats,
}

impl RnicEndpoint {
    /// Creates an RNIC for `node`.
    pub fn new(node: NodeId, cfg: RnicConfig, pcie: PcieConfig) -> Self {
        RnicEndpoint {
            node,
            pipeline: Throttle::new(cfg.wqe_gap),
            cfg,
            pcie: PcieLink::new(pcie),
            regions: Vec::new(),
            stats: RnicStats::default(),
        }
    }

    /// The node this RNIC belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The active configuration.
    pub fn config(&self) -> &RnicConfig {
        &self.cfg
    }

    /// Operation counters.
    pub fn stats(&self) -> &RnicStats {
        &self.stats
    }

    /// Publishes the RNIC's counters under `prefix`: operation counts, the
    /// WQE-pipeline throttle, and the PCIe attachment's links.
    pub fn publish_metrics(&self, m: &mut rambda_metrics::MetricSet, prefix: &str) {
        m.set(&format!("{prefix}.doorbells"), self.stats.doorbells);
        m.set(&format!("{prefix}.wqes"), self.stats.wqes);
        m.set(&format!("{prefix}.cqes"), self.stats.cqes);
        m.set(&format!("{prefix}.inbound_writes"), self.stats.inbound_writes);
        m.set(&format!("{prefix}.inbound_reads"), self.stats.inbound_reads);
        m.observe_throttle(&format!("{prefix}.pipeline"), &self.pipeline);
        self.pcie.publish_metrics(m, &format!("{prefix}.pcie"));
        // Recovery counters appear only once recovery has happened, so a
        // healthy-fabric run publishes a byte-identical metric set.
        let s = &self.stats;
        if s.timeouts > 0 || s.nacks > 0 || s.retransmits > 0 || s.retries_exhausted > 0 {
            m.set(&format!("{prefix}.retransmits"), s.retransmits);
            m.set(&format!("{prefix}.timeouts"), s.timeouts);
            m.set(&format!("{prefix}.nacks"), s.nacks);
            m.set(&format!("{prefix}.retries_exhausted"), s.retries_exhausted);
            m.set(&format!("{prefix}.backoff_ns"), s.backoff_ns);
            // The ps mirror makes recovery stall time a first-class busy
            // counter: the report derives a utilization gauge and the
            // timeline a per-window delta series (retransmit-rate curve).
            m.set(&format!("{prefix}.recovery.busy_ps"), s.backoff_ns * 1000);
        }
    }

    /// Registers a memory region.
    pub fn register_region(&mut self, info: MrInfo) -> MrKey {
        self.regions.push(info);
        MrKey(self.regions.len() as u32 - 1)
    }

    /// Looks up a region.
    ///
    /// # Panics
    ///
    /// Panics if `key` was not returned by
    /// [`register_region`](Self::register_region) (protection-domain
    /// violation).
    pub fn region(&self, key: MrKey) -> MrInfo {
        self.regions[key.0 as usize]
    }

    /// Posts `batch` WQEs and rings one doorbell; returns when the NIC has
    /// fetched the WQEs and the *first* one enters the pipeline.
    ///
    /// One doorbell covers the whole chain — the batching optimization; with
    /// `batch == 1` this is the unbatched cost.
    pub fn post(&mut self, at: SimTime, path: PostPath, batch: usize) -> SimTime {
        assert!(batch > 0, "cannot post an empty WQE chain");
        let ring_at = match path {
            PostPath::HostMmio => at,
            PostPath::AccelMmio => at + self.cfg.accel_doorbell_extra,
        };
        let db_seen = self.pcie.mmio_write(ring_at);
        self.stats.doorbells += 1;
        // A single WQE rides inline in the doorbell write (BlueFlame-style);
        // a chain is DMA-fetched from the SQ in host memory.
        let fetched = if batch == 1 {
            db_seen
        } else {
            self.pcie.dma_to_device(db_seen, self.cfg.wqe_bytes * batch as u64)
        };
        self.stats.wqes += batch as u64;
        self.pipeline.admit(fetched)
    }

    /// Admits one more WQE of an already-fetched chain into the pipeline.
    pub fn next_in_pipeline(&mut self, at: SimTime) -> SimTime {
        self.pipeline.admit(at)
    }

    /// Processing cost for an inbound packet before its DMA is issued.
    pub fn rx_process(&mut self, at: SimTime) -> SimTime {
        self.pipeline.admit(at)
    }

    /// Delivers an inbound RDMA write of `bytes` into region `mr`, letting
    /// the region's TPH setting steer it (Sec. III-D). Returns delivery time
    /// and the route taken.
    pub fn deliver_write(
        &mut self,
        at: SimTime,
        mr: MrKey,
        bytes: u64,
        mem: &mut MemorySystem,
    ) -> (SimTime, DmaRoute) {
        let info = self.region(mr);
        let processed = self.rx_process(at);
        let at_host = self.pcie.dma_to_host(processed, bytes);
        self.stats.inbound_writes += 1;
        match info.dest {
            MemKind::Dram | MemKind::Nvm => mem.dma_write(at_host, bytes, info.tph, info.dest),
            // Accelerator-local regions: the DMA crosses into the device
            // memory directly (Rambda-LD/LH); charged as a plain access.
            other => {
                let done = mem.access(
                    at_host,
                    rambda_mem::MemReq { kind: other, access: rambda_mem::AccessKind::Write, bytes },
                );
                (done, DmaRoute::Memory)
            }
        }
    }

    /// Serves an inbound RDMA read of `bytes` from region `mr`: media read,
    /// then DMA back toward the wire. Returns when the data is on the NIC.
    pub fn serve_read(&mut self, at: SimTime, mr: MrKey, bytes: u64, mem: &mut MemorySystem) -> SimTime {
        let info = self.region(mr);
        let processed = self.rx_process(at);
        let req_at_mem = self.pcie.dma_to_device(processed, 32);
        let data_ready = mem.access(
            req_at_mem,
            rambda_mem::MemReq { kind: info.dest, access: rambda_mem::AccessKind::Read, bytes },
        );
        self.stats.inbound_reads += 1;
        self.pcie.dma_to_device(data_ready, bytes)
    }

    /// Writes a CQE back to host memory for a signaled completion.
    pub fn complete(&mut self, at: SimTime, mem: &mut MemorySystem) -> SimTime {
        self.stats.cqes += 1;
        let at_host = self.pcie.dma_to_host(at, self.cfg.cqe_bytes);
        // CQs are DRAM rings and benefit from DDIO/TPH.
        mem.dma_write(at_host, self.cfg.cqe_bytes, true, MemKind::Dram).0
    }

    /// Records a retransmission-timeout detection (lost frame) and the
    /// stall it charges the transport.
    pub fn note_timeout(&mut self, wait: Span) {
        self.stats.timeouts += 1;
        self.stats.backoff_ns += wait.as_ps() / 1000;
    }

    /// Records a NACK received for a corrupted frame and the backoff
    /// charged before the retransmit.
    pub fn note_nack(&mut self, backoff: Span) {
        self.stats.nacks += 1;
        self.stats.backoff_ns += backoff.as_ps() / 1000;
    }

    /// Records one frame re-emitted from the retry buffer.
    pub fn note_retransmit(&mut self) {
        self.stats.retransmits += 1;
    }

    /// Records an operation abandoned at the retry cap.
    pub fn note_exhausted(&mut self) {
        self.stats.retries_exhausted += 1;
    }

    /// Resets pipelines and counters (regions are kept).
    pub fn reset(&mut self) {
        self.pipeline.reset();
        self.pcie.reset();
        self.stats = RnicStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rambda_mem::MemConfig;

    fn endpoint() -> RnicEndpoint {
        RnicEndpoint::new(NodeId(0), RnicConfig::default(), PcieConfig::default())
    }

    fn memory() -> MemorySystem {
        MemorySystem::new(MemConfig::default(), false)
    }

    #[test]
    fn adaptive_region_policy() {
        assert!(MrInfo::adaptive(MemKind::Dram).tph);
        assert!(!MrInfo::adaptive(MemKind::Nvm).tph);
    }

    #[test]
    fn doorbell_batching_amortizes_mmio() {
        // Time for 8 WQEs posted with one doorbell vs eight.
        let mut batched = endpoint();
        let t_batched = batched.post(SimTime::ZERO, PostPath::AccelMmio, 8);
        let mut last = t_batched;
        for _ in 1..8 {
            last = batched.next_in_pipeline(last);
        }
        let batched_total = last;

        let mut unbatched = endpoint();
        let mut t = SimTime::ZERO;
        for _ in 0..8 {
            t = unbatched.post(t, PostPath::AccelMmio, 1);
        }
        assert!(batched_total < t, "batched {batched_total} should beat unbatched {t}");
        assert_eq!(batched.stats().doorbells, 1);
        assert_eq!(unbatched.stats().doorbells, 8);
    }

    #[test]
    fn accel_doorbell_costs_more_than_host() {
        let mut a = endpoint();
        let mut b = endpoint();
        let ta = a.post(SimTime::ZERO, PostPath::AccelMmio, 1);
        let tb = b.post(SimTime::ZERO, PostPath::HostMmio, 1);
        assert!(ta > tb);
    }

    #[test]
    fn inbound_write_respects_region_tph() {
        let mut nic = endpoint();
        let mut mem = memory(); // global DDIO off
        let dram = nic.register_region(MrInfo::adaptive(MemKind::Dram));
        let nvm = nic.register_region(MrInfo::adaptive(MemKind::Nvm));

        let (_, route) = nic.deliver_write(SimTime::ZERO, dram, 1024, &mut mem);
        assert_eq!(route, DmaRoute::Llc);

        let (_, route) = nic.deliver_write(SimTime::ZERO, nvm, 1024, &mut mem);
        assert_eq!(route, DmaRoute::Memory);
        // No write amplification on the direct path.
        assert_eq!(mem.stats().nvm_physical_write_bytes, 1024);
        assert_eq!(nic.stats().inbound_writes, 2);
    }

    #[test]
    fn serve_read_charges_media_and_pcie() {
        let mut nic = endpoint();
        let mut mem = memory();
        let mr = nic.register_region(MrInfo::adaptive(MemKind::Dram));
        let t = nic.serve_read(SimTime::ZERO, mr, 64, &mut mem);
        // PCIe down (700ns) + DRAM (90ns) + PCIe down again (700ns) ≈ 1.5us+.
        assert!(t.as_us_f64() > 1.4, "{}", t.as_us_f64());
        assert_eq!(mem.stats().dram_read_bytes, 64);
    }

    #[test]
    fn cqe_counts_and_lands_in_llc() {
        let mut nic = endpoint();
        let mut mem = memory();
        nic.complete(SimTime::ZERO, &mut mem);
        assert_eq!(nic.stats().cqes, 1);
        assert_eq!(mem.stats().dma_to_llc_bytes, 64);
    }

    #[test]
    #[should_panic(expected = "empty WQE chain")]
    fn empty_post_panics() {
        endpoint().post(SimTime::ZERO, PostPath::HostMmio, 0);
    }

    #[test]
    fn retry_timeout_doubles_and_caps() {
        let p = RetryPolicy::default();
        assert_eq!(p.timeout(0), p.base_timeout);
        assert_eq!(p.timeout(1), Span::from_ps(p.base_timeout.as_ps() * 2));
        assert_eq!(p.timeout(2), Span::from_ps(p.base_timeout.as_ps() * 4));
        assert_eq!(p.timeout(30), p.max_timeout);
        assert_eq!(p.timeout(63), p.max_timeout, "shift must not overflow");
    }

    #[test]
    fn recovery_counters_publish_only_when_nonzero() {
        let mut nic = endpoint();
        let mut m = rambda_metrics::MetricSet::new();
        nic.publish_metrics(&mut m, "nic");
        assert!(m.counter("nic.retransmits").is_none());

        nic.note_timeout(Span::from_us(16));
        nic.note_retransmit();
        nic.note_nack(Span::from_us(2));
        nic.note_retransmit();
        nic.note_exhausted();
        let mut m = rambda_metrics::MetricSet::new();
        nic.publish_metrics(&mut m, "nic");
        assert_eq!(m.counter("nic.retransmits"), Some(2));
        assert_eq!(m.counter("nic.timeouts"), Some(1));
        assert_eq!(m.counter("nic.nacks"), Some(1));
        assert_eq!(m.counter("nic.retries_exhausted"), Some(1));
        assert_eq!(m.counter("nic.backoff_ns"), Some(18_000));
        assert_eq!(m.counter("nic.recovery.busy_ps"), Some(18_000_000));
        nic.reset();
        assert_eq!(nic.stats(), &RnicStats::default());
    }
}
