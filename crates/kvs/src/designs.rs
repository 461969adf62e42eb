//! End-to-end KVS serving experiments (Fig. 8, Fig. 9, Fig. 10, Tab. III).
//!
//! One client machine runs ten client instances; one server machine runs
//! the design under test. 100 M 64 B pairs (~7 GB) are modelled; a smaller
//! functional store executes the actual GET/PUT logic while cache-hit rates
//! use the modelled footprint. Keys follow uniform or Zipf-0.9 popularity;
//! workloads are 100 % GET or 50/50 GET/PUT.

use rambda::{cpu::CpuServer, Design, DriverConfig, Machine, Machines, Req};
use rambda_accel::{AccelEngine, Apu, ApuCtx, DataLocation};
use rambda_des::{Server, SimRng, Span};
use rambda_fabric::{Network, NodeId};
use rambda_mem::{MemKind, MemorySystem};
use rambda_metrics::MetricSet;
use rambda_rnic::{rdma_write, two_sided_send, MrInfo, PostFlags, PostPath, WriteOpts};
use rambda_smartnic::SmartNic;
use rambda_workloads::{KeyDist, KvMix, KvOp};

use crate::apu::{KvApu, KvRequest};
use crate::store::{KvConfig, KvStore};

/// Which paper workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvsWorkload {
    /// 100 % GET.
    ReadIntensive,
    /// 50 % GET / 50 % PUT.
    WriteIntensive,
}

impl KvsWorkload {
    fn get_fraction(self) -> f64 {
        match self {
            KvsWorkload::ReadIntensive => 1.0,
            KvsWorkload::WriteIntensive => 0.5,
        }
    }
}

/// KVS experiment parameters.
#[derive(Debug, Clone)]
pub struct KvsParams {
    /// Pairs in the functional store (pre-loaded).
    pub pairs: u64,
    /// Pairs in the *modelled* deployment (100 M in the paper) — drives the
    /// footprint used for Smart NIC cache-hit and LLC modelling.
    pub modeled_pairs: u64,
    /// Value size (64 B).
    pub value_bytes: u32,
    /// Requests per run.
    pub requests: u64,
    /// Client instances (10 in Sec. VI-B).
    pub clients: usize,
    /// Request/doorbell batch size (32 at peak).
    pub batch: usize,
    /// Server cores for the CPU design (10 in Sec. VI-B).
    pub cores: usize,
    /// Per-client outstanding-request window (16 saturates the network;
    /// use a small window for latency-vs-load measurements like Fig. 9).
    pub window: usize,
    /// Zipf exponent; `None` = uniform.
    pub zipf: Option<f64>,
    /// Workload mix.
    pub workload: KvsWorkload,
    /// RNG seed.
    pub seed: u64,
}

impl KvsParams {
    /// A fast configuration for tests: 100 K functional pairs, 30 K requests.
    pub fn quick() -> Self {
        KvsParams {
            pairs: 100_000,
            modeled_pairs: 100_000_000,
            value_bytes: 64,
            requests: 30_000,
            clients: 10,
            batch: 32,
            cores: 10,
            window: 16,
            zipf: None,
            workload: KvsWorkload::ReadIntensive,
            seed: 42,
        }
    }

    /// Paper-scale run (1 M functional pairs, 300 K requests).
    pub fn paper() -> Self {
        KvsParams { pairs: 1_000_000, requests: 300_000, ..KvsParams::quick() }
    }

    /// Sets the key distribution to Zipf with the given exponent.
    pub fn with_zipf(mut self, theta: f64) -> Self {
        self.zipf = Some(theta);
        self
    }

    /// Sets the workload mix.
    pub fn with_workload(mut self, workload: KvsWorkload) -> Self {
        self.workload = workload;
        self
    }

    /// Sets the batch size.
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }

    fn dist(&self) -> KeyDist {
        match self.zipf {
            Some(theta) => KeyDist::zipfian(self.pairs, theta),
            None => KeyDist::uniform(self.pairs),
        }
    }

    fn mix(&self) -> KvMix {
        KvMix::new(self.dist(), self.workload.get_fraction(), self.value_bytes)
    }

    fn driver(&self) -> DriverConfig {
        DriverConfig::new(self.clients, self.requests).with_window(self.window)
    }

    /// The store every design serves: key `k` holds `value_bytes` copies
    /// of its low byte.
    fn loaded_store(&self) -> KvStore {
        let mut store = KvStore::new(KvConfig::for_pairs(self.pairs as usize, self.value_bytes as usize));
        let values: Vec<Vec<u8>> = (0..=u8::MAX).map(|b| vec![b; self.value_bytes as usize]).collect();
        store.bulk_load((0..self.pairs).map(|key| (key, values[(key & 0xFF) as usize].as_slice())));
        store
    }

    /// Modelled resident footprint: pairs × (bucket share + value line).
    pub fn modeled_footprint_bytes(&self) -> u64 {
        self.modeled_pairs * (64 + 8)
    }

    fn request_bytes(&self, op: &KvOp) -> u64 {
        match op {
            KvOp::Get { .. } => 16,
            KvOp::Put { .. } => 16 + self.value_bytes as u64,
        }
    }

    fn response_bytes(&self, op: &KvOp) -> u64 {
        match op {
            KvOp::Get { .. } => 8 + self.value_bytes as u64,
            KvOp::Put { .. } => 8,
        }
    }

    fn to_request(&self, op: &KvOp) -> KvRequest {
        match op {
            KvOp::Get { key } => KvRequest::Get { key: *key },
            KvOp::Put { key, .. } => {
                KvRequest::Put { key: *key, value: vec![0xAB; self.value_bytes as usize] }
            }
        }
    }
}

const CLIENT: NodeId = NodeId(0);
const SERVER: NodeId = NodeId(1);

/// Probability of an OS-induced hiccup on a CPU core per request, and its
/// mean duration — the scheduling/contention noise behind the paper's
/// "more stable behaviour than the CPU core" tail-latency observation.
const CPU_JITTER_P: f64 = 0.02;
const CPU_JITTER_MEAN_US: f64 = 0.8;

/// [`Design`] constructors for the KVS experiments, so
/// [`rambda::SimBuilder`] can run them: `SimBuilder::new(Design::kvs_rambda(p,
/// location)).faults(f).run()`.
pub trait KvsDesigns {
    /// The two-sided CPU design (`kvs.cpu`).
    fn kvs_cpu(params: KvsParams) -> Design;
    /// The Rambda design and its LD/LH variants (`kvs.rambda`).
    fn kvs_rambda(params: KvsParams, location: DataLocation) -> Design;
    /// The Smart NIC baseline (`kvs.smartnic`).
    fn kvs_smartnic(params: KvsParams) -> Design;
}

/// The CPU design's machines: two-sided RDMA RPC over ten server cores
/// (HERD/MICA-style).
struct KvsCpu {
    net: Network,
    client: Machine,
    server: Machine,
    cpu: CpuServer,
}

impl Machines for KvsCpu {
    fn publish(&self, s: &mut MetricSet) {
        self.client.publish_metrics(s, "client");
        self.server.publish_metrics(s, "server");
        self.cpu.publish_metrics(s, "cpu");
        self.net.publish_metrics(s, "net");
    }

    fn network(&mut self) -> Option<&mut Network> {
        Some(&mut self.net)
    }
}

/// The Rambda design's machines: the accelerator and its SQ handler, which
/// serializes WQE assembly + doorbells.
struct KvsRambda {
    net: Network,
    client: Machine,
    server: Machine,
    engine: AccelEngine,
    sq: Server,
}

impl Machines for KvsRambda {
    fn publish(&self, s: &mut MetricSet) {
        self.client.publish_metrics(s, "client");
        self.server.publish_metrics(s, "server");
        self.engine.publish_metrics(s, "accel");
        s.observe_server("sq", &self.sq);
        self.net.publish_metrics(s, "net");
    }

    fn network(&mut self) -> Option<&mut Network> {
        Some(&mut self.net)
    }
}

/// The Smart NIC design's machines: eight ARM cores with a 512 MB on-board
/// cache of the host data in their own memory.
struct KvsSmartNic {
    net: Network,
    client: Machine,
    server: Machine,
    nic: SmartNic,
    nic_mem: MemorySystem,
}

impl Machines for KvsSmartNic {
    fn publish(&self, s: &mut MetricSet) {
        self.client.publish_metrics(s, "client");
        self.server.publish_metrics(s, "server");
        self.nic.publish_metrics(s, "smartnic");
        self.nic_mem.publish_metrics(s, "nic_mem");
        self.net.publish_metrics(s, "net");
    }

    /// The Smart NIC path models raw Ethernet sends (its RPC transport
    /// hides recovery in firmware), so only degrade windows of the fault
    /// plan reach it — drop/corrupt verdicts apply to RC-QP `transmit`s.
    fn network(&mut self) -> Option<&mut Network> {
        Some(&mut self.net)
    }
}

impl KvsDesigns for Design {
    fn kvs_cpu(params: KvsParams) -> Design {
        Design::new("kvs.cpu", params.seed, params.driver(), move |tb| {
            let mut m = KvsCpu {
                net: Network::new(tb.net.clone()),
                client: Machine::new(CLIENT, tb, true),
                server: Machine::new(SERVER, tb, true),
                cpu: CpuServer::new(tb.cpu.clone(), params.cores, params.batch),
            };
            let mut store = params.loaded_store();
            let mix = params.mix();
            let mut rng = SimRng::seed(params.seed);
            let rq_mr = m.server.rnic.register_region(MrInfo::adaptive(MemKind::Dram));
            let client_mr = m.client.rnic.register_region(MrInfo::adaptive(MemKind::Dram));
            let opts = WriteOpts { post: PostPath::HostMmio, batch: params.batch, flags: PostFlags::NONE };
            let put_value = vec![0xAB; params.value_bytes as usize];
            (m, move |m: &mut KvsCpu, _, at, req: &mut Req<'_>| {
                let op = mix.next_op(&mut rng);
                let KvsCpu { net, client, server, cpu } = m;
                // Request: two-sided send into the server's posted RQ.
                let delivered = two_sided_send(
                    at,
                    &mut client.rnic,
                    &mut server.rnic,
                    net,
                    &mut server.mem,
                    rq_mr,
                    params.request_bytes(&op),
                    opts,
                )?;
                req.leg("fabric_request", delivered);
                // Re-post the consumed RECV WQE (extra NIC pipeline work of
                // the two-sided path).
                let t = server.rnic.next_in_pipeline(delivered);
                req.leg("rnic_pipeline", t);
                // Application processing on a core.
                let trace = match op {
                    KvOp::Get { key } => store.get(key).1,
                    KvOp::Put { key, .. } => store.put_slice(key, &put_value),
                };
                let mut done = cpu.serve_request(
                    t,
                    trace.bucket_reads + trace.value_reads,
                    trace.writes as u64 * 64,
                    MemKind::Dram,
                    &mut server.mem,
                );
                if rng.chance(CPU_JITTER_P) {
                    done += Span::from_ns_f64(1000.0 * rng.exp(CPU_JITTER_MEAN_US));
                }
                req.leg("cpu_serve", done);
                // Response: two-sided back to the client.
                let fin = two_sided_send(
                    done,
                    &mut server.rnic,
                    &mut client.rnic,
                    net,
                    &mut client.mem,
                    client_mr,
                    params.response_bytes(&op),
                    opts,
                )?;
                req.leg("fabric_response", fin);
                Ok(fin)
            })
        })
    }

    fn kvs_rambda(params: KvsParams, location: DataLocation) -> Design {
        Design::new("kvs.rambda", params.seed, params.driver(), move |tb| {
            // Adaptive DDIO: global DDIO off, TPH per region (all DRAM here).
            let mut m = KvsRambda {
                net: Network::new(tb.net.clone()),
                client: Machine::new(CLIENT, tb, false),
                server: Machine::new(SERVER, tb, false),
                engine: AccelEngine::new(tb.accel_config(location, true)),
                sq: Server::new(1),
            };
            let mut apu = KvApu::new(params.loaded_store());
            let mix = params.mix();
            let mut rng = SimRng::seed(params.seed);
            let ring_mr = m.server.rnic.register_region(MrInfo::adaptive(location.mem_kind()));
            let client_mr = m.client.rnic.register_region(MrInfo::adaptive(MemKind::Dram));
            let req_opts =
                WriteOpts { post: PostPath::HostMmio, batch: params.batch, flags: PostFlags::NONE };
            let resp_opts = WriteOpts { post: PostPath::AccelMmio, ..req_opts };
            // Batching amortizes the SQ handler's MMIO+sfence (Sec. VI-B's
            // ~2x batching gain for Rambda).
            let sq_hold = Span::from_ns(165).mul_f64(1.0 / params.batch as f64) + Span::from_ns(5);
            (m, move |m: &mut KvsRambda, _, at, req: &mut Req<'_>| {
                let op = mix.next_op(&mut rng);
                let KvsRambda { net, client, server, engine, sq } = m;
                let req_bytes = params.request_bytes(&op);
                // One-sided write into the request ring (cpoll region).
                let out = rdma_write(
                    at,
                    &mut client.rnic,
                    &mut server.rnic,
                    net,
                    &mut server.mem,
                    &mut client.mem,
                    ring_mr,
                    req_bytes,
                    req_opts,
                )?;
                req.leg("fabric_request", out.delivered_at);
                // cpoll discovery + scheduler dispatch.
                let discovered = engine.discover(out.delivered_at, params.clients, &mut rng);
                req.leg("coherence", discovered);
                let start = engine.claim_slot(discovered);
                req.leg("dispatch", start);
                // Fetch the request entry from the ring.
                let fetched = if location.is_host() {
                    engine.ring_read(start, req_bytes, &mut server.mem)
                } else {
                    engine.mem_access(start, req_bytes, false, &mut server.mem)
                };
                req.leg("ring_read", fetched);
                // APU processing (hash + walk + value).
                let mut ctx = ApuCtx::new(engine, &mut server.mem, fetched);
                let _resp = apu.process(params.to_request(&op), &mut ctx);
                let done = ctx.now();
                req.leg("apu_compute", done);
                // SQ handler: assemble WQE, write it to the WQ, ring the doorbell.
                let wqe = engine.sq_write_wqe(done);
                req.leg("sq_wqe", wqe);
                let emitted = sq.acquire(wqe, sq_hold) + sq_hold;
                req.leg("doorbell", emitted);
                engine.release_slot(discovered, emitted);
                // Response by one-sided write back to the client's response ring.
                let resp = rdma_write(
                    emitted,
                    &mut server.rnic,
                    &mut client.rnic,
                    net,
                    &mut client.mem,
                    &mut server.mem,
                    client_mr,
                    params.response_bytes(&op),
                    resp_opts,
                )?;
                req.leg("fabric_response", resp.delivered_at);
                Ok(resp.delivered_at)
            })
        })
    }

    fn kvs_smartnic(params: KvsParams) -> Design {
        Design::new("kvs.smartnic", params.seed, params.driver(), move |tb| {
            let m = KvsSmartNic {
                net: Network::new(tb.net.clone()),
                client: Machine::new(CLIENT, tb, true),
                server: Machine::new(SERVER, tb, true),
                nic: SmartNic::new(tb.smartnic.clone()),
                nic_mem: MemorySystem::new(tb.mem.clone(), true),
            };
            let mut store = params.loaded_store();
            let mix = params.mix();
            let mut rng = SimRng::seed(params.seed);
            // Cache-hit probability: the 512 MB on-board cache holds the
            // hottest fraction of the modelled footprint (hash entries +
            // pairs).
            let cache_items = (tb.smartnic.cache_bytes as f64 / params.modeled_footprint_bytes() as f64
                * params.pairs as f64) as u64;
            let hit_rate = params.dist().hot_mass(cache_items);
            let wqe_gap = m.client.rnic.config().wqe_gap;
            let put_value = vec![0xAB; params.value_bytes as usize];
            (m, move |m: &mut KvsSmartNic, _, at, req: &mut Req<'_>| {
                let op = mix.next_op(&mut rng);
                let KvsSmartNic { net, client, server, nic, nic_mem } = m;
                // Client posts; request terminates at the Smart NIC (no host
                // PCIe).
                let posted = if params.batch == 1 {
                    client.rnic.post(at, PostPath::HostMmio, 1)
                } else {
                    client.rnic.next_in_pipeline(at + wqe_gap.mul_f64(1.0 / params.batch as f64))
                };
                req.leg("doorbell", posted);
                let arrived = net.send(posted, CLIENT, SERVER, params.request_bytes(&op));
                let arrived = server.rnic.rx_process(arrived);
                req.leg("fabric_request", arrived);
                // ARM core walks the structure; each access hits the
                // on-board cache with `hit_rate`, else crosses PCIe
                // synchronously.
                let start = nic.begin_request(arrived);
                req.leg("arm_dispatch", start);
                let trace = match op {
                    KvOp::Get { key } => store.get(key).1,
                    KvOp::Put { key, .. } => store.put_slice(key, &put_value),
                };
                let mut t = start;
                for _ in 0..(trace.bucket_reads + trace.value_reads) {
                    let local = rng.chance(hit_rate);
                    t = nic.mem_access(
                        t,
                        64,
                        false,
                        local,
                        nic_mem,
                        &mut server.mem,
                        MemKind::Dram,
                        &mut rng,
                    );
                }
                for _ in 0..trace.writes {
                    let local = rng.chance(hit_rate);
                    t = nic.mem_access(t, 64, true, local, nic_mem, &mut server.mem, MemKind::Dram, &mut rng);
                }
                req.leg("arm_mem_access", t);
                nic.end_request(arrived, t);
                // Response straight from the NIC.
                let fin = net.send(t, SERVER, CLIENT, params.response_bytes(&op));
                req.leg("fabric_response", fin);
                Ok(fin)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rambda::{SimBuilder, Testbed};
    use rambda_metrics::RunReport;

    fn tb() -> Testbed {
        Testbed::default()
    }

    fn cpu_report(tb: &Testbed, p: &KvsParams) -> RunReport {
        SimBuilder::new(Design::kvs_cpu(p.clone())).config(tb).run()
    }

    fn rambda_report(tb: &Testbed, p: &KvsParams, location: DataLocation) -> RunReport {
        SimBuilder::new(Design::kvs_rambda(p.clone(), location)).config(tb).run()
    }

    fn smartnic_report(tb: &Testbed, p: &KvsParams) -> RunReport {
        SimBuilder::new(Design::kvs_smartnic(p.clone())).config(tb).run()
    }

    #[test]
    fn fig8_rambda_slightly_beats_cpu() {
        // "Rambda's peak throughput is 2.3%-8.3% higher than CPU" (both
        // network-bound; one-sided beats two-sided slightly).
        let p = KvsParams::quick();
        let cpu = cpu_report(&tb(), &p).throughput_mops();
        let rambda = rambda_report(&tb(), &p, DataLocation::HostDram).throughput_mops();
        let gain = rambda / cpu - 1.0;
        assert!((0.01..0.20).contains(&gain), "gain={gain} cpu={cpu} rambda={rambda}");
        // Both near the network bound for 64B messages.
        assert!(cpu > 8.0, "cpu={cpu}");
    }

    #[test]
    fn fig8_distribution_hits_smartnic_not_cpu_or_rambda() {
        let uniform = KvsParams::quick();
        let zipf = KvsParams::quick().with_zipf(0.9);
        let snic_u = smartnic_report(&tb(), &uniform).throughput_mops();
        let snic_z = smartnic_report(&tb(), &zipf).throughput_mops();
        let ratio = snic_u / snic_z;
        assert!((0.15..0.55).contains(&ratio), "uniform/zipf={ratio}");

        let cpu_u = cpu_report(&tb(), &uniform).throughput_mops();
        let cpu_z = cpu_report(&tb(), &zipf).throughput_mops();
        assert!(((cpu_u / cpu_z) - 1.0).abs() < 0.08, "cpu {cpu_u} vs {cpu_z}");

        let r_u = rambda_report(&tb(), &uniform, DataLocation::HostDram).throughput_mops();
        let r_z = rambda_report(&tb(), &zipf, DataLocation::HostDram).throughput_mops();
        assert!(((r_u / r_z) - 1.0).abs() < 0.08, "rambda {r_u} vs {r_z}");

        // Smart NIC is far below both.
        assert!(snic_u < 0.5 * cpu_u);
    }

    #[test]
    fn fig8_local_memory_does_not_help_when_network_bound() {
        // "extra memory bandwidth does not help ... the network has reached
        // its limit".
        let p = KvsParams::quick();
        let rambda = rambda_report(&tb(), &p, DataLocation::HostDram).throughput_mops();
        let ld = rambda_report(&tb(), &p, DataLocation::LocalDdr).throughput_mops();
        let lh = rambda_report(&tb(), &p, DataLocation::LocalHbm).throughput_mops();
        assert!((ld / rambda - 1.0).abs() < 0.1, "ld={ld} rambda={rambda}");
        assert!((lh / rambda - 1.0).abs() < 0.1, "lh={lh} rambda={rambda}");
    }

    #[test]
    fn fig8_put_heavy_changes_little() {
        // MICA-style partitioning: 50/50 PUT performs close to GET-only.
        let p = KvsParams::quick();
        let w = KvsParams::quick().with_workload(KvsWorkload::WriteIntensive);
        let get_only = rambda_report(&tb(), &p, DataLocation::HostDram).throughput_mops();
        let mixed = rambda_report(&tb(), &w, DataLocation::HostDram).throughput_mops();
        assert!((mixed / get_only - 1.0).abs() < 0.15, "{mixed} vs {get_only}");
    }

    #[test]
    fn fig9_rambda_tail_beats_cpu_tail() {
        // Rambda p99 is ~30% lower than CPU (stable FPGA vs jittery cores),
        // while its *average* is similar or slightly higher. Measured at
        // light load (small window) so service time, not the closed-loop
        // saturation identity, dominates.
        let mut p = KvsParams::quick();
        p.window = 2;
        let cpu = cpu_report(&tb(), &p);
        let rambda = rambda_report(&tb(), &p, DataLocation::HostDram);
        assert!(
            rambda.p99_us() < 0.9 * cpu.p99_us(),
            "rambda p99 {} vs cpu p99 {}",
            rambda.p99_us(),
            cpu.p99_us()
        );
        assert!(
            rambda.mean_us() > 0.7 * cpu.mean_us(),
            "rambda mean {} vs cpu mean {}",
            rambda.mean_us(),
            cpu.mean_us()
        );
    }

    #[test]
    fn fig9_smartnic_latency_suffers_under_uniform() {
        let p = KvsParams::quick();
        let snic = smartnic_report(&tb(), &p);
        let cpu = cpu_report(&tb(), &p);
        assert!(snic.mean_us() > 1.5 * cpu.mean_us(), "snic {} cpu {}", snic.mean_us(), cpu.mean_us());
    }

    #[test]
    fn fig10_batching_helps_throughput() {
        let p32 = KvsParams::quick().with_zipf(0.9);
        let p1 = KvsParams::quick().with_zipf(0.9).with_batch(1);
        let r32 = rambda_report(&tb(), &p32, DataLocation::HostDram);
        let r1 = rambda_report(&tb(), &p1, DataLocation::HostDram);
        // Rambda gains ~2x from doorbell batching.
        let gain = r32.throughput_mops() / r1.throughput_mops();
        assert!((1.4..4.0).contains(&gain), "rambda batching gain={gain}");

        // The CPU batch effect is per-core (10 cores stay network-bound at
        // every batch size); with two cores it shows clearly.
        let mut c32p = KvsParams::quick().with_zipf(0.9);
        c32p.cores = 2;
        let mut c1p = c32p.clone().with_batch(1);
        c1p.cores = 2;
        let c32 = cpu_report(&tb(), &c32p);
        let c1 = cpu_report(&tb(), &c1p);
        let cpu_gain = c32.throughput_mops() / c1.throughput_mops();
        assert!(cpu_gain > 2.0, "cpu per-core batching gain={cpu_gain}");
    }

    #[test]
    fn sec3f_rambda_scales_with_faster_networks() {
        // Sec. III-F: the cc-interconnect is not saturated in Rambda-KV, so
        // a faster network raises Rambda's peak until the accelerator
        // binds; the 10-core CPU design scales less.
        let p = KvsParams::quick();
        let t25 = Testbed::default();
        let t100 = Testbed::default().with_network_gbps(100.0);
        let r25 = rambda_report(&t25, &p, DataLocation::HostDram).throughput_mops();
        let r100 = rambda_report(&t100, &p, DataLocation::HostDram).throughput_mops();
        // The wire stops binding and the RNIC's per-message pipeline takes
        // over (~20 Mops at 50ns/WQE), so scaling is substantial but not 4x.
        let scale = r100 / r25;
        assert!(scale > 1.5, "Rambda 25->100GbE scale {scale}");
        let c25 = cpu_report(&t25, &p).throughput_mops();
        let c100 = cpu_report(&t100, &p).throughput_mops();
        assert!(
            r100 / c100 > r25 / c25,
            "Rambda's edge should widen at 100GbE: {r100}/{c100} vs {r25}/{c25}"
        );
    }

    #[test]
    fn fig10_rambda_latency_grows_sublinearly_with_batch() {
        // "Rambda does not need to wait for a full batch to start
        // processing": its latency grows far slower than CPU's with batch.
        let mk = |b| KvsParams::quick().with_zipf(0.9).with_batch(b);
        let r1 = rambda_report(&tb(), &mk(1), DataLocation::HostDram).mean_us();
        let r32 = rambda_report(&tb(), &mk(32), DataLocation::HostDram).mean_us();
        assert!(r32 < 4.0 * r1, "rambda latency {r1} -> {r32}");
    }
}
