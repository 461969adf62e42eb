//! The Fig. 13 serving experiments: CPU (1–16 cores) vs Rambda / Rambda-LD /
//! Rambda-LH on the six dataset profiles.
//!
//! Rambda-DLRM is the CPU-accelerator *collaboration* example (Sec. IV-C):
//! the accelerator terminates the RPC and hands the raw request to a host
//! core for parsing/transformation through the intra-machine ring, gets the
//! model-ready input back, performs the bandwidth-bound embedding reduction
//! (with MERCI memoization) and the lightweight FC layers, and responds
//! through the RNIC.

use rambda::{cpu::CpuServer, Design, DriverConfig, Machine, Machines, Req};
use rambda_accel::{AccelEngine, DataLocation};
use rambda_des::{Link, Server, SimRng, Span};
use rambda_fabric::{Network, NodeId};
use rambda_mem::MemKind;
use rambda_metrics::MetricSet;
use rambda_rnic::{rdma_write, two_sided_send, MrInfo, PostFlags, PostPath, WriteOpts};
use rambda_workloads::{DlrmProfile, Zipf};

use crate::merci::{sample_correlated_query, MemoTable, ReductionPlan};
use crate::model::DlrmModel;

const CLIENT: NodeId = NodeId(0);
const SERVER: NodeId = NodeId(1);

/// DLRM-specific cost constants (documented calibration, Sec. VI-D).
#[derive(Debug, Clone)]
pub struct DlrmCosts {
    /// Effective per-core random-gather bandwidth of a Xeon core running
    /// MERCI reduction (bytes/s).
    pub core_gather_bw: f64,
    /// Aggregate random-gather roofline of the socket (bytes/s): ~30 % of
    /// the 120 GB/s peak for random 256 B bursts — what the paper means by
    /// "bounded by the host memory bandwidth" at 8 cores.
    pub socket_gather_bw: f64,
    /// Request parsing/transformation on a host core (the irregular,
    /// branch-rich pre-processing that stays on the CPU).
    pub preprocess: Span,
    /// Host cores dedicated to pre-processing in the Rambda designs.
    pub preprocess_cores: usize,
    /// FC layers on a CPU core.
    pub mlp_cpu: Span,
    /// FC layers on the APU's dedicated ALU pipeline.
    pub mlp_apu: Span,
    /// Per-query APU scheduler/(de)serializer occupancy (serial).
    pub apu_dispatch: Span,
    /// Row-activation overhead factor for random 256 B bursts on the
    /// accelerator-local DRAM.
    pub local_gather_overhead: f64,
}

impl Default for DlrmCosts {
    fn default() -> Self {
        DlrmCosts {
            core_gather_bw: 6.5e9,
            socket_gather_bw: 36.0e9,
            preprocess: Span::from_ns(250),
            preprocess_cores: 2,
            mlp_cpu: Span::from_ns(600),
            mlp_apu: Span::from_ns(100),
            apu_dispatch: Span::from_ns(120),
            local_gather_overhead: 1.2,
        }
    }
}

/// DLRM experiment parameters.
#[derive(Debug, Clone)]
pub struct DlrmParams {
    /// Dataset profile.
    pub profile: DlrmProfile,
    /// Embedding dimension (64 in Sec. VI-D).
    pub dim: usize,
    /// Rows in the functional scaled-down model; timing uses real reduction
    /// plans over these rows.
    pub functional_rows: u32,
    /// Whether MERCI memoization is enabled (the paper reports MERCI; the
    /// native reduction "shows the same trend").
    pub merci: bool,
    /// Queries per run.
    pub queries: u64,
    /// Client instances.
    pub clients: usize,
    /// Cost constants.
    pub costs: DlrmCosts,
    /// RNG seed.
    pub seed: u64,
}

impl DlrmParams {
    /// A fast configuration for tests.
    pub fn quick(profile: DlrmProfile) -> Self {
        DlrmParams {
            profile,
            dim: 64,
            functional_rows: 32_768,
            merci: true,
            queries: 8_000,
            clients: 10,
            costs: DlrmCosts::default(),
            seed: 21,
        }
    }

    /// Paper-scale run.
    pub fn paper(profile: DlrmProfile) -> Self {
        DlrmParams { functional_rows: 262_144, queries: 100_000, ..DlrmParams::quick(profile) }
    }

    fn driver(&self) -> DriverConfig {
        DriverConfig::new(self.clients, self.queries).with_window(16)
    }

    fn row_bytes(&self) -> u64 {
        self.dim as u64 * 4
    }
}

/// Shared functional state for one run.
struct DlrmWorld {
    model: DlrmModel,
    memo: MemoTable,
    pair_zipf: Zipf,
    rng: SimRng,
    checked: u64,
}

impl DlrmWorld {
    fn new(params: &DlrmParams) -> Self {
        let model = DlrmModel::synthetic(params.functional_rows as usize, params.dim);
        let memo = MemoTable::build(&model.embedding);
        DlrmWorld {
            memo,
            pair_zipf: Zipf::new(params.functional_rows as u64 / 2, params.profile.zipf_theta),
            model,
            rng: SimRng::seed(params.seed),
            checked: 0,
        }
    }

    /// Samples a query and computes its reduction plan + inference result.
    fn next_query(&mut self, params: &DlrmParams) -> (ReductionPlan, u64, f32) {
        let q =
            sample_correlated_query(&params.profile, params.functional_rows, &self.pair_zipf, &mut self.rng);
        let plan = if params.merci {
            ReductionPlan::build(&q, &self.memo)
        } else {
            ReductionPlan { memo_pairs: Vec::new(), singles: q.features.clone() }
        };
        // Functional inference, and a cross-check of the first queries
        // against the naive reduction in every build profile.
        let reduced = plan.reduce(&self.model.embedding, &self.memo);
        let score = self.model.mlp.forward(&reduced)[0];
        if self.checked < 8 {
            let naive = self.model.infer(&q.features);
            assert!(
                (score - naive).abs() < 1e-3 * naive.abs().max(1.0),
                "memoized inference diverged: {score} vs {naive}"
            );
            self.checked += 1;
        }
        (plan, q.wire_bytes(), score)
    }
}

/// [`Design`] constructors for the DLRM serving experiments, so
/// [`SimBuilder`](rambda::SimBuilder) can run them.
pub trait DlrmDesigns {
    /// The CPU-only MERCI baseline on `cores` cores (`dlrm.cpu`).
    fn dlrm_cpu(params: DlrmParams, cores: usize) -> Design;
    /// Rambda-DLRM and its LD/LH variants (`dlrm.rambda`).
    fn dlrm_rambda(params: DlrmParams, location: DataLocation) -> Design;
}

/// The CPU baseline's machines: the server's core pool and the
/// socket-level random-gather roofline all its cores share.
struct DlrmCpu {
    net: Network,
    client: Machine,
    server: Machine,
    cores: Server,
    gather: Link,
}

impl Machines for DlrmCpu {
    fn publish(&self, s: &mut MetricSet) {
        self.client.publish_metrics(s, "client");
        self.server.publish_metrics(s, "server");
        s.observe_server("cores", &self.cores);
        s.observe_link("gather", &self.gather);
        self.net.publish_metrics(s, "net");
    }

    fn network(&mut self) -> Option<&mut Network> {
        Some(&mut self.net)
    }
}

/// Rambda-DLRM's machines: the accelerator, its serial APU dispatcher, and
/// the host cores that pre-process requests for it.
struct DlrmRambda {
    net: Network,
    client: Machine,
    server: Machine,
    engine: AccelEngine,
    preprocess: CpuServer,
    dispatch: Server,
}

impl Machines for DlrmRambda {
    fn publish(&self, s: &mut MetricSet) {
        self.client.publish_metrics(s, "client");
        self.server.publish_metrics(s, "server");
        self.engine.publish_metrics(s, "accel");
        self.preprocess.publish_metrics(s, "preprocess");
        s.observe_server("apu_dispatch", &self.dispatch);
        self.net.publish_metrics(s, "net");
    }

    fn network(&mut self) -> Option<&mut Network> {
        Some(&mut self.net)
    }
}

impl DlrmDesigns for Design {
    /// The CPU-only MERCI baseline on `cores` cores.
    fn dlrm_cpu(params: DlrmParams, cores: usize) -> Design {
        Design::new("dlrm.cpu", params.seed, params.driver(), move |tb| {
            let mut m = DlrmCpu {
                net: Network::new(tb.net.clone()),
                client: Machine::new(CLIENT, tb, true),
                server: Machine::new(SERVER, tb, true),
                cores: Server::new(cores),
                gather: Link::new(params.costs.socket_gather_bw, Span::ZERO),
            };
            let mut world = DlrmWorld::new(&params);
            let rq_mr = m.server.rnic.register_region(MrInfo::adaptive(MemKind::Dram));
            let client_mr = m.client.rnic.register_region(MrInfo::adaptive(MemKind::Dram));
            let opts = WriteOpts { post: PostPath::HostMmio, batch: 16, flags: PostFlags::NONE };
            let row = params.row_bytes();
            (m, move |m: &mut DlrmCpu, _, at, req: &mut Req<'_>| {
                let (plan, wire, _score) = world.next_query(&params);
                let DlrmCpu { net, client, server, cores, gather } = m;
                let costs = &params.costs;
                let delivered = two_sided_send(
                    at,
                    &mut client.rnic,
                    &mut server.rnic,
                    net,
                    &mut server.mem,
                    rq_mr,
                    wire,
                    opts,
                )?;
                req.leg("fabric_request", delivered);
                let bytes = plan.lookups() as u64 * row;
                let hold = costs.preprocess
                    + costs.mlp_cpu
                    + Span::from_secs_f64(bytes as f64 / costs.core_gather_bw);
                let start = cores.acquire(delivered, hold);
                req.leg("core_queue", start);
                // Socket roofline: the gather bytes queue on the shared link.
                let roofline_done = gather.transfer(start, bytes).depart;
                let done = (start + hold).max(roofline_done);
                req.leg("gather_compute", done);
                let fin = two_sided_send(
                    done,
                    &mut server.rnic,
                    &mut client.rnic,
                    net,
                    &mut client.mem,
                    client_mr,
                    16,
                    opts,
                )?;
                req.leg("fabric_response", fin);
                Ok(fin)
            })
        })
    }

    /// Rambda-DLRM: accelerator-terminated RPC, CPU pre-processing
    /// hand-off, APU embedding reduction + FC. `location` selects prototype
    /// (HostDram) or the local-memory variants.
    fn dlrm_rambda(params: DlrmParams, location: DataLocation) -> Design {
        Design::new("dlrm.rambda", params.seed, params.driver(), move |tb| {
            let mut m = DlrmRambda {
                net: Network::new(tb.net.clone()),
                client: Machine::new(CLIENT, tb, false),
                server: Machine::new(SERVER, tb, false),
                engine: AccelEngine::new(tb.accel_config(location, true)),
                preprocess: CpuServer::new(tb.cpu.clone(), params.costs.preprocess_cores, 16),
                dispatch: Server::new(1),
            };
            let mut world = DlrmWorld::new(&params);
            let ring_mr = m.server.rnic.register_region(MrInfo::adaptive(location.mem_kind()));
            let client_mr = m.client.rnic.register_region(MrInfo::adaptive(MemKind::Dram));
            let req_opts = WriteOpts { post: PostPath::HostMmio, batch: 16, flags: PostFlags::NONE };
            let resp_opts = WriteOpts { post: PostPath::AccelMmio, ..req_opts };
            let row = params.row_bytes();
            let local_row = (row as f64 * params.costs.local_gather_overhead) as u64;
            (m, move |m: &mut DlrmRambda, _, at, req: &mut Req<'_>| {
                let (plan, wire, _score) = world.next_query(&params);
                let DlrmRambda { net, client, server, engine, preprocess, dispatch } = m;
                let costs = &params.costs;
                // Request into the accelerator's ring.
                let out = rdma_write(
                    at,
                    &mut client.rnic,
                    &mut server.rnic,
                    net,
                    &mut server.mem,
                    &mut client.mem,
                    ring_mr,
                    wire,
                    req_opts,
                )?;
                req.leg("fabric_request", out.delivered_at);
                let discovered = engine.discover(out.delivered_at, params.clients, &mut world.rng);
                req.leg("coherence", discovered);
                let start = engine.claim_slot(discovered);
                req.leg("dispatch", start);
                // Hand the raw request to a host core for pre-processing
                // through the intra-machine ring, and get the model-ready
                // input back.
                let sent = engine.ring_write(start, wire, &mut server.mem);
                req.leg("ring_write", sent);
                let preprocessed = preprocess.occupy(sent, costs.preprocess);
                req.leg("cpu_preprocess", preprocessed);
                let input_back = engine.ring_read(preprocessed, wire, &mut server.mem);
                req.leg("ring_read", input_back);
                // Scheduler/(de)serializer occupancy (serial per query).
                let disp = dispatch.acquire(input_back, costs.apu_dispatch) + costs.apu_dispatch;
                req.leg("apu_dispatch", disp);
                // The embedding reduction: 64 outstanding gathers per query
                // (Sec. IV-C), bandwidth-bound on the chosen memory.
                let row_bytes = if location.is_host() { row } else { local_row };
                let gathered = engine.gather(disp, plan.lookups(), row_bytes, &mut server.mem);
                req.leg("gather", gathered);
                // FC layers on the APU, then respond through the RNIC.
                let fc_done = gathered + costs.mlp_apu;
                req.leg("apu_compute", fc_done);
                let wqe = engine.sq_write_wqe(fc_done);
                req.leg("doorbell", wqe);
                engine.release_slot(discovered, wqe);
                let resp = rdma_write(
                    wqe,
                    &mut server.rnic,
                    &mut client.rnic,
                    net,
                    &mut client.mem,
                    &mut server.mem,
                    client_mr,
                    16,
                    resp_opts,
                )?;
                req.leg("fabric_response", resp.delivered_at);
                Ok(resp.delivered_at)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rambda::{SimBuilder, Testbed};

    fn cpu_mops(p: &DlrmParams, cores: usize) -> f64 {
        SimBuilder::new(Design::dlrm_cpu(p.clone(), cores))
            .config(&Testbed::default())
            .run()
            .throughput_mops()
    }

    fn rambda_mops(p: &DlrmParams, location: DataLocation) -> f64 {
        SimBuilder::new(Design::dlrm_rambda(p.clone(), location))
            .config(&Testbed::default())
            .run()
            .throughput_mops()
    }

    fn books() -> DlrmParams {
        DlrmParams::quick(DlrmProfile::by_name("Books").unwrap())
    }

    #[test]
    fn fig13_books_matches_paper_bands() {
        let p = books();
        let c1 = cpu_mops(&p, 1);
        let c8 = cpu_mops(&p, 8);
        let r = rambda_mops(&p, DataLocation::HostDram);
        let ld = rambda_mops(&p, DataLocation::LocalDdr);
        let lh = rambda_mops(&p, DataLocation::LocalHbm);

        // CPU scales ~linearly to 8 cores.
        let scale = c8 / c1;
        assert!((6.0..8.5).contains(&scale), "8-core scaling {scale}");
        // Rambda: 19.7%-31.3% of a single core.
        let r_ratio = r / c1;
        assert!((0.15..0.40).contains(&r_ratio), "rambda/c1 = {r_ratio}");
        // LD: 52.8%-95.3% of eight cores.
        let ld_ratio = ld / c8;
        assert!((0.45..1.05).contains(&ld_ratio), "ld/c8 = {ld_ratio}");
        // LH: 1.6x-3.1x the CPU (network becomes the limit).
        let lh_ratio = lh / c8;
        assert!((1.3..3.5).contains(&lh_ratio), "lh/c8 = {lh_ratio}");
        assert!(lh > ld);
    }

    #[test]
    fn fig13_sixteen_cores_saturate() {
        // "scales linearly until eight cores, bounded by memory bandwidth".
        let p = books();
        let c8 = cpu_mops(&p, 8);
        let c16 = cpu_mops(&p, 16);
        let gain = c16 / c8;
        assert!((1.0..1.9).contains(&gain), "16/8 = {gain}");
    }

    #[test]
    fn fig13_ordering_holds_for_every_dataset() {
        for profile in DlrmProfile::all() {
            let mut p = DlrmParams::quick(profile);
            p.queries = 3_000;
            let c1 = cpu_mops(&p, 1);
            let c8 = cpu_mops(&p, 8);
            let r = rambda_mops(&p, DataLocation::HostDram);
            let lh = rambda_mops(&p, DataLocation::LocalHbm);
            let name = p.profile.name;
            assert!(r < 0.7 * c1, "{name}: rambda {r} vs c1 {c1}");
            assert!(lh > c8, "{name}: lh {lh} vs c8 {c8}");
            assert!(c8 > c1 * 5.0, "{name}: c8 {c8} vs c1 {c1}");
        }
    }

    #[test]
    fn merci_beats_native_reduction() {
        let p = books();
        let native = DlrmParams { merci: false, ..p.clone() };
        let with = cpu_mops(&p, 8);
        let without = cpu_mops(&native, 8);
        assert!(with > 1.15 * without, "merci {with} vs native {without}");
    }

    #[test]
    fn functional_scores_are_deterministic() {
        let p = books();
        let mut a = DlrmWorld::new(&p);
        let mut b = DlrmWorld::new(&p);
        for _ in 0..50 {
            let (pa, wa, sa) = a.next_query(&p);
            let (pb, wb, sb) = b.next_query(&p);
            assert_eq!(pa, pb);
            assert_eq!(wa, wb);
            assert_eq!(sa, sb);
        }
    }
}
