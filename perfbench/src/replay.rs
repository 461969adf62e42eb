//! The traced replay: each workload's request path rebuilt from the
//! simulator's public functions, call for call and in the design's order,
//! with every call timed into its layer (see [`crate::prof`]).
//!
//! The replay drives the same machines, seeds and closed loop as the design,
//! so it simulates the same run. `crate::fidelity` holds it to that: its
//! work counters and its issue→completion histogram must equal the report's.
//!
//! Deviations from the designs, none of which changes simulated state: the
//! stage legs of a request are cut after its path instead of between calls
//! (so observability is timed as one call per request), scope hooks are
//! skipped (scoping is off in every benchmark run), and DLRM's check of its
//! first 8 scores against the naive reduction is left out.

use std::hint::black_box;

use rambda::cpu::CpuServer;
use rambda::{DriverConfig, Machine, Testbed};
use rambda_accel::{AccelEngine, Apu, ApuCtx, DataLocation};
use rambda_des::{EventCoreStats, EventQueue, Server, SimRng, SimTime, Span};
use rambda_dlrm::merci::sample_correlated_query;
use rambda_dlrm::{DlrmModel, DlrmParams, MemoTable, ReductionPlan};
use rambda_fabric::{Network, NodeId};
use rambda_kvs::{KvApu, KvConfig, KvRequest, KvStore, KvsParams, KvsWorkload};
use rambda_mem::MemKind;
use rambda_metrics::{HistSummary, MetricSet, StageRecorder};
use rambda_rnic::{rdma_write, MrInfo, PostFlags, PostPath, WriteOpts};
use rambda_trace::Tracer;
use rambda_txn::{Chain, TxnParams, TxnWrite};
use rambda_workloads::{KeyDist, KvMix, KvOp, Zipf};

use crate::prof::{
    Prof, ACCEL, DLRM_MLP, DLRM_PLAN, DLRM_REDUCE, GEN, KVS_GET, LEGS, QUEUE, TXN_EXECUTE, VERBS,
};

const NO_FAULTS: &str = "benchmark runs inject no faults, so no verb exhausts its retries";

/// What a replay leaves behind for the fidelity check and the counts.
pub struct Replay {
    /// The replay's machines, published under the design's prefixes.
    pub resources: MetricSet,
    /// Telemetry of the replayed closed loop's event queue.
    pub queue: EventCoreStats,
    /// Issue→completion latency over every replayed request.
    pub total: HistSummary,
    /// Base embedding rows absorbed by MERCI memoization, and all base rows.
    pub memo_rows: (u64, u64),
}

/// The closed loop of `rambda::run_closed_loop` (serial dispatch): prime
/// every client's window, then issue a client's next request whenever its
/// previous one completes.
fn closed_loop(
    cfg: &DriverConfig,
    prof: &mut Prof,
    mut serve: impl FnMut(&mut Prof, SimTime) -> SimTime,
) -> EventCoreStats {
    let mut queue: EventQueue<(usize, SimTime)> = EventQueue::new();
    let prime = queue.kind("prime");
    let reissue = queue.kind("serve");
    let mut issued = 0u64;
    for c in 0..cfg.clients {
        for _ in 0..cfg.window {
            if issued == cfg.requests {
                break;
            }
            let t0 = SimTime::from_ps(issued);
            let done = serve(prof, t0);
            prof.time(QUEUE, || queue.push_kind(done, prime, (c, t0)));
            prof.end_request();
            issued += 1;
        }
    }
    while let Some((done, (c, _))) = prof.time(QUEUE, || queue.pop()) {
        if issued < cfg.requests {
            let next = serve(prof, done);
            prof.time(QUEUE, || queue.push_kind(next, reissue, (c, done)));
            prof.end_request();
            issued += 1;
        }
    }
    prof.flush();
    queue.stats().clone()
}

/// Cuts one request's legs into the stage recorder and takes the periodic
/// sample, as the designs do with a disabled tracer.
fn observe(
    rec: &mut StageRecorder,
    tracer: &mut Tracer,
    at: SimTime,
    legs: &[(&'static str, SimTime)],
    publish: impl FnOnce(&mut MetricSet),
) {
    let mut tr = tracer.observe(rec, at);
    for &(stage, t) in legs {
        tr.leg(stage, t);
    }
    tr.finish(legs[legs.len() - 1].1);
    tracer.sample_with(rec, at, publish);
}

const CLIENT: NodeId = NodeId(0);
const SERVER: NodeId = NodeId(1);

struct KvsMachines {
    net: Network,
    client: Machine,
    server: Machine,
    engine: AccelEngine,
    sq: Server,
}

impl KvsMachines {
    fn publish(&self, s: &mut MetricSet) {
        self.client.publish_metrics(s, "client");
        self.server.publish_metrics(s, "server");
        self.engine.publish_metrics(s, "accel");
        s.observe_server("sq", &self.sq);
        self.net.publish_metrics(s, "net");
    }
}

/// `Design::kvs_rambda(p, DataLocation::HostDram)`, uniform GETs.
pub fn kvs(p: &KvsParams, tb: &Testbed, prof: &mut Prof) -> Replay {
    assert!(p.zipf.is_none() && p.workload == KvsWorkload::ReadIntensive, "replay covers uniform GETs");
    let store = prof.span("kvs.load", "setup", p.pairs, |_| {
        let mut store = KvStore::new(KvConfig::for_pairs(p.pairs as usize, p.value_bytes as usize));
        let mut value = vec![0u8; p.value_bytes as usize];
        for key in 0..p.pairs {
            value.fill((key & 0xFF) as u8);
            store.put_slice(key, &value);
        }
        store
    });

    let mut m = KvsMachines {
        net: Network::new(tb.net.clone()),
        client: Machine::new(CLIENT, tb, false),
        server: Machine::new(SERVER, tb, false),
        engine: AccelEngine::new(tb.accel_config(DataLocation::HostDram, true)),
        sq: Server::new(1),
    };
    let mut apu = KvApu::new(store);
    let mix = KvMix::new(KeyDist::uniform(p.pairs), 1.0, p.value_bytes);
    let mut rng = SimRng::seed(p.seed);
    let ring_mr = m.server.rnic.register_region(MrInfo::adaptive(MemKind::Dram));
    let client_mr = m.client.rnic.register_region(MrInfo::adaptive(MemKind::Dram));
    let req_opts = WriteOpts { post: PostPath::HostMmio, batch: p.batch, flags: PostFlags::NONE };
    let resp_opts = WriteOpts { post: PostPath::AccelMmio, ..req_opts };
    let sq_hold = Span::from_ns(165).mul_f64(1.0 / p.batch as f64) + Span::from_ns(5);
    let value_bytes = p.value_bytes as u64;
    let mut rec = StageRecorder::active();
    let mut tracer = Tracer::disabled();
    let mut keys = Vec::with_capacity(p.requests as usize);

    let cfg = DriverConfig::new(p.clients, p.requests).with_window(p.window);
    let queue = closed_loop(&cfg, prof, |prof, at| {
        let op = prof.time(GEN, || mix.next_op(&mut rng));
        keys.push(op.key());
        let (req_bytes, resp_bytes, request) = match op {
            KvOp::Get { key } => (16, 8 + value_bytes, KvRequest::Get { key }),
            KvOp::Put { key, .. } => {
                (16 + value_bytes, 8, KvRequest::Put { key, value: vec![0xAB; value_bytes as usize] })
            }
        };
        let out = prof
            .time(VERBS, || {
                rdma_write(
                    at,
                    &mut m.client.rnic,
                    &mut m.server.rnic,
                    &mut m.net,
                    &mut m.server.mem,
                    &mut m.client.mem,
                    ring_mr,
                    req_bytes,
                    req_opts,
                )
            })
            .expect(NO_FAULTS);
        let [discovered, start, fetched, done, wqe, emitted] = prof.time(ACCEL, || {
            let discovered = m.engine.discover(out.delivered_at, p.clients, &mut rng);
            let start = m.engine.claim_slot(discovered);
            let fetched = m.engine.ring_read(start, req_bytes, &mut m.server.mem);
            let mut ctx = ApuCtx::new(&mut m.engine, &mut m.server.mem, fetched);
            apu.process(request, &mut ctx);
            let done = ctx.now();
            let wqe = m.engine.sq_write_wqe(done);
            let emitted = m.sq.acquire(wqe, sq_hold) + sq_hold;
            m.engine.release_slot(discovered, emitted);
            [discovered, start, fetched, done, wqe, emitted]
        });
        let fin = prof
            .time(VERBS, || {
                rdma_write(
                    emitted,
                    &mut m.server.rnic,
                    &mut m.client.rnic,
                    &mut m.net,
                    &mut m.client.mem,
                    &mut m.server.mem,
                    client_mr,
                    resp_bytes,
                    resp_opts,
                )
            })
            .expect(NO_FAULTS)
            .delivered_at;
        let legs = [
            ("fabric_request", out.delivered_at),
            ("coherence", discovered),
            ("dispatch", start),
            ("ring_read", fetched),
            ("apu_compute", done),
            ("sq_wqe", wqe),
            ("doorbell", emitted),
            ("fabric_response", fin),
        ];
        prof.time(LEGS, || observe(&mut rec, &mut tracer, at, &legs, |s| m.publish(s)));
        fin
    });

    // The GETs again, each lookup's key depending on the previous value so
    // misses are not overlapped across lookups (inside the run, microseconds
    // of other work separate them).
    let store = apu.store();
    let opaque_zero = black_box(0u64);
    prof.time_calls(KVS_GET, keys.len() as u64, || {
        let mut dep = 0u64;
        for &key in &keys {
            let (value, _) = store.get(key ^ dep);
            dep = value.map_or(0, |v| v[0] as u64) & opaque_zero;
        }
        black_box(dep)
    });
    prof.flush();

    let mut resources = MetricSet::new();
    m.publish(&mut resources);
    Replay { resources, queue, total: HistSummary::of(rec.total()), memo_rows: (0, 0) }
}

const PORT0: NodeId = NodeId(1);
const PORT1: NodeId = NodeId(2);

/// The design's private per-machine RNG stream salts (`rambda_txn::designs`).
const CLIENT_WORKLOAD_SALT: u64 = 0xC0;
const CLIENT_ROUTE_SALT: u64 = 0xC1;
const PORT0_ACCEL_SALT: u64 = 0xA0;
const PORT1_ACCEL_SALT: u64 = 0xA1;

/// Mean ARM routing delay between the two replica ports.
const ROUTE_MEAN: Span = Span::from_ns(3_000);

struct TxnMachines {
    net: Network,
    client: Machine,
    port0: Machine,
    port1: Machine,
    accel0: AccelEngine,
    accel1: AccelEngine,
}

impl TxnMachines {
    fn publish(&self, s: &mut MetricSet) {
        self.client.publish_metrics(s, "client");
        self.port0.publish_metrics(s, "port0");
        self.port1.publish_metrics(s, "port1");
        self.accel0.publish_metrics(s, "accel0");
        self.accel1.publish_metrics(s, "accel1");
        self.net.publish_metrics(s, "net");
    }

    /// Port-to-port hop through the client's Smart-NIC ARM cores.
    fn route(&mut self, at: SimTime, from: NodeId, to: NodeId, bytes: u64, rng: &mut SimRng) -> SimTime {
        let at_arm = self.net.send(at, from, CLIENT, bytes);
        let forwarded = at_arm + ROUTE_MEAN + Span::from_ns_f64(ROUTE_MEAN.as_ns_f64() * rng.exp(0.08));
        self.net.send(forwarded, CLIENT, to, bytes)
    }
}

/// `Design::txn_rambda_tx(p)`.
pub fn txn(p: &TxnParams, tb: &Testbed, prof: &mut Prof) -> Replay {
    let mut chain = prof.span("txn.preload", "setup", p.keys, |_| {
        let mut chain = Chain::new(2);
        chain.preload((0..p.keys).map(|key| (key, vec![(key & 0xFF) as u8; p.value_bytes as usize])));
        chain
    });

    let mut m = TxnMachines {
        net: Network::new(tb.net.clone()),
        client: Machine::new(CLIENT, tb, false),
        port0: Machine::new(PORT0, tb, false),
        port1: Machine::new(PORT1, tb, false),
        accel0: AccelEngine::new(tb.accel_config(DataLocation::HostNvm, true)),
        accel1: AccelEngine::new(tb.accel_config(DataLocation::HostNvm, true)),
    };
    let dist = KeyDist::uniform(p.keys);
    let mut workload_rng = SimRng::stream(p.seed, CLIENT_WORKLOAD_SALT);
    let mut route_rng = SimRng::stream(p.seed, CLIENT_ROUTE_SALT);
    let mut accel0_rng = SimRng::stream(p.seed, PORT0_ACCEL_SALT);
    let mut accel1_rng = SimRng::stream(p.seed, PORT1_ACCEL_SALT);
    let ring0 = m.port0.rnic.register_region(MrInfo::adaptive(MemKind::Nvm));
    let ring1 = m.port1.rnic.register_region(MrInfo::adaptive(MemKind::Nvm));
    let client_mr = m.client.rnic.register_region(MrInfo::adaptive(MemKind::Dram));
    let spec = p.spec;
    let value_bytes = p.value_bytes as u64;
    let entry = spec.log_entry_bytes();
    let opts = WriteOpts { post: PostPath::HostMmio, batch: 1, flags: PostFlags::NONE };
    let accel_opts = WriteOpts { post: PostPath::AccelMmio, ..opts };
    let mut rec = StageRecorder::active();
    let mut tracer = Tracer::disabled();

    let cfg = DriverConfig { clients: 1, window: 1, requests: p.txns, warmup: 0.05 };
    let queue = closed_loop(&cfg, prof, |prof, at| {
        let (reads, writes) = prof.time(GEN, || {
            let keys = spec.sample_keys(&dist, &mut workload_rng);
            let (reads, writes) = keys.split_at(spec.reads);
            let writes: Vec<TxnWrite> =
                writes.iter().map(|&key| TxnWrite { key, value: vec![0xCD; value_bytes as usize] }).collect();
            (reads.to_vec(), writes)
        });
        let d0 = prof
            .time(VERBS, || {
                rdma_write(
                    at,
                    &mut m.client.rnic,
                    &mut m.port0.rnic,
                    &mut m.net,
                    &mut m.port0.mem,
                    &mut m.client.mem,
                    ring0,
                    entry,
                    opts,
                )
            })
            .expect(NO_FAULTS)
            .delivered_at;
        // Head replica: forward on discovery, then parse and read locally.
        let (discovered, start, wqe) = prof.time(ACCEL, || {
            let t = m.accel0.discover(d0, 1, &mut accel0_rng);
            let start = m.accel0.claim_slot(t);
            (t, start, m.accel0.sq_write_wqe(start))
        });
        let at_p1 = prof.time(VERBS, || {
            let posted = m.port0.rnic.post(wqe, PostPath::AccelMmio, 1);
            m.route(posted, PORT0, PORT1, entry, &mut route_rng)
        });
        let local = prof.time(ACCEL, || {
            let mut local = m.accel0.ring_read(start, entry.min(256), &mut m.port0.mem);
            local = m.accel0.compute(local, 2 + spec.ops() as u64);
            for _ in 0..reads.len() {
                local = m.accel0.mem_access(local, value_bytes, false, &mut m.port0.mem);
            }
            m.accel0.release_slot(d0, local);
            local
        });
        // Tail replica: ACK on discovery, apply off the critical path.
        let d1 = prof.time(VERBS, || m.port1.rnic.deliver_write(at_p1, ring1, entry, &mut m.port1.mem).0);
        let (start1, wqe1) = prof.time(ACCEL, || {
            let t1 = m.accel1.discover(d1, 1, &mut accel1_rng);
            let start1 = m.accel1.claim_slot(t1);
            (start1, m.accel1.sq_write_wqe(start1))
        });
        let ack_posted = prof.time(VERBS, || m.port1.rnic.post(wqe1, PostPath::AccelMmio, 1));
        prof.time(ACCEL, || {
            let tail = m.accel1.ring_read(start1, entry.min(256), &mut m.port1.mem);
            let tail = m.accel1.compute(tail, 1 + spec.ops() as u64);
            m.accel1.release_slot(d1, tail);
        });
        let ack_at_p0 = prof.time(VERBS, || m.route(ack_posted, PORT1, PORT0, 0, &mut route_rng));
        let joined = ack_at_p0.max(local);
        let commit = prof.time(ACCEL, || m.accel0.compute(joined, 1));
        let fin = prof
            .time(VERBS, || {
                rdma_write(
                    commit,
                    &mut m.port0.rnic,
                    &mut m.client.rnic,
                    &mut m.net,
                    &mut m.client.mem,
                    &mut m.port0.mem,
                    client_mr,
                    8 + reads.len() as u64 * value_bytes,
                    accel_opts,
                )
            })
            .expect(NO_FAULTS)
            .delivered_at;
        prof.time(TXN_EXECUTE, || {
            chain.execute(&reads, writes);
        });
        let legs = [
            ("fabric_request", d0),
            ("coherence", discovered),
            ("dispatch", start),
            ("chain_round", joined),
            ("commit", commit),
            ("fabric_response", fin),
        ];
        prof.time(LEGS, || observe(&mut rec, &mut tracer, at, &legs, |s| m.publish(s)));
        fin
    });

    let mut resources = MetricSet::new();
    m.publish(&mut resources);
    Replay { resources, queue, total: HistSummary::of(rec.total()), memo_rows: (0, 0) }
}

struct DlrmMachines {
    net: Network,
    client: Machine,
    server: Machine,
    engine: AccelEngine,
    preprocess: CpuServer,
    dispatch: Server,
}

impl DlrmMachines {
    fn publish(&self, s: &mut MetricSet) {
        self.client.publish_metrics(s, "client");
        self.server.publish_metrics(s, "server");
        self.engine.publish_metrics(s, "accel");
        self.preprocess.publish_metrics(s, "preprocess");
        s.observe_server("apu_dispatch", &self.dispatch);
        self.net.publish_metrics(s, "net");
    }
}

/// `Design::dlrm_rambda(p, DataLocation::HostDram)` with MERCI on.
pub fn dlrm(p: &DlrmParams, tb: &Testbed, prof: &mut Prof) -> Replay {
    assert!(p.merci, "replay covers the MERCI reduction");
    let (model, memo) = prof.span("dlrm.model", "setup", 1, |_| {
        let model = DlrmModel::synthetic(p.functional_rows as usize, p.dim);
        let memo = MemoTable::build(&model.embedding);
        (model, memo)
    });

    let mut m = DlrmMachines {
        net: Network::new(tb.net.clone()),
        client: Machine::new(CLIENT, tb, false),
        server: Machine::new(SERVER, tb, false),
        engine: AccelEngine::new(tb.accel_config(DataLocation::HostDram, true)),
        preprocess: CpuServer::new(tb.cpu.clone(), p.costs.preprocess_cores, 16),
        dispatch: Server::new(1),
    };
    let pair_zipf = Zipf::new(p.functional_rows as u64 / 2, p.profile.zipf_theta);
    let mut rng = SimRng::seed(p.seed);
    let ring_mr = m.server.rnic.register_region(MrInfo::adaptive(MemKind::Dram));
    let client_mr = m.client.rnic.register_region(MrInfo::adaptive(MemKind::Dram));
    let req_opts = WriteOpts { post: PostPath::HostMmio, batch: 16, flags: PostFlags::NONE };
    let resp_opts = WriteOpts { post: PostPath::AccelMmio, ..req_opts };
    let row_bytes = p.dim as u64 * 4;
    let costs = p.costs.clone();
    let mut rec = StageRecorder::active();
    let mut tracer = Tracer::disabled();
    let mut memo_rows = (0u64, 0u64);

    let cfg = DriverConfig::new(p.clients, p.queries).with_window(16);
    let queue = closed_loop(&cfg, prof, |prof, at| {
        let q =
            prof.time(GEN, || sample_correlated_query(&p.profile, p.functional_rows, &pair_zipf, &mut rng));
        let plan = prof.time(DLRM_PLAN, || ReductionPlan::build(&q, &memo));
        let reduced = prof.time(DLRM_REDUCE, || plan.reduce(&model.embedding, &memo));
        black_box(prof.time(DLRM_MLP, || model.mlp.forward(&reduced)[0]));
        memo_rows.0 += 2 * plan.memo_pairs.len() as u64;
        memo_rows.1 += plan.base_lookups() as u64;
        let wire = q.wire_bytes();
        let out = prof
            .time(VERBS, || {
                rdma_write(
                    at,
                    &mut m.client.rnic,
                    &mut m.server.rnic,
                    &mut m.net,
                    &mut m.server.mem,
                    &mut m.client.mem,
                    ring_mr,
                    wire,
                    req_opts,
                )
            })
            .expect(NO_FAULTS);
        let [discovered, start, sent, preprocessed, input_back, disp, gathered, fc_done, wqe] =
            prof.time(ACCEL, || {
                let discovered = m.engine.discover(out.delivered_at, p.clients, &mut rng);
                let start = m.engine.claim_slot(discovered);
                let sent = m.engine.ring_write(start, wire, &mut m.server.mem);
                let preprocessed = m.preprocess.occupy(sent, costs.preprocess);
                let input_back = m.engine.ring_read(preprocessed, wire, &mut m.server.mem);
                let disp = m.dispatch.acquire(input_back, costs.apu_dispatch) + costs.apu_dispatch;
                let gathered = m.engine.gather(disp, plan.lookups(), row_bytes, &mut m.server.mem);
                let fc_done = gathered + costs.mlp_apu;
                let wqe = m.engine.sq_write_wqe(fc_done);
                m.engine.release_slot(discovered, wqe);
                [discovered, start, sent, preprocessed, input_back, disp, gathered, fc_done, wqe]
            });
        let fin = prof
            .time(VERBS, || {
                rdma_write(
                    wqe,
                    &mut m.server.rnic,
                    &mut m.client.rnic,
                    &mut m.net,
                    &mut m.client.mem,
                    &mut m.server.mem,
                    client_mr,
                    16,
                    resp_opts,
                )
            })
            .expect(NO_FAULTS)
            .delivered_at;
        let legs = [
            ("fabric_request", out.delivered_at),
            ("coherence", discovered),
            ("dispatch", start),
            ("ring_write", sent),
            ("cpu_preprocess", preprocessed),
            ("ring_read", input_back),
            ("apu_dispatch", disp),
            ("gather", gathered),
            ("apu_compute", fc_done),
            ("doorbell", wqe),
            ("fabric_response", fin),
        ];
        prof.time(LEGS, || observe(&mut rec, &mut tracer, at, &legs, |s| m.publish(s)));
        fin
    });

    let mut resources = MetricSet::new();
    m.publish(&mut resources);
    Replay { resources, queue, total: HistSummary::of(rec.total()), memo_rows }
}
