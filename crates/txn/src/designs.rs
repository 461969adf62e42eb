//! The Fig. 11 two-replica emulation and the Fig. 12 latency experiments.
//!
//! One physical server exposes two 25 GbE ports, each backed by a replica
//! instance; the client's Smart-NIC ARM cores route chain traffic between
//! the ports, adding the 2–3 µs that stands in for a datacenter network hop.
//! Transactions are issued serially by the client (window 1), as in the
//! paper, so the latency reduction also reflects throughput.

use rambda::{Design, DriverConfig, Machine, Machines, Req, Testbed};
use rambda_accel::{AccelEngine, DataLocation};
use rambda_des::{SimRng, SimTime, Span};
use rambda_fabric::{Network, NodeId};
use rambda_mem::MemKind;
use rambda_metrics::MetricSet;
use rambda_rnic::{rdma_read, rdma_write, MrInfo, PostFlags, PostPath, WriteOpts};
use rambda_workloads::{KeyDist, TxnSpec};

use crate::chain::{Chain, TxnWrite};

const CLIENT: NodeId = NodeId(0);
const PORT0: NodeId = NodeId(1);
const PORT1: NodeId = NodeId(2);

/// Per-machine RNG stream salts. Each simulated machine draws from its own
/// deterministically salted `SimRng` stream (`SimRng::stream(seed, salt)`),
/// so one machine's draws never depend on how often another machine drew.
const CLIENT_WORKLOAD_SALT: u64 = 0xC0;
const CLIENT_ROUTE_SALT: u64 = 0xC1;
const PORT0_ACCEL_SALT: u64 = 0xA0;
const PORT1_ACCEL_SALT: u64 = 0xA1;

/// Transaction experiment parameters.
#[derive(Debug, Clone)]
pub struct TxnParams {
    /// Key-value pair size (64 B or 1024 B in Fig. 12).
    pub value_bytes: u32,
    /// Transaction shape ((0,1) or (4,2) in Fig. 12).
    pub spec: TxnSpec,
    /// Transactions to execute (100 K in the paper).
    pub txns: u64,
    /// Key space (100 K pairs pre-loaded).
    pub keys: u64,
    /// RNG seed.
    pub seed: u64,
}

impl TxnParams {
    /// A fast configuration for tests.
    pub fn quick(spec: TxnSpec) -> Self {
        TxnParams { value_bytes: spec.value_bytes, spec, txns: 4_000, keys: 100_000, seed: 7 }
    }

    /// Paper-scale: 100 K transactions.
    pub fn paper(spec: TxnSpec) -> Self {
        TxnParams { txns: 100_000, ..TxnParams::quick(spec) }
    }

    fn driver(&self) -> DriverConfig {
        // Serial issue: one client, window 1.
        DriverConfig { clients: 1, window: 1, requests: self.txns, warmup: 0.05 }
    }

    /// The functional chain with every key pre-loaded (bulk path; state
    /// matches per-txn execution).
    fn preloaded_chain(&self) -> Chain {
        let mut chain = Chain::new(2);
        chain.preload((0..self.keys).map(|key| (key, vec![(key & 0xFF) as u8; self.value_bytes as usize])));
        chain
    }

    /// Samples one transaction's key set from the client's workload stream.
    fn sample_txn(&self, dist: &KeyDist, rng: &mut SimRng) -> (Vec<u64>, Vec<TxnWrite>) {
        let keys = self.spec.sample_keys(dist, rng);
        let (read_keys, write_keys) = keys.split_at(self.spec.reads);
        let writes = write_keys
            .iter()
            .map(|&key| TxnWrite { key, value: vec![0xCD; self.value_bytes as usize] })
            .collect();
        (read_keys.to_vec(), writes)
    }
}

/// Mean ARM routing delay between the ports (2-3 µs in Sec. VI-C).
const ROUTE_MEAN: Span = Span::from_ns(3_000);

/// The Fig. 11 machines: the client, the server's two replica ports and
/// the network between them.
struct Fig11 {
    net: Network,
    client: Machine,
    port0: Machine,
    port1: Machine,
}

impl Fig11 {
    fn new(testbed: &Testbed) -> Self {
        // DDIO disabled on the server, as both systems do in Sec. VI-C.
        Fig11 {
            net: Network::new(testbed.net.clone()),
            client: Machine::new(CLIENT, testbed, false),
            port0: Machine::new(PORT0, testbed, false),
            port1: Machine::new(PORT1, testbed, false),
        }
    }

    /// Routes a message from one server port to the other through the
    /// client's Smart-NIC ARM cores (Fig. 11): wire + ARM forward + wire.
    /// `rng` is the client machine's routing-jitter stream.
    fn route(&mut self, at: SimTime, from: NodeId, to: NodeId, bytes: u64, rng: &mut SimRng) -> SimTime {
        let at_arm = self.net.send(at, from, CLIENT, bytes);
        let forwarded = at_arm + ROUTE_MEAN + Span::from_ns_f64(ROUTE_MEAN.as_ns_f64() * rng.exp(0.08));
        self.net.send(forwarded, CLIENT, to, bytes)
    }
}

impl Machines for Fig11 {
    fn publish(&self, s: &mut MetricSet) {
        self.client.publish_metrics(s, "client");
        self.port0.publish_metrics(s, "port0");
        self.port1.publish_metrics(s, "port1");
        self.net.publish_metrics(s, "net");
    }

    fn network(&mut self) -> Option<&mut Network> {
        Some(&mut self.net)
    }
}

/// Rambda-Tx's machines: Fig. 11 plus one accelerator per replica.
struct RambdaTx {
    w: Fig11,
    accel0: AccelEngine,
    accel1: AccelEngine,
}

impl Machines for RambdaTx {
    fn publish(&self, s: &mut MetricSet) {
        let Fig11 { net, client, port0, port1 } = &self.w;
        client.publish_metrics(s, "client");
        port0.publish_metrics(s, "port0");
        port1.publish_metrics(s, "port1");
        self.accel0.publish_metrics(s, "accel0");
        self.accel1.publish_metrics(s, "accel1");
        net.publish_metrics(s, "net");
    }

    fn network(&mut self) -> Option<&mut Network> {
        self.w.network()
    }
}

/// [`Design`] constructors for the transaction experiments, so
/// [`rambda::SimBuilder`] can run them.
pub trait TxnDesigns {
    /// The HyperLoop baseline (`txn.hyperloop`).
    fn txn_hyperloop(params: TxnParams) -> Design;
    /// Rambda-Tx (`txn.rambda_tx`).
    fn txn_rambda_tx(params: TxnParams) -> Design;
    /// The pure-read fast path (`txn.pure_reads`, Sec. IV-B): chain
    /// replication already provides consistency, so a client reads directly
    /// from the head's NVM with a one-sided RDMA read — identical in both
    /// designs, which is why Fig. 12 excludes pure reads. Not a registry
    /// runner.
    fn txn_pure_reads(params: TxnParams) -> Design;
}

impl TxnDesigns for Design {
    /// HyperLoop: group-based RDMA primitives triggered by the RNIC. Reads
    /// are one-sided reads to the head; each *write* is one group-RDMA
    /// operation that traverses the whole chain — and multi-write
    /// transactions must issue them sequentially (the Sec. IV-B limitation
    /// Rambda removes).
    fn txn_hyperloop(params: TxnParams) -> Design {
        Design::new("txn.hyperloop", params.seed, params.driver(), move |tb| {
            let mut w = Fig11::new(tb);
            let mut chain = params.preloaded_chain();
            let dist = KeyDist::uniform(params.keys);
            let mut workload_rng = SimRng::stream(params.seed, CLIENT_WORKLOAD_SALT);
            let mut route_rng = SimRng::stream(params.seed, CLIENT_ROUTE_SALT);
            let nvm0 = w.port0.rnic.register_region(MrInfo::adaptive(MemKind::Nvm));
            let nvm1 = w.port1.rnic.register_region(MrInfo::adaptive(MemKind::Nvm));
            let value = params.value_bytes as u64;
            let opts = WriteOpts { post: PostPath::HostMmio, batch: 1, flags: PostFlags::NONE };
            (w, move |w: &mut Fig11, _, at, req: &mut Req<'_>| {
                let (reads, writes) = params.sample_txn(&dist, &mut workload_rng);
                let mut t = at;
                // Sequential one-sided reads from the head replica's NVM.
                for _ in 0..reads.len() {
                    t = rdma_read(
                        t,
                        &mut w.client.rnic,
                        &mut w.port0.rnic,
                        &mut w.net,
                        &mut w.port0.mem,
                        nvm0,
                        value,
                        opts,
                    )?
                    .data_at;
                }
                req.leg("read_rtts", t);
                // Sequential group-RDMA writes, one chain round per KV pair.
                for _ in 0..writes.len() {
                    // Client -> port0: log-entry write into NVM (single tuple).
                    let entry = 1 + value + 12;
                    let d0 = rdma_write(
                        t,
                        &mut w.client.rnic,
                        &mut w.port0.rnic,
                        &mut w.net,
                        &mut w.port0.mem,
                        &mut w.client.mem,
                        nvm0,
                        entry,
                        opts,
                    )?;
                    // RNIC-triggered forward to the next replica through the ARM.
                    let fwd = w.port0.rnic.rx_process(d0.delivered_at);
                    let at_p1 = w.route(fwd, PORT0, PORT1, entry, &mut route_rng);
                    let (d1, _) = w.port1.rnic.deliver_write(at_p1, nvm1, entry, &mut w.port1.mem);
                    // Tail ACK back-propagates: port1 -> port0 -> client.
                    let ack_at_p0 = w.route(d1, PORT1, PORT0, 0, &mut route_rng);
                    let acked = w.net.send(ack_at_p0, PORT0, CLIENT, 0);
                    t = w.client.rnic.complete(acked, &mut w.client.mem);
                }
                req.leg("chain_writes", t);
                // Functional effect.
                let _ = chain.execute(&reads, writes);
                // CQE polled on a client core (cheap).
                let fin = t + Span::from_ns(100);
                req.leg("cqe_poll", fin);
                Ok(fin)
            })
        })
    }

    /// Rambda-Tx: the client issues one combined multi-tuple request; the
    /// accelerator at each replica parses the log entry near-data, enforces
    /// concurrency control, and forwards along the chain — one chain round
    /// per *transaction*.
    fn txn_rambda_tx(params: TxnParams) -> Design {
        Design::new("txn.rambda_tx", params.seed, params.driver(), move |tb| {
            let mut w = Fig11::new(tb);
            let mut chain = params.preloaded_chain();
            let dist = KeyDist::uniform(params.keys);
            let mut workload_rng = SimRng::stream(params.seed, CLIENT_WORKLOAD_SALT);
            let mut route_rng = SimRng::stream(params.seed, CLIENT_ROUTE_SALT);
            let mut accel0_rng = SimRng::stream(params.seed, PORT0_ACCEL_SALT);
            let mut accel1_rng = SimRng::stream(params.seed, PORT1_ACCEL_SALT);
            // Request rings live in NVM and double as the redo log (Sec. IV-B).
            let ring0 = w.port0.rnic.register_region(MrInfo::adaptive(MemKind::Nvm));
            let ring1 = w.port1.rnic.register_region(MrInfo::adaptive(MemKind::Nvm));
            let client_mr = w.client.rnic.register_region(MrInfo::adaptive(MemKind::Dram));
            let m = RambdaTx {
                w,
                accel0: AccelEngine::new(tb.accel_config(DataLocation::HostNvm, true)),
                accel1: AccelEngine::new(tb.accel_config(DataLocation::HostNvm, true)),
            };
            let spec = params.spec;
            let opts = WriteOpts { post: PostPath::HostMmio, batch: 1, flags: PostFlags::NONE };
            let accel_opts = WriteOpts { post: PostPath::AccelMmio, ..opts };
            (m, move |m: &mut RambdaTx, _, at, req: &mut Req<'_>| {
                let (reads, writes) = params.sample_txn(&dist, &mut workload_rng);
                let RambdaTx { w, accel0, accel1 } = m;
                let entry = spec.log_entry_bytes();
                // One combined request into the head's NVM ring (= redo log write).
                let d0 = rdma_write(
                    at,
                    &mut w.client.rnic,
                    &mut w.port0.rnic,
                    &mut w.net,
                    &mut w.port0.mem,
                    &mut w.client.mem,
                    ring0,
                    entry,
                    opts,
                )?;
                req.leg("fabric_request", d0.delivered_at);

                // Head accelerator: on the cpoll signal it forwards the
                // (already durable) entry down the chain immediately;
                // parsing, concurrency control and the read set overlap with
                // the chain round trip.
                let t = accel0.discover(d0.delivered_at, 1, &mut accel0_rng);
                req.leg("coherence", t);
                let start = accel0.claim_slot(t);
                req.leg("dispatch", start);
                let wqe = accel0.sq_write_wqe(start);
                let fwd_posted = w.port0.rnic.post(wqe, PostPath::AccelMmio, 1);
                let at_p1 = w.route(fwd_posted, PORT0, PORT1, entry, &mut route_rng);

                let mut local = accel0.ring_read(start, entry.min(256), &mut w.port0.mem);
                local = accel0.compute(local, 2 + spec.ops() as u64); // CC + parse
                for _ in 0..reads.len() {
                    local = accel0.mem_access(local, params.value_bytes as u64, false, &mut w.port0.mem);
                }
                accel0.release_slot(d0.delivered_at, local);

                // Tail accelerator: the entry is durable once delivered into
                // the NVM ring, so the ACK goes out on discovery; the local
                // apply happens off the critical path.
                let (d1, _) = w.port1.rnic.deliver_write(at_p1, ring1, entry, &mut w.port1.mem);
                let t1 = accel1.discover(d1, 1, &mut accel1_rng);
                let start1 = accel1.claim_slot(t1);
                let wqe1 = accel1.sq_write_wqe(start1);
                let ack_posted = w.port1.rnic.post(wqe1, PostPath::AccelMmio, 1);
                let mut tail_local = accel1.ring_read(start1, entry.min(256), &mut w.port1.mem);
                tail_local = accel1.compute(tail_local, 1 + spec.ops() as u64);
                accel1.release_slot(d1, tail_local);

                // Tail ACK back through the chain; the head commits once both
                // the ACK and its own processing are done, then responds to
                // the client.
                let ack_at_p0 = w.route(ack_posted, PORT1, PORT0, 0, &mut route_rng);
                // The chain round trip and the head's local work run in
                // parallel; the critical path resumes at their join point.
                req.leg("chain_round", ack_at_p0.max(local));
                let commit = accel0.compute(ack_at_p0.max(local), 1);
                req.leg("commit", commit);
                let resp = rdma_write(
                    commit,
                    &mut w.port0.rnic,
                    &mut w.client.rnic,
                    &mut w.net,
                    &mut w.client.mem,
                    &mut w.port0.mem,
                    client_mr,
                    8 + reads.len() as u64 * params.value_bytes as u64,
                    accel_opts,
                )?;
                req.leg("fabric_response", resp.delivered_at);

                // Functional effect.
                let _ = chain.execute(&reads, writes);
                Ok(resp.delivered_at)
            })
        })
    }

    fn txn_pure_reads(params: TxnParams) -> Design {
        Design::new("txn.pure_reads", params.seed, params.driver(), move |tb| {
            let mut w = Fig11::new(tb);
            let mut chain = params.preloaded_chain();
            let dist = KeyDist::uniform(params.keys);
            let mut workload_rng = SimRng::stream(params.seed, CLIENT_WORKLOAD_SALT);
            let nvm0 = w.port0.rnic.register_region(MrInfo::adaptive(MemKind::Nvm));
            let value = params.value_bytes as u64;
            (w, move |w: &mut Fig11, _, at, req: &mut Req<'_>| {
                let key = dist.sample(&mut workload_rng);
                let data_at = rdma_read(
                    at,
                    &mut w.client.rnic,
                    &mut w.port0.rnic,
                    &mut w.net,
                    &mut w.port0.mem,
                    nvm0,
                    value,
                    WriteOpts::host_unsignaled(),
                )?
                .data_at;
                req.leg("read_rtts", data_at);
                // Functional effect: a read-only transaction at the head.
                let res = chain.execute(&[key], Vec::new());
                debug_assert!(res.reads[0].is_some(), "pre-loaded key must exist");
                Ok(data_at)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rambda::SimBuilder;
    use rambda_metrics::RunReport;

    fn tb() -> Testbed {
        Testbed::default()
    }

    fn hyperloop_report(p: &TxnParams) -> RunReport {
        SimBuilder::new(Design::txn_hyperloop(p.clone())).config(&tb()).run()
    }

    fn rambda_tx_report(p: &TxnParams) -> RunReport {
        SimBuilder::new(Design::txn_rambda_tx(p.clone())).config(&tb()).run()
    }

    #[test]
    fn pure_reads_skip_the_chain() {
        // One network round trip + NVM read: far below even the (0,1)
        // write transaction, and identical across designs by construction.
        let p = TxnParams { txns: 2_000, ..TxnParams::quick(TxnSpec::single_write(64)) };
        let reads = SimBuilder::new(Design::txn_pure_reads(p.clone())).config(&tb()).run().mean_us();
        let writes = rambda_tx_report(&p).mean_us();
        assert!(reads < 0.5 * writes, "pure read {reads} vs write txn {writes}");
    }

    #[test]
    fn fig12_single_write_is_a_wash() {
        // (0,1): both designs pay one chain round; Rambda may be up to a few
        // percent slower (UPI on the path).
        let p = TxnParams::quick(TxnSpec::single_write(64));
        let hl = hyperloop_report(&p).mean_us();
        let rt = rambda_tx_report(&p).mean_us();
        // Paper: "may even be a bit (less than 3%) slower"; our accelerator
        // model charges slightly more per-hop work (doorbells are explicit
        // rather than RNIC-firmware-triggered), so allow up to ~15%.
        let diff = (rt - hl) / hl;
        assert!((-0.05..0.15).contains(&diff), "hyperloop={hl} rambda={rt} diff={diff}");
    }

    #[test]
    fn fig12_multi_op_txn_favors_rambda() {
        // (4,2): HyperLoop pays 4 read RTTs + 2 chain rounds; Rambda pays
        // one chain round. Paper: 63.2%-66.8% lower average latency.
        let p = TxnParams::quick(TxnSpec::read_write(64));
        let hl = hyperloop_report(&p);
        let rt = rambda_tx_report(&p);
        let saving = 1.0 - rt.mean_us() / hl.mean_us();
        assert!((0.5..0.8).contains(&saving), "saving={saving} hl={} rt={}", hl.mean_us(), rt.mean_us());
        // Tail saving in the same band (64.5%-69.1% in the paper).
        let tail_saving = 1.0 - rt.p99_us() / hl.p99_us();
        assert!((0.45..0.85).contains(&tail_saving), "tail saving={tail_saving}");
    }

    #[test]
    fn fig12_larger_values_cost_more() {
        let small = TxnParams::quick(TxnSpec::read_write(64));
        let large = TxnParams::quick(TxnSpec::read_write(1024));
        let s = rambda_tx_report(&small).mean_us();
        let l = rambda_tx_report(&large).mean_us();
        assert!(l > s, "1024B ({l}) should cost more than 64B ({s})");
        let hs = hyperloop_report(&small).mean_us();
        let hlat = hyperloop_report(&large).mean_us();
        assert!(hlat > hs);
    }

    #[test]
    fn chains_stay_consistent_under_both_designs() {
        // The functional chain inside each run must not diverge; re-run a
        // small workload and check.
        let p = TxnParams { txns: 500, ..TxnParams::quick(TxnSpec::read_write(64)) };
        let _ = hyperloop_report(&p);
        let _ = rambda_tx_report(&p);
        // Direct functional check.
        let mut chain = p.preloaded_chain();
        let dist = KeyDist::uniform(p.keys);
        let mut workload_rng = SimRng::stream(p.seed, CLIENT_WORKLOAD_SALT);
        for _ in 0..200 {
            let (r, w2) = p.sample_txn(&dist, &mut workload_rng);
            chain.execute(&r, w2);
        }
        chain.check_consistency().unwrap();
    }
}
