//! The 25 GbE RoCEv2 fabric between machines.

use std::collections::BTreeMap;

use rambda_des::{Link, SimTime, Span};
use serde::{Deserialize, Serialize};

use crate::faults::{FaultConfig, FaultEvent, FaultKind, FaultPlan, FaultStats};

/// Identifies a machine (or a Smart-NIC port acting as a replica, as in the
/// Fig. 11 topology).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u16);

/// Network parameters (defaults: Tab. II's 25 Gb/s ConnectX-6 ports).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NetConfig {
    /// Per-port bandwidth in bytes/second (25 Gb/s ⇒ 3.125 GB/s).
    pub port_bandwidth: f64,
    /// One-way wire + switch latency between any two nodes.
    pub wire_latency: Span,
    /// Effective per-message wire overhead in bytes: Ethernet + IP + UDP +
    /// IB BTH/RETH headers, FCS, preamble/IFG, plus the amortized ACK
    /// traffic of reliable-connection RoCEv2. Calibrated so one 25 Gb/s
    /// port sustains ~12 M 64 B messages/s, matching the network-bound KVS
    /// regime of Sec. VI-B.
    pub header_bytes: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig { port_bandwidth: 25.0e9 / 8.0, wire_latency: Span::from_ns(850), header_bytes: 200 }
    }
}

/// A switched network of nodes, each with one full-duplex port.
///
/// ```
/// use rambda_des::SimTime;
/// use rambda_fabric::{NetConfig, Network, NodeId};
///
/// let mut net = Network::new(NetConfig::default());
/// let (client, server) = (NodeId(0), NodeId(1));
/// let arrive = net.send(SimTime::ZERO, client, server, 64);
/// assert!(arrive.as_ns_f64() > 850.0);
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    cfg: NetConfig,
    egress: BTreeMap<NodeId, Link>,
    ingress: BTreeMap<NodeId, Link>,
    messages: u64,
    faults: Option<FaultPlan>,
}

/// The verdict of one fault-aware data-path transmission
/// ([`Network::transmit`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxOutcome {
    /// The frame arrived intact; `at` is when its last byte is available at
    /// the receiver.
    Delivered {
        /// Arrival time at the receiver.
        at: SimTime,
    },
    /// The frame was lost in the fabric (random drop or link flap); `at` is
    /// when the sender's egress finished serializing it — the earliest the
    /// sender's retransmission timer can be armed.
    Dropped {
        /// End of egress serialization at the sender.
        at: SimTime,
    },
    /// The frame arrived but fails the receiver's integrity check; `at` is
    /// the arrival time, from which the receiver issues its NACK.
    Corrupted {
        /// Arrival time of the mangled frame at the receiver.
        at: SimTime,
    },
}

impl Network {
    /// Creates an empty network; ports materialize on first use.
    pub fn new(cfg: NetConfig) -> Self {
        Network { cfg, egress: BTreeMap::new(), ingress: BTreeMap::new(), messages: 0, faults: None }
    }

    /// The active configuration.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// Installs a fault plan. An inactive config installs nothing, which
    /// keeps a zero-loss run byte-identical to a faultless one.
    pub fn install_faults(&mut self, cfg: &FaultConfig) {
        self.faults = cfg.is_active().then(|| FaultPlan::new(cfg.clone()));
    }

    /// Fault-injection counters, if a plan is installed.
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.faults.as_ref().map(FaultPlan::stats)
    }

    /// Takes the fault events accumulated so far (for the trace ring).
    pub fn drain_fault_events(&mut self) -> Vec<FaultEvent> {
        self.faults.as_mut().map(FaultPlan::drain_events).unwrap_or_default()
    }

    fn port<'a>(map: &'a mut BTreeMap<NodeId, Link>, cfg: &NetConfig, node: NodeId) -> &'a mut Link {
        map.entry(node).or_insert_with(|| Link::new(cfg.port_bandwidth, Span::ZERO))
    }

    /// Frame size as serialized on `from`'s egress port at `at`: payload
    /// plus headers, inflated by any active bandwidth-degradation window.
    fn effective_framed(&self, at: SimTime, from: NodeId, bytes: u64) -> u64 {
        let framed = bytes + self.cfg.header_bytes;
        match &self.faults {
            Some(p) => {
                let factor = p.degrade_factor(at, from);
                if factor > 1.0 {
                    (framed as f64 * factor).ceil() as u64
                } else {
                    framed
                }
            }
            None => framed,
        }
    }

    /// Sends `bytes` of payload from `from` to `to`; returns when the last
    /// byte is available at the receiver (after egress serialization, the
    /// wire, and ingress serialization).
    ///
    /// This is the *control path*: it is exempt from drop/corrupt/flap
    /// injection (only bandwidth degradation applies), so ACKs and NACKs
    /// always get through — mirroring strict-priority control traffic and
    /// keeping the recovery machinery free of NACK-loss recursion. Data
    /// transfers that should face faults go through [`Network::transmit`].
    pub fn send(&mut self, at: SimTime, from: NodeId, to: NodeId, bytes: u64) -> SimTime {
        assert_ne!(from, to, "loopback messages do not cross the network");
        let framed = self.effective_framed(at, from, bytes);
        let out = Self::port(&mut self.egress, &self.cfg, from).transfer(at, framed).depart;
        let on_wire = out + self.cfg.wire_latency;
        let arrived = Self::port(&mut self.ingress, &self.cfg, to).transfer(on_wire, framed).depart;
        self.messages += 1;
        arrived
    }

    /// Sends one *data-path* frame from `from` to `to`, subject to the
    /// installed [`FaultPlan`]. Without a plan this is exactly [`send`]
    /// wrapped in [`TxOutcome::Delivered`].
    ///
    /// A dropped or flapped frame still consumes egress serialization time
    /// (the sender's port did the work) but never reaches the receiver's
    /// ingress port. A corrupted frame consumes both, like any delivered
    /// frame — only its payload is garbage.
    ///
    /// [`send`]: Network::send
    pub fn transmit(&mut self, at: SimTime, from: NodeId, to: NodeId, bytes: u64) -> TxOutcome {
        assert_ne!(from, to, "loopback messages do not cross the network");
        let framed = self.effective_framed(at, from, bytes);
        let out = Self::port(&mut self.egress, &self.cfg, from).transfer(at, framed).depart;
        self.messages += 1;
        let verdict = self.faults.as_mut().and_then(|p| p.judge(out, from, to));
        match verdict {
            Some(FaultKind::Dropped) | Some(FaultKind::Flapped) => TxOutcome::Dropped { at: out },
            Some(FaultKind::Corrupted) => {
                let on_wire = out + self.cfg.wire_latency;
                let arrived = Self::port(&mut self.ingress, &self.cfg, to).transfer(on_wire, framed).depart;
                TxOutcome::Corrupted { at: arrived }
            }
            None => {
                let on_wire = out + self.cfg.wire_latency;
                let arrived = Self::port(&mut self.ingress, &self.cfg, to).transfer(on_wire, framed).depart;
                TxOutcome::Delivered { at: arrived }
            }
        }
    }

    /// Total messages sent.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Bytes (framed) that left `node`'s egress port so far.
    pub fn egress_bytes(&self, node: NodeId) -> u64 {
        self.egress.get(&node).map(|l| l.bytes_moved()).unwrap_or(0)
    }

    /// Average egress bandwidth of `node` over `[0, now]`.
    pub fn egress_bandwidth(&self, node: NodeId, now: SimTime) -> f64 {
        let secs = now.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.egress_bytes(node) as f64 / secs
        }
    }

    /// Publishes the network's counters under `prefix`: the message count
    /// and each active port's link counters, keyed by node id (the port
    /// maps are ordered, so the output order is deterministic).
    pub fn publish_metrics(&self, m: &mut rambda_metrics::MetricSet, prefix: &str) {
        m.set(&format!("{prefix}.messages"), self.messages);
        for (node, link) in &self.egress {
            m.observe_link(&format!("{prefix}.egress.{}", node.0), link);
        }
        for (node, link) in &self.ingress {
            m.observe_link(&format!("{prefix}.ingress.{}", node.0), link);
        }
        // Fault counters are published only when nonzero, so a run with a
        // plan installed but no injections keeps byte-identical reports.
        if let Some(s) = self.fault_stats() {
            if s.dropped > 0 {
                m.set(&format!("{prefix}.faults.dropped"), s.dropped);
            }
            if s.corrupted > 0 {
                m.set(&format!("{prefix}.faults.corrupted"), s.corrupted);
            }
            if s.flapped > 0 {
                m.set(&format!("{prefix}.faults.flapped"), s.flapped);
            }
        }
    }

    /// Publishes each active port's link counters into its own metric scope
    /// (`link/{prefix}.egress.{n}`, `link/{prefix}.ingress.{n}`), under the
    /// *same* counter names the global report carries — so the scoped
    /// rollup's per-link counters provably equal the run's resource
    /// counters. A disabled registry makes this a no-op.
    pub fn publish_scoped(&self, scopes: &mut rambda_metrics::ScopedMetrics, prefix: &str) {
        for (node, link) in &self.egress {
            let name = format!("{prefix}.egress.{}", node.0);
            if let Some(set) = scopes.child(&format!("link/{name}")) {
                set.observe_link(&name, link);
            }
        }
        for (node, link) in &self.ingress {
            let name = format!("{prefix}.ingress.{}", node.0);
            if let Some(set) = scopes.child(&format!("link/{name}")) {
                set.observe_link(&name, link);
            }
        }
    }

    /// Resets all port occupancy and counters; an installed fault plan is
    /// re-created from its config, so its RNG stream restarts.
    pub fn reset(&mut self) {
        self.egress.clear();
        self.ingress.clear();
        self.messages = 0;
        if let Some(p) = &self.faults {
            self.faults = Some(FaultPlan::new(p.config().clone()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_message_latency_is_wire_dominated() {
        let mut net = Network::new(NetConfig::default());
        let t = net.send(SimTime::ZERO, NodeId(0), NodeId(1), 64);
        let ns = t.as_ns_f64();
        // 264 framed bytes at 3.125 GB/s ≈ 85ns x2 + 850ns wire.
        assert!((950.0..1100.0).contains(&ns), "{ns}");
    }

    #[test]
    fn port_bandwidth_limits_throughput() {
        let mut net = Network::new(NetConfig::default());
        let mut last = SimTime::ZERO;
        let n = 10_000u64;
        for _ in 0..n {
            last = net.send(SimTime::ZERO, NodeId(0), NodeId(1), 1000);
        }
        let achieved = (n as f64 * 1200.0) / last.as_secs_f64();
        let port = 25.0e9 / 8.0;
        assert!((achieved - port).abs() / port < 0.01, "achieved={achieved}");
    }

    #[test]
    fn distinct_senders_use_distinct_ports() {
        let mut net = Network::new(NetConfig::default());
        // Two senders to two receivers do not serialize on each other.
        let a = net.send(SimTime::ZERO, NodeId(0), NodeId(2), 1_000_000);
        let b = net.send(SimTime::ZERO, NodeId(1), NodeId(3), 1_000_000);
        assert_eq!(a, b);
    }

    #[test]
    fn receiver_port_is_shared() {
        let mut net = Network::new(NetConfig::default());
        // Two senders into one receiver serialize at the receiver's port.
        let a = net.send(SimTime::ZERO, NodeId(0), NodeId(9), 1_000_000);
        let b = net.send(SimTime::ZERO, NodeId(1), NodeId(9), 1_000_000);
        assert!(b > a);
    }

    #[test]
    #[should_panic(expected = "loopback")]
    fn loopback_panics() {
        Network::new(NetConfig::default()).send(SimTime::ZERO, NodeId(1), NodeId(1), 1);
    }

    #[test]
    fn transmit_without_plan_matches_send() {
        let mut a = Network::new(NetConfig::default());
        let mut b = Network::new(NetConfig::default());
        let sent = a.send(SimTime::ZERO, NodeId(0), NodeId(1), 4096);
        match b.transmit(SimTime::ZERO, NodeId(0), NodeId(1), 4096) {
            TxOutcome::Delivered { at } => assert_eq!(at, sent),
            other => panic!("expected delivery, got {other:?}"),
        }
        assert!(b.fault_stats().is_none());
        assert!(b.drain_fault_events().is_empty());
    }

    #[test]
    fn inactive_fault_config_installs_nothing() {
        let mut net = Network::new(NetConfig::default());
        net.install_faults(&FaultConfig::disabled());
        assert!(net.fault_stats().is_none());
    }

    #[test]
    fn lossy_transmits_drop_and_count() {
        let mut net = Network::new(NetConfig::default());
        net.install_faults(&FaultConfig::lossy(11, 0.2));
        let mut dropped = 0u64;
        for _ in 0..2_000 {
            if let TxOutcome::Dropped { .. } = net.transmit(SimTime::ZERO, NodeId(0), NodeId(1), 64) {
                dropped += 1;
            }
        }
        assert!(dropped > 0);
        assert_eq!(net.fault_stats().unwrap().dropped, dropped);
        let events = net.drain_fault_events();
        assert_eq!(events.len() as u64, dropped);
        assert!(events.iter().all(|e| e.kind == FaultKind::Dropped));
        // Control path stays loss-exempt even with a plan installed.
        net.send(SimTime::ZERO, NodeId(0), NodeId(1), 0);
        assert_eq!(net.fault_stats().unwrap().dropped, dropped);
    }

    #[test]
    fn degrade_window_slows_the_port() {
        let window = crate::faults::DegradeWindow {
            node: NodeId(0),
            from: Span::ZERO,
            until: Span::from_us(1_000),
            factor: 4.0,
        };
        let mut slow = Network::new(NetConfig::default());
        slow.install_faults(&FaultConfig { degrade: vec![window], ..FaultConfig::disabled() });
        let mut fast = Network::new(NetConfig::default());
        let t_slow = slow.send(SimTime::ZERO, NodeId(0), NodeId(1), 100_000);
        let t_fast = fast.send(SimTime::ZERO, NodeId(0), NodeId(1), 100_000);
        assert!(t_slow > t_fast, "degraded {t_slow:?} !> healthy {t_fast:?}");
    }

    #[test]
    fn reset_restarts_the_fault_stream() {
        let run = |net: &mut Network| {
            (0..512).map(|_| net.transmit(SimTime::ZERO, NodeId(0), NodeId(1), 64)).collect::<Vec<_>>()
        };
        let mut net = Network::new(NetConfig::default());
        net.install_faults(&FaultConfig::lossy(5, 0.1));
        let first = run(&mut net);
        net.reset();
        let second = run(&mut net);
        assert_eq!(first, second);
    }

    #[test]
    fn no_delivery_beats_one_wire_traversal() {
        // The timing model's floor: serialization, queueing and faults only
        // add to the wire latency, so every frame that reaches its receiver
        // arrives at least one wire traversal after it was sent.
        let wire = NetConfig::default().wire_latency;
        let faulty = FaultConfig { corrupt_rate: 0.2, ..FaultConfig::lossy(3, 0.2) };
        for faults in [FaultConfig::disabled(), faulty] {
            let mut net = Network::new(NetConfig::default());
            net.install_faults(&faults);
            let (mut delivered, mut corrupted, mut dropped) = (0u32, 0u32, 0u32);
            for i in 0..400u64 {
                let at = SimTime::from_ns(i * 150);
                let (from, to) = (NodeId((i % 3) as u16), NodeId(((i + 1) % 3) as u16));
                let sent = net.send(at, from, to, (i % 7) * 512);
                assert!(sent >= at + wire, "send at {at:?} arrived {sent:?}, before one wire traversal");
                match net.transmit(at, to, from, (i % 5) * 256) {
                    TxOutcome::Delivered { at: arrived } => {
                        delivered += 1;
                        assert!(arrived >= at + wire, "delivery at {arrived:?} beats the wire");
                    }
                    TxOutcome::Corrupted { at: arrived } => {
                        corrupted += 1;
                        assert!(arrived >= at + wire, "corrupted arrival at {arrived:?} beats the wire");
                    }
                    TxOutcome::Dropped { .. } => dropped += 1,
                }
            }
            assert!(delivered > 0);
            if faults.is_active() {
                assert!(corrupted > 0 && dropped > 0, "the lossy plan must exercise every verdict");
            } else {
                assert_eq!((corrupted, dropped), (0, 0));
            }
        }
    }

    #[test]
    fn counters() {
        let mut net = Network::new(NetConfig::default());
        net.send(SimTime::ZERO, NodeId(0), NodeId(1), 100);
        assert_eq!(net.messages(), 1);
        assert_eq!(net.egress_bytes(NodeId(0)), 300);
        assert!(net.egress_bandwidth(NodeId(0), SimTime::from_us(1)) > 0.0);
        net.reset();
        assert_eq!(net.messages(), 0);
    }
}
