//! The Sec. VI-A single-machine microbenchmark (Fig. 7).
//!
//! Cores on the other NUMA node feed requests through shared-memory ring
//! buffers (emulating one-sided RDMA arrival). Each request picks a random
//! node in a permuted 10 M-node linked list and traverses the two succeeding
//! nodes (three dependent reads), then returns the value. The NVM variant
//! additionally persists a 256 B record per request, which is where the
//! adaptive-DDIO mechanism shows up.

use rambda_accel::{AccelConfig, AccelEngine, DataLocation};
use rambda_coherence::Notifier;
use rambda_des::{SimRng, Span};
use rambda_mem::{MemKind, MemorySystem};
use rambda_metrics::MetricSet;

use crate::config::Testbed;
use crate::cpu::CpuServer;
use crate::driver::DriverConfig;
use crate::sim::{Design, Machines, Req};

/// Spin-polling throughput tax relative to cpoll, applied to both the
/// controller issue rate and the interconnect bandwidth. Calibrated to the
/// ~21.6 % throughput gain the paper measures for cpoll (Sec. VI-A).
const SPIN_POLL_TAX: f64 = 1.22;
/// Extra average discovery latency of spin-polling: half the 30-cycle
/// (75 ns) polling interval.
const SPIN_POLL_DELAY: Span = Span::from_ps(37_500);

impl Testbed {
    /// Builds an accelerator configuration for this testbed.
    ///
    /// With `cpoll == false` (the "Rambda-polling" ablation), the polling
    /// loop competes with application requests for the coherence controller
    /// and the interconnect; the configuration derates both accordingly and
    /// the serving paths add half a polling interval of discovery latency.
    pub fn accel_config(&self, location: DataLocation, cpoll: bool) -> AccelConfig {
        let mut cc = self.cc.clone();
        if !cpoll {
            cc.bandwidth /= SPIN_POLL_TAX;
            cc.controller_issue_gap = cc.controller_issue_gap.mul_f64(SPIN_POLL_TAX);
            cc.gather_issue_gap = cc.gather_issue_gap.mul_f64(SPIN_POLL_TAX);
        }
        // Discovery always uses the push-based path here; the spin-polling
        // variant's costs are folded into the derated `cc` above plus the
        // SPIN_POLL_DELAY the serving paths add. (`Notifier::SpinPoll`
        // models a single discovery in isolation and would double-count the
        // steady-state polling traffic.)
        AccelConfig { cc, location, notifier: Notifier::Cpoll, ..AccelConfig::default() }
    }
}

/// Microbenchmark parameters.
#[derive(Debug, Clone, Copy)]
pub struct MicroParams {
    /// Total requests per run.
    pub requests: u64,
    /// Feeding connections (16 in the paper).
    pub connections: usize,
    /// Dependent node reads per request (pick + traverse two = 3).
    pub chase: usize,
    /// Whether the list and the persisted record live in NVM.
    pub nvm: bool,
}

impl MicroParams {
    /// A fast configuration for tests.
    pub fn quick() -> Self {
        MicroParams { requests: 20_000, connections: 16, chase: 3, nvm: false }
    }

    /// The paper-scale configuration.
    pub fn paper() -> Self {
        MicroParams { requests: 1_000_000, connections: 16, chase: 3, nvm: false }
    }

    /// Switches the run to the NVM variant.
    pub fn with_nvm(mut self) -> Self {
        self.nvm = true;
        self
    }

    fn driver(&self) -> DriverConfig {
        DriverConfig::new(self.connections, self.requests)
    }

    fn kind(&self) -> MemKind {
        if self.nvm {
            MemKind::Nvm
        } else {
            MemKind::Dram
        }
    }

    /// Bytes persisted per request (NVM variant only).
    fn record_bytes(&self) -> u64 {
        if self.nvm {
            256
        } else {
            64
        }
    }
}

impl Design {
    /// The Sec. VI-A CPU baseline on `cores` cores with request batches of
    /// `batch`. Single-machine (shared-memory rings, no network), so the
    /// builder's fault plan does not apply.
    pub fn micro_cpu(params: MicroParams, cores: usize, batch: usize) -> Design {
        Design::new("micro.cpu", 0, params.driver(), move |tb| {
            let machines = MicroCpu {
                cpu: CpuServer::new(tb.cpu.clone(), cores, batch),
                mem: MemorySystem::new(tb.mem.clone(), true),
            };
            let (kind, record) = (params.kind(), params.record_bytes());
            (machines, move |m: &mut MicroCpu, _, at, req: &mut Req<'_>| {
                let done = m.cpu.serve_request(at, params.chase, record, kind, &mut m.mem);
                req.leg("cpu_serve", done);
                Ok(done)
            })
        })
    }

    /// The Sec. VI-A Rambda microbenchmark (prototype or LD/LH via
    /// `location`; `cpoll == false` is the spin-polling ablation). The
    /// adaptive scheme disables global DDIO (Fig. 6 guideline 1).
    /// Single-machine, so the builder's fault plan does not apply.
    pub fn micro_rambda(params: MicroParams, location: DataLocation, cpoll: bool, seed: u64) -> Design {
        rambda(params, location, cpoll, true, seed)
    }

    /// The "Rambda-DDIO" ablation of the NVM microbenchmark: global DDIO
    /// stays on, so persisted records take the LLC-then-evict path with
    /// write amplification. Reports as `micro.rambda`.
    ///
    /// # Panics
    ///
    /// Panics unless `params.nvm` is set: the ablation only exists for the
    /// NVM variant.
    pub fn micro_rambda_always_ddio(params: MicroParams, cpoll: bool, seed: u64) -> Design {
        assert!(params.nvm, "the DDIO ablation only applies to the NVM variant");
        rambda(params, DataLocation::HostNvm, cpoll, false, seed)
    }
}

/// The CPU baseline's machine: the serving cores and their memory.
struct MicroCpu {
    cpu: CpuServer,
    mem: MemorySystem,
}

impl Machines for MicroCpu {
    fn publish(&self, s: &mut MetricSet) {
        self.cpu.publish_metrics(s, "cpu");
        self.mem.publish_metrics(s, "mem");
    }
}

/// The Rambda designs' machine: the accelerator and the memory it serves.
struct MicroRambda {
    engine: AccelEngine,
    mem: MemorySystem,
}

impl Machines for MicroRambda {
    fn publish(&self, s: &mut MetricSet) {
        self.engine.publish_metrics(s, "accel");
        self.mem.publish_metrics(s, "mem");
    }
}

/// A Rambda variant: prototype (`HostDram`/`HostNvm` per `params.nvm`) or
/// the envisioned local-memory accelerators (`LocalDdr`/`LocalHbm`).
/// `cpoll == false` selects the spin-polling ablation, `adaptive_ddio ==
/// false` the always-DDIO ablation.
fn rambda(
    params: MicroParams,
    location: DataLocation,
    cpoll: bool,
    adaptive_ddio: bool,
    seed: u64,
) -> Design {
    let location = match (params.nvm, location) {
        (true, DataLocation::HostDram) => DataLocation::HostNvm,
        (_, l) => l,
    };
    Design::new("micro.rambda", seed, params.driver(), move |tb| {
        let machines = MicroRambda {
            engine: AccelEngine::new(tb.accel_config(location, cpoll)),
            mem: MemorySystem::new(tb.mem.clone(), !adaptive_ddio),
        };
        let mut rng = SimRng::seed(seed);
        let record = params.record_bytes();
        (machines, move |m: &mut MicroRambda, _, at, req: &mut Req<'_>| {
            let MicroRambda { engine, mem } = m;
            // Request written into the ring at `at`; discovery via cpoll (or
            // the slower spin-poll cycle).
            let mut t = engine.discover(at, params.connections, &mut rng);
            if !cpoll {
                t += SPIN_POLL_DELAY;
            }
            req.leg("coherence", t);
            let start = engine.claim_slot(t);
            req.leg("dispatch", start);
            let mut now = start;
            // Fetch the request entry. In the local-memory emulation requests
            // are generated within the FPGA (Sec. V), so only host-resident
            // variants fetch across the interconnect.
            if location.is_host() {
                now = engine.ring_read(now, 64, mem);
                req.leg("ring_read", now);
            }
            // Walk the list: three dependent reads.
            now = engine.read_chain(now, params.chase, 64, mem);
            req.leg("mem_chase", now);
            now = engine.compute(now, 1);
            req.leg("apu_compute", now);
            // Emit the response / persist the record.
            now = match (params.nvm, adaptive_ddio) {
                (true, true) => engine.mem_access(now, record, true, mem),
                (true, false) => {
                    // DDIO on: the record lands in the LLC first, then must
                    // be flushed to the persistence domain with
                    // amplification.
                    let in_llc = engine.ring_write(now, record, mem);
                    mem.flush_llc_to_nvm(in_llc, record)
                }
                (false, _) => {
                    if location.is_host() {
                        engine.ring_write(now, record, mem)
                    } else {
                        now // response consumed on-FPGA in the emulation
                    }
                }
            };
            req.leg(if params.nvm { "nvm_persist" } else { "response_write" }, now);
            engine.release_slot(t, now);
            Ok(now)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimBuilder;

    fn mops(design: Design) -> f64 {
        SimBuilder::new(design).config(&Testbed::default()).run().throughput_mops()
    }

    fn cpu(p: MicroParams, cores: usize) -> f64 {
        mops(Design::micro_cpu(p, cores, 16))
    }

    fn rambda(p: MicroParams, location: DataLocation, cpoll: bool) -> f64 {
        mops(Design::micro_rambda(p, location, cpoll, 1))
    }

    #[test]
    fn cpu_scales_linearly_to_16_cores() {
        let p = MicroParams::quick();
        let one = cpu(p, 1);
        let eight = cpu(p, 8);
        let sixteen = cpu(p, 16);
        assert!((6.0..10.5).contains(&(eight / one)), "8/1 = {}", eight / one);
        assert!((1.6..2.2).contains(&(sixteen / eight)), "16/8 = {}", sixteen / eight);
    }

    #[test]
    fn rambda_polling_is_roughly_eight_cores() {
        // Fig. 7: "Rambda-polling ... is equivalent to ~8 cores".
        let p = MicroParams::quick();
        let eight = cpu(p, 8);
        let polling = rambda(p, DataLocation::HostDram, false);
        let ratio = polling / eight;
        assert!((0.7..1.4).contains(&ratio), "polling/8core = {ratio}");
    }

    #[test]
    fn cpoll_improves_over_polling_by_about_20_percent() {
        let p = MicroParams::quick();
        let polling = rambda(p, DataLocation::HostDram, false);
        let cpoll = rambda(p, DataLocation::HostDram, true);
        let gain = cpoll / polling - 1.0;
        assert!((0.12..0.35).contains(&gain), "gain = {gain}");
    }

    #[test]
    fn local_memory_variants_improve_further() {
        // Fig. 7: LD/LH bring 114.4%-165.6% more improvement over Rambda.
        let p = MicroParams::quick();
        let base = rambda(p, DataLocation::HostDram, true);
        let ld = rambda(p, DataLocation::LocalDdr, true);
        let lh = rambda(p, DataLocation::LocalHbm, true);
        assert!(ld > 1.6 * base, "LD {ld} vs Rambda {base}");
        assert!(lh > ld, "LH {lh} vs LD {ld}");
        assert!(lh < 4.0 * base, "LH {lh} vs Rambda {base}");
    }

    #[test]
    fn adaptive_ddio_helps_nvm_by_about_20_percent() {
        let p = MicroParams::quick().with_nvm();
        let adaptive = rambda(p, DataLocation::HostDram, true);
        let always = mops(Design::micro_rambda_always_ddio(p, true, 1));
        let gain = adaptive / always - 1.0;
        assert!((0.1..0.35).contains(&gain), "gain = {gain}");
    }

    #[test]
    fn nvm_is_slower_than_dram_everywhere() {
        let p = MicroParams::quick();
        let dram = rambda(p, DataLocation::HostDram, true);
        let nvm = rambda(p.with_nvm(), DataLocation::HostDram, true);
        assert!(nvm < dram);
        let cpu_dram = cpu(p, 8);
        let cpu_nvm = cpu(p.with_nvm(), 8);
        assert!(cpu_nvm < cpu_dram);
    }

    #[test]
    #[should_panic(expected = "only applies to the NVM variant")]
    fn ddio_ablation_requires_nvm() {
        Design::micro_rambda_always_ddio(MicroParams::quick(), true, 1);
    }
}
