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
use rambda_des::{SimRng, SimTime, Span};
use rambda_mem::{MemKind, MemorySystem};

use crate::config::Testbed;
use crate::cpu::CpuServer;
use crate::driver::{run_closed_loop, DriverConfig, RunStats};
use crate::sim::{Design, SimCtx};

/// Spin-polling throughput tax relative to cpoll, applied to both the
/// controller issue rate and the interconnect bandwidth. Calibrated to the
/// ~21.6 % throughput gain the paper measures for cpoll (Sec. VI-A).
const SPIN_POLL_TAX: f64 = 1.22;
/// Extra average discovery latency of spin-polling: half the 30-cycle
/// (75 ns) polling interval.
const SPIN_POLL_DELAY: Span = Span::from_ps(37_500);

/// Scoped runs bucket the feeding connections into this many scope groups
/// (fewer when the run has fewer connections).
const MICRO_SCOPE_GROUPS: usize = 4;

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

    /// Scope names for the connection groups a scoped run attributes
    /// requests to: connections bucket into at most [`MICRO_SCOPE_GROUPS`]
    /// groups (`conn/0` .. `conn/3` at the paper's 16 connections).
    fn scope_names(&self) -> Vec<String> {
        (0..self.connections.min(MICRO_SCOPE_GROUPS)).map(|g| format!("conn/{g}")).collect()
    }

    /// Scope group of connection `c`.
    fn scope_of(&self, c: usize) -> usize {
        c * self.connections.min(MICRO_SCOPE_GROUPS) / self.connections.max(1)
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
        Design::from_runner("micro.cpu", 0, move |tb, ctx| run_cpu(tb, params, cores, batch, ctx))
    }

    /// The Sec. VI-A Rambda microbenchmark (prototype or LD/LH via
    /// `location`; `cpoll == false` is the spin-polling ablation). The
    /// adaptive scheme disables global DDIO (Fig. 6 guideline 1).
    /// Single-machine, so the builder's fault plan does not apply.
    pub fn micro_rambda(params: MicroParams, location: DataLocation, cpoll: bool, seed: u64) -> Design {
        Design::from_runner("micro.rambda", seed, move |tb, ctx| {
            run_rambda(tb, params, location, cpoll, true, seed, ctx)
        })
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
        Design::from_runner("micro.rambda", seed, move |tb, ctx| {
            run_rambda(tb, params, DataLocation::HostNvm, cpoll, false, seed, ctx)
        })
    }
}

/// Runs the CPU baseline on `cores` cores with request batches of `batch`.
fn run_cpu(testbed: &Testbed, params: MicroParams, cores: usize, batch: usize, ctx: SimCtx<'_>) -> RunStats {
    let SimCtx { rec, resources, tracer, faults: _, scopes } = ctx;
    let mut mem = MemorySystem::new(testbed.mem.clone(), true);
    let mut cpu = CpuServer::new(testbed.cpu.clone(), cores, batch);
    let kind = params.kind();
    let record = params.record_bytes();
    let scope_names = params.scope_names();
    let stats = run_closed_loop(&params.driver(), |c, at| {
        let mut tr = tracer.observe(rec, at);
        let done = cpu.serve_request(at, params.chase, record, kind, &mut mem);
        tr.leg("cpu_serve", done);
        tr.finish(done);
        scopes.record(&scope_names[params.scope_of(c)], at, done);
        scopes.observe_key(c as u64);
        tracer.sample_with(rec, at, |s| {
            cpu.publish_metrics(s, "cpu");
            mem.publish_metrics(s, "mem");
        });
        done
    });
    cpu.publish_metrics(resources, "cpu");
    mem.publish_metrics(resources, "mem");
    tracer.final_sample(SimTime::ZERO + stats.makespan, resources);
    stats
}

/// Runs a Rambda variant: prototype (`HostDram`/`HostNvm` per
/// `params.nvm`) or the envisioned local-memory accelerators
/// (`LocalDdr`/`LocalHbm`). `cpoll == false` selects the spin-polling
/// ablation, `adaptive_ddio == false` the always-DDIO ablation.
fn run_rambda(
    testbed: &Testbed,
    params: MicroParams,
    location: DataLocation,
    cpoll: bool,
    adaptive_ddio: bool,
    seed: u64,
    ctx: SimCtx<'_>,
) -> RunStats {
    let SimCtx { rec, resources, tracer, faults: _, scopes } = ctx;
    let location = match (params.nvm, location) {
        (true, DataLocation::HostDram) => DataLocation::HostNvm,
        (_, l) => l,
    };
    let mut engine = AccelEngine::new(testbed.accel_config(location, cpoll));
    let mut mem = MemorySystem::new(testbed.mem.clone(), !adaptive_ddio);
    let mut rng = SimRng::seed(seed);
    let connections = params.connections;
    let record = params.record_bytes();
    let scope_names = params.scope_names();

    let stats = run_closed_loop(&params.driver(), |c, at| {
        let mut trace = tracer.observe(rec, at);
        // Request written into the ring at `at`; discovery via cpoll (or the
        // slower spin-poll cycle).
        let mut t = engine.discover(at, connections, &mut rng);
        if !cpoll {
            t += SPIN_POLL_DELAY;
        }
        trace.leg("coherence", t);
        let start = engine.claim_slot(t);
        trace.leg("dispatch", start);
        let mut now = start;
        // Fetch the request entry. In the local-memory emulation requests
        // are generated within the FPGA (Sec. V), so only host-resident
        // variants fetch across the interconnect.
        if location.is_host() {
            now = engine.ring_read(now, 64, &mut mem);
            trace.leg("ring_read", now);
        }
        // Walk the list: three dependent reads.
        now = engine.read_chain(now, params.chase, 64, &mut mem);
        trace.leg("mem_chase", now);
        now = engine.compute(now, 1);
        trace.leg("apu_compute", now);
        // Emit the response / persist the record.
        now = match (params.nvm, adaptive_ddio) {
            (true, true) => engine.mem_access(now, record, true, &mut mem),
            (true, false) => {
                // DDIO on: the record lands in the LLC first, then must be
                // flushed to the persistence domain with amplification.
                let in_llc = engine.ring_write(now, record, &mut mem);
                mem.flush_llc_to_nvm(in_llc, record)
            }
            (false, _) => {
                if location.is_host() {
                    engine.ring_write(now, record, &mut mem)
                } else {
                    now // response consumed on-FPGA in the emulation
                }
            }
        };
        if params.nvm {
            trace.leg("nvm_persist", now);
        } else {
            trace.leg("response_write", now);
        }
        engine.release_slot(t, now);
        trace.finish(now);
        scopes.record(&scope_names[params.scope_of(c)], at, now);
        scopes.observe_key(c as u64);
        tracer.sample_with(rec, at, |s| {
            engine.publish_metrics(s, "accel");
            mem.publish_metrics(s, "mem");
        });
        now
    });
    engine.publish_metrics(resources, "accel");
    mem.publish_metrics(resources, "mem");
    tracer.final_sample(SimTime::ZERO + stats.makespan, resources);
    stats
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
