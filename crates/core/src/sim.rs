//! The one experiment entry point: [`SimBuilder`] + [`Design`].
//!
//! Every design run goes through the builder: a [`Design`] names *what* to
//! simulate, the builder configures *how* (testbed, fault plan, flight
//! recorder, profiling), and `run()` always yields a
//! validated-shape [`RunReport`].
//!
//! ```
//! use rambda::{Design, SimBuilder, Testbed};
//! use rambda::micro::MicroParams;
//! use rambda_accel::DataLocation;
//!
//! let report = SimBuilder::new(Design::micro_rambda(
//!         MicroParams::quick(), DataLocation::HostDram, true, 7))
//!     .config(&Testbed::default())
//!     .run();
//! assert!(report.completed > 0);
//! ```
//!
//! A design is its machines and its request path, nothing else:
//! [`Design::new`] takes a `build` closure that assembles the machines
//! (a [`Machines`] value, which lists every resource it publishes once)
//! and returns them with the path one request takes through them. The run
//! loop here owns the plumbing every design shares: it installs the fault
//! plan on the machines' network, opens and closes each request's trace,
//! sheds a request whose path fails, takes the periodic samples and
//! publishes the final snapshot.
//!
//! Application designs (KVS, TXN, DLRM) register themselves through
//! extension traits on [`Design`] in their own crates, so the builder's
//! surface stays identical across the workspace:
//!
//! ```text
//! use rambda_kvs::KvsDesigns;
//! let report = SimBuilder::new(Design::kvs_rambda(params, location))
//!     .faults(FaultConfig::lossy(9, 1e-3))
//!     .tracer(&mut tracer)
//!     .run();
//! ```

use rambda_des::SimTime;
use rambda_fabric::{FaultConfig, Network};
use rambda_metrics::{MetricSet, RunReport, StageRecorder};
use rambda_rnic::RdmaError;
use rambda_trace::{ReqObs, Tracer};

use crate::config::Testbed;
use crate::driver::{run_closed_loop, DriverConfig, RunStats};
use crate::report::build_report;

/// The machines of one design: everything its request path reserves time
/// on, and everything its run report publishes.
pub trait Machines {
    /// Publishes every resource's counters into `sink`. This is the
    /// design's one publish list: the run loop calls it for the periodic
    /// samples and for the final snapshot alike.
    fn publish(&self, sink: &mut MetricSet);

    /// The design's fabric, if it has one. The run loop installs the fault
    /// plan on it and drains its fault log into the flight recorder.
    /// Single-machine designs keep the default and ignore the fault plan.
    fn network(&mut self) -> Option<&mut Network> {
        None
    }
}

/// One request in flight, as its design's path sees it: cuts the request's
/// stage legs.
#[derive(Debug)]
pub struct Req<'a> {
    obs: ReqObs<'a>,
}

impl Req<'_> {
    /// Ends the current leg at `now`, charging it to `stage`.
    pub fn leg(&mut self, stage: &'static str, now: SimTime) {
        self.obs.leg(stage, now);
    }
}

/// What one run hands the run loop besides the design itself.
struct Ctx<'a> {
    rec: &'a mut StageRecorder,
    resources: &'a mut MetricSet,
    tracer: &'a mut Tracer,
    faults: &'a FaultConfig,
}

/// The boxed run a [`Design`] carries.
type RunFn = Box<dyn for<'a> FnOnce(&Testbed, Ctx<'a>) -> RunStats>;

/// A named, seeded experiment: what [`SimBuilder`] runs.
///
/// The micro designs have inherent constructors here; application crates
/// add theirs via extension traits (`KvsDesigns`, `TxnDesigns`,
/// `DlrmDesigns`).
pub struct Design {
    name: &'static str,
    seed: u64,
    run: RunFn,
}

impl Design {
    /// Defines a design: its report name and seed, the closed-loop driver
    /// that issues its requests, and `build`, which assembles the design's
    /// machines on the run's testbed and returns them with its request
    /// path.
    ///
    /// The path serves one request issued by `client` at `at` and returns
    /// its completion time, cutting legs through the [`Req`]. An `Err`
    /// sheds the request: the client observes a timeout at the error's
    /// instant, and the trace ends with a `shed` leg. RNG streams, stores
    /// and other functional state are locals `build` moves into the path.
    pub fn new<M, P>(
        name: &'static str,
        seed: u64,
        driver: DriverConfig,
        build: impl FnOnce(&Testbed) -> (M, P) + 'static,
    ) -> Design
    where
        M: Machines,
        P: FnMut(&mut M, usize, SimTime, &mut Req<'_>) -> Result<SimTime, RdmaError>,
    {
        let run = move |testbed: &Testbed, ctx: Ctx<'_>| {
            let (machines, path) = build(testbed);
            serve(machines, path, &driver, ctx)
        };
        Design { name, seed, run: Box::new(run) }
    }

    /// The report name this design will carry (e.g. `kvs.rambda`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The seed recorded in the report.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

impl std::fmt::Debug for Design {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Design").field("name", &self.name).field("seed", &self.seed).finish()
    }
}

/// The run loop every design shares: drives `path` over `m` in a closed
/// loop and leaves the final counters in `ctx.resources`; `SimBuilder::run`
/// takes the final trace sample once the report is assembled.
fn serve<M, P>(mut m: M, mut path: P, driver: &DriverConfig, ctx: Ctx<'_>) -> RunStats
where
    M: Machines,
    P: FnMut(&mut M, usize, SimTime, &mut Req<'_>) -> Result<SimTime, RdmaError>,
{
    let Ctx { rec, resources, tracer, faults } = ctx;
    if let Some(net) = m.network() {
        net.install_faults(faults);
    }
    let stats = run_closed_loop(driver, |client, at| {
        let mut req = Req { obs: tracer.observe(rec, at) };
        let served = path(&mut m, client, at, &mut req);
        let mut obs = req.obs;
        match served {
            Ok(done) => {
                obs.finish(done);
                tracer.sample_with(rec, at, |s| m.publish(s));
                done
            }
            Err(e) => {
                obs.leg("shed", e.at());
                obs.finish(e.at());
                e.at()
            }
        }
    });
    if let Some(net) = m.network() {
        for ev in net.drain_fault_events() {
            tracer.fault(ev.kind.name(), ev.at, ev.from.0, ev.to.0);
        }
    }
    m.publish(resources);
    stats
}

/// Builder for one simulation run. See the module docs for the shape.
#[derive(Debug)]
pub struct SimBuilder<'a> {
    design: Design,
    testbed: Testbed,
    faults: FaultConfig,
    tracer: Option<&'a mut Tracer>,
    profile: bool,
}

impl<'a> SimBuilder<'a> {
    /// Starts a run of `design` on the default Tab. II testbed, with
    /// faults disabled and no flight recorder.
    pub fn new(design: Design) -> Self {
        SimBuilder {
            design,
            testbed: Testbed::default(),
            faults: FaultConfig::disabled(),
            tracer: None,
            profile: false,
        }
    }

    /// Uses `testbed` instead of the default configuration.
    pub fn config(mut self, testbed: &Testbed) -> Self {
        self.testbed = testbed.clone();
        self
    }

    /// Installs a fault plan on the run's network. A disabled config
    /// (`FaultConfig::disabled()`) leaves the run byte-identical to one
    /// that never called this.
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Attaches a flight recorder: per-request spans, periodic resource
    /// samples and injected-fault instants land in `tracer`.
    pub fn tracer(mut self, tracer: &'a mut Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Enables deterministic profiling: the report gains an `event_core`
    /// section (scheduler telemetry with validated conservation identities)
    /// and its `event_core.*` counter mirror. Profiling only observes, so
    /// every other field of the report is unchanged.
    pub fn profile(mut self) -> Self {
        self.profile = true;
        self
    }

    /// Runs the design and assembles its [`RunReport`].
    pub fn run(self) -> RunReport {
        let mut rec = StageRecorder::active();
        let mut resources = MetricSet::new();
        let mut no_tracer = Tracer::disabled();
        let tracer = self.tracer.unwrap_or(&mut no_tracer);
        let ctx =
            Ctx { rec: &mut rec, resources: &mut resources, tracer: &mut *tracer, faults: &self.faults };
        let stats = (self.design.run)(&self.testbed, ctx);
        let mut report = build_report(self.design.name, self.design.seed, &stats, &mut rec, resources);
        // The final sample leaves out the `event_core.*` mirror attached
        // below; `validate_event_core` holds that mirror to its section.
        tracer.final_sample(SimTime::ZERO + stats.makespan, &report.resources);
        if self.profile {
            report.attach_event_core(rambda_metrics::EventCoreSummary::of(&stats.event_core, 0));
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rambda_des::{Server, Span};
    use rambda_fabric::NodeId;
    use rambda_trace::TraceEvent;

    use crate::Machine;

    struct Toy {
        cores: Server,
        net: Network,
        client: Machine,
        server: Machine,
    }

    impl Machines for Toy {
        fn publish(&self, sink: &mut MetricSet) {
            sink.observe_server("cores", &self.cores);
            self.client.publish_metrics(sink, "client");
            self.server.publish_metrics(sink, "server");
            self.net.publish_metrics(sink, "net");
        }

        fn network(&mut self) -> Option<&mut Network> {
            Some(&mut self.net)
        }
    }

    /// Two connections on a two-unit server; with `fabric` set, every
    /// request first crosses an RC write.
    fn toy(seed: u64, fabric: bool) -> Design {
        Design::new("toy", seed, DriverConfig::new(2, 2_000), move |tb| {
            let mut m = Toy {
                cores: Server::new(2),
                net: Network::new(tb.net.clone()),
                client: Machine::new(NodeId(0), tb, false),
                server: Machine::new(NodeId(1), tb, false),
            };
            let mr = m.server.rnic.register_region(rambda_rnic::MrInfo::adaptive(rambda_mem::MemKind::Dram));
            (m, move |m: &mut Toy, _, at, req: &mut Req<'_>| {
                let mut t = at;
                if fabric {
                    let Toy { net, client, server, .. } = m;
                    let opts = rambda_rnic::WriteOpts::host_unsignaled();
                    let (src, dst) = (&mut client.rnic, &mut server.rnic);
                    t = rambda_rnic::rdma_write(
                        t,
                        src,
                        dst,
                        net,
                        &mut server.mem,
                        &mut client.mem,
                        mr,
                        64,
                        opts,
                    )?
                    .delivered_at;
                    req.leg("fabric_request", t);
                }
                let done = m.cores.acquire(t, Span::from_ns(100)) + Span::from_ns(100);
                req.leg("cpu_serve", done);
                Ok(done)
            })
        })
    }

    #[test]
    fn builder_produces_a_validated_report() {
        let report = SimBuilder::new(toy(3, false)).run();
        report.validate().expect("consistent report");
        assert_eq!(report.name, "toy");
        assert_eq!(report.seed, 3);
        assert!(report.completed > 0);
        assert!(report.timeline.is_some(), "builder always records stages");
    }

    #[test]
    fn builder_feeds_the_attached_tracer() {
        let mut tracer = Tracer::flight_recorder();
        let report = SimBuilder::new(toy(3, false)).tracer(&mut tracer).run();
        tracer.cross_validate(&report).expect("trace matches report");
    }

    #[test]
    fn failed_paths_are_shed_and_traced() {
        // Total loss: every request's write exhausts its retries, so the
        // loop sheds all of them, records their fault instants and takes
        // no periodic sample.
        let mut tracer = Tracer::flight_recorder();
        let report =
            SimBuilder::new(toy(3, true)).faults(FaultConfig::lossy(5, 1.0)).tracer(&mut tracer).run();
        report.validate().expect("a shedding run holds every identity");
        tracer.cross_validate(&report).expect("trace matches report");
        let shed = report.stages.iter().find(|(name, _)| name == "shed").expect("shed stage");
        assert_eq!(shed.1.count, report.total.count, "every request is shed");
        assert!(tracer.events().any(|e| matches!(e, TraceEvent::Fault { .. })), "fault instants drained");
        let mut sampled = tracer.events().filter_map(|e| match e {
            TraceEvent::Sample { at_ps, .. } => Some(*at_ps),
            _ => None,
        });
        assert!(sampled.all(|at| at == report.elapsed_ps), "only the final snapshot is sampled");
        // The same fabric without faults serves every request.
        let clean = SimBuilder::new(toy(3, true)).run();
        clean.validate().expect("consistent report");
        assert!(clean.stages.iter().all(|(name, _)| name != "shed"));
    }

    #[test]
    fn design_debug_hides_the_closure() {
        let d = toy(9, false);
        assert_eq!(d.name(), "toy");
        assert_eq!(d.seed(), 9);
        assert!(format!("{d:?}").contains("toy"));
    }
}
