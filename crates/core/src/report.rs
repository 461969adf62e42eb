//! Glue between [`RunStats`] and [`rambda_metrics::RunReport`].

use rambda_metrics::{HistSummary, MetricSet, RunReport, StageRecorder};

use crate::driver::RunStats;

/// Assembles a [`RunReport`] from a finished run: the driver's measured
/// stats become the headline summary, the recorder supplies the per-stage
/// breakdown and its windowed timeline (finalized here against the run
/// makespan and the final resource counters, closing the busy-time
/// identity exactly), and `resources` carries whatever the runner's
/// components published.
pub(crate) fn build_report(
    name: &str,
    seed: u64,
    stats: &RunStats,
    rec: &mut StageRecorder,
    resources: MetricSet,
) -> RunReport {
    rec.finalize_timeline(stats.makespan, &resources);
    RunReport::new(
        name,
        seed,
        stats.completed,
        stats.throughput_ops,
        stats.makespan,
        HistSummary::of(&stats.latency),
        rec,
        resources,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_closed_loop, DriverConfig};
    use rambda_des::{Server, Span};

    #[test]
    fn report_from_driver_stats_validates() {
        let mut server = Server::new(2);
        let mut rec = StageRecorder::active();
        let cfg = DriverConfig::new(2, 5_000);
        let stats = run_closed_loop(&cfg, |_c, at| {
            let mut tr = rec.trace(at);
            let start = server.acquire(at, Span::from_ns(100));
            tr.leg("queue", start);
            let done = start + Span::from_ns(100);
            tr.leg("service", done);
            tr.finish(done);
            done
        });
        let mut resources = MetricSet::new();
        resources.observe_server("server", &server);
        let report = build_report("driver.test", 0, &stats, &mut rec, resources);
        report.validate().expect("consistent report");
        let tl = report.timeline.as_ref().expect("active recorder carries a timeline");
        assert_eq!(tl.merged, report.total);
        let busy: u64 = tl.resources.iter().find(|r| r.name == "server").unwrap().busy_delta_ps.iter().sum();
        assert_eq!(busy, report.resources.counter("server.busy_ps").unwrap());
        assert_eq!(report.completed, stats.completed);
        assert!(report.resources.counter("server.acquisitions").unwrap() >= 5_000);
        let util = report.resources.gauge_value("server.utilization").unwrap();
        assert!(util > 0.0 && util <= 1.0, "utilization {util}");
    }
}
