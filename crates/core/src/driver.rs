//! The closed-loop measurement driver.
//!
//! Every experiment in the paper drives the server with closed-loop client
//! instances: each keeps a window of outstanding requests and issues a new
//! one the moment a response lands. Throughput is measured in steady state
//! (after a warm-up) and latency as the full issue→response span, so
//! queueing at every modelled resource shows up in the tail.

use rambda_des::{EventCoreStats, EventQueue, Histogram, SimTime, Span};
use serde::{Deserialize, Serialize};

/// Driver parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DriverConfig {
    /// Closed-loop client instances.
    pub clients: usize,
    /// Outstanding requests per client.
    pub window: usize,
    /// Total requests to run.
    pub requests: u64,
    /// Fraction of requests treated as warm-up (excluded from stats).
    pub warmup: f64,
}

impl DriverConfig {
    /// A conventional configuration: `clients` clients, window 16, `n`
    /// requests, 10 % warm-up.
    pub fn new(clients: usize, n: u64) -> Self {
        DriverConfig { clients, window: 16, requests: n, warmup: 0.1 }
    }

    /// Sets the per-client window.
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window;
        self
    }
}

/// Results of a closed-loop run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Requests measured (post-warm-up).
    pub completed: u64,
    /// Steady-state throughput in operations per second.
    pub throughput_ops: f64,
    /// Issue→response latency histogram (post-warm-up).
    pub latency: Histogram,
    /// Simulated time of the last completion (the run's makespan) — the
    /// denominator for resource-utilization figures in run reports.
    pub makespan: Span,
    /// Event-core telemetry captured from the driver's event queue after the
    /// run drains (dispatch counts, wheel-tier hits, sim-time dwell).
    pub event_core: EventCoreStats,
}

/// Runs a closed loop: `serve(client, issue_time) -> completion_time`.
///
/// `serve` is called with non-decreasing times per client; resources inside
/// it (links, servers) provide the queueing.
///
/// # Panics
///
/// Panics if the configuration has zero clients, window, or requests.
pub fn run_closed_loop<F>(cfg: &DriverConfig, mut serve: F) -> RunStats
where
    F: FnMut(usize, SimTime) -> SimTime,
{
    assert!(cfg.clients > 0 && cfg.window > 0 && cfg.requests > 0, "empty driver config");
    let mut queue: EventQueue<(usize, SimTime)> = EventQueue::new();
    let prime_kind = queue.kind("prime");
    let serve_kind = queue.kind("serve");
    let mut issued = 0u64;

    // Prime every client's window.
    'prime: for c in 0..cfg.clients {
        for _ in 0..cfg.window {
            if issued >= cfg.requests {
                break 'prime;
            }
            // Tiny stagger keeps initial issues deterministic but ordered.
            let t0 = SimTime::from_ps(issued);
            let done = serve(c, t0);
            queue.push_kind(done, prime_kind, (c, t0));
            issued += 1;
        }
    }

    // Post-warm-up accounting: completions pop in (time, sequence) order.
    let warmup = (((cfg.requests as f64) * cfg.warmup) as u64).max(1);
    let mut completed = 0u64;
    let mut measured = 0u64;
    let mut window_start = SimTime::ZERO;
    let mut window_end = SimTime::ZERO;
    let mut latency = Histogram::new();
    while let Some((done, (client, issued_at))) = queue.pop() {
        completed += 1;
        if completed == warmup {
            window_start = done;
        }
        if completed > warmup {
            latency.record(done - issued_at);
            measured += 1;
            window_end = done;
        }
        if issued < cfg.requests {
            let next = serve(client, done);
            queue.push_kind(next, serve_kind, (client, done));
            issued += 1;
        }
    }

    let span = window_end.saturating_since(window_start);
    let throughput = if span.is_zero() { 0.0 } else { measured as f64 / span.as_secs_f64() };
    RunStats {
        completed: measured,
        throughput_ops: throughput,
        latency,
        makespan: window_end.saturating_since(SimTime::ZERO),
        event_core: queue.stats().clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rambda_des::{Server, Span};

    #[test]
    fn fixed_service_time_throughput() {
        // One server unit, 100ns service: throughput must be 10 Mops
        // regardless of client count.
        let mut server = Server::new(1);
        let cfg = DriverConfig::new(4, 50_000);
        let stats = run_closed_loop(&cfg, |_c, at| {
            let start = server.acquire(at, Span::from_ns(100));
            start + Span::from_ns(100)
        });
        let mops = stats.throughput_ops / 1e6;
        assert!((mops - 10.0).abs() < 0.1, "{mops}");
        assert!(stats.completed > 40_000);
    }

    #[test]
    fn latency_includes_queueing() {
        // 4 clients x window 16 = 64 outstanding on one 100ns unit:
        // latency ≈ 64 x 100ns.
        let mut server = Server::new(1);
        let cfg = DriverConfig::new(4, 20_000);
        let stats = run_closed_loop(&cfg, |_c, at| {
            let start = server.acquire(at, Span::from_ns(100));
            start + Span::from_ns(100)
        });
        let mean = stats.latency.mean().as_us_f64();
        assert!((5.0..7.5).contains(&mean), "mean={mean}");
    }

    #[test]
    fn parallel_units_scale_throughput() {
        let mut server = Server::new(4);
        let cfg = DriverConfig::new(8, 50_000);
        let stats = run_closed_loop(&cfg, |_c, at| {
            let start = server.acquire(at, Span::from_ns(100));
            start + Span::from_ns(100)
        });
        let mops = stats.throughput_ops / 1e6;
        assert!((mops - 40.0).abs() < 1.0, "{mops}");
    }

    #[test]
    fn zero_latency_service_does_not_panic() {
        let cfg = DriverConfig::new(1, 100);
        let stats = run_closed_loop(&cfg, |_c, at| at + Span::from_ns(1));
        assert!(stats.completed > 0);
    }

    #[test]
    #[should_panic(expected = "empty driver config")]
    fn bad_config_panics() {
        run_closed_loop(&DriverConfig { clients: 0, window: 1, requests: 1, warmup: 0.0 }, |_c, at| at);
    }
}
