//! Host-time spans for the traced replay.
//!
//! The replay wraps each call into a layer's public functions in
//! [`Prof::time`], which reads the time-stamp counter on both sides. On
//! x86_64 that is RDTSC: it touches no memory and waits for no earlier
//! instruction, so a region boundary neither misses in cache nor drains the
//! pipeline, as an ordered clock read does. Ticks convert to ns at the rate
//! measured against the monotonic clock over the recorder's life.
//!
//! Calls are grouped into batches of [`BATCH`] simulated requests; each
//! batch of each layer becomes one span (name, parent, first start, last
//! end, self time, call count). Spans stay in memory and are written once,
//! at exit. Self time is the timed duration minus the calibrated cost of an
//! empty timed region; a layer nested in another (see [`LAYERS`]) is taken
//! out of its parent's total.

use std::time::Instant;

use rambda_metrics::Json;

/// Requests per call batch (one span per layer per batch).
const BATCH: u64 = 8192;

/// Reads the time-stamp counter.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn ticks() -> u64 {
    // SAFETY: RDTSC only reads the time-stamp counter, which every x86_64
    // CPU has; it has no memory operands and no preconditions.
    unsafe { std::arch::x86_64::_rdtsc() }
}

/// Reads the monotonic clock, in ns since the first read.
#[cfg(not(target_arch = "x86_64"))]
fn ticks() -> u64 {
    static ORIGIN: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A layer the replay times: its name and the span it nests in.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub parent: &'static str,
}

pub const GEN: usize = 0;
pub const QUEUE: usize = 1;
pub const VERBS: usize = 2;
pub const ACCEL: usize = 3;
pub const KVS_GET: usize = 4;
pub const TXN_EXECUTE: usize = 5;
pub const DLRM_PLAN: usize = 6;
pub const DLRM_REDUCE: usize = 7;
pub const DLRM_MLP: usize = 8;
pub const LEGS: usize = 9;

/// Every per-request layer, indexed by the constants above.
pub const LAYERS: [Layer; 10] = [
    Layer { name: "workloads.gen", parent: "replay" },
    Layer { name: "des.queue", parent: "replay" },
    Layer { name: "rnic.verbs", parent: "replay" },
    Layer { name: "accel.path", parent: "replay" },
    // `KvStore::get` runs inside `KvApu::process`, which the replay cannot
    // open, so it is timed in a batch of its own after the run.
    Layer { name: "kvs.get", parent: "accel.path" },
    Layer { name: "txn.execute", parent: "replay" },
    Layer { name: "dlrm.plan", parent: "replay" },
    Layer { name: "dlrm.reduce", parent: "replay" },
    Layer { name: "dlrm.mlp", parent: "replay" },
    Layer { name: "metrics.legs", parent: "replay" },
];

/// One closed span, in ticks.
#[derive(Debug, Clone)]
struct SpanRec {
    name: &'static str,
    parent: &'static str,
    start: u64,
    end: u64,
    self_ticks: u64,
    calls: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct Acc {
    raw: u64,
    regions: u64,
    calls: u64,
    start: u64,
    end: u64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Prof {
    wall0: Instant,
    tick0: u64,
    /// Median ticks an empty timed region measures.
    empty: u64,
    open: [Acc; LAYERS.len()],
    self_ticks: [u64; LAYERS.len()],
    calls: [u64; LAYERS.len()],
    requests: u64,
    spans: Vec<SpanRec>,
}

impl Prof {
    /// A recorder with the cost of an empty timed region calibrated.
    pub fn new() -> Self {
        let mut samples: Vec<u64> = (0..20_001)
            .map(|_| {
                let t0 = ticks();
                let t1 = ticks();
                t1.saturating_sub(t0)
            })
            .collect();
        samples.sort_unstable();
        Prof {
            wall0: Instant::now(),
            tick0: ticks(),
            empty: samples[samples.len() / 2],
            open: [Acc::default(); LAYERS.len()],
            self_ticks: [0; LAYERS.len()],
            calls: [0; LAYERS.len()],
            requests: 0,
            spans: Vec::new(),
        }
    }

    /// Runs `f` as one call into `layer`.
    #[inline]
    pub fn time<R>(&mut self, layer: usize, f: impl FnOnce() -> R) -> R {
        self.time_calls(layer, 1, f)
    }

    /// Runs `f`, a loop of `calls` calls into `layer`, as one timed region.
    #[inline]
    pub fn time_calls<R>(&mut self, layer: usize, calls: u64, f: impl FnOnce() -> R) -> R {
        let t0 = ticks();
        let out = f();
        let t1 = ticks();
        let acc = &mut self.open[layer];
        if acc.regions == 0 {
            acc.start = t0;
        }
        acc.end = t1;
        acc.raw += t1.saturating_sub(t0);
        acc.regions += 1;
        acc.calls += calls;
        out
    }

    /// Runs `f` as a span of its own: a set-up phase, or the replay's root.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: &'static str,
        calls: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let t0 = ticks();
        let out = f(self);
        let t1 = ticks();
        self.spans.push(SpanRec {
            name,
            parent,
            start: t0,
            end: t1,
            self_ticks: t1.saturating_sub(t0),
            calls,
        });
        out
    }

    /// Marks the end of one simulated request; closes the call batches every
    /// [`BATCH`] requests.
    pub fn end_request(&mut self) {
        self.requests += 1;
        if self.requests.is_multiple_of(BATCH) {
            self.flush();
        }
    }

    /// Closes every open call batch into a span.
    pub fn flush(&mut self) {
        for (i, acc) in self.open.iter_mut().enumerate() {
            if acc.regions == 0 {
                continue;
            }
            let self_ticks = acc.raw.saturating_sub(self.empty * acc.regions);
            self.self_ticks[i] += self_ticks;
            self.calls[i] += acc.calls;
            self.spans.push(SpanRec {
                name: LAYERS[i].name,
                parent: LAYERS[i].parent,
                start: acc.start,
                end: acc.end,
                self_ticks,
                calls: acc.calls,
            });
            *acc = Acc::default();
        }
    }

    /// Wall ns per tick, measured over the recorder's life so far.
    fn ns_per_tick(&self) -> f64 {
        self.wall0.elapsed().as_nanos() as f64 / ticks().saturating_sub(self.tick0).max(1) as f64
    }

    /// Total self ns per layer, with nested layers taken out of their
    /// parents. Call after the last [`Prof::flush`].
    pub fn layer_self_ns(&self) -> [f64; LAYERS.len()] {
        let mut out = self.self_ticks;
        for (i, layer) in LAYERS.iter().enumerate() {
            if let Some(p) = LAYERS.iter().position(|l| l.name == layer.parent) {
                out[p] = out[p].saturating_sub(self.self_ticks[i]);
            }
        }
        let rate = self.ns_per_tick();
        out.map(|t| t as f64 * rate)
    }

    /// Calls per layer.
    pub fn calls(&self) -> [u64; LAYERS.len()] {
        self.calls
    }

    /// Wall ns of the named span recorded by [`Prof::span`], if any.
    pub fn span_ns(&self, name: &str) -> Option<f64> {
        let rate = self.ns_per_tick();
        self.spans.iter().find(|s| s.name == name).map(|s| s.self_ticks as f64 * rate)
    }

    /// The calibrated cost of an empty timed region, in ns.
    pub fn empty_ns(&self) -> f64 {
        self.empty as f64 * self.ns_per_tick()
    }

    /// The spans, as JSON, with times in ns since the recorder was created.
    pub fn to_json(&self) -> Json {
        let rate = self.ns_per_tick();
        let ns = |t: u64| Json::U64((t as f64 * rate) as u64);
        let spans = self
            .spans
            .iter()
            .map(|s| {
                let mut o = Json::obj();
                o.push("name", Json::Str(s.name.to_string()))
                    .push("parent", Json::Str(s.parent.to_string()))
                    .push("start_ns", ns(s.start.saturating_sub(self.tick0)))
                    .push("end_ns", ns(s.end.saturating_sub(self.tick0)))
                    .push("self_ns", ns(s.self_ticks))
                    .push("calls", Json::U64(s.calls));
                o
            })
            .collect();
        let mut out = Json::obj();
        out.push("ns_per_tick", Json::F64(rate))
            .push("empty_region_ns", Json::F64(self.empty as f64 * rate))
            .push("spans", Json::Arr(spans));
        out
    }
}
