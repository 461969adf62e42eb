//! Windowed time-series telemetry: what the run looked like *over time*.
//!
//! A [`RunReport`](crate::RunReport) aggregates a whole run into one number
//! per metric; the paper's arguments (Figs. 9–14) are about *curves* —
//! throughput, tail latency and link utilization as the run saturates. The
//! [`Timeline`] collector slices simulated time into fixed windows and
//! records, per window:
//!
//! - a latency [`Histogram`] over the requests that *completed* in the
//!   window (throughput per window is its count over the window width);
//! - cumulative resource-counter snapshots on the window grid, from which
//!   per-window `busy`/`wait` deltas — and hence utilization and queueing
//!   pressure — are derived for every modelled server and link.
//!
//! Two exact identities tie the time series back to the whole-run totals
//! (checked by [`RunReport::validate`](crate::RunReport::validate)):
//!
//! 1. merging the per-window histograms reproduces the whole-run histogram
//!    bucket-for-bucket (same samples, and histogram merge is exact), and
//! 2. each resource's per-window busy/wait deltas telescope to exactly the
//!    final `*.busy_ps` / `*.wait_ps` counter — the busy-time side of the
//!    utilization law `ρ = λ·E[S]` (Little's law applied to the server).
//!
//! Memory is bounded: when a run outgrows `2 × max_windows` live windows
//! the collector merges adjacent windows pairwise and doubles the window
//! width — a deterministic, purely sim-time-driven coalescing, so repeated
//! seeded runs produce byte-identical serialized timelines.

use std::collections::BTreeMap;

use rambda_des::{Histogram, SampleClock, SimTime, Span};

use crate::json::Json;
use crate::report::HistSummary;
use crate::set::MetricSet;

/// Default window width: 50 µs of simulated time, matching the flight
/// recorder's counter-sampling grid.
const DEFAULT_WINDOW_US: u64 = 50;

/// Default bound on the number of windows a finalized timeline keeps.
const DEFAULT_MAX_WINDOWS: usize = 32;

/// Streaming per-window collector, driven purely by simulated time.
///
/// Feed completions with [`Timeline::record`] and cumulative counter
/// snapshots with [`Timeline::due`] + [`Timeline::snapshot`]; call
/// [`Timeline::finalize`] once with the run makespan and the final resource
/// counters to obtain the serializable [`TimelineSummary`].
#[derive(Debug, Clone)]
pub struct Timeline {
    /// Current base-window width; doubles when the run outgrows the bound.
    window: Span,
    /// Finalized timelines hold at most this many (coalesced) windows.
    max_windows: usize,
    /// Per-base-window latency histograms; window `i` covers the interval
    /// `(i·window, (i+1)·window]` (left-open, so a completion landing
    /// exactly on a boundary belongs to the window it closes).
    hists: Vec<Histogram>,
    /// Snapshot grid clock, one tick per base window.
    clock: SampleClock,
    /// Cumulative counter snapshots keyed by grid tick (picoseconds).
    snaps: BTreeMap<u64, BTreeMap<String, u64>>,
}

impl Default for Timeline {
    fn default() -> Self {
        Timeline::new(Span::from_us(DEFAULT_WINDOW_US), DEFAULT_MAX_WINDOWS)
    }
}

impl Timeline {
    /// Creates a collector with the given initial window width and window
    /// bound.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero (via [`SampleClock::new`]) or
    /// `max_windows` is zero.
    pub fn new(window: Span, max_windows: usize) -> Self {
        assert!(max_windows > 0, "timeline needs at least one window");
        Timeline {
            window,
            max_windows,
            hists: Vec::new(),
            clock: SampleClock::new(window),
            snaps: BTreeMap::new(),
        }
    }

    /// The current base-window width (doubles as the run grows).
    pub fn window(&self) -> Span {
        self.window
    }

    /// Window index a completion at `done` falls into: windows are
    /// left-open `(i·w, (i+1)·w]`, with time zero belonging to window 0.
    fn index(&self, done: SimTime) -> usize {
        let ps = done.as_ps();
        if ps == 0 {
            0
        } else {
            ((ps - 1) / self.window.as_ps()) as usize
        }
    }

    /// Records one completed request: latency `done - issued`, bucketed by
    /// completion time.
    pub fn record(&mut self, issued: SimTime, done: SimTime) {
        let latency = done.saturating_since(issued);
        let mut idx = self.index(done);
        while idx >= 2 * self.max_windows {
            self.coalesce();
            idx = self.index(done);
        }
        if idx >= self.hists.len() {
            self.hists.resize_with(idx + 1, Histogram::new);
        }
        self.hists[idx].record(latency);
    }

    /// Merges adjacent windows pairwise and doubles the window width.
    /// Snapshots not aligned to the new grid are dropped; the clock is
    /// re-armed on the coarser grid (it re-stamps the latest elapsed grid
    /// point on its next firing, overwriting with newer cumulative values —
    /// harmless, since lookups are stepwise over monotone counters).
    fn coalesce(&mut self) {
        let mut merged = Vec::with_capacity(self.hists.len().div_ceil(2));
        for pair in self.hists.chunks(2) {
            let mut h = pair[0].clone();
            if let Some(second) = pair.get(1) {
                h.merge(second);
            }
            merged.push(h);
        }
        self.hists = merged;
        self.window = Span::from_ps(self.window.as_ps() * 2);
        let w = self.window.as_ps();
        self.snaps.retain(|tick, _| tick % w == 0);
        self.clock = SampleClock::new(self.window);
    }

    /// If a snapshot grid point has elapsed by `now`, returns it (and arms
    /// the next); the caller then builds the counter set and calls
    /// [`Timeline::snapshot`]. Splitting the two lets callers share one
    /// counter-set construction with other sinks (the flight recorder).
    pub fn due(&mut self, now: SimTime) -> Option<SimTime> {
        self.clock.due(now)
    }

    /// Stores the cumulative counters of `set` as the snapshot at `tick`.
    pub fn snapshot(&mut self, tick: SimTime, set: &MetricSet) {
        self.snaps.insert(tick.as_ps(), set.counters().map(|(k, v)| (k.to_string(), v)).collect());
    }

    /// Cumulative value of `counter` at the last snapshot taken at or
    /// before `boundary_ps`, clamped to `[floor, cap]` so the per-window
    /// deltas stay monotone and telescope exactly to the final counter.
    fn stepwise(&self, counter: &str, boundary_ps: u64, floor: u64, cap: u64) -> u64 {
        let v = self
            .snaps
            .range(..=boundary_ps)
            .next_back()
            .and_then(|(_, counters)| counters.get(counter).copied())
            .unwrap_or(0);
        v.clamp(floor, cap)
    }

    /// Folds the collected windows into a bounded, serializable summary.
    ///
    /// `makespan` is the run's last completion time; `finals` are the
    /// resource counters published at the end of the run (the exact values
    /// the per-window delta series must telescope to). Base windows are
    /// grouped so at most `max_windows` remain.
    pub fn finalize(&self, makespan: Span, finals: &MetricSet) -> TimelineSummary {
        let w = self.window.as_ps();
        let n_base = self.hists.len().max(1);
        let group = n_base.div_ceil(self.max_windows).max(1);
        let window_ps = w * group as u64;
        let n = n_base.div_ceil(group);

        let mut windows = Vec::with_capacity(n);
        let mut merged_all = Histogram::new();
        for g in 0..n {
            let mut h = Histogram::new();
            for hist in self.hists.iter().skip(g * group).take(group) {
                h.merge(hist);
            }
            merged_all.merge(&h);
            windows.push(HistSummary::of(&h));
        }

        let mut resources = Vec::new();
        for (name, _) in finals.counters() {
            let Some(base) = name.strip_suffix(".busy_ps") else { continue };
            let units = finals.counter(&format!("{base}.units")).unwrap_or(1).max(1);
            let busy_delta_ps = self.delta_series(&format!("{base}.busy_ps"), n, window_ps, finals);
            let wait = wait_counter(finals, base);
            let wait_delta_ps = match &wait {
                Some(counter) => self.delta_series(counter, n, window_ps, finals),
                None => vec![0; n],
            };
            resources.push(ResourceSeries { name: base.to_string(), units, busy_delta_ps, wait_delta_ps });
        }

        TimelineSummary {
            window_ps,
            elapsed_ps: makespan.as_ps(),
            merged: HistSummary::of(&merged_all),
            windows,
            resources,
        }
    }

    /// Per-window deltas of a cumulative counter over `n` windows of width
    /// `window_ps`: interior boundaries read the stepwise snapshot value,
    /// the final boundary reads the exact final counter, so the series sums
    /// to the final counter to the picosecond.
    fn delta_series(&self, counter: &str, n: usize, window_ps: u64, finals: &MetricSet) -> Vec<u64> {
        let total = finals.counter(counter).unwrap_or(0);
        let mut cumulative = Vec::with_capacity(n + 1);
        cumulative.push(0u64);
        for j in 1..n {
            let floor = *cumulative.last().expect("cumulative starts non-empty");
            cumulative.push(self.stepwise(counter, window_ps * j as u64, floor, total));
        }
        cumulative.push(total);
        cumulative.windows(2).map(|pair| pair[1] - pair[0]).collect()
    }
}

/// The wait-side counter paired with a resource's `*.busy_ps`, in the
/// precedence order the DES resources publish: server queue wait, link
/// queueing delay, throttle admission delay.
pub(crate) fn wait_counter(set: &MetricSet, base: &str) -> Option<String> {
    ["wait_ps", "queue_ps", "delay_ps"]
        .iter()
        .map(|suffix| format!("{base}.{suffix}"))
        .find(|name| set.counter(name).is_some())
}

/// One resource's per-window activity deltas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceSeries {
    /// Resource prefix as published into the report (`"accel"`, `"net"`).
    pub name: String,
    /// Parallel service units (the `*.units` counter; 1 when absent), the
    /// denominator scale for utilization.
    pub units: u64,
    /// Busy time accrued per window, picoseconds; sums to the final
    /// `*.busy_ps` counter exactly.
    pub busy_delta_ps: Vec<u64>,
    /// Wait/queue/admission delay accrued per window, picoseconds; sums to
    /// the matching final counter exactly (all zero when the resource
    /// publishes no wait-side counter).
    pub wait_delta_ps: Vec<u64>,
}

impl ResourceSeries {
    /// Utilization of window `i`: busy time over window capacity.
    pub fn utilization(&self, i: usize, window_ps: u64) -> f64 {
        self.busy_delta_ps[i] as f64 / (self.units as f64 * window_ps.max(1) as f64)
    }

    fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.push("units", Json::U64(self.units));
        o.push("busy_delta_ps", Json::Arr(self.busy_delta_ps.iter().map(|&v| Json::U64(v)).collect()));
        o.push("wait_delta_ps", Json::Arr(self.wait_delta_ps.iter().map(|&v| Json::U64(v)).collect()));
        o
    }
}

/// Serializable, bounded view of a run's windowed telemetry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineSummary {
    /// Width of every window, picoseconds.
    pub window_ps: u64,
    /// Run makespan (last completion), picoseconds; the windows tile
    /// `(0, windows.len()·window_ps]` ⊇ `(0, elapsed_ps]`.
    pub elapsed_ps: u64,
    /// Whole-run histogram rebuilt by merging every window — equals the
    /// directly-accumulated total bucket-for-bucket.
    pub merged: HistSummary,
    /// Latency summary of the requests completing in each window (the
    /// count over the window width is the window's throughput).
    pub windows: Vec<HistSummary>,
    /// Per-resource busy/wait delta series, name-sorted.
    pub resources: Vec<ResourceSeries>,
}

impl TimelineSummary {
    /// Completions in window `i`.
    pub fn completed(&self, i: usize) -> u64 {
        self.windows[i].count
    }

    /// Throughput of window `i`, operations per second.
    pub fn throughput_ops(&self, i: usize) -> f64 {
        self.windows[i].count as f64 / (self.window_ps.max(1) as f64 / 1.0e12)
    }

    /// Largest per-window p99 across the run (tail-pressure digest).
    pub fn peak_p99_ps(&self) -> u64 {
        self.windows.iter().map(|w| w.p99_ps).max().unwrap_or(0)
    }

    /// Largest per-window utilization across all resources. Can exceed 1:
    /// the DES resources charge a request's whole busy time at its
    /// acquisition instant, so a window can absorb work that executes in
    /// the next one.
    pub fn peak_utilization(&self) -> f64 {
        let mut peak = 0.0f64;
        for r in &self.resources {
            for i in 0..r.busy_delta_ps.len() {
                peak = peak.max(r.utilization(i, self.window_ps));
            }
        }
        peak
    }

    /// Renders the timeline as a deterministic JSON value.
    pub fn to_json(&self) -> Json {
        let mut windows = Vec::with_capacity(self.windows.len());
        for w in &self.windows {
            windows.push(w.to_json());
        }
        let mut resources = Json::obj();
        for r in &self.resources {
            resources.push(&r.name, r.to_json());
        }
        let mut o = Json::obj();
        o.push("window_ps", Json::U64(self.window_ps));
        o.push("elapsed_ps", Json::U64(self.elapsed_ps));
        o.push("merged", self.merged.to_json());
        o.push("windows", Json::Arr(windows));
        o.push("resources", resources);
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimTime {
        SimTime::from_us(n)
    }

    #[test]
    fn completions_bucket_by_completion_time() {
        let mut tl = Timeline::new(Span::from_us(10), 8);
        // Issued at 0, done at 5 µs → window 0; done at 15 µs → window 1;
        // done exactly at 10 µs → window 0 (left-open windows).
        tl.record(SimTime::ZERO, us(5));
        tl.record(SimTime::ZERO, us(15));
        tl.record(SimTime::ZERO, us(10));
        let s = tl.finalize(Span::from_us(15), &MetricSet::new());
        assert_eq!(s.windows.len(), 2);
        assert_eq!(s.completed(0), 2);
        assert_eq!(s.completed(1), 1);
        assert_eq!(s.merged.count, 3);
    }

    #[test]
    fn merged_equals_direct_accumulation_exactly() {
        let mut tl = Timeline::new(Span::from_us(10), 4);
        let mut direct = Histogram::new();
        for i in 0..500u64 {
            let issued = SimTime::from_ns(i * 731);
            let done = issued + Span::from_ns(1 + (i * i) % 90_000);
            tl.record(issued, done);
            direct.record(done.saturating_since(issued));
        }
        let s = tl.finalize(Span::from_ns(499 * 731 + 90_000), &MetricSet::new());
        // Exact: the same samples went into both, and histogram merge adds
        // bucket counts losslessly — no tolerance needed.
        assert_eq!(s.merged, HistSummary::of(&direct));
        let window_counts: u64 = s.windows.iter().map(|w| w.count).sum();
        assert_eq!(window_counts, 500);
        let window_sums: u128 = s.windows.iter().map(|w| w.sum_ps).sum();
        assert_eq!(window_sums, direct.sum_ps());
    }

    #[test]
    fn coalescing_bounds_windows_and_preserves_totals() {
        let mut tl = Timeline::new(Span::from_us(1), 4);
        // 100 µs of completions against a 4-window bound: the base window
        // must double repeatedly, and the final summary respects the bound.
        for i in 0..1000u64 {
            let done = SimTime::from_ns(i * 100 + 1);
            tl.record(SimTime::ZERO, done);
        }
        assert!(tl.window() > Span::from_us(1), "window should have doubled");
        let s = tl.finalize(Span::from_ns(999 * 100 + 1), &MetricSet::new());
        assert!(s.windows.len() <= 4, "{} windows", s.windows.len());
        assert_eq!(s.merged.count, 1000);
        assert!(s.window_ps * s.windows.len() as u64 >= s.elapsed_ps);
    }

    #[test]
    fn delta_series_telescopes_to_final_counters() {
        let mut tl = Timeline::new(Span::from_us(10), 8);
        // Completions define 4 windows over a 40 µs run.
        for k in 1..=4u64 {
            tl.record(SimTime::ZERO, us(10 * k));
        }
        // Snapshots at 10/20/30 µs with a counter growing 100 ps per window.
        for k in 1..=3u64 {
            if let Some(tick) = tl.due(us(10 * k)) {
                let mut set = MetricSet::new();
                set.set("srv.busy_ps", 100 * k);
                set.set("srv.wait_ps", 10 * k);
                tl.snapshot(tick, &set);
            }
        }
        let mut finals = MetricSet::new();
        finals.set("srv.busy_ps", 400);
        finals.set("srv.wait_ps", 40);
        finals.set("srv.units", 2);
        let s = tl.finalize(Span::from_us(40), &finals);
        assert_eq!(s.resources.len(), 1);
        let r = &s.resources[0];
        assert_eq!(r.name, "srv");
        assert_eq!(r.units, 2);
        assert_eq!(r.busy_delta_ps, vec![100, 100, 100, 100]);
        assert_eq!(r.wait_delta_ps, vec![10, 10, 10, 10]);
        assert_eq!(r.busy_delta_ps.iter().sum::<u64>(), 400);
    }

    #[test]
    fn unsampled_resources_attribute_to_the_tail_window() {
        let mut tl = Timeline::new(Span::from_us(10), 8);
        tl.record(SimTime::ZERO, us(30));
        let mut finals = MetricSet::new();
        finals.set("lnk.busy_ps", 900);
        finals.set("lnk.queue_ps", 90);
        let s = tl.finalize(Span::from_us(30), &finals);
        let r = &s.resources[0];
        // No snapshots → exactness still holds, all mass in the last delta.
        assert_eq!(r.busy_delta_ps, vec![0, 0, 900]);
        assert_eq!(r.wait_delta_ps, vec![0, 0, 90]);
    }

    #[test]
    fn zero_duration_run_yields_one_empty_window() {
        let tl = Timeline::default();
        let s = tl.finalize(Span::ZERO, &MetricSet::new());
        assert_eq!(s.windows.len(), 1);
        assert_eq!(s.merged.count, 0);
        assert_eq!(s.elapsed_ps, 0);
        assert_eq!(s.peak_p99_ps(), 0);
        assert_eq!(s.peak_utilization(), 0.0);
        // No division by zero anywhere on the render path either.
        let _ = s.to_json().render();
    }

    #[test]
    fn completion_exactly_on_makespan_boundary_stays_in_last_window() {
        let mut tl = Timeline::new(Span::from_us(10), 8);
        tl.record(SimTime::ZERO, us(20)); // makespan lands exactly on a tick
        let s = tl.finalize(Span::from_us(20), &MetricSet::new());
        assert_eq!(s.windows.len(), 2, "no empty third window");
        assert_eq!(s.completed(1), 1);
    }

    #[test]
    fn json_shape_is_deterministic() {
        let mut tl = Timeline::new(Span::from_us(10), 4);
        tl.record(SimTime::ZERO, us(7));
        let mut finals = MetricSet::new();
        finals.set("a.busy_ps", 5);
        let a = tl.finalize(Span::from_us(7), &finals).to_json().render();
        let b = tl.finalize(Span::from_us(7), &finals).to_json().render();
        assert_eq!(a, b);
        assert!(a.contains("\"window_ps\""));
        assert!(a.contains("\"busy_delta_ps\""));
    }
}
