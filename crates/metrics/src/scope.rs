//! Per-entity metric scopes: attribution of work to shards, replicas,
//! tables, links, and tenants.
//!
//! The flat [`MetricSet`] in a [`RunReport`](crate::RunReport) answers "how
//! much work happened"; this module answers "*whose* work was it". A
//! [`ScopedMetrics`] registry keeps one child [`MetricSet`], latency
//! [`Histogram`], and windowed [`Timeline`] per named scope (`shard/3`,
//! `replica/0`, `table/7`, `link/net.egress.2`), plus two deterministic
//! space-saving sketches ([`TopKSketch`]) tracking the hottest keys and the
//! hottest scopes.
//!
//! Three exact identities tie the scoped view back to the global report
//! (checked by `RunReport::validate` → `validate_scopes`):
//!
//! 1. **counter conservation** — per-scope counters sum to the scoped
//!    rollup, and any rollup counter sharing a name with a global resource
//!    counter equals it exactly;
//! 2. **histogram conservation** — merging the per-scope latency histograms
//!    reproduces the global traced histogram bucket-for-bucket, and the
//!    per-scope timeline windows (regrouped onto the global window grid)
//!    telescope to the global per-window counts and sums; and
//! 3. **mirror consistency** — the `scope.*`, `hot.*`, and `slo.*` counters
//!    published into the report's resources mirror the structured section
//!    value for value (analyzer rule R10 keeps the list in sync).
//!
//! The per-scope timelines share the global timeline's coalescing rule, so
//! a scope's base window always divides the global finalized window: the
//! global width is `50 µs · 2^a · group` and a scope — seeing a subset of
//! the completions, hence an earlier last completion — has width
//! `50 µs · 2^b` with `b ≤ a`. Regrouping is therefore exact, never split.
//!
//! An [`SloSummary`] derives windowed burn-rate from the global timeline: a
//! window *violates* when it completed at least one request and its p99
//! exceeds the configured target; the burn rate is the violating fraction
//! of windows (DESIGN.md §15).
//!
//! Recording is passive — no RNG, no simulated time, no event scheduling —
//! and every structure is a `BTreeMap` or insertion-ordered vector, so
//! scoped runs are deterministic and unscoped runs are byte-identical to
//! runs built before this layer existed.

use std::collections::BTreeMap;

use rambda_des::{Histogram, SimTime};

use crate::json::Json;
use crate::report::HistSummary;
use crate::set::MetricSet;
use crate::sketch::{SketchEntry, TopKSketch};
use crate::timeline::{Timeline, TimelineSummary};

/// Configuration for a scoped run: sketch capacity and the SLO target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScopeConfig {
    /// Capacity of the hot-key and hot-scope sketches.
    pub top_k: usize,
    /// Per-window p99 latency target, picoseconds; a window with at least
    /// one completion and a p99 above this counts as an SLO violation.
    pub slo_p99_ps: u64,
}

impl Default for ScopeConfig {
    fn default() -> Self {
        // 8 monitored keys and a 100 µs p99 target: generous for the
        // quick-mode runs the goldens pin, tight enough to trip under load.
        ScopeConfig { top_k: 8, slo_p99_ps: 100_000_000 }
    }
}

/// One live scope: its counters, latency histogram, and windowed timeline.
#[derive(Debug, Clone)]
struct ScopeState {
    /// Creation-order ordinal; the hot-scope sketch keys on this.
    ordinal: u64,
    set: MetricSet,
    hist: Histogram,
    timeline: Timeline,
}

impl ScopeState {
    fn new(ordinal: u64) -> Self {
        ScopeState { ordinal, set: MetricSet::new(), hist: Histogram::new(), timeline: Timeline::default() }
    }
}

/// Registry of named child metric scopes, threaded through the design run
/// loop the way the stage recorder and tracer are.
///
/// A disabled registry ([`ScopedMetrics::disabled`]) turns every call into
/// a cheap branch, so instrumented serve loops run unchanged — and produce
/// byte-identical reports — when scoping is off.
#[derive(Debug, Clone)]
pub struct ScopedMetrics {
    active: bool,
    config: ScopeConfig,
    scopes: BTreeMap<String, ScopeState>,
    /// Ordinal → scope name, in creation order (resolves sketch keys).
    names: Vec<String>,
    hot_keys: TopKSketch,
    hot_scopes: TopKSketch,
}

impl ScopedMetrics {
    /// A no-op registry for unscoped runs.
    pub fn disabled() -> Self {
        ScopedMetrics {
            active: false,
            config: ScopeConfig::default(),
            scopes: BTreeMap::new(),
            names: Vec::new(),
            hot_keys: TopKSketch::new(1),
            hot_scopes: TopKSketch::new(1),
        }
    }

    /// A recording registry with the given configuration.
    pub fn active(config: ScopeConfig) -> Self {
        ScopedMetrics {
            active: true,
            config,
            scopes: BTreeMap::new(),
            names: Vec::new(),
            hot_keys: TopKSketch::new(config.top_k.max(1)),
            hot_scopes: TopKSketch::new(config.top_k.max(1)),
        }
    }

    /// Whether this registry records.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// The configuration this registry was built with.
    pub fn config(&self) -> ScopeConfig {
        self.config
    }

    fn ensure(&mut self, scope: &str) -> &mut ScopeState {
        if !self.scopes.contains_key(scope) {
            let ordinal = self.names.len() as u64;
            self.names.push(scope.to_string());
            self.scopes.insert(scope.to_string(), ScopeState::new(ordinal));
        }
        self.scopes.get_mut(scope).expect("scope was just ensured")
    }

    /// Creates `scope` if needed and returns its child [`MetricSet`] for
    /// direct publication (the fabric publishes per-link counters this
    /// way). `None` when disabled.
    pub fn child(&mut self, scope: &str) -> Option<&mut MetricSet> {
        if !self.active {
            return None;
        }
        Some(&mut self.ensure(scope).set)
    }

    /// Records one completed request under `scope`: its latency lands in
    /// the scope's histogram and timeline, the scope's `requests` /
    /// `latency_ps` counters advance, and the hot-scope sketch observes it.
    pub fn record(&mut self, scope: &str, issued: SimTime, done: SimTime) {
        if !self.active {
            return;
        }
        let latency = done.saturating_since(issued);
        let state = self.ensure(scope);
        state.hist.record(latency);
        state.timeline.record(issued, done);
        state.set.add("requests", 1);
        state.set.add("latency_ps", latency.as_ps());
        let ordinal = state.ordinal;
        self.hot_scopes.observe(ordinal);
    }

    /// Feeds one key into the hot-key sketch (KVS keys, TXN keys, DLRM
    /// embedding rows).
    pub fn observe_key(&mut self, key: u64) {
        if !self.active {
            return;
        }
        self.hot_keys.observe(key);
    }

    /// Adds `delta` to a counter of `scope`'s child set.
    pub fn add(&mut self, scope: &str, name: &str, delta: u64) {
        if !self.active {
            return;
        }
        self.ensure(scope).set.add(name, delta);
    }

    /// Number of live scopes.
    pub fn len(&self) -> usize {
        self.scopes.len()
    }

    /// Whether no scope was created.
    pub fn is_empty(&self) -> bool {
        self.scopes.is_empty()
    }

    /// Folds the registry into its serializable summary.
    ///
    /// `global` is the run's finalized timeline: per-scope windows are
    /// regrouped onto its grid (exact — see the module docs) and the SLO
    /// burn-rate is derived from its per-window p99s. Without a timeline
    /// the per-scope window lists are empty and the SLO covers no windows.
    ///
    /// # Panics
    ///
    /// Panics if `global`'s window grid is not a multiple of a scope's base
    /// window — impossible when both fed from the same run, see module docs.
    pub fn finalize(&self, global: Option<&TimelineSummary>) -> ScopesSummary {
        let mut scopes = Vec::with_capacity(self.scopes.len());
        let mut rollup = MetricSet::new();
        let mut merged = Histogram::new();
        for (name, state) in &self.scopes {
            merged.merge(&state.hist);
            rollup.merge(&state.set);
            let windows = match global {
                Some(tl) => state
                    .timeline
                    .windows_on_grid(tl.window_ps, tl.windows.len())
                    .expect("scope window grid divides the global grid"),
                None => Vec::new(),
            };
            scopes.push(ScopeSummary {
                name: name.clone(),
                set: state.set.clone(),
                latency: HistSummary::of(&state.hist),
                windows,
            });
        }
        let hot_scopes = self
            .hot_scopes
            .top()
            .into_iter()
            .map(|row| HotScope {
                scope: self.names[row.key as usize].clone(),
                count: row.count,
                err: row.err,
            })
            .collect();
        ScopesSummary {
            top_k: self.config.top_k,
            scopes,
            rollup,
            merged: HistSummary::of(&merged),
            hot_keys: self.hot_keys.top(),
            keys_observed: self.hot_keys.observed(),
            hot_scopes,
            slo: SloSummary::derive(self.config.slo_p99_ps, global),
        }
    }
}

/// One scope's serialized slice of the run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScopeSummary {
    /// Scope name, e.g. `"shard/3"`.
    pub name: String,
    /// The scope's child counters and gauges.
    pub set: MetricSet,
    /// Latency over the requests recorded under this scope.
    pub latency: HistSummary,
    /// The scope's completions regrouped onto the global timeline grid;
    /// summing across scopes reproduces each global window exactly.
    pub windows: Vec<HistSummary>,
}

/// A hot scope resolved from the scope sketch: name, estimated request
/// count, and overestimation bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotScope {
    /// Scope name.
    pub scope: String,
    /// Estimated requests recorded under the scope.
    pub count: u64,
    /// Overestimation bound (`0` means exact).
    pub err: u64,
}

/// Windowed SLO digest derived from the global timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSummary {
    /// The per-window p99 target, picoseconds.
    pub target_p99_ps: u64,
    /// Number of timeline windows inspected.
    pub windows: u64,
    /// Windows that completed at least one request with p99 over target.
    pub violations: u64,
    /// `violations / windows` (0 when no windows).
    pub burn_rate: f64,
}

impl SloSummary {
    /// Derives the digest from a finalized timeline (all-zero without one).
    pub fn derive(target_p99_ps: u64, global: Option<&TimelineSummary>) -> Self {
        let windows: &[HistSummary] = global.map(|tl| tl.windows.as_slice()).unwrap_or(&[]);
        let violations = windows.iter().filter(|w| w.count > 0 && w.p99_ps > target_p99_ps).count() as u64;
        let n = windows.len() as u64;
        SloSummary {
            target_p99_ps,
            windows: n,
            violations,
            burn_rate: if n == 0 { 0.0 } else { violations as f64 / n as f64 },
        }
    }

    fn to_json(self) -> Json {
        let mut o = Json::obj();
        o.push("target_p99_ps", Json::U64(self.target_p99_ps));
        o.push("windows", Json::U64(self.windows));
        o.push("violations", Json::U64(self.violations));
        o.push("burn_rate", Json::F64(self.burn_rate));
        o
    }
}

/// The serializable `"scopes"` report section.
#[derive(Debug, Clone, PartialEq)]
pub struct ScopesSummary {
    /// Sketch capacity the run was configured with.
    pub top_k: usize,
    /// Per-scope slices, name-sorted.
    pub scopes: Vec<ScopeSummary>,
    /// Sum of every child counter across scopes (gauges merge keep-max).
    pub rollup: MetricSet,
    /// All per-scope latency histograms merged — equals the global traced
    /// total bucket-for-bucket when every request was scoped.
    pub merged: HistSummary,
    /// Hot keys, ranked by estimated count.
    pub hot_keys: Vec<SketchEntry>,
    /// Total keys fed into the hot-key sketch.
    pub keys_observed: u64,
    /// Hot scopes, ranked by estimated request count.
    pub hot_scopes: Vec<HotScope>,
    /// Windowed SLO digest.
    pub slo: SloSummary,
}

impl ScopesSummary {
    /// Fraction of scoped requests landing in the busiest scope (0 when
    /// nothing was recorded) — the bench harness's hot-fraction column.
    pub fn hot_fraction(&self) -> f64 {
        if self.merged.count == 0 {
            return 0.0;
        }
        let peak = self.scopes.iter().map(|s| s.set.counter("requests").unwrap_or(0)).max().unwrap_or(0);
        peak as f64 / self.merged.count as f64
    }

    /// Sum of the monitored hot-key counts.
    pub fn top_hits(&self) -> u64 {
        self.hot_keys.iter().map(|row| row.count).sum()
    }

    /// Publishes the section's mirror counters into the report resources.
    ///
    /// Analyzer rule R10 holds every `scope.*` / `hot.*` counter set here
    /// to appear in the `validate_scopes` identity; none may end in
    /// `.busy_ps`, which would desynchronize the timeline's resource-series
    /// count (`validate_timeline`) after the timeline was finalized.
    pub fn publish_metrics(&self, m: &mut MetricSet) {
        m.set("scope.count", self.scopes.len() as u64);
        m.set("scope.requests", self.merged.count);
        m.set("scope.latency_ps", u64::try_from(self.merged.sum_ps).unwrap_or(u64::MAX));
        m.set("hot.keys_tracked", self.hot_keys.len() as u64);
        m.set("hot.observed", self.keys_observed);
        m.set("hot.top_hits", self.top_hits());
        m.set("slo.violations", self.slo.violations);
        m.set("slo.windows", self.slo.windows);
        m.gauge("slo.burn_rate", self.slo.burn_rate);
    }

    /// Renders the section as a deterministic JSON value.
    pub fn to_json(&self) -> Json {
        let mut scopes = Json::obj();
        for s in &self.scopes {
            let mut o = Json::obj();
            o.push("latency", s.latency.to_json());
            o.push("windows", Json::Arr(s.windows.iter().map(|w| w.to_json()).collect()));
            o.push("set", s.set.to_json());
            scopes.push(&s.name, o);
        }
        let hot_keys = Json::Arr(
            self.hot_keys
                .iter()
                .map(|row| {
                    let mut o = Json::obj();
                    o.push("key", Json::U64(row.key));
                    o.push("count", Json::U64(row.count));
                    o.push("err", Json::U64(row.err));
                    o
                })
                .collect(),
        );
        let hot_scopes = Json::Arr(
            self.hot_scopes
                .iter()
                .map(|row| {
                    let mut o = Json::obj();
                    o.push("scope", Json::Str(row.scope.clone()));
                    o.push("count", Json::U64(row.count));
                    o.push("err", Json::U64(row.err));
                    o
                })
                .collect(),
        );
        let mut out = Json::obj();
        out.push("top_k", Json::U64(self.top_k as u64));
        out.push("scopes", scopes);
        out.push("rollup", self.rollup.to_json());
        out.push("merged", self.merged.to_json());
        out.push("hot_keys", hot_keys);
        out.push("keys_observed", Json::U64(self.keys_observed));
        out.push("hot_scopes", hot_scopes);
        out.push("slo", self.slo.to_json());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rambda_des::Span;

    fn us(n: u64) -> SimTime {
        SimTime::from_us(n)
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let mut sm = ScopedMetrics::disabled();
        sm.record("shard/0", SimTime::ZERO, us(5));
        sm.observe_key(7);
        sm.add("shard/0", "misses", 1);
        assert!(!sm.is_active());
        assert!(sm.is_empty());
        assert!(sm.child("shard/0").is_none());
        let summary = sm.finalize(None);
        assert!(summary.scopes.is_empty());
        assert_eq!(summary.merged.count, 0);
        assert_eq!(summary.hot_fraction(), 0.0);
    }

    #[test]
    fn scoped_histograms_merge_to_the_union() {
        let mut sm = ScopedMetrics::active(ScopeConfig::default());
        let mut direct = Histogram::new();
        for i in 0..100u64 {
            let issued = SimTime::from_ns(i * 500);
            let done = issued + Span::from_ns(1_000 + i * 13);
            let scope = if i % 3 == 0 { "shard/0" } else { "shard/1" };
            sm.record(scope, issued, done);
            direct.record(done.saturating_since(issued));
        }
        let summary = sm.finalize(None);
        assert_eq!(summary.scopes.len(), 2);
        assert_eq!(summary.merged, HistSummary::of(&direct));
        let per_scope: u64 = summary.scopes.iter().map(|s| s.latency.count).sum();
        assert_eq!(per_scope, 100);
        assert_eq!(summary.rollup.counter("requests"), Some(100));
        let sums: u128 = summary.scopes.iter().map(|s| s.latency.sum_ps).sum();
        assert_eq!(sums, direct.sum_ps());
    }

    #[test]
    fn hot_fraction_tracks_the_busiest_scope() {
        let mut sm = ScopedMetrics::active(ScopeConfig::default());
        for i in 0..10u64 {
            let scope = if i < 8 { "shard/0" } else { "shard/1" };
            sm.record(scope, SimTime::ZERO, us(1));
        }
        let summary = sm.finalize(None);
        assert!((summary.hot_fraction() - 0.8).abs() < 1e-12);
        // The hot-scope sketch agrees, exactly (both scopes fit).
        assert_eq!(summary.hot_scopes[0].scope, "shard/0");
        assert_eq!(summary.hot_scopes[0].count, 8);
        assert_eq!(summary.hot_scopes[0].err, 0);
    }

    #[test]
    fn slo_burn_rate_counts_violating_windows() {
        let windows = vec![
            HistSummary {
                count: 5,
                sum_ps: 0,
                min_ps: 0,
                max_ps: 0,
                mean_ps: 0,
                p50_ps: 0,
                p99_ps: 90,
                p999_ps: 0,
            },
            HistSummary {
                count: 5,
                sum_ps: 0,
                min_ps: 0,
                max_ps: 0,
                mean_ps: 0,
                p50_ps: 0,
                p99_ps: 150,
                p999_ps: 0,
            },
            HistSummary {
                count: 0,
                sum_ps: 0,
                min_ps: 0,
                max_ps: 0,
                mean_ps: 0,
                p50_ps: 0,
                p99_ps: 500,
                p999_ps: 0,
            },
            HistSummary {
                count: 2,
                sum_ps: 0,
                min_ps: 0,
                max_ps: 0,
                mean_ps: 0,
                p50_ps: 0,
                p99_ps: 101,
                p999_ps: 0,
            },
        ];
        let tl = TimelineSummary {
            window_ps: 100,
            elapsed_ps: 400,
            merged: windows[0],
            windows,
            resources: Vec::new(),
        };
        let slo = SloSummary::derive(100, Some(&tl));
        // Window 1 (p99 150) and window 3 (p99 101) violate; the empty
        // window 2 does not, despite its stale p99.
        assert_eq!(slo.windows, 4);
        assert_eq!(slo.violations, 2);
        assert!((slo.burn_rate - 0.5).abs() < 1e-12);
        let idle = SloSummary::derive(100, None);
        assert_eq!(idle.windows, 0);
        assert_eq!(idle.burn_rate, 0.0);
    }

    #[test]
    fn mirrors_publish_and_json_is_deterministic() {
        let mut sm = ScopedMetrics::active(ScopeConfig { top_k: 2, slo_p99_ps: 1_000 });
        sm.record("a", SimTime::ZERO, us(1));
        sm.record("b", SimTime::ZERO, us(2));
        sm.observe_key(1);
        sm.observe_key(1);
        sm.observe_key(2);
        let summary = sm.finalize(None);
        let mut m = MetricSet::new();
        summary.publish_metrics(&mut m);
        assert_eq!(m.counter("scope.count"), Some(2));
        assert_eq!(m.counter("scope.requests"), Some(2));
        assert_eq!(m.counter("hot.observed"), Some(3));
        assert_eq!(m.counter("hot.top_hits"), Some(3));
        assert_eq!(m.counter("hot.keys_tracked"), Some(2));
        assert_eq!(m.counter("slo.windows"), Some(0));
        assert_eq!(m.gauge_value("slo.burn_rate"), Some(0.0));
        let a = summary.to_json().render();
        let b = sm.finalize(None).to_json().render();
        assert_eq!(a, b);
        assert!(a.contains("\"hot_keys\""));
        assert!(a.contains("\"slo\""));
    }

    #[test]
    fn child_sets_feed_the_rollup() {
        let mut sm = ScopedMetrics::active(ScopeConfig::default());
        sm.child("link/egress.0").unwrap().set("net.egress.0.bytes", 100);
        sm.child("link/egress.1").unwrap().set("net.egress.1.bytes", 50);
        sm.add("link/egress.0", "drops", 2);
        let summary = sm.finalize(None);
        assert_eq!(summary.rollup.counter("net.egress.0.bytes"), Some(100));
        assert_eq!(summary.rollup.counter("net.egress.1.bytes"), Some(50));
        assert_eq!(summary.rollup.counter("drops"), Some(2));
        // Zero-request scopes still appear, with empty latency summaries.
        assert_eq!(summary.scopes.len(), 2);
        assert_eq!(summary.scopes[0].latency.count, 0);
    }

    #[test]
    fn scope_windows_regroup_onto_the_global_grid() {
        // The global run coalesced to a 100 µs finalized grid; the scope
        // recorded on the default 50 µs base. Regrouping must land each
        // scope completion in the right global window.
        let mut sm = ScopedMetrics::active(ScopeConfig::default());
        sm.record("s", SimTime::ZERO, us(40)); // global window 0 (0–100 µs]
        sm.record("s", SimTime::ZERO, us(160)); // global window 1 (100–200 µs]
        let tl = TimelineSummary {
            window_ps: us(100).as_ps(),
            elapsed_ps: us(160).as_ps(),
            merged: HistSummary::of(&Histogram::new()),
            windows: vec![HistSummary::of(&Histogram::new()); 2],
            resources: Vec::new(),
        };
        let summary = sm.finalize(Some(&tl));
        let windows = &summary.scopes[0].windows;
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].count, 1);
        assert_eq!(windows[1].count, 1);
    }

    /// Drives both the global timeline and the per-scope timelines past the
    /// 32-window coalescing bound: the run is long enough that every
    /// collector doubles its base window repeatedly, and the finalized grid
    /// sits at the bound. The regrouped scope windows must still tile the
    /// global grid exactly — coalescing moves whole windows, never splits.
    #[test]
    fn scope_windows_align_at_the_coalescing_bound() {
        let mut sm = ScopedMetrics::active(ScopeConfig::default());
        let mut global = Timeline::default();
        // 128 completions at 100 µs spacing: a 12.8 ms run against the
        // default 50 µs × 32-window collector forces three doublings
        // (50 → 400 µs) in the global and in each busy scope.
        let last = 128u64;
        for i in 1..=last {
            let done = us(100 * i);
            let scope = if i % 2 == 0 { "even" } else { "odd" };
            sm.record(scope, SimTime::ZERO, done);
            global.record(SimTime::ZERO, done);
        }
        assert!(global.window() > Span::from_us(50), "global must have coalesced");
        let tl = global.finalize(Span::from_us(100 * last), &MetricSet::new());
        assert!(tl.windows.len() <= 32);

        let summary = sm.finalize(Some(&tl));
        for s in &summary.scopes {
            assert_eq!(s.windows.len(), tl.windows.len(), "{}", s.name);
        }
        for (i, w) in tl.windows.iter().enumerate() {
            let count: u64 = summary.scopes.iter().map(|s| s.windows[i].count).sum();
            let sum: u128 = summary.scopes.iter().map(|s| s.windows[i].sum_ps).sum();
            assert_eq!(count, w.count, "window {i} count");
            assert_eq!(sum, w.sum_ps, "window {i} sum");
        }
    }

    /// A scope created but never recorded into (a counter-only link scope,
    /// a shard that saw no traffic) pads empty windows on whatever grid the
    /// global run finalized to, and never perturbs the busy scopes.
    #[test]
    fn zero_request_scopes_pad_the_global_grid() {
        let mut sm = ScopedMetrics::active(ScopeConfig::default());
        let mut global = Timeline::default();
        for i in 1..=10u64 {
            sm.record("busy", SimTime::ZERO, us(40 * i));
            global.record(SimTime::ZERO, us(40 * i));
        }
        sm.child("idle").unwrap().set("drops", 0);
        let tl = global.finalize(Span::from_us(400), &MetricSet::new());

        let summary = sm.finalize(Some(&tl));
        assert_eq!(summary.scopes.len(), 2);
        let idle = summary.scopes.iter().find(|s| s.name == "idle").unwrap();
        assert_eq!(idle.windows.len(), tl.windows.len());
        assert!(idle.windows.iter().all(|w| w.count == 0), "idle scope must stay empty");
        assert_eq!(idle.latency.count, 0);
        // The idle scope never enters the hot-scope sketch.
        assert!(summary.hot_scopes.iter().all(|h| h.scope != "idle"));
        let busy = summary.scopes.iter().find(|s| s.name == "busy").unwrap();
        let busy_total: u64 = busy.windows.iter().map(|w| w.count).sum();
        assert_eq!(busy_total, 10);
    }

    /// Proptest-style sweep: across many seeded request patterns (varying
    /// scope counts, latencies, spacings, and run lengths — some past the
    /// coalescing bound), the per-scope window merges telescope to the
    /// global [`TimelineSummary`] window-for-window and in total.
    #[test]
    fn scope_window_merges_telescope_to_the_global_summary() {
        for case in 0u64..40 {
            // Deterministic LCG so every case is reproducible by index.
            let mut state = case.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            let mut next = move |bound: u64| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) % bound.max(1)
            };
            let scopes = 1 + next(5) as usize;
            let requests = 1 + next(300);
            let spacing_ns = 1 + next(80_000); // up to 80 µs between completions

            let mut sm = ScopedMetrics::active(ScopeConfig::default());
            let mut global = Timeline::default();
            let mut direct = Histogram::new();
            let mut makespan = SimTime::ZERO;
            for i in 0..requests {
                let done = SimTime::from_ns((i + 1) * spacing_ns);
                let issued = SimTime::from_ns(next(done.as_ps() / 1_000 + 1));
                let scope = format!("s/{}", next(scopes as u64));
                sm.record(&scope, issued, done);
                global.record(issued, done);
                direct.record(done.saturating_since(issued));
                makespan = done;
            }
            let tl = global.finalize(Span::from_ps(makespan.as_ps()), &MetricSet::new());
            assert_eq!(tl.merged, HistSummary::of(&direct), "case {case}: global merge drifted");

            let summary = sm.finalize(Some(&tl));
            assert_eq!(summary.merged, tl.merged, "case {case}: scope union != global");
            for s in &summary.scopes {
                assert_eq!(s.windows.len(), tl.windows.len(), "case {case} scope {}", s.name);
                let scope_total: u64 = s.windows.iter().map(|w| w.count).sum();
                assert_eq!(scope_total, s.latency.count, "case {case} scope {}", s.name);
            }
            for (i, w) in tl.windows.iter().enumerate() {
                let count: u64 = summary.scopes.iter().map(|s| s.windows[i].count).sum();
                let sum: u128 = summary.scopes.iter().map(|s| s.windows[i].sum_ps).sum();
                assert_eq!(count, w.count, "case {case} window {i} count");
                assert_eq!(sum, w.sum_ps, "case {case} window {i} sum");
            }
        }
    }
}
