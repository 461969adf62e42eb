//! The counter/gauge registry components publish into.
//!
//! Names are dotted paths (`"accel.slots.busy_ps"`); storage is a
//! `BTreeMap`, so iteration — and therefore JSON output — is always sorted
//! and deterministic. Counters are `u64`; gauges are `f64` snapshots.

use std::collections::BTreeMap;

use rambda_des::{Link, Server, Throttle};

use crate::json::Json;

/// A named, ordered registry of counters and gauges.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricSet {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
}

impl MetricSet {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricSet::default()
    }

    /// Whether the registry holds no metrics.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty()
    }

    /// Number of metrics (counters + gauges).
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len()
    }

    /// Adds `delta` to the named counter (creating it at zero).
    pub fn add(&mut self, name: &str, delta: u64) {
        let slot = self.counters.entry(name.to_string()).or_insert(0);
        *slot = slot.saturating_add(delta);
    }

    /// Sets the named counter to an absolute value.
    pub fn set(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    /// Sets the named gauge.
    pub fn gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Reads a counter, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Reads a gauge, if present.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Iterates counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterates gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Publishes a [`Server`]'s counters under `prefix`: unit count,
    /// acquisitions, aggregate busy time, and aggregate queue wait.
    pub fn observe_server(&mut self, prefix: &str, server: &Server) {
        self.set(&format!("{prefix}.units"), server.units() as u64);
        self.set(&format!("{prefix}.acquisitions"), server.acquisitions());
        self.set(&format!("{prefix}.busy_ps"), server.busy_time().as_ps());
        self.set(&format!("{prefix}.wait_ps"), server.queue_wait().as_ps());
    }

    /// Publishes a [`Link`]'s counters under `prefix`: bytes moved,
    /// transfer count, serialization (busy) time, and queueing delay.
    pub fn observe_link(&mut self, prefix: &str, link: &Link) {
        self.set(&format!("{prefix}.bytes"), link.bytes_moved());
        self.set(&format!("{prefix}.transfers"), link.transfers());
        self.set(&format!("{prefix}.busy_ps"), link.busy_time().as_ps());
        self.set(&format!("{prefix}.queue_ps"), link.queue_delay_total().as_ps());
    }

    /// Publishes a [`Throttle`]'s counters under `prefix`: admissions and
    /// aggregate admission delay.
    pub fn observe_throttle(&mut self, prefix: &str, throttle: &Throttle) {
        self.set(&format!("{prefix}.admitted"), throttle.admitted());
        self.set(&format!("{prefix}.delay_ps"), throttle.admit_delay_total().as_ps());
    }

    /// Renders the registry as `{"counters": {...}, "gauges": {...}}`.
    pub fn to_json(&self) -> Json {
        let mut counters = Json::obj();
        for (name, value) in self.counters() {
            counters.push(name, Json::U64(value));
        }
        let mut gauges = Json::obj();
        for (name, value) in self.gauges() {
            gauges.push(name, Json::F64(value));
        }
        let mut out = Json::obj();
        out.push("counters", counters);
        out.push("gauges", gauges);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rambda_des::{SimTime, Span};

    #[test]
    fn counters_accumulate() {
        let mut m = MetricSet::new();
        m.add("a.ops", 2);
        m.add("a.ops", 3);
        assert_eq!(m.counter("a.ops"), Some(5));
        assert_eq!(m.counter("missing"), None);
        m.set("a.ops", 1);
        assert_eq!(m.counter("a.ops"), Some(1));
    }

    #[test]
    fn iteration_is_name_sorted() {
        let mut m = MetricSet::new();
        m.add("z.last", 1);
        m.add("a.first", 2);
        m.add("m.mid", 3);
        let names: Vec<_> = m.counters().map(|(k, _)| k.to_string()).collect();
        assert_eq!(names, ["a.first", "m.mid", "z.last"]);
    }

    #[test]
    fn observers_capture_resource_counters() {
        let mut server = Server::new(2);
        server.acquire(SimTime::ZERO, Span::from_ns(10));
        let mut link = Link::new(1.0e9, Span::ZERO);
        link.transfer(SimTime::ZERO, 1000);
        let mut throttle = Throttle::new(Span::from_ns(10));
        throttle.admit(SimTime::ZERO);
        throttle.admit(SimTime::ZERO);

        let mut m = MetricSet::new();
        m.observe_server("srv", &server);
        m.observe_link("lnk", &link);
        m.observe_throttle("thr", &throttle);
        assert_eq!(m.counter("srv.units"), Some(2));
        assert_eq!(m.counter("srv.acquisitions"), Some(1));
        assert_eq!(m.counter("srv.busy_ps"), Some(10_000));
        assert_eq!(m.counter("lnk.bytes"), Some(1000));
        assert_eq!(m.counter("lnk.busy_ps"), Some(1_000_000));
        assert_eq!(m.counter("thr.admitted"), Some(2));
        assert_eq!(m.counter("thr.delay_ps"), Some(10_000));
    }

    #[test]
    fn saturating_add_never_wraps() {
        let mut m = MetricSet::new();
        m.add("big", u64::MAX - 1);
        m.add("big", 10);
        assert_eq!(m.counter("big"), Some(u64::MAX));
    }

    #[test]
    fn json_is_sorted_and_stable() {
        let mut m = MetricSet::new();
        m.add("b", 2);
        m.add("a", 1);
        m.gauge("util", 0.5);
        let first = m.to_json().render();
        let second = m.to_json().render();
        assert_eq!(first, second);
        let a_pos = first.find("\"a\"").unwrap();
        let b_pos = first.find("\"b\"").unwrap();
        assert!(a_pos < b_pos);
    }
}
