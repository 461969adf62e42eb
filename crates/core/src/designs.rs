//! The canonical runner-name registry.
//!
//! Every surface that accepts a runner name — `report --trace-runner` and
//! `--profile-runner`, the bench sweeps, and the differential test suites —
//! must agree on the same nine names. This module is the one place that
//! list lives. The application crates (`rambda-kvs`, `rambda-txn`,
//! `rambda-dlrm`) depend on this crate, so the framework cannot construct
//! their [`Design`]s itself; instead a [`Registry`] maps each name to an
//! installed factory, and `rambda_bench::quick_registry()` installs the nine
//! quick-mode factories for the CLI tools and tests.

use crate::sim::Design;

/// The nine named runners, in canonical report order.
pub const RUNNER_NAMES: [&str; 9] = [
    "micro.cpu",
    "micro.rambda",
    "kvs.cpu",
    "kvs.rambda",
    "kvs.smartnic",
    "txn.hyperloop",
    "txn.rambda_tx",
    "dlrm.cpu",
    "dlrm.rambda",
];

/// Validates a runner name against [`RUNNER_NAMES`]. `"all"` is accepted as
/// the conventional wildcard. On failure the error message lists the valid
/// names, ready to print.
pub fn check_runner(name: &str) -> Result<(), String> {
    if name == "all" || RUNNER_NAMES.contains(&name) {
        Ok(())
    } else {
        Err(format!("unknown runner `{name}` — valid runners: all, {}", RUNNER_NAMES.join(", ")))
    }
}

/// A deferred [`Design`] constructor, boxed so the registry can hold
/// factories over any closure state.
type Factory = Box<dyn Fn() -> Design>;

/// A name→[`Design`] factory table over [`RUNNER_NAMES`].
///
/// Factories are installed by a higher layer that can see the application
/// crates; [`Registry::design`] then builds a fresh `Design` per call so each
/// run gets its own closure state.
#[derive(Default)]
pub struct Registry {
    entries: Vec<(&'static str, Factory)>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Installs the factory for `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not one of [`RUNNER_NAMES`] or was already
    /// installed — both are wiring bugs, not runtime conditions.
    pub fn install(&mut self, name: &'static str, factory: impl Fn() -> Design + 'static) {
        assert!(RUNNER_NAMES.contains(&name), "unknown runner name `{name}`");
        assert!(!self.entries.iter().any(|(n, _)| *n == name), "runner `{name}` installed twice");
        self.entries.push((name, Box::new(factory)));
    }

    /// Builds a fresh [`Design`] for `name`, or `None` if no factory is
    /// installed under that name.
    pub fn design(&self, name: &str) -> Option<Design> {
        self.entries.iter().find(|(n, _)| *n == name).map(|(_, f)| f())
    }

    /// Installed runner names, in [`RUNNER_NAMES`] order.
    pub fn names(&self) -> Vec<&'static str> {
        RUNNER_NAMES.iter().copied().filter(|name| self.entries.iter().any(|(n, _)| n == name)).collect()
    }

    /// Whether every runner in [`RUNNER_NAMES`] has a factory installed.
    pub fn is_complete(&self) -> bool {
        self.names().len() == RUNNER_NAMES.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{Machines, Req};
    use crate::DriverConfig;

    struct Idle;

    impl Machines for Idle {
        fn publish(&self, _: &mut rambda_metrics::MetricSet) {}
    }

    /// A design named `name` that serves each request instantly.
    fn stub(name: &'static str) -> Design {
        Design::new(name, 1, DriverConfig::new(1, 1), |_| {
            (Idle, |_: &mut Idle, _, at, _: &mut Req<'_>| Ok(at))
        })
    }

    #[test]
    fn check_runner_accepts_known_names_and_the_wildcard() {
        for name in RUNNER_NAMES {
            check_runner(name).unwrap();
        }
        check_runner("all").unwrap();
        let err = check_runner("kvs.bogus").unwrap_err();
        assert!(err.contains("kvs.bogus") && err.contains("kvs.rambda"), "{err}");
    }

    #[test]
    fn registry_installs_and_builds_in_canonical_order() {
        let mut reg = Registry::new();
        reg.install("kvs.rambda", || stub("kvs.rambda"));
        reg.install("micro.cpu", || stub("micro.cpu"));
        // names() follows RUNNER_NAMES order, not installation order.
        assert_eq!(reg.names(), vec!["micro.cpu", "kvs.rambda"]);
        assert!(!reg.is_complete());
        assert_eq!(reg.design("kvs.rambda").unwrap().name(), "kvs.rambda");
        assert!(reg.design("txn.hyperloop").is_none());
    }

    #[test]
    #[should_panic(expected = "installed twice")]
    fn duplicate_install_panics() {
        let mut reg = Registry::new();
        reg.install("kvs.cpu", || stub("kvs.cpu"));
        reg.install("kvs.cpu", || stub("kvs.cpu"));
    }
}
