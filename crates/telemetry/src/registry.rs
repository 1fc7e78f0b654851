//! The metrics registry: counters, gauges, and histograms keyed by
//! `(scope, name)`.
//!
//! Hot paths pre-resolve `(scope, name)` to a dense id once (a `BTreeMap`
//! lookup) and then record through a `Vec` index — no allocation, no hashing
//! per event. Iteration is always in `BTreeMap` key order so every exporter
//! output is deterministic.

use crate::histogram::Histogram;
use std::collections::BTreeMap;
use std::fmt;

/// What a metric is about. Ordering is derived (variant order first), which
/// fixes the exporter's row order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Scope {
    /// Whole-network / whole-process.
    Global,
    /// One simulated node.
    Node(u32),
    /// One predicate symbol (interned `&'static str` from the logic crate).
    Pred(&'static str),
    /// One message kind on the wire ("store", "probe", "result", …).
    Kind(&'static str),
    /// A network / software layer ("netsim", "netstack.router", …).
    Layer(&'static str),
}

impl fmt::Display for Scope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scope::Global => f.write_str("global"),
            Scope::Node(n) => write!(f, "node:{n}"),
            Scope::Pred(p) => write!(f, "pred:{p}"),
            Scope::Kind(k) => write!(f, "kind:{k}"),
            Scope::Layer(l) => write!(f, "layer:{l}"),
        }
    }
}

/// Full metric key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key {
    pub scope: Scope,
    pub name: &'static str,
}

/// Pre-resolved counter handle: increments through it are a `Vec` index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterId(usize);

/// Pre-resolved gauge handle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Pre-resolved histogram handle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistId(usize);

/// Deterministic metrics store. All read-side iteration is sorted by `Key`.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counter_index: BTreeMap<Key, usize>,
    counters: Vec<u64>,
    gauge_index: BTreeMap<Key, usize>,
    gauges: Vec<u64>,
    hist_index: BTreeMap<Key, usize>,
    hists: Vec<Histogram>,
    /// Get-or-create calls so far ([`Self::keyed_walks`]).
    keyed_walks: u64,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// How many times a `(scope, name)` key was looked up to get or create
    /// a metric — every [`Self::counter`] / [`Self::gauge`] /
    /// [`Self::histogram`] call, hit or miss, including the ones inside
    /// the keyed conveniences ([`Self::bump`], [`Self::gauge_max`],
    /// [`Self::observe`], …). A per-event path that holds pre-resolved ids
    /// leaves this flat however many events it records; tests gate on that.
    pub fn keyed_walks(&self) -> u64 {
        self.keyed_walks
    }

    // ---- counters ----

    /// Get-or-create the counter `(scope, name)` and return its dense id.
    pub fn counter(&mut self, scope: Scope, name: &'static str) -> CounterId {
        self.keyed_walks += 1;
        let key = Key { scope, name };
        if let Some(&i) = self.counter_index.get(&key) {
            return CounterId(i);
        }
        let i = self.counters.len();
        self.counters.push(0);
        self.counter_index.insert(key, i);
        CounterId(i)
    }

    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.counters[id.0] += 1;
    }

    #[inline]
    pub fn inc_by(&mut self, id: CounterId, n: u64) {
        self.counters[id.0] += n;
    }

    #[inline]
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0]
    }

    /// One-shot convenience: look up and add in one call — a walk of the
    /// key map per call, so not for anything that runs once per simulated
    /// message. Callers today: per-predicate and fault-plane counters
    /// behind an enabled [`crate::Telemetry`] handle (`Telemetry::add`),
    /// the end-of-run rollup in `core::Deployment::telemetry_snapshot`,
    /// [`Self::merge_from`], benches and tests. `netsim::Metrics` and the
    /// simulator's telemetry histograms hold pre-resolved ids instead.
    pub fn bump(&mut self, scope: Scope, name: &'static str, n: u64) {
        let id = self.counter(scope, name);
        self.counters[id.0] += n;
    }

    /// Counter value, or 0 if never registered.
    pub fn count(&self, scope: Scope, name: &'static str) -> u64 {
        self.counter_index
            .get(&Key { scope, name })
            .map_or(0, |&i| self.counters[i])
    }

    /// All counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (Key, u64)> + '_ {
        self.counter_index
            .iter()
            .map(move |(k, &i)| (*k, self.counters[i]))
    }

    // ---- gauges ----

    pub fn gauge(&mut self, scope: Scope, name: &'static str) -> GaugeId {
        self.keyed_walks += 1;
        let key = Key { scope, name };
        if let Some(&i) = self.gauge_index.get(&key) {
            return GaugeId(i);
        }
        let i = self.gauges.len();
        self.gauges.push(0);
        self.gauge_index.insert(key, i);
        GaugeId(i)
    }

    #[inline]
    pub fn gauge_set_id(&mut self, id: GaugeId, v: u64) {
        self.gauges[id.0] = v;
    }

    pub fn gauge_set(&mut self, scope: Scope, name: &'static str, v: u64) {
        let id = self.gauge(scope, name);
        self.gauges[id.0] = v;
    }

    /// Peak semantics: keep the larger of the current and new value.
    pub fn gauge_max(&mut self, scope: Scope, name: &'static str, v: u64) {
        let id = self.gauge(scope, name);
        if v > self.gauges[id.0] {
            self.gauges[id.0] = v;
        }
    }

    pub fn gauge_value(&self, scope: Scope, name: &'static str) -> u64 {
        self.gauge_index
            .get(&Key { scope, name })
            .map_or(0, |&i| self.gauges[i])
    }

    pub fn gauges(&self) -> impl Iterator<Item = (Key, u64)> + '_ {
        self.gauge_index
            .iter()
            .map(move |(k, &i)| (*k, self.gauges[i]))
    }

    // ---- histograms ----

    /// Get-or-create histogram `(scope, name)` with the given bounds. The
    /// first registration fixes the bounds; later calls must agree
    /// (debug-asserted).
    pub fn histogram(
        &mut self,
        scope: Scope,
        name: &'static str,
        bounds: &'static [u64],
    ) -> HistId {
        self.keyed_walks += 1;
        let key = Key { scope, name };
        if let Some(&i) = self.hist_index.get(&key) {
            debug_assert_eq!(self.hists[i].bounds(), bounds, "histogram bounds drift");
            return HistId(i);
        }
        let i = self.hists.len();
        self.hists.push(Histogram::new(bounds));
        self.hist_index.insert(key, i);
        HistId(i)
    }

    #[inline]
    pub fn observe_id(&mut self, id: HistId, v: u64) {
        self.hists[id.0].observe(v);
    }

    pub fn observe(&mut self, scope: Scope, name: &'static str, bounds: &'static [u64], v: u64) {
        let id = self.histogram(scope, name, bounds);
        self.hists[id.0].observe(v);
    }

    pub fn hist(&self, scope: Scope, name: &'static str) -> Option<&Histogram> {
        self.hist_index
            .get(&Key { scope, name })
            .map(|&i| &self.hists[i])
    }

    pub fn hists(&self) -> impl Iterator<Item = (Key, &Histogram)> + '_ {
        self.hist_index
            .iter()
            .map(move |(k, &i)| (*k, &self.hists[i]))
    }

    /// Merge every histogram named `name` across all scopes into one
    /// network-wide histogram. `None` if no scope recorded it.
    pub fn merged_hist(&self, name: &str) -> Option<Histogram> {
        let mut merged: Option<Histogram> = None;
        for (key, &i) in &self.hist_index {
            if key.name != name {
                continue;
            }
            match &mut merged {
                None => merged = Some(self.hists[i].clone()),
                Some(m) => m
                    .merge(&self.hists[i])
                    .expect("same-name histograms share bounds"),
            }
        }
        merged
    }

    /// Distinct histogram names, sorted.
    pub fn hist_names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self.hist_index.keys().map(|k| k.name).collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// Fold another registry into this one: counters add, gauges take the
    /// max (peak semantics), histograms merge exactly.
    pub fn merge_from(&mut self, other: &MetricsRegistry) {
        for (key, v) in other.counters() {
            self.bump(key.scope, key.name, v);
        }
        for (key, v) in other.gauges() {
            self.gauge_max(key.scope, key.name, v);
        }
        for (key, h) in other.hists() {
            let id = self.histogram(key.scope, key.name, h.bounds());
            self.hists[id.0]
                .merge(h)
                .expect("same-key histograms share bounds");
        }
    }

    pub fn is_empty(&self) -> bool {
        self.counter_index.is_empty() && self.gauge_index.is_empty() && self.hist_index.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_ordering_and_display() {
        assert!(Scope::Global < Scope::Node(0));
        assert!(Scope::Node(u32::MAX) < Scope::Pred("a"));
        assert!(Scope::Pred("z") < Scope::Kind("a"));
        assert_eq!(Scope::Node(3).to_string(), "node:3");
        assert_eq!(Scope::Pred("path").to_string(), "pred:path");
        assert_eq!(Scope::Layer("netsim").to_string(), "layer:netsim");
    }

    #[test]
    fn counter_ids_are_stable_and_fast_path_works() {
        let mut r = MetricsRegistry::new();
        let a = r.counter(Scope::Node(1), "tx");
        let b = r.counter(Scope::Node(2), "tx");
        let a2 = r.counter(Scope::Node(1), "tx");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        r.inc(a);
        r.inc_by(a, 4);
        r.inc(b);
        assert_eq!(r.count(Scope::Node(1), "tx"), 5);
        assert_eq!(r.counter_value(b), 1);
        assert_eq!(r.count(Scope::Node(3), "tx"), 0);
    }

    #[test]
    fn gauge_max_keeps_peak() {
        let mut r = MetricsRegistry::new();
        r.gauge_max(Scope::Node(0), "peak", 7);
        r.gauge_max(Scope::Node(0), "peak", 3);
        r.gauge_max(Scope::Node(0), "peak", 9);
        assert_eq!(r.gauge_value(Scope::Node(0), "peak"), 9);
        r.gauge_set(Scope::Node(0), "peak", 2);
        assert_eq!(r.gauge_value(Scope::Node(0), "peak"), 2);
    }

    #[test]
    fn merged_hist_rolls_up_scopes() {
        const B: &[u64] = &[10, 100];
        let mut r = MetricsRegistry::new();
        r.observe(Scope::Node(0), "lat", B, 5);
        r.observe(Scope::Node(1), "lat", B, 50);
        r.observe(Scope::Node(1), "lat", B, 500);
        r.observe(Scope::Node(2), "other", B, 1);
        let m = r.merged_hist("lat").unwrap();
        assert_eq!(m.count(), 3);
        assert_eq!(m.bucket_counts(), &[1, 1]);
        assert_eq!(m.overflow(), 1);
        assert!(r.merged_hist("missing").is_none());
        assert_eq!(r.hist_names(), vec!["lat", "other"]);
    }

    #[test]
    fn merge_from_combines_registries() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.bump(Scope::Global, "c", 2);
        b.bump(Scope::Global, "c", 3);
        a.gauge_max(Scope::Global, "g", 10);
        b.gauge_max(Scope::Global, "g", 4);
        b.observe(Scope::Node(1), "h", &[8], 3);
        a.merge_from(&b);
        assert_eq!(a.count(Scope::Global, "c"), 5);
        assert_eq!(a.gauge_value(Scope::Global, "g"), 10);
        assert_eq!(a.hist(Scope::Node(1), "h").unwrap().count(), 1);
    }

    #[test]
    fn iteration_is_key_sorted() {
        let mut r = MetricsRegistry::new();
        r.bump(Scope::Pred("z"), "n", 1);
        r.bump(Scope::Global, "n", 1);
        r.bump(Scope::Node(5), "n", 1);
        let keys: Vec<Scope> = r.counters().map(|(k, _)| k.scope).collect();
        assert_eq!(keys, vec![Scope::Global, Scope::Node(5), Scope::Pred("z")]);
    }
}
