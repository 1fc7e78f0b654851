//! # sensorlog-telemetry
//!
//! Workspace-wide observability: a deterministic, allocation-light metrics
//! registry (counters / gauges / fixed-bucket histograms keyed by
//! `(scope, name)`), a span-based phase profiler with zero-cost-when-disabled
//! guards (the same `Option`-gated pattern as `netsim`'s `TraceSink`), and
//! one exporter (the JSONL snapshot), written with the workspace's one
//! JSONL line codec ([`jsonl`]).
//!
//! Handles are `Arc<Mutex<…>>` clones: the caller keeps one to read
//! results back while the simulator and the nodes record through theirs,
//! and a handle is `Send + Sync`, so whatever holds one can be built on any
//! of the bench driver's worker threads. A disabled handle costs one branch
//! per use; an enabled one takes the lock per record, by pre-resolved id
//! on the per-event paths (`observe_cached`).
//! Determinism is a hard invariant of the workspace — all iteration orders
//! are `BTreeMap`-sorted and no wall-clock values leak into anything that
//! feeds a trace hash.
//!
//! ```
//! use sensorlog_telemetry::{Scope, Telemetry, BYTES_BUCKETS};
//!
//! let tele = Telemetry::enabled();
//! tele.add(Scope::Pred("path"), "sent_probe", 3);
//! tele.observe(Scope::Node(7), "tx_bytes", BYTES_BUCKETS, 48);
//! {
//!     let _span = tele.span("eval.round"); // wall-time recorded on drop
//! }
//! let snap = tele.snapshot();
//! assert_eq!(snap.counter("pred:path", "sent_probe"), 3);
//! assert!(snap.to_jsonl().contains("\"type\":\"counter\""));
//! ```

#![forbid(unsafe_code)]

mod export;
mod histogram;
pub mod jsonl;
mod profiler;
mod registry;

pub use export::{CounterRow, GaugeRow, HistRow, PhaseRow, Snapshot};
pub use histogram::{Histogram, MergeError};
pub use profiler::{PhaseStat, Profiler, Span};
pub use registry::{CounterId, GaugeId, HistId, Key, MetricsRegistry, Scope};

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Standard byte-size buckets (upper-inclusive bounds) for message-size
/// histograms.
pub const BYTES_BUCKETS: &[u64] = &[8, 16, 32, 64, 128, 256, 512, 1024];

/// Standard latency buckets in simulated milliseconds.
pub const SIM_MS_BUCKETS: &[u64] = &[10, 50, 100, 500, 1_000, 5_000, 10_000, 50_000];

/// Lock `m`, ignoring poison: a recording call that panicked has left its
/// counters at worst one tick short, which is no reason to lose the rest.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

struct TelemetryInner {
    registry: Mutex<MetricsRegistry>,
    profiler: Profiler,
}

/// Cheap clone-handle to a shared registry + profiler. The disabled handle
/// is a `None` and every recording call is a single branch — safe to leave
/// in release hot paths.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<TelemetryInner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.inner.is_some() {
            "Telemetry(enabled)"
        } else {
            "Telemetry(disabled)"
        })
    }
}

impl Telemetry {
    /// An enabled handle backed by a fresh registry and profiler.
    pub fn enabled() -> Self {
        Telemetry {
            inner: Some(Arc::new(TelemetryInner {
                registry: Mutex::new(MetricsRegistry::new()),
                profiler: Profiler::enabled(),
            })),
        }
    }

    /// The no-op handle: every call is one branch and returns immediately.
    pub fn disabled() -> Self {
        Telemetry::default()
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Increment counter `(scope, name)` by 1.
    #[inline]
    pub fn bump(&self, scope: Scope, name: &'static str) {
        self.add(scope, name, 1);
    }

    /// Increment counter `(scope, name)` by `n`.
    #[inline]
    pub fn add(&self, scope: Scope, name: &'static str, n: u64) {
        if let Some(inner) = &self.inner {
            lock(&inner.registry).bump(scope, name, n);
        }
    }

    /// Raise gauge `(scope, name)` to `v` if `v` is larger (peak semantics).
    #[inline]
    pub fn gauge_max(&self, scope: Scope, name: &'static str, v: u64) {
        if let Some(inner) = &self.inner {
            lock(&inner.registry).gauge_max(scope, name, v);
        }
    }

    /// Set gauge `(scope, name)` to `v`.
    #[inline]
    pub fn gauge_set(&self, scope: Scope, name: &'static str, v: u64) {
        if let Some(inner) = &self.inner {
            lock(&inner.registry).gauge_set(scope, name, v);
        }
    }

    /// Observe `v` in histogram `(scope, name)` with the given bucket bounds.
    #[inline]
    pub fn observe(&self, scope: Scope, name: &'static str, bounds: &'static [u64], v: u64) {
        if let Some(inner) = &self.inner {
            lock(&inner.registry).observe(scope, name, bounds, v);
        }
    }

    /// [`Self::observe`] for a per-event site: `cache` holds the histogram's
    /// id once the first call has resolved `(scope, name)` by key, so later
    /// calls index instead of walking the key map. The histogram is still
    /// created by the first observation, exactly as with `observe`. `cache`
    /// belongs to this handle's registry; reset it when the handle changes.
    #[inline]
    pub fn observe_cached(
        &self,
        cache: &mut Option<HistId>,
        scope: Scope,
        name: &'static str,
        bounds: &'static [u64],
        v: u64,
    ) {
        if let Some(inner) = &self.inner {
            let mut reg = lock(&inner.registry);
            let id = *cache.get_or_insert_with(|| reg.histogram(scope, name, bounds));
            reg.observe_id(id, v);
        }
    }

    /// Open a wall-time span for `phase`; the elapsed time is recorded when
    /// the returned guard drops. Disabled handles return an inert guard.
    #[inline]
    pub fn span(&self, phase: &'static str) -> Span {
        match &self.inner {
            Some(inner) => inner.profiler.span(phase),
            None => Span::inert(),
        }
    }

    /// Record `dt` simulated milliseconds against `phase`.
    #[inline]
    pub fn record_sim(&self, phase: &'static str, dt: u64) {
        if let Some(inner) = &self.inner {
            inner.profiler.record_sim(phase, dt);
        }
    }

    /// A clone of the underlying profiler (disabled if this handle is).
    pub fn profiler(&self) -> Profiler {
        match &self.inner {
            Some(inner) => inner.profiler.clone(),
            None => Profiler::disabled(),
        }
    }

    /// Locked access to the registry; `None` when disabled.
    pub fn registry(&self) -> Option<MutexGuard<'_, MetricsRegistry>> {
        self.inner.as_ref().map(|i| lock(&i.registry))
    }

    /// Export everything recorded so far. Disabled handles export an empty
    /// snapshot.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        if let Some(inner) = &self.inner {
            snap.absorb_registry(&lock(&inner.registry));
            snap.absorb_profiler(&inner.profiler);
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.bump(Scope::Global, "x");
        t.observe(Scope::Node(1), "h", BYTES_BUCKETS, 9);
        t.record_sim("p", 10);
        drop(t.span("p"));
        assert!(t.registry().is_none());
        let snap = t.snapshot();
        assert!(snap.counters.is_empty() && snap.phases.is_empty());
    }

    #[test]
    fn handle_clones_share_state() {
        let t = Telemetry::enabled();
        let t2 = t.clone();
        t.bump(Scope::Pred("q"), "sent_store");
        t2.add(Scope::Pred("q"), "sent_store", 4);
        assert_eq!(t.snapshot().counter("pred:q", "sent_store"), 5);
    }

    #[test]
    fn span_records_wall_time() {
        let t = Telemetry::enabled();
        {
            let _s = t.span("work");
        }
        {
            let _s = t.span("work");
        }
        let snap = t.snapshot();
        let row = snap.phases.iter().find(|p| p.name == "work").unwrap();
        assert_eq!(row.count, 2);
    }
}
