//! Span-based phase profiler with zero-cost-when-disabled guards.
//!
//! The enabled/disabled split mirrors `netsim`'s `TraceSink` pattern: a
//! disabled [`Profiler`] is a `None` and both `span()` and `record_sim()`
//! are a single branch. Wall time is measured with `Instant` on guard drop;
//! simulated time is recorded explicitly by the instrumented code (the
//! simulator's clock, not ours) — through [`Span::with_sim`] where the call
//! is spanned as well, so that one call is one count. Wall times never feed
//! anything determinism-sensitive — they are export-only.

use crate::lock;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Aggregate for one phase name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Number of recordings: one per completed span (whether or not it
    /// carried sim time), one per `record_sim` / `record_wall_ns` call.
    pub count: u64,
    /// Total wall time across spans, nanoseconds.
    pub wall_ns: u64,
    /// Total simulated time recorded, milliseconds (the sim's tick unit).
    pub sim_ms: u64,
}

type Phases = Arc<Mutex<BTreeMap<&'static str, PhaseStat>>>;

/// One recording against `phase`.
fn record(phases: &Phases, phase: &'static str, wall_ns: u64, sim_ms: u64) {
    let mut map = lock(phases);
    let stat = map.entry(phase).or_default();
    stat.count += 1;
    stat.wall_ns += wall_ns;
    stat.sim_ms += sim_ms;
}

/// Cheap clone-handle; all clones share one phase table.
#[derive(Clone, Default)]
pub struct Profiler {
    phases: Option<Phases>,
}

impl std::fmt::Debug for Profiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.phases.is_some() {
            "Profiler(enabled)"
        } else {
            "Profiler(disabled)"
        })
    }
}

impl Profiler {
    pub fn enabled() -> Self {
        Profiler {
            phases: Some(Arc::new(Mutex::new(BTreeMap::new()))),
        }
    }

    pub fn disabled() -> Self {
        Profiler::default()
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.phases.is_some()
    }

    /// Open a wall-time span; elapsed time is added to `phase` when the
    /// guard drops. On a disabled profiler this is one branch and no clock
    /// read.
    #[inline]
    pub fn span(&self, phase: &'static str) -> Span {
        match &self.phases {
            Some(p) => Span {
                inner: Some((Arc::clone(p), phase, Instant::now())),
                sim_ms: 0,
            },
            None => Span::inert(),
        }
    }

    /// Add `dt` simulated milliseconds to `phase`.
    #[inline]
    pub fn record_sim(&self, phase: &'static str, dt: u64) {
        if let Some(p) = &self.phases {
            record(p, phase, 0, dt);
        }
    }

    /// Add raw wall nanoseconds to `phase` (for pre-measured intervals).
    pub fn record_wall_ns(&self, phase: &'static str, ns: u64) {
        if let Some(p) = &self.phases {
            record(p, phase, ns, 0);
        }
    }

    /// Snapshot of all phases, sorted by name.
    pub fn phases(&self) -> Vec<(&'static str, PhaseStat)> {
        match &self.phases {
            Some(p) => lock(p).iter().map(|(k, v)| (*k, *v)).collect(),
            None => Vec::new(),
        }
    }
}

/// Wall-time span guard returned by [`Profiler::span`].
pub struct Span {
    inner: Option<(Phases, &'static str, Instant)>,
    sim_ms: u64,
}

impl Span {
    /// The no-op guard of a disabled profiler.
    pub fn inert() -> Self {
        Span {
            inner: None,
            sim_ms: 0,
        }
    }

    /// Also add `dt` simulated milliseconds to the phase when the guard
    /// drops: the call's wall time and sim time land as one recording, where
    /// a `record_sim` beside the span would count the call twice.
    pub fn with_sim(mut self, dt: u64) -> Span {
        self.sim_ms += dt;
        self
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((phases, phase, start)) = self.inner.take() {
            record(
                &phases,
                phase,
                start.elapsed().as_nanos() as u64,
                self.sim_ms,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_is_inert() {
        let p = Profiler::disabled();
        drop(p.span("x"));
        p.record_sim("x", 5);
        assert!(p.phases().is_empty());
    }

    #[test]
    fn spans_aggregate_per_phase() {
        let p = Profiler::enabled();
        for _ in 0..3 {
            let _s = p.span("round");
        }
        {
            let _outer = p.span("outer");
            let _inner = p.span("round"); // nesting is fine; phases are independent
        }
        let phases = p.phases();
        let round = phases.iter().find(|(n, _)| *n == "round").unwrap().1;
        assert_eq!(round.count, 4);
        let outer = phases.iter().find(|(n, _)| *n == "outer").unwrap().1;
        assert_eq!(outer.count, 1);
    }

    #[test]
    fn sim_time_accumulates_separately() {
        let p = Profiler::enabled();
        p.record_sim("join.latency", 120);
        p.record_sim("join.latency", 30);
        let stat = p.phases()[0].1;
        assert_eq!(stat.sim_ms, 150);
        assert_eq!(stat.count, 2);
        assert_eq!(stat.wall_ns, 0);
    }

    #[test]
    fn a_span_carrying_sim_time_is_one_recording() {
        let p = Profiler::enabled();
        drop(p.span("probe").with_sim(120));
        drop(p.span("probe").with_sim(30));
        let stat = p.phases()[0].1;
        assert_eq!((stat.count, stat.sim_ms), (2, 150));
    }

    #[test]
    fn clones_share_the_table() {
        let p = Profiler::enabled();
        let q = p.clone();
        drop(q.span("a"));
        assert_eq!(p.phases().len(), 1);
    }
}
