//! The exporter: a JSONL snapshot, the stable machine format feeding
//! `BENCH.json` and `sensorlog deploy --metrics`.
//!
//! The JSONL schema is covered by [`Snapshot::schema_fingerprint`]: the
//! fingerprint is derived from the same per-record field lists the writer
//! uses, so any drift in the emitted fields changes the fingerprint and
//! trips the golden-file check in CI.

use crate::histogram::Histogram;
use crate::jsonl::escape;
use crate::profiler::Profiler;
use crate::registry::MetricsRegistry;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Field lists per JSONL record type — the single source of truth shared by
/// the writer and the schema fingerprint.
const COUNTER_FIELDS: &[&str] = &["type", "scope", "name", "value"];
const GAUGE_FIELDS: &[&str] = &["type", "scope", "name", "value"];
const HIST_FIELDS: &[&str] = &[
    "type", "scope", "name", "bounds", "counts", "overflow", "count", "sum", "min", "max",
];
const PHASE_FIELDS: &[&str] = &["type", "name", "count", "wall_ns", "sim_ms"];
const META_FIELDS: &[&str] = &["type", "key", "value"];

/// The scope string used for network-wide histogram rollups.
pub const MERGED_SCOPE: &str = "merged";

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterRow {
    pub scope: String,
    pub name: String,
    pub value: u64,
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GaugeRow {
    pub scope: String,
    pub name: String,
    pub value: u64,
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistRow {
    pub scope: String,
    pub name: String,
    pub bounds: Vec<u64>,
    pub counts: Vec<u64>,
    pub overflow: u64,
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseRow {
    pub name: String,
    pub count: u64,
    pub wall_ns: u64,
    pub sim_ms: u64,
}

/// A fully materialized telemetry export: registry contents, profiler
/// phases, and free-form metadata. Decoupled from the live registry (all
/// strings owned) so it can outlive the run and be attached to bench
/// points.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    pub meta: BTreeMap<String, String>,
    pub counters: Vec<CounterRow>,
    pub gauges: Vec<GaugeRow>,
    pub hists: Vec<HistRow>,
    pub phases: Vec<PhaseRow>,
}

fn hist_row(scope: String, name: &str, h: &Histogram) -> HistRow {
    HistRow {
        scope,
        name: name.to_string(),
        bounds: h.bounds().to_vec(),
        counts: h.bucket_counts().to_vec(),
        overflow: h.overflow(),
        count: h.count(),
        sum: h.sum(),
        min: h.min().unwrap_or(0),
        max: h.max().unwrap_or(0),
    }
}

impl Snapshot {
    /// Append everything in `reg`, including a network-wide `merged` row
    /// for every histogram name recorded under more than zero scopes.
    pub fn absorb_registry(&mut self, reg: &MetricsRegistry) {
        for (key, v) in reg.counters() {
            self.counters.push(CounterRow {
                scope: key.scope.to_string(),
                name: key.name.to_string(),
                value: v,
            });
        }
        for (key, v) in reg.gauges() {
            self.gauges.push(GaugeRow {
                scope: key.scope.to_string(),
                name: key.name.to_string(),
                value: v,
            });
        }
        for (key, h) in reg.hists() {
            self.hists
                .push(hist_row(key.scope.to_string(), key.name, h));
        }
        for name in reg.hist_names() {
            if let Some(m) = reg.merged_hist(name) {
                self.hists
                    .push(hist_row(MERGED_SCOPE.to_string(), name, &m));
            }
        }
    }

    /// Append all profiler phases.
    pub fn absorb_profiler(&mut self, prof: &Profiler) {
        for (name, stat) in prof.phases() {
            self.phases.push(PhaseRow {
                name: name.to_string(),
                count: stat.count,
                wall_ns: stat.wall_ns,
                sim_ms: stat.sim_ms,
            });
        }
    }

    /// Counter value by rendered scope string (e.g. `"pred:path"`); 0 if
    /// absent.
    pub fn counter(&self, scope: &str, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.scope == scope && c.name == name)
            .map_or(0, |c| c.value)
    }

    /// Sum of `name` counters across all scopes with the given prefix
    /// (e.g. prefix `"pred:"` sums a per-predicate counter network-wide).
    pub fn counter_sum(&self, scope_prefix: &str, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|c| c.scope.starts_with(scope_prefix) && c.name == name)
            .map(|c| c.value)
            .sum()
    }

    /// Gauge value by rendered scope string (e.g. `"global"`); 0 if absent.
    pub fn gauge(&self, scope: &str, name: &str) -> u64 {
        self.gauges
            .iter()
            .find(|g| g.scope == scope && g.name == name)
            .map_or(0, |g| g.value)
    }

    pub fn phase(&self, name: &str) -> Option<&PhaseRow> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// The network-wide rollup row for histogram `name`.
    pub fn merged_hist(&self, name: &str) -> Option<&HistRow> {
        self.hists
            .iter()
            .find(|h| h.scope == MERGED_SCOPE && h.name == name)
    }

    /// Distinct predicate names appearing in `pred:`-scoped counters.
    pub fn pred_scopes(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .counters
            .iter()
            .filter_map(|c| c.scope.strip_prefix("pred:").map(str::to_string))
            .collect();
        out.sort();
        out.dedup();
        out
    }

    // ---- JSONL ----

    /// One JSON object per line; `meta` lines first, then counters, gauges,
    /// histograms, phases — each already in deterministic order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.meta {
            writeln!(
                out,
                r#"{{"type":"meta","key":{},"value":{}}}"#,
                escape(k),
                escape(v)
            )
            .unwrap();
        }
        for c in &self.counters {
            writeln!(
                out,
                r#"{{"type":"counter","scope":{},"name":{},"value":{}}}"#,
                escape(&c.scope),
                escape(&c.name),
                c.value
            )
            .unwrap();
        }
        for g in &self.gauges {
            writeln!(
                out,
                r#"{{"type":"gauge","scope":{},"name":{},"value":{}}}"#,
                escape(&g.scope),
                escape(&g.name),
                g.value
            )
            .unwrap();
        }
        for h in &self.hists {
            writeln!(
                out,
                r#"{{"type":"hist","scope":{},"name":{},"bounds":{},"counts":{},"overflow":{},"count":{},"sum":{},"min":{},"max":{}}}"#,
                escape(&h.scope),
                escape(&h.name),
                json_u64s(&h.bounds),
                json_u64s(&h.counts),
                h.overflow,
                h.count,
                h.sum,
                h.min,
                h.max
            )
            .unwrap();
        }
        for p in &self.phases {
            writeln!(
                out,
                r#"{{"type":"phase","name":{},"count":{},"wall_ns":{},"sim_ms":{}}}"#,
                escape(&p.name),
                p.count,
                p.wall_ns,
                p.sim_ms
            )
            .unwrap();
        }
        out
    }

    /// Stable description of the JSONL record shapes. Compared against a
    /// golden file in CI so accidental schema drift fails loudly.
    pub fn schema_fingerprint() -> String {
        let mut out = String::new();
        for (ty, fields) in [
            ("meta", META_FIELDS),
            ("counter", COUNTER_FIELDS),
            ("gauge", GAUGE_FIELDS),
            ("hist", HIST_FIELDS),
            ("phase", PHASE_FIELDS),
        ] {
            writeln!(out, "{ty}: {}", fields.join(" ")).unwrap();
        }
        out
    }
}

fn json_u64s(xs: &[u64]) -> String {
    let mut out = String::from("[");
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(out, "{x}").unwrap();
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{MetricsRegistry, Scope};

    fn sample() -> Snapshot {
        let mut reg = MetricsRegistry::new();
        reg.bump(Scope::Pred("path"), "sent_probe", 7);
        reg.bump(Scope::Node(2), "tx", 3);
        reg.gauge_max(Scope::Global, "peak_mem", 512);
        reg.observe(Scope::Node(0), "tx_bytes", &[8, 64], 5);
        reg.observe(Scope::Node(1), "tx_bytes", &[8, 64], 100);
        let prof = Profiler::enabled();
        prof.record_sim("join.latency", 42);
        let mut snap = Snapshot::default();
        snap.meta.insert("experiment".into(), "unit".into());
        snap.absorb_registry(&reg);
        snap.absorb_profiler(&prof);
        snap
    }

    #[test]
    fn jsonl_contains_all_record_types_and_merged_hist() {
        let s = sample();
        let j = s.to_jsonl();
        assert!(j.contains(r#""type":"meta""#));
        assert!(j.contains(r#""type":"counter""#));
        assert!(j.contains(r#""type":"gauge""#));
        assert!(j.contains(r#""type":"hist""#));
        assert!(j.contains(r#""type":"phase""#));
        assert!(j.contains(r#""scope":"merged","name":"tx_bytes""#));
        // Every line parses as a standalone object shape.
        for line in j.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        let m = s.merged_hist("tx_bytes").unwrap();
        assert_eq!(m.count, 2);
        assert_eq!(m.overflow, 1);
    }

    #[test]
    fn accessors() {
        let s = sample();
        assert_eq!(s.counter("pred:path", "sent_probe"), 7);
        assert_eq!(s.counter("pred:none", "sent_probe"), 0);
        assert_eq!(s.counter_sum("pred:", "sent_probe"), 7);
        assert_eq!(s.pred_scopes(), vec!["path".to_string()]);
        assert_eq!(s.phase("join.latency").unwrap().sim_ms, 42);
    }

    #[test]
    fn schema_fingerprint_is_stable_shape() {
        let fp = Snapshot::schema_fingerprint();
        assert!(fp.contains("counter: type scope name value"));
        assert!(fp.contains("hist: type scope name bounds counts overflow count sum min max"));
        assert!(fp.contains("phase: type name count wall_ns sim_ms"));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(escape("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
    }
}
