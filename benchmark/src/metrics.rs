//! The metric names the benchmark prints, with their units. `BENCHMARK.json`
//! at the repo root is [`declare`]'s output, byte for byte (`check.sh`
//! diffs the two). Definitions, source calls and the layer → end-to-end
//! predictions are in the README.

use crate::json::Value;
use crate::workloads::SPECS;

/// An end-to-end metric: lower is better for all of them, and `bound` is
/// the share of the baseline by which it may worsen before `--compare`
/// (and the driver reading `BENCHMARK.json`) calls it a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub bound: f64,
}

/// What the host pays: defined, and never zero, on all six workloads.
/// Timings are calibrated on-CPU seconds; see `clock.rs`.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "run_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MB",
        bound: 0.1,
    },
];

/// What the simulated network pays — the paper's own costs. User-visible
/// and compared exactly by `--compare` (they are deterministic counts), but
/// zero by definition on the two `engine_*` workloads, and `BENCHMARK.json`
/// wants end-to-end metrics that are non-zero on every workload, so it
/// carries them in `per_layer`.
pub const NET_COST: &[&str] = &[
    "net.tx_msgs",
    "net.tx_bytes",
    "net.sim_quiesce_ms",
    "net.max_node_load_msgs",
    "net.peak_node_tuples",
];

/// Every per-layer metric, as `(name, unit)`. A metric that does not apply
/// to a workload is printed as 0 there. Metrics with unit `count` must be
/// identical in every repetition that reports them.
pub const PER_LAYER: &[(&str, &str)] = &[
    // network cost of the run (see NET_COST)
    ("net.tx_msgs", "count"),
    ("net.tx_bytes", "B"),
    ("net.sim_quiesce_ms", "ms"),
    ("net.max_node_load_msgs", "count"),
    ("net.peak_node_tuples", "count"),
    // logic
    ("logic.parse_us", "us"),
    ("logic.analyze_us", "us"),
    ("logic.absint_us", "us"),
    ("logic.intern.pool_len", "count"),
    ("logic.intern.hot_resolves", "count"),
    ("logic.intern.boundary_resolves", "count"),
    // core
    ("core.compile_us", "us"),
    ("core.netinfo_build_ms", "ms"),
    ("core.deploy_build_ms", "ms"),
    ("core.update.initiate.calls", "count"),
    ("core.update.initiate.ms", "ms"),
    ("core.join.start.calls", "count"),
    ("core.join.start.ms", "ms"),
    ("core.join.probe.calls", "count"),
    ("core.join.probe.ms", "ms"),
    ("core.join.probe.us_per_call", "us"),
    ("core.join.probe.share", "ratio"),
    ("core.result.apply.calls", "count"),
    ("core.result.apply.ms", "ms"),
    ("core.tx.store", "count"),
    ("core.tx.probe", "count"),
    ("core.tx.result", "count"),
    ("core.tx.centroid", "count"),
    ("core.peak_replicas", "count"),
    ("core.peak_derivations", "count"),
    ("core.oracle_check_ms", "ms"),
    // netsim
    ("netsim.topology_build_ms", "ms"),
    ("netsim.deliver.calls", "count"),
    ("netsim.deliver.ms", "ms"),
    ("netsim.timer.calls", "count"),
    ("netsim.timer.ms", "ms"),
    ("netsim.route.calls", "count"),
    ("netsim.route.ms", "ms"),
    ("netsim.events_per_s", "1/s"),
    ("netsim.unattributed_ms", "ms"),
    ("netsim.max_queue_depth", "count"),
    ("netsim.sched.pushes", "count"),
    ("netsim.sched.batched_msgs", "count"),
    ("netsim.sched.spill_pushes", "count"),
    ("netsim.journal.records", "count"),
    ("netsim.journal.hash_ms", "ms"),
    // netstack
    ("netstack.grid_hops", "count"),
    ("netstack.bfs_hops", "count"),
    ("netstack.unreachable", "count"),
    ("netstack.hops_per_msg", "ratio"),
    ("netstack.flood.msgs_per_s", "1/s"),
    // eval
    ("eval.seminaive.run_ms", "ms"),
    ("eval.seminaive.rounds", "count"),
    ("eval.xy.stages", "count"),
    ("eval.inc.apply.calls", "count"),
    ("eval.inc.apply.ms", "ms"),
    ("eval.inc.apply.p50_us", "us"),
    ("eval.inc.apply.p999_us", "us"),
    ("eval.inc.body_evals", "count"),
    ("eval.inc.derived_emitted", "count"),
    ("eval.inc.max_derivations", "count"),
    ("eval.db.clone_us", "us"),
    ("eval.db.bytes_per_tuple", "B"),
    // observers
    ("observers.traced_overhead_ratio", "ratio"),
    ("telemetry.snapshot_ms", "ms"),
    ("telemetry.snapshot_rows", "count"),
    ("provenance.overhead_ratio", "ratio"),
    ("provenance.records", "count"),
    ("provenance.records_per_result", "ratio"),
    ("provenance.dag_build_ms", "ms"),
    ("provenance.why_ms", "ms"),
    // process
    ("alloc.count", "count"),
    ("alloc.bytes", "B"),
    ("alloc.per_update", "ratio"),
];

/// The per-layer metrics for which a higher value is the better one.
const HIGHER_IS_BETTER: &[&str] = &["netsim.events_per_s", "netstack.flood.msgs_per_s"];

/// The contents of `BENCHMARK.json`, one key per line.
pub fn declare() -> String {
    let command: Vec<Value> = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ]
    .into_iter()
    .map(Value::from)
    .collect();
    let workloads: Vec<Value> = SPECS
        .iter()
        .map(|s| Value::obj().with("name", s.name).with("why", s.why))
        .collect();
    let end_to_end: Vec<Value> = END_TO_END
        .iter()
        .map(|e| {
            Value::obj()
                .with("name", e.name)
                .with("unit", e.unit)
                .with("better", "lower")
                .with("bound", e.bound)
        })
        .collect();
    let per_layer: Vec<Value> = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let better = if HIGHER_IS_BETTER.contains(&name) {
                "higher"
            } else {
                "lower"
            };
            Value::obj()
                .with("name", name)
                .with("unit", unit)
                .with("better", better)
        })
        .collect();
    let list = |items: &[Value]| {
        let rows: Vec<String> = items.iter().map(|v| format!("    {v}")).collect();
        format!("[\n{}\n  ]", rows.join(",\n"))
    };
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        Value::Arr(command),
        crate::DEFAULT_SECONDS,
        list(&workloads),
        list(&end_to_end),
        list(&per_layer),
    )
}
