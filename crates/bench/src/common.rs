//! Shared experiment machinery: the program texts every experiment and
//! bench case runs, one deployment run summarized into the numbers the
//! tables report, and the small helpers (flag parsing, timing, exponent
//! fit) the `bench` driver's cases share.

use sensorlog_core::deploy::{DeployConfig, Deployment, WorkloadEvent};
use sensorlog_core::oracle;
use sensorlog_core::prov::Provenance;
use sensorlog_core::workload::{graph_edges, UniformStreams};
use sensorlog_core::{PassMode, RtConfig, Strategy};
use sensorlog_logic::builtin::BuiltinRegistry;
use sensorlog_logic::{Symbol, Term, Tuple};
use sensorlog_netsim::{SharedSummary, SimConfig, SimTime, Topology, TraceSummary};
use sensorlog_telemetry::{Snapshot, Telemetry};
use std::collections::BTreeSet;

/// Example 3, verbatim: the shortest-path tree with a per-edge argument.
pub const LOGIC_H: &str = r#"
    .output h.
    h(0, 0, 0).
    h(0, X, 1) :- g(0, X).
    hp(Y, D + 1) :- h(_, Y, D'), (D + 1) > D', h(_, X, D), g(X, Y).
    h(X, Y, D + 1) :- g(X, Y), h(_, X, D), not hp(Y, D + 1).
"#;

/// The improved tree program of Secs. V/VI: `j(y, d)` = "y is at depth d".
pub const LOGIC_J: &str = r#"
    .output j.
    j(0, 0).
    j(X, 1) :- g(0, X).
    jp(Y, D + 1) :- j(Y, D'), (D + 1) > D', j(X, D), g(X, Y).
    j(Y, D + 1) :- g(X, Y), j(X, D), not jp(Y, D + 1).
"#;

/// The two-stream join of the GPA experiments.
pub const JOIN2: &str = r#"
    .output q.
    q(X, Y) :- r1(N1, X, K), r2(N2, Y, K).
"#;

/// A tree program (`LOGIC_H` / `LOGIC_J`) deployed under PA on a
/// `cols × rows` grid, with the grid's own links scheduled as the `g`
/// workload from t = 100 ms, `edge_spacing` ms apart. Not yet run.
pub fn sptree_deployment(
    src: &str,
    grid: (u32, u32),
    sim: SimConfig,
    edge_spacing: u64,
) -> Deployment {
    let (provenance, telemetry) = (Provenance::disabled(), Telemetry::disabled());
    sptree_deployment_observed(src, grid, sim, provenance, telemetry, edge_spacing)
}

/// [`sptree_deployment`] with the provenance and telemetry planes given.
pub fn sptree_deployment_observed(
    src: &str,
    (cols, rows): (u32, u32),
    sim: SimConfig,
    provenance: Provenance,
    telemetry: Telemetry,
    edge_spacing: u64,
) -> Deployment {
    let topo = Topology::grid(cols, rows);
    let cfg = DeployConfig {
        sim,
        telemetry,
        provenance,
        ..DeployConfig::default()
    };
    let mut d = Deployment::new(src, BuiltinRegistry::standard(), topo.clone(), cfg)
        .expect("tree program compiles");
    d.schedule_all(graph_edges(&topo, 100, edge_spacing));
    d
}

pub fn sym(s: &str) -> Symbol {
    Symbol::intern(s)
}

/// The join experiments' insert-only workload: every node emits one tuple
/// of each stream in `preds` every 8 s for 16 s, join keys drawn from
/// `groups` values.
pub fn join_workload(
    topo: &Topology,
    preds: &[&str],
    groups: u32,
    seed: u64,
) -> Vec<WorkloadEvent> {
    UniformStreams {
        preds: preds.iter().map(|p| sym(p)).collect(),
        interval: 8_000,
        duration: 16_000,
        delete_fraction: 0.0,
        delete_lag: 0,
        groups,
        seed,
    }
    .events(topo)
}

/// Whether a tree program's `results` place every grid node exactly at its
/// BFS depth from corner 0 (`x + y`), the node read from column `node_col`
/// and its depth from the next column.
pub fn tree_depths_correct(topo: &Topology, results: &BTreeSet<Tuple>, node_col: usize) -> bool {
    topo.nodes().all(|node| {
        let (x, y) = topo.grid_coords(node).expect("grid topology");
        let mut depths = results
            .iter()
            .filter(|t| t.get(node_col) == Term::Int(node.0 as i64))
            .map(|t| t.get(node_col + 1).as_i64());
        let want = Some((x + y) as i64);
        depths.next() == Some(want) && depths.all(|d| d == want)
    })
}

/// The seed every pinned bench journal was recorded under.
pub fn seed17() -> SimConfig {
    SimConfig {
        seed: 17,
        ..SimConfig::default()
    }
}

/// Value of `--name <value>` in `args`.
pub fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Run `f` once; its result and the wall seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = std::time::Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Median of `xs` (upper median for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Least-squares slope of `ln y` against `ln x`: the exponent `k` of the
/// power law `y = c·xᵏ` that best fits the points.
pub fn fit_exponent(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for &(x, y) in points {
        let (lx, ly) = (x.ln(), y.ln());
        sx += lx;
        sy += ly;
        sxx += lx * lx;
        sxy += lx * ly;
    }
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// Summary of one deployment run.
#[derive(Clone, Debug)]
pub struct RunPoint {
    pub total_tx: u64,
    pub total_bytes: u64,
    pub max_node_load: u64,
    pub imbalance: f64,
    pub energy_uj: f64,
    pub completeness: f64,
    pub soundness: f64,
    pub expected: usize,
    pub peak_node_memory: usize,
    pub peak_replicas: usize,
    pub peak_derivations: usize,
    pub tx_store: u64,
    pub tx_probe: u64,
    pub tx_result: u64,
    pub delivery_ratio: f64,
    pub final_time: SimTime,
    /// Streaming event-trace counters for the run (messages by kind,
    /// drops by reason, timer volume) — see `sensorlog_netsim::trace`.
    pub trace: TraceSummary,
    /// High-water mark of the simulator's pending event queue.
    pub max_queue_depth: usize,
    /// Per-node storage ceiling from the static analyzer (`sensorlog
    /// check`): sum over predicates of twice the derived tuple bound,
    /// evaluated at this run's observed event counts. `None` when any
    /// predicate's bound is unbounded.
    pub static_bound_total: Option<u64>,
    /// Full telemetry export of the run: per-predicate message counters,
    /// per-phase timings (count / wall-ns / sim-ms), and network-wide
    /// histogram rollups. `run_case` always runs with telemetry enabled,
    /// so every experiment point carries its own breakdown.
    pub snapshot: Snapshot,
}

/// The static analyzer's per-node storage ceiling for a finished run:
/// Σ over predicates of 2·T(p), with T(p) the `sensorlog check` tuple
/// bound evaluated at the run's observed per-predicate event counts.
/// `None` if any predicate is statically unbounded.
pub fn static_bound_total(d: &Deployment) -> Option<u64> {
    let params = sensorlog_logic::diag::BoundParams {
        nodes: d.sim.topology().len() as u64,
        default_events: 0,
        events: d.injected_events().clone(),
    };
    sensorlog_logic::absint::frontier(&d.prog.analysis)
        .bounds
        .values()
        .map(|b| b.eval(&params).map(|t| t.saturating_mul(2)))
        .try_fold(0u64, |acc, t| t.map(|t| acc.saturating_add(t)))
}

/// A fully-specified deployment run, owned, so a sweep can be described
/// up front and executed on any worker thread.
#[derive(Clone)]
pub struct CaseSpec {
    pub src: String,
    pub topo: Topology,
    pub strategy: Strategy,
    pub pass_mode: PassMode,
    pub sim: SimConfig,
    pub spatial_radius: Option<f64>,
    pub events: Vec<WorkloadEvent>,
    pub output: Symbol,
    pub horizon: SimTime,
}

impl CaseSpec {
    /// Run the case with telemetry on and check it against the oracle on
    /// `output`.
    pub fn run(&self) -> RunPoint {
        let cfg = DeployConfig {
            rt: RtConfig {
                strategy: self.strategy,
                pass_mode: self.pass_mode,
                spatial_radius: self.spatial_radius,
                ..RtConfig::default()
            },
            sim: self.sim.clone(),
            telemetry: Telemetry::enabled(),
            ..DeployConfig::default()
        };
        let registry = BuiltinRegistry::standard();
        let mut d = Deployment::new(&self.src, registry, self.topo.clone(), cfg)
            .expect("experiment program compiles");
        // Constant-memory trace summary: counters only, no record storage.
        let trace = SharedSummary::new();
        d.sim.set_trace(Box::new(trace.clone()));
        d.schedule_all(self.events.clone());
        let final_time = d.run(self.horizon);
        let report = oracle::check(&d, &self.events, self.output);
        // Every benchmark run must stay inside the static analyzer's memory
        // and communication envelopes — the bench doubles as a continuous
        // cross-validation of `sensorlog check` (paper Sec. V).
        let bounds = sensorlog_core::invariants::check_static_bounds(&d);
        assert!(bounds.ok(), "static bounds violated in bench run: {bounds}");
        let snapshot = d.telemetry_snapshot();
        // Slack soundness: `diag.bound.slack` is the enforced per-node
        // ceiling 2·T(p) ÷ observed peak per predicate — a value of 0 means
        // some node stored more than the frontier pass promised, i.e. the
        // bound is unsound.
        for g in &snapshot.gauges {
            if g.name == "diag.bound.slack" {
                assert!(
                    g.value >= 1,
                    "{}: bound slack {} < 1 — static bound unsound",
                    g.scope,
                    g.value
                );
            }
        }
        let m = d.metrics();
        let stats = d.node_stats();
        RunPoint {
            total_tx: m.total_tx(),
            total_bytes: m.total_tx_bytes(),
            max_node_load: m.max_node_load(),
            imbalance: m.imbalance(),
            energy_uj: m.total_energy_uj(),
            completeness: report.completeness(),
            soundness: report.soundness(),
            expected: report.expected,
            peak_node_memory: d.peak_node_memory(),
            peak_replicas: stats.iter().map(|s| s.peak_replicas).max().unwrap_or(0),
            peak_derivations: stats.iter().map(|s| s.peak_derivations).max().unwrap_or(0),
            tx_store: m.tx_of("store"),
            tx_probe: m.tx_of("probe"),
            tx_result: m.tx_of("result"),
            delivery_ratio: m.delivery_ratio(),
            final_time,
            trace: trace.snapshot(),
            max_queue_depth: d.sim.max_queue_depth(),
            static_bound_total: static_bound_total(&d),
            snapshot,
        }
    }
}

/// The strategies compared throughout the join experiments.
pub fn join_strategies() -> Vec<Strategy> {
    vec![
        Strategy::Perpendicular { band_width: 1.0 },
        Strategy::Centroid,
        Strategy::NaiveBroadcast,
        Strategy::LocalStorage,
    ]
}

/// Run every case, fanning out across the machine's available
/// parallelism. Each case is an independent, deterministic,
/// single-threaded simulation; results come back in spec order, so tables
/// built from them are byte-identical to a serial run (see
/// `tests/parallel_driver.rs`).
pub fn run_cases(specs: &[CaseSpec]) -> Vec<RunPoint> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    run_cases_with(specs, threads)
}

/// [`run_cases`] with an explicit worker count (1 = serial reference).
pub fn run_cases_with(specs: &[CaseSpec], threads: usize) -> Vec<RunPoint> {
    let threads = threads.clamp(1, specs.len().max(1));
    if threads == 1 {
        return specs.iter().map(CaseSpec::run).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut slots: Vec<Option<RunPoint>> = (0..specs.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= specs.len() {
                            break done;
                        }
                        done.push((i, specs[i].run()));
                    }
                })
            })
            .collect();
        for w in workers {
            for (i, p) in w.join().expect("bench worker panicked") {
                slots[i] = Some(p);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every case ran"))
        .collect()
}
