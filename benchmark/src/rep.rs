//! One repetition of one workload, in a process of its own.
//!
//! The driver starts one child per repetition (never two at once): the
//! program's constant pool is process-global and append-only, and CLI users
//! pay a cold start on every run, so a repetition that reuses a warm process
//! measures something nobody runs. The child generates the inputs from the
//! seed, sets the program up, runs it to quiescence / fixpoint, checks the
//! result against the independent reference, and prints one JSON record.
//!
//! Four modes share this code path and differ only in what observes the run:
//! `timed` (observers off, allocator counting off — the only mode whose
//! timings are gated), `heap` (observers off, counting on), `traced`
//! (telemetry + a full journal + the set-up decomposition), `prov`
//! (`traced` plus the provenance plane).

use crate::alloc;
use crate::clock::{self, Elapsed, Tick};
use crate::inputs::{self, Event, Shape};
use crate::json::Value;
use crate::reference::{self, Row, Verdict};
use crate::spans::Spans;
use crate::workloads::{self, Kind, Spec};
use sensorlog::core::{compile_source, NetInfo};
use sensorlog::logic::absint::frontier;
use sensorlog::logic::intern::{pool_len, resolve_counts};
use sensorlog::netstack::flood::run_flood;
use sensorlog::prelude::*;
use std::collections::BTreeSet;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    Timed,
    Heap,
    Traced,
    Prov,
}

impl Mode {
    pub fn parse(s: &str) -> Option<Mode> {
        [Mode::Timed, Mode::Heap, Mode::Traced, Mode::Prov]
            .into_iter()
            .find(|m| m.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Mode::Timed => "timed",
            Mode::Heap => "heap",
            Mode::Traced => "traced",
            Mode::Prov => "prov",
        }
    }

    /// Telemetry, the journal and the set-up decomposition are on.
    fn observed(self) -> bool {
        matches!(self, Mode::Traced | Mode::Prov)
    }
}

/// Process-wide counters read right after the run, before verification
/// allocates or resolves anything.
struct AtQuiescence {
    /// `None` unless the allocator is counting.
    heap: Option<alloc::HeapStats>,
    hot_resolves: u64,
    boundary_resolves: u64,
}

impl AtQuiescence {
    fn read() -> AtQuiescence {
        let r = resolve_counts();
        AtQuiescence {
            heap: alloc::enabled().then(alloc::stats),
            hot_resolves: r.hot,
            boundary_resolves: r.boundary,
        }
    }
}

/// What a repetition was asked to do, and its generated inputs.
struct Ctx<'a> {
    spec: &'a Spec,
    shape: Shape,
    seed: u64,
    mode: Mode,
    events: &'a [Event],
}

/// The `(missing, spurious)` result sets a checker reports.
type Diff = (BTreeSet<Row>, BTreeSet<Row>);

/// The program's result set, checked.
struct Checked {
    results: usize,
    result_hash: u64,
    /// Against the benchmark's independent reference.
    verdict: Verdict,
    /// `oracle::check` reported the same missing / spurious sets as the
    /// reference (`None` where the workload has no oracle or did not ask).
    oracle_agrees: Option<bool>,
}

/// Check `found` against the independent reference and, when given, against
/// the program's own oracle.
fn verify(
    spans: &mut Spans,
    ctx: &Ctx,
    found: &BTreeSet<Row>,
    oracle: Option<&dyn Fn() -> Diff>,
) -> Checked {
    spans.scope("verify", |sp| {
        let oracle_diff = oracle.map(|check| sp.scope("core.oracle_check", |_| check()));
        let verdict = sp.scope("reference_check", |_| {
            let net = reference::net_facts(ctx.events);
            let expected = match ctx.shape {
                Shape::Sptree { .. } => reference::sptree(&net),
                Shape::Join { .. } => reference::join(&net),
                Shape::Battle { .. } => reference::battlefield(&net, workloads::COVER_RADIUS),
            };
            Verdict::of(&expected, found)
        });
        Checked {
            results: found.len(),
            result_hash: hash_rows(found),
            oracle_agrees: oracle_diff.map(|(missing, spurious)| {
                missing.iter().eq(&verdict.missing) && spurious.iter().eq(&verdict.spurious)
            }),
            verdict,
        }
    })
}

/// What one repetition measured, before it is rendered as JSON.
struct Outcome {
    setup: Elapsed,
    run: Elapsed,
    /// Deterministic counts; identical across a workload's repetitions.
    counts: Vec<(&'static str, Value)>,
    checked: Checked,
    quiesced: AtQuiescence,
    /// Per-layer metrics this repetition could measure.
    layers: Vec<(&'static str, f64)>,
    /// The program's own inclusive phase rows, as recorded.
    phases: Vec<Value>,
    journal_hash: Option<u64>,
    /// Tuples alive in the program's databases at the end of the run (the
    /// denominator of `eval.db.bytes_per_tuple`); 0 where no engine is held.
    db_tuples: usize,
}

/// Run one repetition and render its record.
pub fn run(spec: &Spec, shape: Shape, seed: u64, mode: Mode) -> Result<Value, String> {
    let calib_before = clock::calibration_s();
    // After the calibration kernel, so its allocations stay out of the peak.
    if mode == Mode::Heap {
        alloc::enable();
    }
    let mut spans = Spans::new();
    let heap_start = alloc::stats();
    let events = spans.scope("generate_inputs", |_| inputs::generate(&shape, seed));
    let inserts = events.iter().filter(|e| e.insert).count();
    let resolves_start = resolve_counts();
    let ctx = Ctx {
        spec,
        shape,
        seed,
        mode,
        events: &events,
    };

    let mut out = match spec.kind {
        Kind::Deploy { strategy, horizon } => deploy(&ctx, strategy, horizon, &mut spans)?,
        Kind::EngineBatch => engine_batch(&ctx, &mut spans)?,
        Kind::EngineIncr => engine_incr(&ctx, &mut spans)?,
    };

    let calib_after = clock::calibration_s();
    let verdict = &out.checked.verdict;
    out.counts.push(("results", out.checked.results.into()));
    out.counts.push((
        "result_hash",
        format!("{:016x}", out.checked.result_hash).into(),
    ));

    if mode.observed() {
        out.layers.extend([
            ("logic.intern.pool_len", pool_len() as f64),
            (
                "logic.intern.hot_resolves",
                (out.quiesced.hot_resolves - resolves_start.hot) as f64,
            ),
            (
                "logic.intern.boundary_resolves",
                (out.quiesced.boundary_resolves - resolves_start.boundary) as f64,
            ),
        ]);
        spans.scope("logic.micro", |_| logic_layers(spec, &mut out.layers))?;
    }
    if let Some(h) = out.quiesced.heap {
        out.layers.extend([
            ("alloc.count", h.alloc_count as f64),
            ("alloc.bytes", h.alloc_bytes as f64),
            (
                "alloc.per_update",
                h.alloc_count as f64 / events.len().max(1) as f64,
            ),
        ]);
        if out.db_tuples > 0 {
            out.layers.push((
                "eval.db.bytes_per_tuple",
                (h.live_bytes - heap_start.live_bytes) as f64 / out.db_tuples as f64,
            ));
        }
    }
    let show = |rows: &[Row]| -> Value {
        Value::Arr(
            rows.iter()
                .take(8)
                .map(|r| format!("{}{:?}", spec.output, r).into())
                .collect(),
        )
    };
    let mut rec = Value::obj()
        .with("workload", spec.name)
        .with("mode", mode.name())
        .with("seed", seed)
        .with("inserts", inserts)
        .with("deletes", events.len() - inserts)
        .with("calib_s", (calib_before + calib_after) / 2.0)
        .with("setup", elapsed_json(out.setup))
        .with("run", elapsed_json(out.run))
        .with(
            "counts",
            Value::Obj(
                out.counts
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            ),
        )
        .with(
            "verdict",
            Value::obj()
                .with("expected", verdict.expected)
                .with("found", verdict.found)
                .with("failed", verdict.failed())
                .with("missing", show(&verdict.missing))
                .with("spurious", show(&verdict.spurious)),
        )
        .with(
            "oracle_agrees",
            out.checked.oracle_agrees.map_or(Value::Null, Value::from),
        );
    if let Some(h) = out.quiesced.heap {
        rec.set("heap", Value::obj().with("peak_bytes", h.peak_bytes as f64));
    }
    if let Some(hash) = out.journal_hash {
        rec.set("journal_hash", format!("{hash:016x}"));
    }
    rec.set(
        "layers",
        Value::Obj(
            out.layers
                .iter()
                .map(|&(k, v)| (k.to_string(), Value::Num(v)))
                .collect(),
        ),
    );
    if mode.observed() {
        rec.set("phases", Value::Arr(out.phases));
        rec.set("spans", spans.to_json());
    }
    Ok(rec)
}

impl Outcome {
    fn new(setup: Elapsed, run: Elapsed, quiesced: AtQuiescence, checked: Checked) -> Outcome {
        Outcome {
            setup,
            run,
            quiesced,
            counts: Vec::new(),
            checked,
            layers: Vec::new(),
            phases: Vec::new(),
            journal_hash: None,
            db_tuples: 0,
        }
    }
}

fn elapsed_json(e: Elapsed) -> Value {
    Value::obj().with("wall_s", e.wall_s).with("cpu_s", e.cpu_s)
}

/// FNV-1a over the rows in set order.
fn hash_rows(rows: &BTreeSet<Row>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for row in rows {
        for v in row {
            for b in v.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h = (h ^ 0xff).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn rows_of(tuples: impl IntoIterator<Item = Tuple>) -> BTreeSet<Row> {
    tuples
        .into_iter()
        // A non-integer argument cannot be a correct result: keep the tuple
        // visible as a row the reference will not contain.
        .map(|t| workloads::to_row(&t).unwrap_or_else(|| vec![i64::MIN; t.arity()]))
        .collect()
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Median wall-clock microseconds of `n` calls of `f`.
fn median_us(n: usize, mut f: impl FnMut()) -> f64 {
    median(
        (0..n)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect(),
    )
}

/// `logic.*_us`: the front end on the workload's program, median of 200.
fn logic_layers(spec: &Spec, layers: &mut Vec<(&'static str, f64)>) -> Result<(), String> {
    let reg = BuiltinRegistry::standard();
    let prog = parse_program(spec.program).map_err(|e| e.to_string())?;
    let analysis = analyze(&prog, &reg).map_err(|e| e.to_string())?;
    layers.push((
        "logic.parse_us",
        median_us(200, || {
            std::hint::black_box(parse_program(std::hint::black_box(spec.program)).is_ok());
        }),
    ));
    layers.push((
        "logic.analyze_us",
        median_us(200, || {
            std::hint::black_box(analyze(std::hint::black_box(&prog), &reg).is_ok());
        }),
    ));
    layers.push((
        "logic.absint_us",
        median_us(200, || {
            std::hint::black_box(frontier(std::hint::black_box(&analysis)));
        }),
    ));
    Ok(())
}

fn phase_rows(snap: &Snapshot) -> Vec<Value> {
    snap.phases
        .iter()
        .map(|p| {
            Value::obj()
                .with("name", p.name.as_str())
                .with("count", p.count)
                .with("wall_ns", p.wall_ns)
                .with("sim_ms", p.sim_ms)
        })
        .collect()
}

/// `(calls, inclusive ms)` of one of the program's phase rows.
fn phase(snap: &Snapshot, name: &str) -> (f64, f64) {
    snap.phase(name)
        .map_or((0.0, 0.0), |p| (p.count as f64, p.wall_ns as f64 / 1e6))
}

fn deploy(
    ctx: &Ctx,
    strategy: Strategy,
    horizon: u64,
    spans: &mut Spans,
) -> Result<Outcome, String> {
    let &Ctx {
        spec,
        shape,
        seed,
        mode,
        events,
    } = ctx;
    let wl_events: Vec<WorkloadEvent> = events.iter().map(workloads::to_workload_event).collect();
    let scheduled = wl_events.clone();
    let last_event_at = events.last().map_or(0, |e| e.at);
    let (cols, rows) = shape.grid();
    let telemetry = if mode.observed() {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let config = DeployConfig {
        rt: RtConfig {
            strategy,
            ..RtConfig::default()
        },
        sim: SimConfig {
            seed,
            ..SimConfig::default()
        },
        telemetry,
        provenance: if mode == Mode::Prov {
            Provenance::enabled()
        } else {
            Provenance::disabled()
        },
        ..DeployConfig::default()
    };
    let plan = config.plan;
    let sim_config = config.sim.clone();
    // Set-up: program text + topology parameters -> a Deployment with its
    // inputs scheduled. In observed modes the pieces `Deployment::new` does
    // internally are also called on their own, to time them from outside.
    let tick = Tick::now();
    let (mut d, topo, journal) = spans.scope("setup", |sp| -> Result<_, String> {
        let topo = sp.scope("netsim.topology_build", |_| Topology::grid(cols, rows));
        if mode.observed() {
            let reg = BuiltinRegistry::standard();
            let prog = sp
                .scope("logic.parse", |_| parse_program(spec.program))
                .map_err(|e| e.to_string())?;
            sp.scope("logic.analyze", |_| analyze(&prog, &reg).map(drop))
                .map_err(|e| e.to_string())?;
            sp.scope("core.compile", |_| {
                compile_source(spec.program, reg, plan).map(drop)
            })
            .map_err(|e| e.to_string())?;
            sp.scope("core.netinfo_build", |_| {
                std::hint::black_box(NetInfo::new(topo.clone()));
            });
        }
        let mut d = sp
            .scope("core.deploy_build", |_| {
                Deployment::new(
                    spec.program,
                    BuiltinRegistry::standard(),
                    topo.clone(),
                    config,
                )
            })
            .map_err(|e| e.to_string())?;
        let journal = mode.observed().then(|| d.attach_journal());
        d.schedule_all(scheduled);
        Ok((d, topo, journal))
    })?;
    let setup = tick.elapsed();

    let tick = Tick::now();
    let end = spans.scope("run", |_| d.run(horizon));
    let run = tick.elapsed();
    let quiesced = AtQuiescence::read();

    let output = Symbol::intern(spec.output);
    let results = d.results(output);
    // Provenance queries are answered for the last result tuple.
    let sample = results.iter().next_back().cloned();
    let found = rows_of(results);
    let oracle = || {
        let report = oracle::check(&d, &wl_events, output);
        (rows_of(report.missing), rows_of(report.spurious))
    };
    let checked = verify(
        spans,
        ctx,
        &found,
        mode.observed().then_some(&oracle as &dyn Fn() -> Diff),
    );
    let mut out = Outcome::new(setup, run, quiesced, checked);

    let m = d.metrics();
    // Under Centroid the runtime's per-node peaks do not count the central
    // server's own store, so read that engine directly.
    let center = d.node(Strategy::center(d.sim.topology()));
    let central_store = center
        .center_engine
        .as_ref()
        .map_or(0, |e| e.db.total_tuples() + e.stats.max_derivations);
    let peak_node_tuples = d.peak_node_memory().max(central_store);
    out.counts = vec![
        ("tx_msgs", m.total_tx().into()),
        ("tx_bytes", m.total_tx_bytes().into()),
        ("sim_quiesce_ms", end.saturating_sub(last_event_at).into()),
        ("max_node_load_msgs", m.max_node_load().into()),
        ("peak_node_tuples", peak_node_tuples.into()),
        ("sim_events", d.sim.events_processed().into()),
    ];

    if !mode.observed() {
        return Ok(out);
    }

    // --- everything below runs in the traced / prov repetitions only ---

    let records = d.provenance_records();
    let snap = spans.scope("observe", |sp| {
        let snap = sp.scope("telemetry.snapshot", |_| d.telemetry_snapshot());
        if mode == Mode::Prov {
            let dag = sp.scope("provenance.dag_build", |_| ProvDag::build(&records));
            if let Some(t) = &sample {
                sp.scope("provenance.why", |_| {
                    std::hint::black_box(dag.why(output, t).is_some());
                });
            }
        }
        snap
    });
    out.phases = phase_rows(&snap);
    let run_ms = run.wall_s * 1e3;
    let (init_n, init_ms) = phase(&snap, "core.update.initiate");
    let (start_n, start_ms) = phase(&snap, "core.join.start");
    let (probe_n, probe_ms) = phase(&snap, "core.join.probe");
    let (apply_n, apply_ms) = phase(&snap, "core.result.apply");
    let (deliver_n, deliver_ms) = phase(&snap, "sim.deliver");
    let (timer_n, timer_ms) = phase(&snap, "sim.timer");
    let (route_n, route_ms) = phase(&snap, "sim.route");
    let (inc_n, inc_ms) = phase(&snap, "inc.apply");
    let ms = |name: &str| spans.elapsed(name).wall_s * 1e3;
    let compile_ms = ms("core.compile");
    let tx = m.total_tx() as f64;
    let sched = d.sched_stats();
    let stats = d.node_stats();
    let router_hops = snap.counter("layer:netstack", "grid_hops") as f64
        + snap.counter("layer:netstack", "bfs_hops") as f64;
    out.layers.extend([
        ("net.tx_msgs", tx),
        ("net.tx_bytes", m.total_tx_bytes() as f64),
        (
            "net.sim_quiesce_ms",
            end.saturating_sub(last_event_at) as f64,
        ),
        ("net.max_node_load_msgs", m.max_node_load() as f64),
        ("net.peak_node_tuples", peak_node_tuples as f64),
        ("core.compile_us", compile_ms * 1e3),
        ("core.netinfo_build_ms", ms("core.netinfo_build")),
        (
            "core.deploy_build_ms",
            (ms("core.deploy_build") - compile_ms).max(0.0),
        ),
        ("core.update.initiate.calls", init_n),
        ("core.update.initiate.ms", init_ms),
        ("core.join.start.calls", start_n),
        ("core.join.start.ms", start_ms),
        ("core.join.probe.calls", probe_n),
        ("core.join.probe.ms", probe_ms),
        (
            "core.join.probe.us_per_call",
            if probe_n > 0.0 {
                probe_ms * 1e3 / probe_n
            } else {
                0.0
            },
        ),
        ("core.join.probe.share", probe_ms / run_ms),
        ("core.result.apply.calls", apply_n),
        ("core.result.apply.ms", apply_ms),
        ("core.tx.store", m.tx_of("store") as f64),
        ("core.tx.probe", m.tx_of("probe") as f64),
        ("core.tx.result", m.tx_of("result") as f64),
        ("core.tx.centroid", m.tx_of("centroid") as f64),
        (
            "core.peak_replicas",
            stats.iter().map(|s| s.peak_replicas).max().unwrap_or(0) as f64,
        ),
        (
            "core.peak_derivations",
            stats.iter().map(|s| s.peak_derivations).max().unwrap_or(0) as f64,
        ),
        ("core.oracle_check_ms", ms("core.oracle_check")),
        ("netsim.topology_build_ms", ms("netsim.topology_build")),
        ("netsim.deliver.calls", deliver_n),
        ("netsim.deliver.ms", deliver_ms),
        ("netsim.timer.calls", timer_n),
        ("netsim.timer.ms", timer_ms),
        ("netsim.route.calls", route_n),
        ("netsim.route.ms", route_ms),
        (
            "netsim.events_per_s",
            d.sim.events_processed() as f64 / run.wall_s,
        ),
        (
            "netsim.unattributed_ms",
            (run_ms - deliver_ms - timer_ms).max(0.0),
        ),
        ("netsim.max_queue_depth", d.sim.max_queue_depth() as f64),
        ("netsim.sched.pushes", sched.pushes as f64),
        ("netsim.sched.batched_msgs", sched.batched_msgs as f64),
        ("netsim.sched.spill_pushes", sched.spill_pushes as f64),
        (
            "netstack.grid_hops",
            snap.counter("layer:netstack", "grid_hops") as f64,
        ),
        (
            "netstack.bfs_hops",
            snap.counter("layer:netstack", "bfs_hops") as f64,
        ),
        (
            "netstack.unreachable",
            snap.counter("layer:netstack", "unreachable") as f64,
        ),
        (
            "netstack.hops_per_msg",
            if tx > 0.0 { router_hops / tx } else { 0.0 },
        ),
        ("eval.inc.apply.calls", inc_n),
        ("eval.inc.apply.ms", inc_ms),
        ("telemetry.snapshot_ms", ms("telemetry.snapshot")),
        (
            "telemetry.snapshot_rows",
            (snap.counters.len() + snap.gauges.len() + snap.hists.len() + snap.phases.len()) as f64,
        ),
    ]);
    if let Some(engine) = &center.center_engine {
        out.layers.extend([
            ("eval.inc.body_evals", engine.stats.body_evals as f64),
            (
                "eval.inc.derived_emitted",
                engine.stats.derived_emitted as f64,
            ),
            (
                "eval.inc.max_derivations",
                engine.stats.max_derivations as f64,
            ),
            (
                "eval.db.clone_us",
                median_us(5, || {
                    std::hint::black_box(engine.db.clone());
                }),
            ),
        ]);
    }

    // The two network layers on their own: the simulator and routing under
    // a trivial application (the procedural flood tree) on this topology.
    let flood = median_flood_rate(&topo, &sim_config);
    out.layers.push(("netstack.flood.msgs_per_s", flood));

    if let Some(journal) = journal {
        let j = journal.take();
        let t = Instant::now();
        let hash = j.content_hash();
        out.layers.extend([
            ("netsim.journal.records", j.records.len() as f64),
            ("netsim.journal.hash_ms", t.elapsed().as_secs_f64() * 1e3),
        ]);
        out.journal_hash = Some(hash);
    }

    if mode == Mode::Prov {
        out.layers.extend([
            ("provenance.records", records.len() as f64),
            (
                "provenance.records_per_result",
                records.len() as f64 / found.len().max(1) as f64,
            ),
            (
                "provenance.dag_build_ms",
                spans.elapsed("provenance.dag_build").wall_s * 1e3,
            ),
            (
                "provenance.why_ms",
                spans.elapsed("provenance.why").wall_s * 1e3,
            ),
        ]);
    }
    Ok(out)
}

/// Messages per host second of `run_flood` on `topo`, median of 5 runs.
fn median_flood_rate(topo: &Topology, config: &SimConfig) -> f64 {
    median(
        (0..5)
            .map(|_| {
                let t = Instant::now();
                let res = run_flood(topo, NodeId(0), config.clone());
                res.total_messages as f64 / t.elapsed().as_secs_f64()
            })
            .collect(),
    )
}

fn engine_batch(ctx: &Ctx, spans: &mut Spans) -> Result<Outcome, String> {
    let &Ctx {
        spec, mode, events, ..
    } = ctx;
    let telemetry = if mode.observed() {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    // Set-up: program text -> an Engine, and the EDB loaded into a Database.
    let tick = Tick::now();
    let (engine, edb) = spans.scope("setup", |_| -> Result<_, String> {
        let mut engine = Engine::from_source(spec.program, BuiltinRegistry::standard())
            .map_err(|e| e.to_string())?;
        engine.profiler = telemetry.profiler();
        let mut edb = Database::new();
        for e in events {
            let (pred, tuple) = workloads::to_tuple(&e.fact);
            edb.insert(pred, tuple);
        }
        Ok((engine, edb))
    })?;
    let setup = tick.elapsed();

    let tick = Tick::now();
    let db = spans
        .scope("run", |_| engine.run(&edb))
        .map_err(|e| e.to_string())?;
    let run = tick.elapsed();
    let quiesced = AtQuiescence::read();

    let found = rows_of(db.sorted(Symbol::intern(spec.output)));
    let checked = verify(spans, ctx, &found, None);
    let mut out = Outcome::new(setup, run, quiesced, checked);
    out.db_tuples = edb.total_tuples() + db.total_tuples();
    if mode.observed() {
        let snap = telemetry.snapshot();
        out.phases = phase_rows(&snap);
        out.layers.extend([
            ("eval.seminaive.run_ms", run.wall_s * 1e3),
            (
                "eval.seminaive.rounds",
                phase(&snap, "eval.seminaive.round").0,
            ),
            ("eval.xy.stages", phase(&snap, "eval.xy.stage").0),
            (
                "eval.db.clone_us",
                median_us(5, || {
                    std::hint::black_box(db.clone());
                }),
            ),
        ]);
    }
    Ok(out)
}

fn engine_incr(ctx: &Ctx, spans: &mut Spans) -> Result<Outcome, String> {
    let &Ctx {
        spec, mode, events, ..
    } = ctx;
    let updates: Vec<Update> = events.iter().map(workloads::to_update).collect();
    // Set-up: program text -> an IncrementalEngine over an empty database
    // (the updates are the events).
    let tick = Tick::now();
    let mut engine = spans
        .scope("setup", |_| {
            IncrementalEngine::from_source(spec.program, BuiltinRegistry::standard())
        })
        .map_err(|e| e.to_string())?;
    let setup = tick.elapsed();

    // Observed modes also time every apply, for the latency percentiles.
    let mut apply_us: Vec<f64> = Vec::new();
    let tick = Tick::now();
    spans.scope("run", |_| -> Result<(), String> {
        for u in updates {
            let t = mode.observed().then(Instant::now);
            engine.apply(u).map_err(|e| e.to_string())?;
            if let Some(t) = t {
                apply_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        Ok(())
    })?;
    let run = tick.elapsed();
    let quiesced = AtQuiescence::read();

    let found = rows_of(engine.db.sorted(Symbol::intern(spec.output)));
    let checked = verify(spans, ctx, &found, None);
    let mut out = Outcome::new(setup, run, quiesced, checked);
    out.db_tuples = engine.db.total_tuples();
    out.counts = vec![("derived_emitted", engine.stats.derived_emitted.into())];
    if mode.observed() {
        apply_us.sort_by(f64::total_cmp);
        let pct = |p: f64| apply_us[((apply_us.len() - 1) as f64 * p) as usize];
        out.layers.extend([
            ("eval.inc.apply.calls", apply_us.len() as f64),
            ("eval.inc.apply.ms", apply_us.iter().sum::<f64>() / 1e3),
            ("eval.inc.apply.p50_us", pct(0.5)),
            ("eval.inc.apply.p999_us", pct(0.999)),
            ("eval.inc.body_evals", engine.stats.body_evals as f64),
            (
                "eval.inc.derived_emitted",
                engine.stats.derived_emitted as f64,
            ),
            (
                "eval.inc.max_derivations",
                engine.stats.max_derivations as f64,
            ),
            (
                "eval.db.clone_us",
                median_us(5, || {
                    std::hint::black_box(engine.db.clone());
                }),
            ),
        ]);
    }
    Ok(out)
}
