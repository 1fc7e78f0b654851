//! The `bench` driver's cases. Each is a table of configurations over the
//! shared pieces in [`crate::common`] that fills one [`Report`]: timings
//! and volumes as rows, everything CI must hold as a named gate. Gates
//! compare counts and journal hashes only, so they hold on any host. The
//! paper's figures and tables come first (from [`crate::experiments`];
//! they ignore `--quick`, so CI gates the numbers EXPERIMENTS.md quotes),
//! then the measured claims beyond them, defined here.

use crate::common::{
    fit_exponent, last_event, median, seed17, sptree_deployment, sptree_deployment_observed, sym,
    timed, CaseSpec, JOIN2, LOGIC_H, LOGIC_J,
};
use crate::experiments::telemetry::join_point;
use crate::experiments::{
    ablation, aggregates, failures, geometric, holddown, joins, memory, negation, robustness,
    sptree, telemetry, tracesum,
};
use crate::report::Report;
use crate::row;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sensorlog_core::deploy::{DeployConfig, Deployment, WorkloadEvent};
use sensorlog_core::prov::{to_jsonl, ProvRecord, Provenance};
use sensorlog_core::runtime::{FaultPlaneCfg, RtConfig};
use sensorlog_core::workload::UniformStreams;
use sensorlog_core::{invariants, oracle};
use sensorlog_core::{PassMode, Strategy};
use sensorlog_eval::relation::{Relation, TupleMeta};
use sensorlog_eval::{Database, Engine, IncrementalEngine, Update, UpdateKind};
use sensorlog_logic::absint::frontier;
use sensorlog_logic::builtin::BuiltinRegistry;
use sensorlog_logic::diag::BoundParams;
use sensorlog_logic::flat::{flat_match_args, FlatSubst};
use sensorlog_logic::parser::parse_term;
use sensorlog_logic::{intern, Symbol, Term, Tuple};
use sensorlog_netsim::{FaultSchedule, Journal, NodeId, RandomFaults, SimConfig, Topology};
use sensorlog_netstack::flood::run_flood;
use sensorlog_netstack::tag::run_epoch;
use sensorlog_netstack::tree::GatherTree;
use sensorlog_provenance::{critical_path, ProofNode, ProvDag};
use sensorlog_telemetry::{Snapshot, Telemetry};
use std::hint::black_box;

/// A case fills its report; the flag is `--quick`.
pub type Case = fn(bool, &mut Report);

/// Every case by name, in run order.
pub const CASES: &[(&str, Case)] = &[
    ("fig4_5", joins::fig4_5),
    ("fig6", joins::fig6),
    ("fig7", joins::fig7),
    ("fig8", sptree::fig8),
    ("fig9", robustness::fig9),
    ("fig10", negation::fig10),
    ("fig11", ablation::fig11),
    ("fig12", ablation::fig12),
    ("fig13", failures::fig13),
    ("fig14", aggregates::fig14),
    ("fig15", holddown::fig15),
    ("fig16", geometric::fig16),
    ("table1", memory::table1),
    ("table2", robustness::table2),
    ("table3", tracesum::table3),
    ("table4_5", telemetry::table4_5),
    ("smoke", smoke),
    ("micro", micro),
    ("grid4k", grid4k),
    ("chaos", chaos),
    ("prov", prov),
    ("intern", intern),
    ("diag", diag),
    ("scale", scale),
];

/// Journal of the loss-free 10×5 logicH run (seed 17, links 200 ms apart):
/// it pins both "provenance is a pure observer" and "the id representation
/// is invisible on the wire". Recorded before the flat-tuple refactor and
/// unchanged until PR 25 (`3c1ec08c6289dba4`), whose pass plans and
/// node-placed `h` / `hp` owners change what travels; moved again
/// (`8ef1d099dba5e1b0`) by the neighbourhood plane's one-hop regions, and
/// (`b325c8099177c3a8`) when the plane stored a `g` link only at the end
/// it names, and (`81b2b52e0a3ac7d7`) when every wait became its delay
/// bound, derived per deployment.
const SPTREE_50_PIN: u64 = 0x8a36_7dbb_d389_0838;

fn hex(hash: u64) -> String {
    format!("{hash:016x}")
}

/// A journal's identity — content hash and record count — in the
/// `hash/records` form the journal-equality gates compare.
#[derive(Clone, Copy)]
struct JournalId {
    hash: u64,
    records: usize,
}

impl JournalId {
    fn of(j: &Journal) -> JournalId {
        JournalId {
            hash: j.content_hash(),
            records: j.records.len(),
        }
    }
}

impl std::fmt::Display for JournalId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}/{}", self.hash, self.records)
    }
}

// ---------------------------------------------------------------- smoke

/// The telemetry pipeline end to end (deploy → instrument → snapshot →
/// JSONL) on the PA two-stream join, plus the snapshot schema against its
/// golden file; then the same join with every hop at its delay bound.
fn smoke(quick: bool, r: &mut Report) {
    let golden = include_str!("../golden/snapshot_schema.txt");
    let schema = Snapshot::schema_fingerprint();
    if schema != golden {
        eprintln!(
            "smoke: snapshot schema drifted; if intended, update \
             crates/bench/golden/snapshot_schema.txt.\n\
             --- golden ---\n{golden}--- current ---\n{schema}"
        );
    }
    r.gate("snapshot_schema_is_golden", true, schema == golden);

    let m: u32 = if quick { 4 } else { 8 };
    let point = join_point(Strategy::Perpendicular { band_width: 1.0 }, m);
    let snap = &point.snapshot;
    let jsonl_records = snap.to_jsonl().lines().count();
    r.gate(
        "snapshot_plausible",
        true,
        point.total_tx > 0
            && !snap.pred_scopes().is_empty()
            && snap.phase("sim.deliver").is_some()
            && snap.merged_hist("tx_bytes").is_some()
            && jsonl_records > snap.counters.len(),
    );
    r.row(row![
        "grid" => format!("{m}x{m}"), "tx" => point.total_tx,
        "counters" => snap.counters.len(), "hists" => snap.hists.len(),
        "phases" => snap.phases.len(), "jsonl_records" => jsonl_records,
    ]);
    hop_bound_join(r);
}

/// τs is a storage leg at the slowest hop, and a join needs all of it.
/// With every hop at 29 or 30 ms — its 30 ms bound or a millisecond under —
/// the two partners of each row of an 8×4 grid, sensed at its two ends at
/// once, each start their probe 7 × 30 ms after their update, and each
/// partner's replica reaches the other's node 203–210 ms after it. A storage
/// leg priced one hop short lets both probes pass before either replica
/// lands, and the row's result is lost. (At the default 5–30 ms a row walk
/// rarely takes its bound, so no other gate sees such a leg.)
fn hop_bound_join(r: &mut Report) {
    let (cols, rows) = (8, 4);
    let topo = Topology::grid(cols, rows);
    let reading = |pred: &str, x: u32, y: u32| {
        let node = topo.node_at(x, y).expect("on the grid");
        let key = i64::from(y);
        WorkloadEvent {
            at: 100 + 1_000 * u64::from(y),
            node,
            pred: sym(pred),
            tuple: Tuple::new(vec![
                Term::Int(node.0.into()),
                Term::Int(key),
                Term::Int(key),
            ]),
            kind: UpdateKind::Insert,
        }
    };
    let events = (0..rows)
        .flat_map(|y| [reading("r1", 0, y), reading("r2", cols - 1, y)])
        .collect();
    let point = CaseSpec {
        src: JOIN2.to_string(),
        topo,
        strategy: Strategy::Perpendicular { band_width: 1.0 },
        pass_mode: PassMode::OnePass,
        sim: SimConfig {
            hop_delay: (29, 30),
            ..seed17()
        },
        events,
        output: sym("q"),
        horizon: 60_000,
    }
    .run();
    let held = &point.oracle;
    r.gate(
        "pa_join_at_hop_bound_exact",
        true,
        held.exact() && held.expected == rows as usize,
    );
    r.row(row![
        "grid" => format!("{cols}x{rows}"), "hop_delay_ms" => "29-30",
        "tx" => point.total_tx, "results" => held.found, "oracle" => held.expected,
    ]);
}

// ---------------------------------------------------------------- micro

/// Nanoseconds per call of `f` over `iters` calls.
fn ns_per_call<T>(iters: u32, mut f: impl FnMut() -> T) -> f64 {
    let ((), secs) = timed(|| {
        for _ in 0..iters {
            black_box(f());
        }
    });
    secs * 1e9 / iters as f64
}

/// The inner loops no `BENCHMARK.json` per-layer metric covers: a prefix
/// probe as a range of the relation's ordered map against the filtered
/// scan, nested-term matching, one TAG epoch, and the set-of-derivations
/// engine's cost per update with what its ledger holds afterwards.
fn micro(quick: bool, r: &mut Report) {
    let (sizes, probes): (&[usize], u32) = if quick {
        (&[1_000], 20_000)
    } else {
        (&[1_000, 10_000, 100_000], 500_000)
    };
    for &tuples in sizes {
        let mut rel = Relation::new();
        let keys = (tuples / 4) as i64;
        for i in 0..tuples as i64 {
            let t = Tuple::new(vec![Term::Int(i % keys), Term::Int(i)]);
            rel.insert(t, TupleMeta::default());
        }
        // Both loops draw the same key stream; the scan gets fewer probes
        // because each one is O(tuples).
        let mut out = Vec::new();
        let mut rng = StdRng::seed_from_u64(0x9806E);
        let select_ns = ns_per_call(probes, || {
            out.clear();
            let key = intern::intern_int(rng.gen_range(0..keys));
            rel.select(&[0], &[key], &mut out);
        });
        let mut rng = StdRng::seed_from_u64(0x9806E);
        let scan_ns = ns_per_call((probes / 50).max(10), || {
            out.clear();
            let key = intern::intern_int(rng.gen_range(0..keys));
            rel.scan_into(&[0], &[key], &mut out);
        });
        r.row(row![
            "loop" => "relation_probe", "tuples" => tuples,
            "select_per_s" => (1e9 / select_ns) as u64, "scan_per_s" => (1e9 / scan_ns) as u64,
        ]);
    }

    let pattern = [parse_term("f(X, g(Y, 3), X)").expect("pattern parses")];
    let value = parse_term("f(7, g(\"abc\", 3), 7)").expect("value parses");
    let value = [intern::intern_term(&value).expect("value is ground")];
    let reg = BuiltinRegistry::standard();
    let iters = if quick { 20_000 } else { 2_000_000 };
    let ns = ns_per_call(iters, || {
        let mut s = FlatSubst::new();
        flat_match_args(&reg, black_box(&pattern), black_box(&value), &mut s)
    });
    r.row(row!["loop" => "flat_match_nested", "ns_per_call" => ns]);

    let topo = Topology::square_grid(8);
    let tree = GatherTree::bfs(&topo, NodeId(0));
    let readings: Vec<f64> = (0..64).map(f64::from).collect();
    let ns = ns_per_call(if quick { 20 } else { 2_000 }, || {
        run_epoch(&topo, &tree, &readings, SimConfig::default()).1
    });
    r.row(row!["loop" => "tag_epoch_8x8", "ns_per_call" => ns]);

    // The repo benchmark's `engine_incr` stream: every node of a grid emits
    // one reading per second on both streams of the join, 30 % of them
    // deleted 6 s later. The ledger must forget what was retracted: the
    // join derives each tuple once, so its keys are the live tuples.
    let (m, groups) = if quick { (6, 72) } else { (12, 288) };
    let updates: Vec<Update> = UniformStreams {
        preds: vec![sym("r1"), sym("r2")],
        interval: 1_000,
        duration: 16_000,
        delete_fraction: 0.3,
        delete_lag: 6_000,
        groups,
        seed: 17,
    }
    .events(&Topology::square_grid(m))
    .into_iter()
    .map(|e| Update {
        pred: e.pred,
        tuple: e.tuple,
        kind: e.kind,
        ts: e.at,
    })
    .collect();
    let n = updates.len();
    let mut engine =
        IncrementalEngine::from_source(JOIN2, BuiltinRegistry::standard()).expect("join compiles");
    let ((), secs) = timed(|| {
        for u in updates {
            engine.apply(u).expect("join update applies");
        }
    });
    let derivations = engine.derivation_count();
    r.row(row![
        "loop" => "inc_apply", "updates" => n, "derivations" => derivations,
        "inc_apply_us_per_update" => secs * 1e6 / n as f64,
        "inc_ledger_bytes_per_derivation" => engine.ledger_bytes() / derivations.max(1),
    ]);
    r.gate(
        "inc_ledger_keys_equal_live_tuples",
        engine.db.len_of(sym("q")),
        engine.ledger_keys(),
    );
    r.gate(
        "inc_support_bytes_per_derivation",
        INC_SUPPORT_BYTES,
        engine.support_bytes() / derivations.max(1),
    );
}

/// `IncrementalEngine::support_bytes` per derivation, `--quick` or not:
/// every support holds one derivation, inline, as one 28-byte id slice (the
/// rule id and two arity-3 inputs). With a one-slot entry vector beside a
/// boxed slice of the two input tuples it read 64; with four slots reserved
/// for the first (`Vec::insert` into an empty vector), 160.
/// `inc_ledger_bytes_per_derivation` adds the tables, whose capacity follows
/// the hash layout of process-minted ids: 96 B on the quick stream, alone
/// or after the other cases, and 97 B at full size.
const INC_SUPPORT_BYTES: usize = 28;

// --------------------------------------------------------------- grid4k

/// `(grid, horizon ms, journal hash)` for `--quick` and the full
/// 4,000-node run. The horizon covers tree convergence after all links
/// inject at t = 100. They were `4aa0961d3d143fbb` / `808376104ede981a`
/// while τs, τj and the XY stagger were constants.
const GRID4K: [((u32, u32), u64, u64); 2] = [
    ((30, 20), 400_000, 0x0ec8_c5bc_21c8_54ff),
    ((80, 50), 4_000_000, 0x5f09_06a8_a4f1_9f2b),
];

/// Lossy logicH on the largest grid the suite runs, all links injected at
/// once: the simulator's wall time at thousands of nodes, and its journal
/// pinned.
fn grid4k(quick: bool, r: &mut Report) {
    let (grid, horizon, pin) = GRID4K[usize::from(!quick)];
    let sim = SimConfig {
        loss_prob: 0.05,
        ..seed17()
    };
    let mut d = sptree_deployment(LOGIC_H, grid, sim, 0);
    let journal = d.attach_journal();
    let (_, wall_s) = timed(|| d.run(horizon));
    let id = JournalId::of(&journal.take());
    r.gate("heap_journal_pin", hex(pin), hex(id.hash));
    r.row(row![
        "nodes" => u64::from(grid.0 * grid.1), "wall_s" => wall_s,
        "records" => id.records, "hash" => hex(id.hash),
    ]);
}

// ---------------------------------------------------------------- chaos

const HEAL_BY: u64 = 14_000;
const ACTIVE_UNTIL: u64 = 26_000;

/// Journal of the scripted crash / partition scenario. It was
/// `bc026db128c91410` while τs and τj were constants.
const CHAOS_PIN: u64 = 0x877b_8818_e7d1_889f;

/// The churny two-stream join on a 4×4 grid with the fault plane on, under
/// `faults`, run to quiescence.
fn chaos_run(seed: u64, faults: FaultSchedule) -> (Deployment, JournalId) {
    let topo = Topology::square_grid(4);
    let cfg = DeployConfig {
        rt: RtConfig {
            faults: Some(FaultPlaneCfg {
                active_until: ACTIVE_UNTIL,
            }),
            ..RtConfig::default()
        },
        sim: SimConfig {
            seed,
            faults,
            ..SimConfig::default()
        },
        ..DeployConfig::default()
    };
    let mut d = Deployment::new(JOIN2, BuiltinRegistry::standard(), topo.clone(), cfg)
        .expect("join compiles");
    let journal = d.attach_journal();
    d.schedule_all(
        UniformStreams {
            preds: vec![sym("r1"), sym("r2")],
            interval: 4_000,
            duration: 12_000,
            delete_fraction: 0.3,
            delete_lag: 5_000,
            groups: 6,
            seed,
        }
        .events(&topo),
    )
    .expect("workload events lie on the topology");
    d.run(240_000);
    assert!(d.sim.is_quiescent(), "chaos run must quiesce");
    let id = JournalId::of(&journal.take());
    (d, id)
}

/// Fault-plane cost and convergence: a seeded fault-rate sweep (crash–
/// restart pairs plus link flaps, all healed by `HEAL_BY`) against the
/// fault-free baseline with the plane on, then one scripted scenario whose
/// journal is pinned.
fn chaos(quick: bool, r: &mut Report) {
    let rates: &[(usize, usize)] = if quick {
        &[(0, 0), (2, 2)]
    } else {
        &[(0, 0), (1, 1), (2, 2), (3, 2)]
    };
    let (mut baseline_tx, mut violations) = (0, 0);
    for &(crashes, link_flaps) in rates {
        let faulty = crashes + link_flaps > 0;
        let faults = faulty.then(|| {
            let spec = RandomFaults {
                crashes,
                link_flaps,
                start: 1_000,
                heal_by: HEAL_BY,
            };
            FaultSchedule::random(101, &Topology::square_grid(4), spec)
        });
        let (d, _) = chaos_run(101, faults.unwrap_or_default());
        let tx = d.metrics().total_tx();
        if !faulty {
            baseline_tx = tx;
        }
        let conv = invariants::check_convergence(&d, &[sym("q")]);
        violations += conv.violations.len();
        let drops = d.metrics().lost_by_reason();
        // Healing completes at HEAL_BY; everything after is repair plus the
        // refresh rounds the plane keeps driving until `active_until`.
        let recovery_ms = faulty.then(|| d.sim.now().saturating_sub(HEAL_BY));
        r.row(row![
            "crashes" => crashes, "link_flaps" => link_flaps, "tx" => tx,
            "tx_vs_baseline" => tx as f64 / baseline_tx as f64,
            "drops_loss" => drops[0], "drops_dead_node" => drops[1],
            "drops_retries" => drops[2], "drops_partition" => drops[3],
            "convergence_violations" => conv.violations.len(), "recovery_ms" => recovery_ms,
        ]);
    }

    // Crash + restart of one node and one link flap.
    let script = || {
        FaultSchedule::new()
            .crash(1_337, NodeId(5))
            .restart(2_911, NodeId(5))
            .link_down(703, NodeId(1), NodeId(2))
            .link_up(4_441, NodeId(1), NodeId(2))
    };
    let (heap, heap_id) = chaos_run(42, script());
    violations += invariants::check_convergence(&heap, &[sym("q")])
        .violations
        .len();
    r.gate("heap_journal_pin", hex(CHAOS_PIN), hex(heap_id.hash));
    r.gate("convergence_violations", 0, violations);
    r.row(row![
        "scenario" => "scripted crash + link flap", "records" => heap_id.records,
        "hash" => hex(heap_id.hash),
    ]);
}

// ----------------------------------------------------------------- prov

/// `(grid, journal hash, off / on pairs)` for `--quick` (50 nodes) and the
/// full 98-node run. Loss-free: a lossy tree only partially converges,
/// which would make the per-result normalization meaningless. The 98-node
/// pin was `1fc1d84dcdc2fcc3` while τs, τj and the XY stagger were
/// constants.
const PROV: [((u32, u32), u64, usize); 2] = [
    ((10, 5), SPTREE_50_PIN, 3),
    ((14, 7), 0xfd05_fa81_5920_c77c, 7),
];

struct ProvRun {
    wall_s: f64,
    journal: JournalId,
    results: usize,
    records: Vec<ProvRecord>,
}

fn prov_run(grid: (u32, u32), provenance: Provenance) -> ProvRun {
    let mut d = sptree_deployment_observed(
        LOGIC_H,
        grid,
        seed17(),
        provenance,
        Telemetry::disabled(),
        200,
    );
    let journal = d.attach_journal();
    let (_, wall_s) = timed(|| d.run(2_000_000));
    ProvRun {
        wall_s,
        journal: JournalId::of(&journal.take()),
        results: d.results(sym("h")).len(),
        records: d.provenance_records(),
    }
}

fn proof_depth(p: &ProofNode) -> usize {
    1 + p
        .premises
        .iter()
        .map(|e| proof_depth(&e.premise))
        .max()
        .unwrap_or(0)
}

/// What the provenance plane costs: loss-free logicH with recording off
/// and on, same seed. One discarded warm-up, then alternating off / on
/// pairs (the order flips every pair) and the ratio of median walls — a
/// single cold-then-warm pair reads < 1 on a plane that only adds work.
/// The journals must be identical (pure observer), the disabled plane must
/// record nothing, and a sampled tuple must prove end to end with a
/// causally ordered critical path; DAG build and `why` are timed apart
/// because they are paid on query, never during the run.
fn prov(quick: bool, r: &mut Report) {
    let (grid, pin, pairs) = PROV[usize::from(!quick)];
    prov_run(grid, Provenance::disabled());
    let (mut off_s, mut on_s) = (Vec::new(), Vec::new());
    let (mut off, mut on) = (None, None);
    for pair in 0..pairs {
        for enabled in [pair % 2 == 1, pair % 2 == 0] {
            if enabled {
                on_s.push(on.insert(prov_run(grid, Provenance::enabled())).wall_s);
            } else {
                off_s.push(off.insert(prov_run(grid, Provenance::disabled())).wall_s);
            }
        }
    }
    let (off, on) = (off.expect("pairs ran"), on.expect("pairs ran"));
    r.gate("journal_pin", hex(pin), hex(off.journal.hash));
    r.gate("journal_identical_off_vs_on", off.journal, on.journal);
    r.gate("records_when_disabled", 0, off.records.len());

    let (dag, build_s) = timed(|| ProvDag::build(&on.records));
    let h = sym("h");
    let sample = dag.live_tuples(h).last().map(|t| (*t).clone());
    let (proof, why_s) = timed(|| sample.as_ref().and_then(|t| dag.why(h, t)));
    let path = proof.as_ref().map(critical_path).unwrap_or_default();
    let causal = !path.is_empty() && path.windows(2).all(|w| w[0].finish_at <= w[1].finish_at);
    r.gate("sampled_critical_path_is_causal", true, causal);

    let results = on.results as f64;
    let (off_s, on_s) = (median(&off_s), median(&on_s));
    let jsonl_bytes = to_jsonl(&on.records).len();
    r.row(row![
        "nodes" => (grid.0 * grid.1) as u64, "pairs" => pairs,
        "off_wall_s" => off_s, "on_wall_s" => on_s, "wall_overhead" => on_s / off_s,
        "journal_records" => off.journal.records, "hash" => hex(off.journal.hash),
        "results" => on.results, "prov_records" => on.records.len(),
        "records_per_result" => on.records.len() as f64 / results,
        "jsonl_bytes" => jsonl_bytes, "bytes_per_result" => jsonl_bytes as f64 / results,
        "dag_build_ms" => build_s * 1e3, "why_us" => why_s * 1e6,
        "sampled_tuple" => sample.map_or(String::new(), |t| format!("h{t}")),
        "proof_depth" => proof.as_ref().map_or(0, proof_depth), "critical_steps" => path.len(),
    ]);
}

// --------------------------------------------------------------- intern

/// The flat-tuple representation's two contracts: it is invisible in the
/// trace (the deployment journal equals the pre-refactor pin), and the
/// fixpoint loops run resolve-free — every id → `Term` materialization is
/// supposed to sit inside a declared `intern::boundary` scope, so a hot
/// delta other than zero is a resolve leaked into a loop. A boundary scope
/// can hide a boxed hot path from that counter (the PA probe once did 1.5M
/// boundary resolves here), so those are capped at one per journal record.
fn intern(_quick: bool, r: &mut Report) {
    // Centralized logicH on an 8×8 grid: no display or wire boundary at all.
    let topo = Topology::square_grid(8);
    let mut edb = Database::new();
    for a in topo.nodes() {
        for &b in topo.neighbors(a) {
            let link = vec![Term::Int(a.0 as i64), Term::Int(b.0 as i64)];
            edb.insert(sym("g"), Tuple::new(link));
        }
    }
    let engine =
        Engine::from_source(LOGIC_H, BuiltinRegistry::standard()).expect("logicH compiles");
    let before = intern::resolve_counts();
    let out = engine.run(&edb).expect("logicH evaluates");
    let engine_hot = intern::resolve_counts().hot - before.hot;
    assert!(out.len_of(sym("h")) > 0, "fixpoint produced no h");
    r.gate("engine_hot_resolves", 0, engine_hot);

    let mut d = sptree_deployment(LOGIC_H, (10, 5), seed17(), 200);
    let journal = d.attach_journal();
    let before = intern::resolve_counts();
    d.run(2_000_000);
    let after = intern::resolve_counts();
    let id = JournalId::of(&journal.take());
    let (hot, boundary) = (after.hot - before.hot, after.boundary - before.boundary);
    r.gate("journal_pin", hex(SPTREE_50_PIN), hex(id.hash));
    r.gate("deploy_hot_resolves", 0, hot);
    r.gate(
        "boundary_resolves_le_journal_records",
        true,
        boundary as usize <= id.records,
    );
    r.row(row![
        "engine_hot" => engine_hot, "deploy_hot" => hot,
        "deploy_boundary" => boundary, "journal_records" => id.records,
    ]);
}

// ----------------------------------------------------------------- diag

/// Windowed non-XY recursion (`examples/programs/mirror.dl`): finite only
/// under the frontier pass's windowed Herbrand domains.
const MIRROR: &str = r#"
    .base s.
    .window s 60000.
    .output m.
    m(pair(A, B)) :- s(A, B).
    m(pair(B, A)) :- m(pair(A, B)).
"#;

struct PredBounds {
    legacy: Option<u64>,
    frontier: Option<u64>,
    live: u64,
    peak_node: u64,
}

/// `legacy/frontier`, the form the pinned bound gates compare.
fn bounds(legacy: Option<u64>, frontier: Option<u64>) -> String {
    let show = |b: Option<u64>| b.map_or("unbounded".to_string(), |b| b.to_string());
    format!("{}/{}", show(legacy), show(frontier))
}

type BreaksRule = fn(&PredBounds) -> bool;

/// What every finite frontier bound must satisfy; a gate counts the
/// predicates that break each.
const BOUND_RULES: [(&str, BreaksRule); 4] = [
    ("frontier_unbounded", |b| b.frontier.is_none()),
    (
        "frontier_looser_than_legacy",
        |b| matches!((b.frontier, b.legacy), (Some(f), Some(l)) if f > l),
    ),
    ("frontier_unsound", |b| {
        b.frontier.is_some_and(|f| f < b.live.max(b.peak_node))
    }),
    ("frontier_over_10x_live", |b| {
        b.frontier.is_some_and(|f| b.live > 0 && f > 10 * b.live)
    }),
];

/// Static bound tightness: the legacy `S·Σ` bounds against the frontier-
/// width abstract interpreter on logicH / logicJ, with a loss-free
/// deployment per grid supplying the observed side — distinct live tuples
/// at convergence (what both bounds promise to dominate network-wide) and
/// the busiest node's peak (what `check_static_bounds` validates).
/// Tightness is bound ÷ live, as an integer ratio.
fn diag(quick: bool, r: &mut Report) {
    let grids: &[u32] = if quick { &[5] } else { &[5, 8] };
    let mut broken = [0usize; BOUND_RULES.len()];
    for &m in grids {
        for (label, src) in [("logicH", LOGIC_H), ("logicJ", LOGIC_J)] {
            let mut d = sptree_deployment(src, (m, m), seed17(), 200);
            d.run(4_000_000);
            let params = BoundParams {
                nodes: u64::from(m * m),
                default_events: 0,
                events: d.injected_events(),
            };
            let fr = frontier(&d.prog.analysis);
            let mut preds: Vec<Symbol> = fr.paper.keys().copied().collect();
            preds.sort_by_key(|p| p.as_str());
            for p in preds {
                let live = match params.events.get(&p) {
                    Some(&injected) => injected,
                    None => d.results(p).len() as u64,
                };
                let peak_node = d
                    .sim
                    .topology()
                    .nodes()
                    .filter_map(|id| d.sim.node(id).peak_pred_stored().find(|&(q, _)| q == p))
                    .map(|(_, peak)| peak)
                    .max();
                let b = PredBounds {
                    legacy: fr.paper.get(&p).and_then(|b| b.eval(&params)),
                    frontier: fr.bounds.get(&p).and_then(|b| b.eval(&params)),
                    live,
                    peak_node: peak_node.unwrap_or(0) as u64,
                };
                for (n, (_, breaks)) in broken.iter_mut().zip(BOUND_RULES) {
                    *n += usize::from(breaks(&b));
                }
                let tight = |bound: Option<u64>| bound.filter(|_| live > 0).map(|f| f / live);
                r.row(row![
                    "case" => format!("{label}-{m}x{m}"), "pred" => p.to_string(),
                    "legacy" => b.legacy, "frontier" => b.frontier, "live" => live,
                    "peak_node" => b.peak_node, "tightness" => tight(b.frontier),
                    "tightness_legacy" => tight(b.legacy),
                ]);
                // The 5×5 logicH rows anchor the artifact across processes:
                // legacy / frontier / live / busiest node's peak.
                if (label, m) == ("logicH", 5) && p.as_str() != "g" {
                    let got = format!("{}/{live}/{}", bounds(b.legacy, b.frontier), b.peak_node);
                    let want = match p.as_str() {
                        "h" => "4186/161/41/13",
                        _ => "2080/160/24/6",
                    };
                    r.gate(&format!("logicH_5x5_{p}_pin"), want, got);
                }
            }
        }
    }
    for ((name, _), n) in BOUND_RULES.iter().zip(broken) {
        r.gate(name, 0, n);
    }

    let prog = sensorlog_logic::parser::parse_program(MIRROR).expect("mirror parses");
    let an = sensorlog_logic::analyze::analyze(&prog, &BuiltinRegistry::standard())
        .expect("mirror analyzes");
    let params = BoundParams {
        nodes: 16,
        default_events: 20,
        events: Default::default(),
    };
    let m = sym("m");
    let f = frontier(&an);
    let [legacy, fr] = [&f.paper, &f.bounds].map(|b| b.get(&m).and_then(|b| b.eval(&params)));
    r.gate(
        "mirror_legacy_frontier",
        "unbounded/4800",
        bounds(legacy, fr),
    );
    r.row(row!["case" => "mirror", "pred" => "m", "legacy" => legacy, "frontier" => fr]);
}

// ---------------------------------------------------------------- scale

/// The ROADMAP re-anchor recipe's grids: 50 / 98 / 200 nodes; `--quick`
/// runs the first two.
const SCALE_GRIDS: [(u32, u32); 3] = [(10, 5), (14, 7), (20, 10)];

/// One pinned value per [`SCALE_GRIDS`] entry.
type PerGrid = [u64; 3];

/// `(label, source, gate prefix, pinned tx per grid, pinned settle ms per
/// grid)`: Example 3's tree program and the improved one of Secs. V/VI, so
/// a change to the node probe is priced on two programs. Both are on the
/// neighbourhood plane.
const SCALE: [(&str, &str, &str, PerGrid, PerGrid); 2] = [
    (
        "logicH",
        LOGIC_H,
        "",
        [1_149, 2_441, 5_279],
        [155, 165, 171],
    ),
    (
        "logicJ",
        LOGIC_J,
        "logicJ_",
        [729, 1_497, 3_159],
        [179, 161, 176],
    ),
];

/// The procedural flood's settle time per grid (ms): its one workload
/// event is the root's beacon at t = 0.
const SCALE_FLOOD_SETTLE: PerGrid = [206, 289, 362];

/// Link arrival spacings (ms), ROADMAP item 2(b)'s axis: at 1 and 20 ms the
/// links land before the tree settles; 200 ms is item 8's regime — wrong
/// from 6×6 up until the neighbourhood plane — and the spacing the tx and
/// oracle gates are pinned at.
const SCALE_SPACINGS: [u64; 3] = [1, 20, 200];
const SCALE_GATED_SPACING: u64 = 200;

/// How the loss-free tree programs under PA scale in node count (seed 17,
/// telemetry on) at each link spacing: wall, settle time (quiescence minus
/// the last link's arrival), tx and its store / probe /
/// result split, and the `core.join.probe` phase's count, share of wall and
/// cost per count — split into partials per count and cost per partial, so
/// the table says which of the two carries the growth — with the share of
/// fragment lookups served as a range and the lookups that found nothing
/// bound (`full_scans`), then the least-squares exponent of each in node
/// count. Gates at 200 ms are the tx counts, the settle times and whether
/// the run's results equal the oracle's; wall timings are rows, and so are
/// the oracle's count beside the run's (`results` / `oracle` / `spurious`)
/// at every spacing. The procedural flood's settle time and tx close the
/// case, one row and one settle gate per grid.
fn scale(quick: bool, r: &mut Report) {
    let sizes = if quick { 2 } else { SCALE_GRIDS.len() };
    for (program, src, gate_prefix, tx_pins, settle_pins) in SCALE {
        for spacing in SCALE_SPACINGS {
            let mut points = Vec::new();
            let pins = tx_pins.iter().zip(settle_pins);
            for (&grid, (tx_pin, settle_pin)) in SCALE_GRIDS.iter().zip(pins).take(sizes) {
                let nodes = u64::from(grid.0 * grid.1);
                let mut d = sptree_deployment_observed(
                    src,
                    grid,
                    seed17(),
                    Provenance::disabled(),
                    Telemetry::enabled(),
                    spacing,
                );
                let (quiet, wall_s) = timed(|| d.run(2_000_000));
                let settle_ms = quiet - last_event(&d);
                let tx = d.metrics().total_tx();
                let snap = d.telemetry_snapshot();
                let probe = snap.phase("core.join.probe").expect("PA run probes");
                let probe_s = probe.wall_ns as f64 / 1e9;
                let us_per_probe = probe_s * 1e6 / probe.count as f64;
                let partials = snap
                    .merged_hist("probe.partials_in")
                    .expect("probes carry partials")
                    .sum as f64;
                let ns_per_partial = probe.wall_ns as f64 / partials;
                let lookups = |how| snap.counter("global", how);
                let ranged = lookups("join.index.hits");
                let full_scans = lookups("join.index.full_scans");
                let walked = lookups("join.index.scans") + full_scans;
                // What the oracle wants beside what the run holds, so a
                // wrong count stops looking like a result.
                let held = oracle::check(&d, d.applied_events(), d.prog.outputs[0]);
                if spacing == SCALE_GATED_SPACING {
                    r.gate(&format!("{gate_prefix}tx_{nodes}_nodes"), tx_pin, tx);
                    let settle = format!("{gate_prefix}settle_ms_{nodes}_nodes");
                    r.gate(&settle, settle_pin, settle_ms);
                    let exact = format!("{gate_prefix}results_equal_oracle_{nodes}_nodes");
                    r.gate(&exact, true, held.exact());
                }
                let tx_of = |kind| d.metrics().tx_of(kind);
                r.row(row![
                    "program" => program, "spacing_ms" => spacing, "nodes" => nodes,
                    "wall_s" => wall_s, "settle_ms" => settle_ms, "tx" => tx,
                    "tx_store" => tx_of("store"),
                    "tx_probe" => tx_of("probe"), "tx_result" => tx_of("result"),
                    "results" => held.found, "oracle" => held.expected,
                    "spurious" => held.spurious.len(), "probe_calls" => probe.count,
                    "probe_share" => probe_s / wall_s, "us_per_probe" => us_per_probe,
                    "partials_per_probe" => partials / probe.count as f64,
                    "ns_per_partial" => ns_per_partial, "lookups" => ranged + walked,
                    "ranged_share" => ranged as f64 / (ranged + walked) as f64,
                    "full_scans" => full_scans,
                ]);
                points.push((
                    nodes as f64,
                    [wall_s, tx as f64, us_per_probe, ns_per_partial],
                ));
            }
            let exponent = |i: usize| {
                let series: Vec<(f64, f64)> = points.iter().map(|(n, ys)| (*n, ys[i])).collect();
                fit_exponent(&series)
            };
            r.row(row![
                "program" => program, "spacing_ms" => spacing, "fit" => "exponent in node count",
                "wall_s" => exponent(0), "tx" => exponent(1), "us_per_probe" => exponent(2),
                "ns_per_partial" => exponent(3),
            ]);
        }
    }
    for (&(cols, rows), settle_pin) in SCALE_GRIDS.iter().zip(SCALE_FLOOD_SETTLE).take(sizes) {
        let topo = Topology::grid(cols, rows);
        let flood = run_flood(&topo, NodeId(0), seed17());
        let nodes = u64::from(cols * rows);
        let settle_ms = flood.converged_at;
        r.gate(
            &format!("flood_settle_ms_{nodes}_nodes"),
            settle_pin,
            settle_ms,
        );
        r.row(row![
            "program" => "flood", "nodes" => nodes, "settle_ms" => settle_ms,
            "tx" => flood.total_messages,
        ]);
    }
}
