//! End-to-end chaos: crash–recovery, liveness retraction, and
//! convergence-to-oracle under scripted and random fault schedules.
//!
//! The contract under test (ISSUE 7 tentpole): once every crash has healed
//! (restart or permanent death), every partition has lifted, and the
//! network has quiesced, the surviving nodes' derived relations equal the
//! centralized oracle's fixpoint over the surviving EDB. A restarted node
//! takes its base facts, sequence and recent tombstones from the instance
//! that crashed, and replays them;
//! neighbors detect death by lease expiry and retract the dead node's
//! derivations through the incremental delete path; source-driven refresh
//! heals whatever the faults tore out of the middle of the network.

use proptest::prelude::*;
use sensorlog::core::invariants;
use sensorlog::core::runtime::FaultPlaneCfg;
use sensorlog::core::workload::UniformStreams;
use sensorlog::core::ProvRecord;
use sensorlog::prelude::*;
use sensorlog_netsim::{FaultSchedule, RandomFaults, TraceEvent};

fn sym(s: &str) -> Symbol {
    Symbol::intern(s)
}

/// Negation-free, window-free join over the `UniformStreams` schema
/// `pred(node_id, value, key)` (the fault model's supported fragment; see
/// DESIGN.md "Fault model & recovery").
const JOIN: &str = r#"
    .output q.
    q(X, Y) :- r1(N1, X, K), r2(N2, Y, K).
"#;

/// Fault-plane deployment on a 4×4 grid under `faults`. Chaos runs pin
/// `clock_skew_max` to 0: liveness versions are local times, and Theorem
/// 3's τc bound is orthogonal to what this plane tests.
fn chaos_deployment(seed: u64, active_until: u64, faults: FaultSchedule) -> Deployment {
    let plane = Some(FaultPlaneCfg { active_until });
    deployment(seed, plane, faults, Telemetry::disabled())
}

/// [`chaos_deployment`] with the fault plane `plane` (`None`: off) and the
/// telemetry handle `telemetry`.
fn deployment(
    seed: u64,
    plane: Option<FaultPlaneCfg>,
    faults: FaultSchedule,
    telemetry: Telemetry,
) -> Deployment {
    let cfg = DeployConfig {
        rt: RtConfig {
            faults: plane,
            ..RtConfig::default()
        },
        sim: SimConfig {
            seed,
            faults,
            ..SimConfig::default()
        },
        // Pure observer: chaos runs double as the provenance plane's
        // crash-coverage fixture (see `check_provenance` call sites).
        provenance: Provenance::enabled(),
        telemetry,
        ..DeployConfig::default()
    };
    Deployment::new(
        JOIN,
        BuiltinRegistry::standard(),
        Topology::square_grid(4),
        cfg,
    )
    .unwrap()
}

fn churn_events(topo: &Topology, seed: u64) -> Vec<WorkloadEvent> {
    UniformStreams {
        preds: vec![sym("r1"), sym("r2")],
        interval: 4_000,
        duration: 12_000,
        delete_fraction: 0.3,
        delete_lag: 5_000,
        groups: 6,
        seed,
    }
    .events(topo)
}

// The tentpole acceptance property: random fault schedules (crashes with
// restarts, link flaps) always converge to the oracle over the surviving
// EDB once healed. 8 cases ≈ 8 independent chaos scenarios.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn random_fault_schedules_converge(seed in 0u64..1_000, crashes in 1usize..=3, flaps in 0usize..=2) {
        let topo = Topology::square_grid(4);
        let schedule = FaultSchedule::random(seed, &topo, RandomFaults {
            crashes,
            link_flaps: flaps,
            start: 1_000,
            heal_by: 14_000,
        });
        let mut d = chaos_deployment(seed, 26_000, schedule);
        d.schedule_all(churn_events(&topo, seed)).unwrap();
        d.run(120_000);
        prop_assert!(d.sim.is_quiescent(), "chaos run must quiesce");
        let conv = invariants::check_convergence(&d, &[sym("q")]);
        prop_assert!(conv.ok(), "seed {seed}: {conv}");
        let structural = invariants::check_structural(&d);
        prop_assert!(structural.ok(), "seed {seed}: {structural}");
        let conservation = invariants::check_message_conservation(&d);
        prop_assert!(conservation.ok(), "seed {seed}: {conservation}");
        // Every surviving derived tuple must carry a well-founded proof in
        // the provenance DAG even after crashes, restarts, and link flaps.
        let prov = check_provenance(&d, &[sym("q")]);
        prop_assert!(prov.ok(), "seed {seed}: provenance violations {:?}", prov.violations);
    }
}

/// A reading of `r1` at `node`: `r1(node, v, 7)`.
fn reading(at: u64, node: u32, v: i64, kind: UpdateKind) -> WorkloadEvent {
    WorkloadEvent {
        at,
        node: NodeId(node),
        pred: sym("r1"),
        tuple: Tuple::new(vec![Term::Int(node as i64), Term::Int(v), Term::Int(7)]),
        kind,
    }
}

/// The seqs node `n` minted, in minting order: a base fact's when it was
/// generated, a derived tuple's when its owner propagated a new generation.
fn minted_seqs(d: &Deployment, n: NodeId) -> Vec<u32> {
    use UpdateKind::Insert;
    let minted = d.provenance_records().into_iter().filter_map(|r| match r {
        ProvRecord::Edb {
            node,
            id,
            kind: Insert,
            ..
        } => Some((node, id)),
        ProvRecord::Mint {
            owner,
            id,
            kind: Insert,
            ..
        } => Some((owner, id)),
        _ => None,
    });
    minted
        .filter(|&(node, _)| node == n)
        .map(|(_, id)| id.seq)
        .collect()
}

/// A node crashed and restarted twice ends each restart with the source
/// state (pred, tuple, id — ids included) of the same run without the
/// crashes, and never mints a seq it minted before a crash.
#[test]
fn restarted_source_state_matches_never_crashed_run() {
    use UpdateKind::{Delete, Insert};
    let n5 = NodeId(5);
    let events = vec![
        reading(100, 5, 1, Insert),
        reading(300, 5, 2, Insert),
        reading(400, 5, 3, Insert),
        // Between the crashes: a delete of a pre-crash fact (needs the
        // recovered facts) and a fresh insert (needs the recovered seq).
        reading(8_000, 5, 2, Delete),
        reading(9_000, 5, 4, Insert),
        // After the second crash: the same again, across both.
        reading(12_000, 5, 1, Delete),
        reading(13_000, 5, 5, Insert),
    ];
    // Neither crash window (1,000–1,500 and 10,000–10,500) holds a workload
    // event at the node: the never-crashed run sees the same event stream.
    let crashes = (FaultSchedule::new())
        .crash(1_000, n5)
        .restart(1_500, n5)
        .crash(10_000, n5)
        .restart(10_500, n5);
    let mut crashed = chaos_deployment(3, 20_000, crashes);
    let mut baseline = chaos_deployment(3, 20_000, FaultSchedule::new());
    for d in [&mut crashed, &mut baseline] {
        d.schedule_all(events.clone()).unwrap();
    }
    // Just after each restart, and once the run has quiesced.
    for horizon in [1_600, 10_600, 90_000] {
        crashed.run(horizon);
        baseline.run(horizon);
        let (a, b) = (crashed.node(n5), baseline.node(n5));
        assert!(
            !b.my_fact_records().is_empty(),
            "baseline node must hold facts"
        );
        assert_eq!(
            a.my_fact_records(),
            b.my_fact_records(),
            "at {horizon}: recovered state diverged from the never-crashed run"
        );
    }
    assert!(crashed.sim.is_quiescent());
    let seqs = minted_seqs(&crashed, n5);
    assert_eq!(seqs, [0, 1, 2, 3, 4], "a seq minted twice, or one lost");
    assert_eq!(seqs, minted_seqs(&baseline, n5));
    // And the healed network still matches the oracle.
    let conv = invariants::check_convergence(&crashed, &[sym("q")]);
    assert!(conv.ok(), "{conv}");
}

/// With the fault plane off a node keeps nothing across a crash: the
/// restarted node holds none of its readings, and retracting one it took
/// before the crash sends nothing.
#[test]
fn with_the_plane_off_a_restarted_node_keeps_nothing() {
    use UpdateKind::{Delete, Insert};
    let n5 = NodeId(5);
    let crash = FaultSchedule::new().crash(1_000, n5).restart(1_500, n5);
    let mut d = deployment(3, None, crash, Telemetry::disabled());
    d.schedule_all(vec![
        reading(100, 5, 1, Insert),
        reading(300, 5, 2, Insert),
        reading(8_000, 5, 2, Delete),
    ])
    .unwrap();
    d.run(7_999);
    assert!(d.sim.is_quiescent());
    assert!(d.node(n5).my_fact_records().is_empty());
    let tx = d.metrics().total_tx();
    assert!(tx > 0, "the pre-crash readings were sent");
    d.run(90_000);
    assert_eq!(
        d.applied_events().len(),
        3,
        "the retraction reached the node"
    );
    assert_eq!(
        d.metrics().total_tx(),
        tx,
        "a forgotten reading's retraction was sent"
    );
}

/// A node keeps its 64 newest retractions: one that retracted 70 readings
/// and holds 3 replays 3 + 64 records on restart.
#[test]
fn a_restart_replays_the_64_newest_tombstones() {
    use UpdateKind::{Delete, Insert};
    let n5 = NodeId(5);
    let crash = FaultSchedule::new().crash(5_000, n5).restart(5_500, n5);
    let plane = Some(FaultPlaneCfg {
        active_until: 20_000,
    });
    let tele = Telemetry::enabled();
    let mut d = deployment(3, plane, crash, tele);
    let mut events = Vec::new();
    for v in 0..73 {
        events.push(reading(100 + 10 * v as u64, 5, v, Insert));
    }
    for v in 0..70 {
        events.push(reading(2_000 + 10 * v as u64, 5, v, Delete));
    }
    d.schedule_all(events).unwrap();
    d.run(90_000);
    assert!(d.sim.is_quiescent());
    assert_eq!(d.node(n5).my_fact_records().len(), 3);
    let snap = d.telemetry_snapshot();
    assert_eq!(
        snap.counter("layer:core.faults", "recovery_replays"),
        3 + 64
    );
    let conv = invariants::check_convergence(&d, &[sym("q")]);
    assert!(conv.ok(), "{conv}");
}

/// A permanently dead node's facts are retracted network-wide: liveness
/// retraction (lease expiry → death flood → owner rescan → holddown →
/// incremental delete) is the paper's Theorem 3 delete path driven by
/// failure detection instead of an explicit delete event.
#[test]
fn dead_nodes_facts_are_retracted_by_liveness() {
    let crash = FaultSchedule::new().crash(9_000, NodeId(6));
    let mut d = chaos_deployment(9, 20_000, crash);
    // Node 6 inserts r1(6, 3); node 9 inserts r2(9, 3): q(6, 9) derives.
    // Node 6 then dies and never comes back — q(6, 9) must die with it.
    let mk = |at, node: u32, pred: &str, v: i64| WorkloadEvent {
        at,
        node: NodeId(node),
        pred: sym(pred),
        tuple: Tuple::new(vec![Term::Int(node as i64), Term::Int(v), Term::Int(3)]),
        kind: UpdateKind::Insert,
    };
    d.schedule_all(vec![mk(100, 6, "r1", 6), mk(200, 9, "r2", 9)])
        .unwrap();
    d.run(90_000);
    assert!(d.sim.is_quiescent());
    let q = d.results(sym("q"));
    assert!(
        q.is_empty(),
        "derivations supported only by the dead node must be retracted, got {q:?}"
    );
    let conv = invariants::check_convergence(&d, &[sym("q")]);
    assert!(conv.ok(), "{conv}");
    // The retraction shows up in provenance too: no tuple the network no
    // longer holds may be reported, and nothing held lacks a proof.
    let prov = check_provenance(&d, &[sym("q")]);
    assert!(prov.ok(), "provenance violations {:?}", prov.violations);
}

/// A healed partition reconverges: while the network is split the two
/// halves cannot exchange storage walks or probes; refresh after link_up
/// rebuilds whatever the partition dropped.
#[test]
fn partition_heals_to_oracle() {
    let topo = Topology::square_grid(4);
    // Cut the four vertical links between rows 1 and 2: a clean bisection.
    let mut schedule = FaultSchedule::new();
    for x in 0..4u32 {
        let a = topo.node_at(x, 1).unwrap();
        let b = topo.node_at(x, 2).unwrap();
        schedule = schedule.link_down(500, a, b).link_up(9_000, a, b);
    }
    let mut d = chaos_deployment(17, 24_000, schedule);
    d.schedule_all(churn_events(&topo, 17)).unwrap();
    d.run(120_000);
    assert!(d.sim.is_quiescent());
    let conv = invariants::check_convergence(&d, &[sym("q")]);
    assert!(conv.ok(), "{conv}");
    // The partition must actually have bitten something.
    let reasons = d.metrics().lost_by_reason();
    assert!(
        reasons.iter().sum::<u64>() > 0,
        "a 8.5-second bisection should drop traffic"
    );
}

/// Satellite 6: high churn (every tuple deleted shortly after insertion)
/// under crash–restart still settles and converges — the tightened
/// holddown clamp keeps retraction latency bounded instead of letting the
/// chaos-inflated lag tail stretch holddowns toward τj.
#[test]
fn high_churn_with_crashes_settles_and_converges() {
    let topo = Topology::square_grid(4);
    let crashes = (FaultSchedule::new())
        .crash(2_500, NodeId(10))
        .restart(4_000, NodeId(10))
        .crash(6_000, NodeId(3))
        .restart(7_500, NodeId(3));
    let mut d = chaos_deployment(23, 26_000, crashes);
    d.schedule_all(
        UniformStreams {
            preds: vec![sym("r1"), sym("r2")],
            interval: 2_000,
            duration: 10_000,
            delete_fraction: 0.8,
            delete_lag: 1_500,
            groups: 4,
            seed: 23,
        }
        .events(&topo),
    )
    .unwrap();
    d.run(120_000);
    assert!(d.sim.is_quiescent());
    let structural = invariants::check_structural(&d);
    assert!(structural.ok(), "{structural}");
    let conv = invariants::check_convergence(&d, &[sym("q")]);
    assert!(conv.ok(), "{conv}");
}

/// A scripted chaos run journals each injected fault at its tick, derives
/// something, and converges to the oracle once healed.
#[test]
fn scripted_chaos_journals_each_fault_and_converges() {
    let topo = Topology::square_grid(4);
    let faults = (FaultSchedule::new())
        .crash(1_337, NodeId(5))
        .restart(2_911, NodeId(5))
        .link_down(703, NodeId(1), NodeId(2))
        .link_up(4_441, NodeId(1), NodeId(2));
    let mut d = chaos_deployment(42, 20_000, faults);
    let journal = d.attach_journal();
    d.schedule_all(churn_events(&topo, 42)).unwrap();
    d.run(120_000);
    assert!(d.sim.is_quiescent());
    // Guard against vacuous convergence: the run must derive something.
    assert!(!d.results(sym("q")).is_empty(), "chaos run derived nothing");
    let conv = invariants::check_convergence(&d, &[sym("q")]);
    assert!(conv.ok(), "{conv}");
    let (n5, n1, n2) = (NodeId(5), NodeId(1), NodeId(2));
    let faults: Vec<_> = journal
        .take()
        .records
        .into_iter()
        .filter(|r| {
            matches!(
                r.event,
                TraceEvent::NodeFail { .. }
                    | TraceEvent::NodeRestart { .. }
                    | TraceEvent::LinkDown { .. }
                    | TraceEvent::LinkUp { .. }
            )
        })
        .map(|r| (r.at, r.event))
        .collect();
    assert_eq!(
        faults,
        [
            (703, TraceEvent::LinkDown { a: n1, b: n2 }),
            (1_337, TraceEvent::NodeFail { node: n5 }),
            (2_911, TraceEvent::NodeRestart { node: n5 }),
            (4_441, TraceEvent::LinkUp { a: n1, b: n2 }),
        ]
    );
}
