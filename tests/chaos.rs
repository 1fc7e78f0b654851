//! End-to-end chaos: crash–recovery, liveness retraction, and
//! convergence-to-oracle under scripted and random fault schedules.
//!
//! The contract under test (ISSUE 7 tentpole): once every crash has healed
//! (restart or permanent death), every partition has lifted, and the
//! network has quiesced, the surviving nodes' derived relations equal the
//! centralized oracle's fixpoint over the surviving EDB. Recovery replays
//! base facts from each node's durable checkpoint + journal tail;
//! neighbors detect death by lease expiry and retract the dead node's
//! derivations through the incremental delete path; source-driven refresh
//! heals whatever the faults tore out of the middle of the network.

use proptest::prelude::*;
use sensorlog::core::invariants;
use sensorlog::core::runtime::FaultPlaneCfg;
use sensorlog::core::workload::UniformStreams;
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

/// Fault-plane deployment on a 4×4 grid. Chaos runs pin `clock_skew_max`
/// to 0: liveness versions are local times, and Theorem 3's τc bound is
/// orthogonal to what this plane tests.
fn chaos_deployment(seed: u64, active_until: u64) -> Deployment {
    let cfg = DeployConfig {
        rt: RtConfig {
            faults: Some(FaultPlaneCfg {
                active_until,
                ..FaultPlaneCfg::default()
            }),
            ..RtConfig::default()
        },
        sim: SimConfig {
            seed,
            ..SimConfig::default()
        },
        // Pure observer: chaos runs double as the provenance plane's
        // crash-coverage fixture (see `check_provenance` call sites).
        provenance: Provenance::enabled(),
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
        let mut d = chaos_deployment(seed, 26_000);
        d.set_fault_schedule(schedule);
        d.schedule_all(churn_events(&topo, seed));
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

/// Satellite 3 (end-to-end flavor): a node restarted from its durable
/// checkpoint + journal tail ends the run with byte-identical source state
/// (pred, tuple, id — ids included) to the same run without the crash.
#[test]
fn restarted_source_state_matches_never_crashed_run() {
    let events = |node: u32| {
        let mk = |at, v: i64, kind| WorkloadEvent {
            at,
            node: NodeId(node),
            pred: sym("r1"),
            tuple: Tuple::new(vec![Term::Int(node as i64), Term::Int(v), Term::Int(7)]),
            kind,
        };
        vec![
            mk(100, 1, UpdateKind::Insert),
            mk(300, 2, UpdateKind::Insert),
            mk(400, 3, UpdateKind::Insert),
            // Post-restart activity: a delete of a pre-crash fact (needs
            // the recovered my_facts) and a fresh insert (needs the
            // recovered seq high-water so ids never collide).
            mk(8_000, 2, UpdateKind::Delete),
            mk(9_000, 4, UpdateKind::Insert),
        ]
    };
    let run = |crash: bool| {
        let mut d = chaos_deployment(3, 20_000);
        if crash {
            // Crash window 1000–1500 contains no workload events at the
            // node: the never-crashed run sees the identical event stream.
            d.set_fault_schedule(
                FaultSchedule::new()
                    .crash(1_000, NodeId(5))
                    .restart(1_500, NodeId(5)),
            );
        }
        d.schedule_all(events(5));
        d.run(90_000);
        assert!(d.sim.is_quiescent());
        d
    };
    let crashed = run(true);
    let baseline = run(false);
    let a = crashed.node(NodeId(5)).my_fact_records();
    let b = baseline.node(NodeId(5)).my_fact_records();
    assert!(!b.is_empty(), "baseline node must hold facts");
    assert_eq!(a, b, "recovered state diverged from the never-crashed run");
    // And the healed network still matches the oracle.
    let conv = invariants::check_convergence(&crashed, &[sym("q")]);
    assert!(conv.ok(), "{conv}");
}

/// A permanently dead node's facts are retracted network-wide: liveness
/// retraction (lease expiry → death flood → owner rescan → holddown →
/// incremental delete) is the paper's Theorem 3 delete path driven by
/// failure detection instead of an explicit delete event.
#[test]
fn dead_nodes_facts_are_retracted_by_liveness() {
    let mut d = chaos_deployment(9, 20_000);
    // Node 6 inserts r1(6, 3); node 9 inserts r2(9, 3): q(6, 9) derives.
    // Node 6 then dies and never comes back — q(6, 9) must die with it.
    let mk = |at, node: u32, pred: &str, v: i64| WorkloadEvent {
        at,
        node: NodeId(node),
        pred: sym(pred),
        tuple: Tuple::new(vec![Term::Int(node as i64), Term::Int(v), Term::Int(3)]),
        kind: UpdateKind::Insert,
    };
    d.set_fault_schedule(FaultSchedule::new().crash(9_000, NodeId(6)));
    d.schedule_all(vec![mk(100, 6, "r1", 6), mk(200, 9, "r2", 9)]);
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
    let mut d = chaos_deployment(17, 24_000);
    d.set_fault_schedule(schedule);
    d.schedule_all(churn_events(&topo, 17));
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
    let mut d = chaos_deployment(23, 26_000);
    d.set_fault_schedule(
        FaultSchedule::new()
            .crash(2_500, NodeId(10))
            .restart(4_000, NodeId(10))
            .crash(6_000, NodeId(3))
            .restart(7_500, NodeId(3)),
    );
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
    );
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
    let mut d = chaos_deployment(42, 20_000);
    let journal = d.attach_journal();
    d.set_fault_schedule(
        FaultSchedule::new()
            .crash(1_337, NodeId(5))
            .restart(2_911, NodeId(5))
            .link_down(703, NodeId(1), NodeId(2))
            .link_up(4_441, NodeId(1), NodeId(2)),
    );
    d.schedule_all(churn_events(&topo, 42));
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

// Durable-store equivalence (satellite 3, mechanism level): for any op
// sequence and any checkpoint cadence, recovery returns exactly the facts
// a never-crashed reference map holds, with the original ids, and a seq
// high-water above every id ever minted.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn durable_recovery_equals_reference(
        ops in proptest::collection::vec((0u8..8, 0u64..50), 1..60),
        checkpoint_every in 1usize..12,
    ) {
        use sensorlog::core::durable::DurableStore;
        use sensorlog::core::tupleid::TupleId;
        use std::collections::HashMap;
        let pred = sym("s");
        let mut store = DurableStore::new(checkpoint_every);
        let mut reference: HashMap<i64, TupleId> = HashMap::new();
        let mut seq = 0u32;
        for (i, &(slot, ts)) in ops.iter().enumerate() {
            let v = slot as i64;
            let tuple = Tuple::new(vec![Term::Int(v)]);
            match reference.get(&v) {
                None => {
                    let id = TupleId { node: NodeId(2), ts: ts + i as u64, seq };
                    seq += 1;
                    store.log_insert(pred, tuple, id);
                    reference.insert(v, id);
                }
                Some(&id) => {
                    store.log_delete(pred, tuple, id, ts + i as u64 + 1);
                    reference.remove(&v);
                }
            }
        }
        let r = store.recover();
        let mut expect: Vec<(i64, TupleId)> =
            reference.into_iter().collect();
        expect.sort();
        let got: Vec<(i64, TupleId)> = r.facts.iter().map(|(_, t, id)| {
            match t.get(0) { Term::Int(v) => (v, *id), _ => unreachable!() }
        }).collect();
        prop_assert_eq!(got, expect, "recovered live set diverged");
        prop_assert!(r.next_seq >= seq, "seq high-water must cover all minted ids");
    }
}
