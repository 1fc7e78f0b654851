//! End-to-end tests of the distributed deductive engine: every GPA
//! strategy must converge to the centralized oracle's quiescent result
//! (Theorems 1–3), across joins, negation, deletions, recursion, clock
//! skew, and the XY shortest-path-tree program.

use sensorlog_core::deploy::{DeployConfig, Deployment, EventError, WorkloadEvent};
use sensorlog_core::oracle;
use sensorlog_core::workload::{graph_edges, UniformStreams, VehicleWorkload};
use sensorlog_core::{PassMode, RtConfig, Strategy};
use sensorlog_eval::UpdateKind;
use sensorlog_logic::builtin::BuiltinRegistry;
use sensorlog_logic::{parse_fact, Symbol, Term, Tuple};
use sensorlog_netsim::{FaultSchedule, NodeId, SimConfig, Topology};
use std::collections::BTreeSet;

fn sym(s: &str) -> Symbol {
    Symbol::intern(s)
}

fn tuple(src: &str) -> Tuple {
    let (_, args) = parse_fact(src).unwrap();
    Tuple::new(args)
}

fn ev(at: u64, node: u32, pred: &str, fact: &str, kind: UpdateKind) -> WorkloadEvent {
    WorkloadEvent {
        at,
        node: NodeId(node),
        pred: sym(pred),
        tuple: tuple(fact),
        kind,
    }
}

/// The results of `pred` PA's owners minted and did not retract, by their
/// output logs: what they derived, whether or not a window has expired it
/// since.
fn minted(d: &Deployment, pred: Symbol) -> BTreeSet<Tuple> {
    let mut out = BTreeSet::new();
    for n in d.sim.nodes() {
        for (_, t, kind, _) in n.output_log().iter().filter(|e| e.0 == pred) {
            match kind {
                UpdateKind::Insert => out.insert(t.clone()),
                UpdateKind::Delete => out.remove(t),
            };
        }
    }
    out
}

fn config_with(strategy: Strategy) -> DeployConfig {
    DeployConfig {
        rt: RtConfig {
            strategy,
            ..RtConfig::default()
        },
        ..DeployConfig::default()
    }
}

fn all_strategies() -> Vec<Strategy> {
    vec![
        Strategy::Perpendicular { band_width: 1.0 },
        Strategy::NaiveBroadcast,
        Strategy::LocalStorage,
        Strategy::Centroid,
    ]
}

const JOIN2: &str = r#"
    .output q.
    q(X, Y) :- r1(X, T), r2(Y, T).
"#;

fn join2_events() -> Vec<WorkloadEvent> {
    vec![
        ev(10, 1, "r1", "r1(1, 7)", UpdateKind::Insert),
        ev(120, 14, "r2", "r2(2, 7)", UpdateKind::Insert),
        ev(300, 7, "r1", "r1(3, 8)", UpdateKind::Insert),
        ev(410, 12, "r2", "r2(4, 8)", UpdateKind::Insert),
        ev(500, 3, "r2", "r2(5, 9)", UpdateKind::Insert), // no partner
    ]
}

#[test]
fn two_stream_join_matches_oracle_on_all_strategies() {
    for strategy in all_strategies() {
        let topo = Topology::square_grid(4);
        let mut d = Deployment::new(
            JOIN2,
            BuiltinRegistry::standard(),
            topo,
            config_with(strategy),
        )
        .unwrap();
        let events = join2_events();
        d.schedule_all(events.clone()).unwrap();
        d.run(120_000);
        let report = oracle::check(&d, &events, sym("q"));
        assert!(
            report.exact(),
            "{}: missing {:?} spurious {:?}",
            strategy.name(),
            report.missing,
            report.spurious
        );
        assert_eq!(report.expected, 2);
    }
}

/// `==` with one unbound side is an assignment in the in-network join
/// exactly as in the centralized engine: the partial binds `Y` and
/// completes. The check behind it in body order (`Y > 15`) only becomes
/// evaluable once the assignment has run.
#[test]
fn eq_assignment_binds_in_network() {
    const ASSIGN: &str = r#"
        .output q.
        q(X, Y) :- p(X), r(X), Y > 15, Y == X * 10.
    "#;
    for strategy in [
        Strategy::Perpendicular { band_width: 1.0 },
        Strategy::Centroid,
    ] {
        let mut d = Deployment::new(
            ASSIGN,
            BuiltinRegistry::standard(),
            Topology::square_grid(4),
            config_with(strategy),
        )
        .unwrap();
        let events = vec![
            ev(10, 1, "p", "p(1)", UpdateKind::Insert),
            ev(120, 14, "r", "r(1)", UpdateKind::Insert),
            ev(300, 7, "p", "p(2)", UpdateKind::Insert),
            ev(410, 12, "r", "r(2)", UpdateKind::Insert),
            ev(500, 3, "r", "r(3)", UpdateKind::Insert),
            ev(600, 9, "p", "p(3)", UpdateKind::Insert),
        ];
        d.schedule_all(events.clone()).unwrap();
        d.run(120_000);
        let report = oracle::check(&d, &events, sym("q"));
        assert!(
            report.exact(),
            "{}: missing {:?} spurious {:?}",
            strategy.name(),
            report.missing,
            report.spurious
        );
        assert_eq!(report.expected, 2);
    }
}

#[test]
fn deletion_retracts_join_results() {
    for strategy in all_strategies() {
        let topo = Topology::square_grid(4);
        let mut d = Deployment::new(
            JOIN2,
            BuiltinRegistry::standard(),
            topo,
            config_with(strategy),
        )
        .unwrap();
        let events = vec![
            ev(10, 1, "r1", "r1(1, 7)", UpdateKind::Insert),
            ev(120, 14, "r2", "r2(2, 7)", UpdateKind::Insert),
            // Retract the r1 side well after the join completed.
            ev(20_000, 1, "r1", "r1(1, 7)", UpdateKind::Delete),
        ];
        d.schedule_all(events.clone()).unwrap();
        d.run(200_000);
        let report = oracle::check(&d, &events, sym("q"));
        assert!(
            report.exact(),
            "{}: missing {:?} spurious {:?}",
            strategy.name(),
            report.missing,
            report.spurious
        );
        assert_eq!(report.expected, 0, "join result must be retracted");
    }
}

const UNCOV: &str = r#"
    .output uncov.
    cov(L, T) :- veh("enemy", L, T), veh("friendly", F, T), dist(L, F) <= 5.
    uncov(L, T) :- not cov(L, T), veh("enemy", L, T).
"#;

#[test]
fn negation_example1_all_strategies() {
    for strategy in all_strategies() {
        let topo = Topology::square_grid(4);
        let mut d = Deployment::new(
            UNCOV,
            BuiltinRegistry::standard(),
            topo,
            config_with(strategy),
        )
        .unwrap();
        let events = vec![
            // Enemy at 10, covered by friendly at 12.
            ev(10, 2, "veh", r#"veh("enemy", 10, 1)"#, UpdateKind::Insert),
            ev(
                100,
                5,
                "veh",
                r#"veh("friendly", 12, 1)"#,
                UpdateKind::Insert,
            ),
            // Enemy at 100, uncovered.
            ev(200, 9, "veh", r#"veh("enemy", 100, 1)"#, UpdateKind::Insert),
        ];
        d.schedule_all(events.clone()).unwrap();
        d.run(200_000);
        let report = oracle::check(&d, &events, sym("uncov"));
        assert!(
            report.exact(),
            "{}: missing {:?} spurious {:?}",
            strategy.name(),
            report.missing,
            report.spurious
        );
        let results = d.results(sym("uncov"));
        assert!(results.contains(&tuple("x(100, 1)")));
        assert!(!results.contains(&tuple("x(10, 1)")));
    }
}

#[test]
fn negation_blocker_deletion_reraises_alert() {
    let topo = Topology::square_grid(4);
    let mut d = Deployment::new(
        UNCOV,
        BuiltinRegistry::standard(),
        topo,
        config_with(Strategy::Perpendicular { band_width: 1.0 }),
    )
    .unwrap();
    let events = vec![
        ev(10, 2, "veh", r#"veh("enemy", 10, 1)"#, UpdateKind::Insert),
        ev(
            100,
            5,
            "veh",
            r#"veh("friendly", 12, 1)"#,
            UpdateKind::Insert,
        ),
        // The friendly leaves much later: alert must come back.
        ev(
            60_000,
            5,
            "veh",
            r#"veh("friendly", 12, 1)"#,
            UpdateKind::Delete,
        ),
    ];
    d.schedule_all(events.clone()).unwrap();
    d.run(400_000);
    let report = oracle::check(&d, &events, sym("uncov"));
    assert!(
        report.exact(),
        "missing {:?} spurious {:?}",
        report.missing,
        report.spurious
    );
    assert!(d.results(sym("uncov")).contains(&tuple("x(10, 1)")));
}

#[test]
fn two_blockers_commute_distributed() {
    let topo = Topology::square_grid(4);
    let mut d = Deployment::new(
        UNCOV,
        BuiltinRegistry::standard(),
        topo,
        config_with(Strategy::Perpendicular { band_width: 1.0 }),
    )
    .unwrap();
    let events = vec![
        ev(10, 2, "veh", r#"veh("enemy", 10, 1)"#, UpdateKind::Insert),
        ev(
            5_000,
            5,
            "veh",
            r#"veh("friendly", 11, 1)"#,
            UpdateKind::Insert,
        ),
        ev(
            10_000,
            8,
            "veh",
            r#"veh("friendly", 12, 1)"#,
            UpdateKind::Insert,
        ),
        ev(
            60_000,
            5,
            "veh",
            r#"veh("friendly", 11, 1)"#,
            UpdateKind::Delete,
        ),
        ev(
            120_000,
            8,
            "veh",
            r#"veh("friendly", 12, 1)"#,
            UpdateKind::Delete,
        ),
    ];
    d.schedule_all(events.clone()).unwrap();
    d.run(600_000);
    let report = oracle::check(&d, &events, sym("uncov"));
    assert!(
        report.exact(),
        "missing {:?} spurious {:?}",
        report.missing,
        report.spurious
    );
    assert!(d.results(sym("uncov")).contains(&tuple("x(10, 1)")));
}

#[test]
fn derived_stream_cascades_through_strata() {
    let src = r#"
        .output c.
        a(X) :- base(X).
        b(X) :- a(X), X > 0.
        c(X) :- b(X), not blocked(X).
    "#;
    let topo = Topology::square_grid(4);
    let mut d = Deployment::new(
        src,
        BuiltinRegistry::standard(),
        topo,
        config_with(Strategy::Perpendicular { band_width: 1.0 }),
    )
    .unwrap();
    let events = vec![
        ev(10, 0, "base", "base(5)", UpdateKind::Insert),
        ev(20, 15, "base", "base(-3)", UpdateKind::Insert),
        ev(30_000, 7, "blocked", "blocked(5)", UpdateKind::Insert),
    ];
    d.schedule_all(events.clone()).unwrap();
    d.run(400_000);
    let report = oracle::check(&d, &events, sym("c"));
    assert!(
        report.exact(),
        "missing {:?} spurious {:?}",
        report.missing,
        report.spurious
    );
    assert_eq!(report.expected, 0); // c(5) blocked, c(-3) filtered by X > 0
}

/// A selection reads `temp` alone, so no rule joins it and no probe ever
/// looks for it: under every strategy but Centroid, which ships each
/// reading to its server, a reading is neither stored nor walked and joins
/// where it is sensed; only its results travel. One reading per node of a
/// 10×10 grid, 48 of them above 40.
#[test]
fn a_selection_is_neither_stored_nor_walked() {
    let src = ".output alert.\nalert(N, T) :- temp(N, T), T > 40.\n";
    let events: Vec<WorkloadEvent> = (0..100u32)
        .map(|i| {
            let fact = format!("temp({i}, {})", i * 37 % 80);
            ev(
                1_000 + 100 * u64::from(i),
                i,
                "temp",
                &fact,
                UpdateKind::Insert,
            )
        })
        .collect();
    let strategies = all_strategies();
    for (strategy, tx) in strategies.into_iter().zip([313, 313, 313, 500]) {
        let topo = Topology::square_grid(10);
        let reg = BuiltinRegistry::standard();
        let mut d = Deployment::new(src, reg, topo, config_with(strategy)).unwrap();
        d.schedule_all(events.clone()).unwrap();
        d.run(60_000_000);
        let report = oracle::check(&d, &events, sym("alert"));
        let name = strategy.name();
        assert!(
            report.exact() && report.expected == 48,
            "{name}: {report:?}"
        );
        let sent = d.metrics().tx_by_kind();
        let walked = ["store", "probe"].map(|kind| sent.get(kind).copied().unwrap_or(0));
        assert_eq!((d.metrics().total_tx(), walked), (tx, [0, 0]), "{name}");
    }
}

/// Where an update goes is decided per predicate, not per occurrence: `r1`,
/// read alone by `a` and joined by `q`, keeps its storage and probe walks
/// though no `r2` ever arrives, and without `q` it has none.
#[test]
fn a_predicate_read_alone_and_joined_keeps_its_walks() {
    let alone = ".output a.\na(X, K) :- r1(X, K).\n";
    let both = format!("{alone}q(X, Y) :- r1(X, K), r2(Y, K).\n");
    let events = vec![
        ev(10, 1, "r1", "r1(1, 7)", UpdateKind::Insert),
        ev(300, 14, "r1", "r1(3, 8)", UpdateKind::Insert),
        ev(30_000, 1, "r1", "r1(1, 7)", UpdateKind::Delete),
    ];
    for (src, walks) in [(alone, false), (both.as_str(), true)] {
        for strategy in all_strategies() {
            let topo = Topology::square_grid(4);
            let reg = BuiltinRegistry::standard();
            let mut d = Deployment::new(src, reg, topo, config_with(strategy)).unwrap();
            d.schedule_all(events.clone()).unwrap();
            d.run(400_000);
            let report = oracle::check(&d, &events, sym("a"));
            let name = strategy.name();
            assert!(report.exact() && report.expected == 1, "{name}: {report:?}");
            let sent = d.metrics().tx_by_kind();
            let walked = ["store", "probe"].map(|kind| sent.get(kind).copied().unwrap_or(0));
            let want = walks && strategy != Strategy::Centroid;
            assert_eq!(
                walked.iter().sum::<u64>() > 0,
                want,
                "{name} {src}: {sent:?}"
            );
        }
    }
}

#[test]
fn multipass_matches_onepass_results() {
    let src = r#"
        .output q.
        q(X, Y, Z) :- r1(X, T), r2(Y, T), r3(Z, T).
    "#;
    let events = vec![
        ev(10, 1, "r1", "r1(1, 7)", UpdateKind::Insert),
        ev(200, 14, "r2", "r2(2, 7)", UpdateKind::Insert),
        ev(400, 7, "r3", "r3(3, 7)", UpdateKind::Insert),
        ev(600, 9, "r2", "r2(4, 7)", UpdateKind::Insert),
    ];
    let mut results = Vec::new();
    for mode in [PassMode::OnePass, PassMode::MultiPass] {
        let topo = Topology::square_grid(4);
        let mut cfg = config_with(Strategy::Perpendicular { band_width: 1.0 });
        cfg.rt.pass_mode = mode;
        let mut d = Deployment::new(src, BuiltinRegistry::standard(), topo, cfg).unwrap();
        d.schedule_all(events.clone()).unwrap();
        d.run(200_000);
        let report = oracle::check(&d, &events, sym("q"));
        assert!(
            report.exact(),
            "{mode:?}: missing {:?} spurious {:?}",
            report.missing,
            report.spurious
        );
        results.push(d.results(sym("q")));
    }
    assert_eq!(results[0], results[1]);
    assert_eq!(results[0].len(), 2);
}

const JOIN3: &str = r#"
    .output q.
    q(X, Y) :- r1(N1, X, K), r2(N2, Y, K).
"#;

#[test]
fn pa_beats_centroid_total_cost_on_larger_grid() {
    // The headline claim (Fig. 4 shape): PA's communication grows like
    // O(n^1.5) vs Centroid's concentration at the server, and PA balances
    // load while Centroid hot-spots the center.
    let src = JOIN3;
    let m = 8;
    let w = UniformStreams {
        preds: vec![sym("r1"), sym("r2")],
        interval: 4_000,
        duration: 20_000,
        delete_fraction: 0.0,
        delete_lag: 0,
        // Selective join: about one partner per key, so result volume stays
        // comparable to input volume (the paper's periodic-gathering regime).
        groups: 256,
        seed: 11,
    };
    let mut loads = Vec::new();
    for strategy in [
        Strategy::Perpendicular { band_width: 1.0 },
        Strategy::Centroid,
    ] {
        let topo = Topology::square_grid(m);
        let mut d = Deployment::new(
            src,
            BuiltinRegistry::standard(),
            topo.clone(),
            config_with(strategy),
        )
        .unwrap();
        let events = w.events(&topo);
        d.schedule_all(events.clone()).unwrap();
        d.run(3_000_000);
        let report = oracle::check(&d, &events, sym("q"));
        assert!(
            report.exact(),
            "{}: missing {} spurious {}",
            strategy.name(),
            report.missing.len(),
            report.spurious.len()
        );
        assert!(report.expected > 0, "workload must produce join results");
        // Both placement strategies must respect the static analyzer's
        // per-predicate storage and communication envelopes.
        let bounds = sensorlog_core::invariants::check_static_bounds(&d);
        assert!(
            bounds.ok(),
            "{}: static bounds violated: {bounds}",
            strategy.name()
        );
        loads.push((
            strategy.name(),
            d.metrics().max_node_load(),
            d.metrics().imbalance(),
        ));
    }
    // PA's hottest node must carry less than Centroid's server.
    assert!(
        loads[0].1 < loads[1].1,
        "PA max load {} !< centroid max load {}",
        loads[0].1,
        loads[1].1
    );
}

#[test]
fn clock_skew_tolerated() {
    let topo = Topology::square_grid(4);
    let mut cfg = config_with(Strategy::Perpendicular { band_width: 1.0 });
    cfg.sim.clock_skew_max = 50;
    let mut d = Deployment::new(UNCOV, BuiltinRegistry::standard(), topo, cfg).unwrap();
    let events = vec![
        ev(10, 2, "veh", r#"veh("enemy", 10, 1)"#, UpdateKind::Insert),
        ev(
            5_000,
            5,
            "veh",
            r#"veh("friendly", 12, 1)"#,
            UpdateKind::Insert,
        ),
        ev(
            40_000,
            9,
            "veh",
            r#"veh("enemy", 100, 1)"#,
            UpdateKind::Insert,
        ),
    ];
    d.schedule_all(events.clone()).unwrap();
    d.run(300_000);
    let report = oracle::check(&d, &events, sym("uncov"));
    assert!(
        report.exact(),
        "missing {:?} spurious {:?}",
        report.missing,
        report.spurious
    );
}

/// τs is its storage leg's bound, and the join needs all of it. Every hop
/// takes 29 or 30 ms, at most the 30 ms bound, and two partners are sensed
/// at once at the two ends of an 8-wide row: each one's replica reaches the
/// other's node 203–210 ms later, and each probe starts there 7 × 30 =
/// 210 ms after its update, so the join finds the pair. Priced one hop
/// short (180 ms), both probes pass before either replica can land and the
/// result is lost.
#[test]
fn a_join_waits_for_its_whole_storage_leg() {
    let topo = Topology::grid(8, 3);
    let mut cfg = config_with(Strategy::Perpendicular { band_width: 1.0 });
    cfg.sim.hop_delay = (29, 30);
    let mut d = Deployment::new(JOIN2, BuiltinRegistry::standard(), topo, cfg).unwrap();
    for pred in ["r1", "r2"] {
        assert_eq!(d.net().wait(d.prog.waits(sym(pred)).store), 7 * 30);
    }
    let events = vec![
        ev(100, 0, "r1", "r1(1, 7)", UpdateKind::Insert),
        ev(100, 7, "r2", "r2(2, 7)", UpdateKind::Insert),
    ];
    d.schedule_all(events.clone()).unwrap();
    d.run(60_000);
    let report = oracle::check(&d, &events, sym("q"));
    assert!(report.exact() && report.expected == 1, "{report:?}");
}

#[test]
fn logich_distributed_builds_bfs_tree() {
    // Example 3 end-to-end: the XY-stratified shortest-path-tree program
    // running in-network must compute BFS depths on a 3x3 grid with root 0.
    let src = r#"
        .output h.
        h(0, 0, 0).
        h(0, X, 1) :- g(0, X).
        hp(Y, D + 1) :- h(_, Y, D'), (D + 1) > D', h(_, X, D), g(X, Y).
        h(X, Y, D + 1) :- g(X, Y), h(_, X, D), not hp(Y, D + 1).
    "#;
    let topo = Topology::square_grid(3);
    let mut d = Deployment::new(
        src,
        BuiltinRegistry::standard(),
        topo.clone(),
        config_with(Strategy::Perpendicular { band_width: 1.0 }),
    )
    .unwrap();
    // Edges injected with spacing so storage phases settle.
    let events = graph_edges(&topo, 100, 400);
    d.schedule_all(events.clone()).unwrap();
    d.run(4_000_000);
    let results = d.results(sym("h"));
    // Every node y must appear in h at exactly its BFS depth from node 0.
    for node in topo.nodes() {
        let (x, y) = topo.grid_coords(node).unwrap();
        let depth = (x + y) as i64;
        let at_depth: Vec<&Tuple> = results
            .iter()
            .filter(|t| t.get(1) == Term::Int(node.0 as i64))
            .collect();
        assert!(
            !at_depth.is_empty(),
            "node {node} missing from the tree: {results:?}"
        );
        let min_depth = at_depth
            .iter()
            .map(|t| t.get(2).as_i64().unwrap())
            .min()
            .unwrap();
        assert_eq!(min_depth, depth, "node {node} at wrong depth");
        // No stale deeper entries survive (hp retractions worked).
        let max_depth = at_depth
            .iter()
            .map(|t| t.get(2).as_i64().unwrap())
            .max()
            .unwrap();
        assert_eq!(
            max_depth, depth,
            "node {node} has stale deeper entries: {at_depth:?}"
        );
    }
    // Cross-validate against the static analyzer: no node's per-predicate
    // peak storage nor the network's message total may exceed the bounds
    // `sensorlog check` derives for this program (paper Sec. V).
    let bounds = sensorlog_core::invariants::check_static_bounds(&d);
    assert!(bounds.ok(), "static bounds violated: {bounds}");
}

#[test]
fn message_loss_degrades_completeness_not_soundness_much() {
    let topo = Topology::square_grid(6);
    let w = UniformStreams {
        preds: vec![sym("r1"), sym("r2")],
        interval: 5_000,
        duration: 20_000,
        delete_fraction: 0.0,
        delete_lag: 0,
        groups: 18,
        seed: 5,
    };
    let mut cfg = config_with(Strategy::Perpendicular { band_width: 1.0 });
    cfg.sim.loss_prob = 0.10;
    cfg.sim.seed = 22;
    let topo2 = topo.clone();
    let mut d = Deployment::new(JOIN3, BuiltinRegistry::standard(), topo2, cfg).unwrap();
    let events = w.events(&topo);
    d.schedule_all(events.clone()).unwrap();
    d.run(3_000_000);
    let report = oracle::check(&d, &events, sym("q"));
    assert!(report.expected > 0, "workload must produce join results");
    // Loss may drop results but fabricated results should be rare.
    assert!(
        report.completeness() > 0.3,
        "completeness {}",
        report.completeness()
    );
    assert!(report.soundness() > 0.7, "soundness {}", report.soundness());
}

/// Fig. 7's program at radius `r`: a spatial join over two streams whose
/// one statement of the radius is the rule's `dist` bound.
fn fig7_program(r: f64) -> String {
    format!(".output q.\nq(L1, L2, T) :- s1(L1, T), s2(L2, T), dist(L1, L2) <= {r}.\n")
}

/// One `s1` and one `s2` reading per node, each carrying the node's own
/// position as its location, all on one key: every pair within the radius
/// joins.
fn located_events(topo: &Topology) -> Vec<WorkloadEvent> {
    let mut events = Vec::new();
    for node in topo.nodes() {
        let (x, y) = topo.position(node);
        for (i, pred) in ["s1", "s2"].into_iter().enumerate() {
            let point = |c: f64| match topo.grid_dims() {
                Some(_) => Term::Int(c as i64),
                None => Term::float(c),
            };
            events.push(WorkloadEvent {
                at: 1_000 + (node.0 as u64 * 2 + i as u64) * 500,
                node,
                pred: sym(pred),
                tuple: Tuple::new(vec![
                    Term::app("loc", vec![point(x), point(y)]),
                    Term::Int(7),
                ]),
                kind: UpdateKind::Insert,
            });
        }
    }
    events
}

/// The rule's `dist` bound cuts PA's regions: on a 6×6 grid, radius 2 is
/// exact and sends fewer messages than radius 100, which cuts nothing.
#[test]
fn dist_bound_truncates_regions_and_stays_exact() {
    let run = |r: f64| {
        let topo = Topology::square_grid(6);
        let events = located_events(&topo);
        let mut d = Deployment::new(
            &fig7_program(r),
            BuiltinRegistry::standard(),
            topo,
            config_with(Strategy::Perpendicular { band_width: 1.0 }),
        )
        .unwrap();
        assert_eq!(d.prog.place(sym("s1")).radius.map(|rad| rad.r), Some(r));
        d.schedule_all(events.clone()).unwrap();
        d.run(120_000_000);
        let report = oracle::check(&d, &events, sym("q"));
        assert!(
            report.exact() && report.expected > 0,
            "r = {r}: missing {:?} spurious {:?}",
            report.missing,
            report.spurious
        );
        d.metrics().total_tx()
    };
    let (cut, whole) = (run(2.0), run(100.0));
    assert!(cut < whole, "radius 2 sent {cut}, radius 100 sent {whole}");
}

/// LocalStorage cut to a radius: each join walk is the snake of every node
/// filtered to the nodes within 4 of the update's own, so it skips members
/// of the snake, where PA's cut rows and columns only end early. On an 8×8
/// grid the run is exact, and its transmissions, its store and probe sends
/// (a tuple stored alone sends no storage walk) and the probe steps
/// processed are pinned.
#[test]
fn local_storage_cut_to_a_radius_is_exact_and_pinned() {
    let topo = Topology::square_grid(8);
    let events = located_events(&topo);
    let mut d = Deployment::new(
        &fig7_program(4.0),
        BuiltinRegistry::standard(),
        topo,
        config_with(Strategy::LocalStorage),
    )
    .unwrap();
    assert_eq!(d.prog.cut_radius(sym("s1")), Some(4.0));
    d.schedule_all(events.clone()).unwrap();
    d.run(120_000_000);
    let report = oracle::check(&d, &events, sym("q"));
    assert!(
        report.exact() && report.expected > 0,
        "missing {:?} spurious {:?}",
        report.missing,
        report.spurious
    );
    let m = d.metrics();
    let probes: u64 = d.node_stats().iter().map(|s| s.probes_processed).sum();
    let got = (m.total_tx(), m.tx_of("store"), m.tx_of("probe"), probes);
    assert_eq!(got, (14_055, 0, 4_714, 3_928));
}

/// Profile (B): an event whose location is not its node's position would
/// miss partners in regions cut around its node, so scheduling it stops the
/// deployment cutting, and the run stays exact.
#[test]
fn mislocated_event_stops_the_cut() {
    let topo = Topology::square_grid(6);
    let mut events = located_events(&topo);
    let mut d = Deployment::new(
        &fig7_program(2.0),
        BuiltinRegistry::standard(),
        topo,
        config_with(Strategy::Perpendicular { band_width: 1.0 }),
    )
    .unwrap();
    // Node 7 is (1, 1); its `s1` reading claims (3, 3) on a key only
    // node 23's `s2` at (5, 3) shares. Cut around node 7, the two regions
    // would not meet.
    events[14].tuple = tuple("s1(loc(3, 3), 9)");
    events[47].tuple = tuple("s2(loc(5, 3), 9)");
    assert_eq!((events[14].node, events[47].node), (NodeId(7), NodeId(23)));
    assert_eq!(d.prog.cut_radius(sym("s1")), Some(2.0));
    d.schedule_all(events.clone()).unwrap();
    assert_eq!(d.prog.cut_radius(sym("s1")), None);
    d.run(120_000_000);
    let report = oracle::check(&d, &events, sym("q"));
    assert!(
        report.exact() && report.expected > 0,
        "missing {:?} spurious {:?}",
        report.missing,
        report.spurious
    );
    let moved = tuple("q(loc(3, 3), loc(5, 3), 9)");
    assert!(d.results(sym("q")).contains(&moved));
}

/// Once tuples have been stored in cut regions, the cut cannot be undone
/// for them: a mislocated event is refused, naming the rule whose bound
/// cut them, and the events already queued run exact.
#[test]
fn mislocated_event_after_the_cut_is_refused() {
    let topo = Topology::square_grid(6);
    let events = located_events(&topo);
    let mut d = Deployment::new(
        &fig7_program(2.0),
        BuiltinRegistry::standard(),
        topo,
        config_with(Strategy::Perpendicular { band_width: 1.0 }),
    )
    .unwrap();
    d.schedule_all(events.clone()).unwrap();
    d.run(5_000);
    assert!(!d.applied_events().is_empty());
    let moved = tuple("s1(loc(3, 3), 7)");
    let late = ev(90_000, 7, "s1", "s1(loc(3, 3), 7)", UpdateKind::Insert);
    let err = d.schedule(late).unwrap_err();
    assert_eq!(
        err,
        EventError::Mislocated {
            pred: sym("s1"),
            col: 0,
            rule: 0,
            node: NodeId(7),
            position: (1.0, 1.0),
            found: Some(moved.get(0)),
        }
    );
    assert_eq!(
        err.to_string(),
        "`s1` event at n7: column 0 is loc(3, 3), not the node's position loc(1, 1), \
         and regions are already cut to rule #0's `dist` bound"
    );
    assert_eq!(d.prog.cut_radius(sym("s1")), Some(2.0));
    d.run(120_000_000);
    let report = oracle::check(&d, &events, sym("q"));
    assert!(report.exact() && report.expected > 0);
    assert_eq!(d.applied_events().len(), events.len());
}

/// Example 1's `cov` rule alone bounds `veh` by `dist(L, F) <= 8`, but
/// `VehicleWorkload` puts the observing node's id, not its position, in
/// `veh`'s location column, and `dist` of two ids is `|a - b|`: ids one
/// apart can be 11 hops apart on a 12×12 grid. The sightings are valid
/// data: the deployment does not cut, and PA and Centroid both match the
/// oracle.
#[test]
fn node_id_locations_run_uncut_and_exact() {
    let src = ".window veh 8000.\n.output cov.\n\
               cov(L, T) :- veh(\"enemy\", L, T), veh(\"friendly\", F, T), dist(L, F) <= 8.\n";
    for strategy in [
        Strategy::Perpendicular { band_width: 1.0 },
        Strategy::Centroid,
    ] {
        let topo = Topology::square_grid(12);
        let mut events = VehicleWorkload {
            n_enemy: 8,
            n_friendly: 8,
            interval: 1_000,
            duration: 10_000,
            seed: 17,
        }
        .events(&topo);
        // Ids 12 and 11 are one apart and sit at (0, 1) and (11, 0).
        events.push(ev(
            500,
            12,
            "veh",
            "veh(\"enemy\", 12, 500)",
            UpdateKind::Insert,
        ));
        events.push(ev(
            500,
            11,
            "veh",
            "veh(\"friendly\", 11, 500)",
            UpdateKind::Insert,
        ));
        let mut d = Deployment::new(
            src,
            BuiltinRegistry::standard(),
            topo,
            config_with(strategy),
        )
        .unwrap();
        // Centroid has no regions to cut: the deployment drops the radius.
        let radius = (strategy != Strategy::Centroid).then_some(8.0);
        assert_eq!(d.prog.cut_radius(sym("veh")), radius);
        d.schedule_all(events.clone()).unwrap();
        assert_eq!(d.prog.cut_radius(sym("veh")), None);
        d.run(120_000_000);
        // `veh`'s 8 s window closes on the first sightings before the last
        // are made, and a PA owner expires its results with it: what the
        // owners minted is what the Centroid center's engine keeps.
        let found = match strategy {
            Strategy::Centroid => d.results(sym("cov")),
            _ => minted(&d, sym("cov")),
        };
        let expected = oracle::expected_results(&d, &events, sym("cov")).unwrap();
        assert!(!expected.is_empty(), "{strategy:?}");
        assert_eq!(found, expected, "{strategy:?}");
        assert!(found.contains(&tuple("cov(12, 500)")));
    }
}

/// Off the grid, PA's rows and columns are coordinate bands that can cross
/// at a detour node no radius keeps within reach, so the deployment cuts
/// nothing there: Fig. 7's program is exact with float locations at the
/// nodes' positions.
#[test]
fn dist_bound_is_not_cut_off_the_grid() {
    for seed in [3u64, 5, 7, 13, 97] {
        for r in [1.0, 2.5] {
            let topo = Topology::random_geometric(50, 5.5, 1.7, seed).unwrap();
            let events = located_events(&topo);
            let cfg = DeployConfig {
                rt: RtConfig {
                    strategy: Strategy::Perpendicular { band_width: 1.7 },
                    ..RtConfig::default()
                },
                ..DeployConfig::default()
            };
            let mut d =
                Deployment::new(&fig7_program(r), BuiltinRegistry::standard(), topo, cfg).unwrap();
            assert_eq!(d.prog.cut_radius(sym("s1")), None);
            d.schedule_all(events.clone()).unwrap();
            d.run(120_000_000);
            let report = oracle::check(&d, &events, sym("q"));
            assert!(
                report.exact() && report.expected > 0,
                "seed {seed}, r = {r}: {} expected, missing {:?}",
                report.expected,
                report.missing
            );
        }
    }
}

#[test]
fn memory_stats_populated() {
    let topo = Topology::square_grid(4);
    let mut d = Deployment::new(
        JOIN2,
        BuiltinRegistry::standard(),
        topo,
        config_with(Strategy::Perpendicular { band_width: 1.0 }),
    )
    .unwrap();
    d.schedule_all(join2_events()).unwrap();
    d.run(120_000);
    assert!(d.peak_node_memory() > 0);
    let stats = d.node_stats();
    assert!(stats.iter().any(|s| s.probes_processed > 0));
    assert!(stats.iter().any(|s| s.results_emitted > 0));
    // PA replicates along rows: peak replicas bounded by workload size.
    assert!(stats.iter().all(|s| s.peak_replicas <= 5));
}

#[test]
fn telemetry_reports_sched_and_index_counters() {
    let topo = Topology::square_grid(4);
    let mut d = Deployment::new(
        JOIN2,
        BuiltinRegistry::standard(),
        topo,
        config_with(Strategy::Centroid),
    )
    .unwrap();
    d.schedule_all(join2_events()).unwrap();
    d.run(120_000);
    let snap = d.telemetry_snapshot();
    // Every start, send and timer is one queue push and every push is
    // popped and dispatched exactly once, so a quiescent run has pushed
    // what it processed.
    assert!(d.sim.is_quiescent());
    assert!(d.sim.events_processed() > 0);
    assert_eq!(
        snap.counter("global", "sched.pushes"),
        d.sim.events_processed()
    );
    // The Centroid center runs an incremental engine whose registered
    // join indexes must have been exercised.
    let idx =
        snap.counter("global", "join.index.hits") + snap.counter("global", "join.index.scans");
    assert!(idx > 0, "no index activity recorded");
}

#[test]
fn geometric_topology_banded_pa() {
    let topo = Topology::random_geometric(25, 4.5, 1.8, 13).unwrap();
    let mut d = Deployment::new(
        JOIN2,
        BuiltinRegistry::standard(),
        topo,
        config_with(Strategy::Perpendicular { band_width: 1.8 }),
    )
    .unwrap();
    let events = vec![
        ev(10, 1, "r1", "r1(1, 7)", UpdateKind::Insert),
        ev(200, 20, "r2", "r2(2, 7)", UpdateKind::Insert),
        ev(400, 11, "r1", "r1(3, 8)", UpdateKind::Insert),
    ];
    d.schedule_all(events.clone()).unwrap();
    d.run(200_000);
    let report = oracle::check(&d, &events, sym("q"));
    assert!(
        report.exact(),
        "missing {:?} spurious {:?}",
        report.missing,
        report.spurious
    );
}

#[test]
fn fig16_seed_geometric_completeness_is_exact() {
    // Regression for the Fig. 16 completeness gap (0.95 at 50 nodes): a
    // plain vertical band could miss a storage band entirely, so the pair
    // never met. The detour rule of `netstack::regions`' join bands must
    // close the gap — completeness exactly 1.0 on the shipped Fig. 16
    // seed and workload, not merely "close". At `hop_delay: (29, 30)` every
    // hop takes about the most one may, so a wait priced shorter than the
    // walk it waits for starts a join before its partners are stored.
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    for (n, side) in [(25usize, 4.0), (50, 5.5), (100, 8.0)] {
        let topo = Topology::random_geometric(n, side, 1.7, 97).unwrap();
        // The Fig. 16 workload: one reading per node per stream, selective
        // keys.
        let mut rng = StdRng::seed_from_u64(29 + n as u64);
        let mut events = Vec::new();
        let groups = (topo.len() as u32).max(2);
        let mut value = 0i64;
        for node in topo.nodes() {
            for pred in ["r1", "r2"] {
                value += 1;
                events.push(WorkloadEvent {
                    at: 500 + rng.gen_range(0..10_000),
                    node,
                    pred: sym(pred),
                    tuple: Tuple::new(vec![
                        Term::Int(node.0 as i64),
                        Term::Int(value),
                        Term::Int(rng.gen_range(0..groups) as i64),
                    ]),
                    kind: UpdateKind::Insert,
                });
            }
        }
        events.sort_by_key(|e| e.at);
        for hop_delay in [SimConfig::default().hop_delay, (29, 30)] {
            let cfg = DeployConfig {
                rt: RtConfig {
                    strategy: Strategy::Perpendicular { band_width: 1.7 },
                    ..RtConfig::default()
                },
                sim: SimConfig {
                    seed: 13,
                    hop_delay,
                    ..SimConfig::default()
                },
                ..DeployConfig::default()
            };
            let mut d =
                Deployment::new(JOIN3, BuiltinRegistry::standard(), topo.clone(), cfg).unwrap();
            d.schedule_all(events.clone()).unwrap();
            d.run(60_000_000);
            let report = oracle::check(&d, &events, sym("q"));
            assert!(report.expected > 0, "workload must produce join results");
            assert!(
                report.exact(),
                "{n} nodes, hop delay {hop_delay:?}: completeness {} soundness {}: \
                 missing {:?} spurious {:?}",
                report.completeness(),
                report.soundness(),
                report.missing,
                report.spurious
            );
        }
    }
}

#[test]
fn function_symbols_travel_the_network() {
    let src = r#"
        .output pair.
        pair(pt(X1, Y1), pt(X2, Y2)) :- obs(X1, Y1, T), obs(X2, Y2, T), X1 < X2.
    "#;
    let topo = Topology::square_grid(4);
    let mut d = Deployment::new(
        src,
        BuiltinRegistry::standard(),
        topo,
        config_with(Strategy::Perpendicular { band_width: 1.0 }),
    )
    .unwrap();
    let events = vec![
        ev(10, 3, "obs", "obs(1, 10, 5)", UpdateKind::Insert),
        ev(200, 12, "obs", "obs(2, 20, 5)", UpdateKind::Insert),
    ];
    d.schedule_all(events.clone()).unwrap();
    d.run(120_000);
    let report = oracle::check(&d, &events, sym("pair"));
    assert!(report.exact());
    let results = d.results(sym("pair"));
    assert_eq!(results.len(), 1);
    assert!(results
        .iter()
        .next()
        .unwrap()
        .get(0)
        .to_string()
        .starts_with("pt("));
}

#[test]
fn windowed_replicas_expire_and_join_respects_window() {
    // Readings live in a 20 s window: a probe arriving after a partner
    // expired must not join with it, and replicas must leave node memory
    // once their retention passes (Sec. IV-B "Tuple Expiry").
    let src = r#"
        .window r1 20000.
        .window r2 20000.
        .output q.
        q(X, Y) :- r1(X, T), r2(Y, T).
    "#;
    let topo = Topology::square_grid(4);
    let mut d = Deployment::new(
        src,
        BuiltinRegistry::standard(),
        topo,
        config_with(Strategy::Perpendicular { band_width: 1.0 }),
    )
    .unwrap();
    let events = vec![
        // In-window pair: joins.
        ev(1_000, 1, "r1", "r1(1, 7)", UpdateKind::Insert),
        ev(5_000, 14, "r2", "r2(2, 7)", UpdateKind::Insert),
        // Out-of-window pair: r1 generated 50 s before the r2 probe.
        ev(10_000, 2, "r1", "r1(3, 8)", UpdateKind::Insert),
        ev(60_000, 13, "r2", "r2(4, 8)", UpdateKind::Insert),
    ];
    d.schedule_all(events).unwrap();
    d.run(20_000);
    assert!(
        d.results(sym("q")).contains(&tuple("x(1, 2)")),
        "in-window join missing"
    );
    // The 60 s probe has settled, and a result it made would still be
    // inside `q`'s window.
    d.run(70_000);
    let results = d.results(sym("q"));
    assert!(
        !results.contains(&tuple("x(3, 4)")),
        "expired tuple must not join: {results:?}"
    );
    d.run(300_000);
    // The in-window result expired with its window, and no owner ever
    // minted the out-of-window pair.
    assert!(d.results(sym("q")).is_empty());
    assert_eq!(minted(&d, sym("q")), BTreeSet::from([tuple("x(1, 2)")]));
    // All replicas eventually expire from node memory.
    let leftover: usize = d.sim.nodes().map(|n| n.replica_count()).sum();
    assert_eq!(leftover, 0, "replicas must be dropped after retention");
}

#[test]
fn multipass_handles_negation() {
    // Negation-pending completes must survive U-turns and only emit at the
    // true end of the traversal.
    let src = r#"
        .output q.
        q(X, Y) :- r1(X, T), r2(Y, T), not veto(Y, T).
    "#;
    let mut cfg = config_with(Strategy::Perpendicular { band_width: 1.0 });
    cfg.rt.pass_mode = PassMode::MultiPass;
    let topo = Topology::square_grid(4);
    let mut d = Deployment::new(src, BuiltinRegistry::standard(), topo, cfg).unwrap();
    let events = vec![
        ev(10, 1, "r1", "r1(1, 7)", UpdateKind::Insert),
        ev(200, 14, "r2", "r2(2, 7)", UpdateKind::Insert),
        ev(400, 7, "r2", "r2(3, 7)", UpdateKind::Insert),
        ev(600, 11, "veto", "veto(3, 7)", UpdateKind::Insert),
    ];
    d.schedule_all(events.clone()).unwrap();
    d.run(200_000);
    let report = oracle::check(&d, &events, sym("q"));
    assert!(
        report.exact(),
        "missing {:?} spurious {:?}",
        report.missing,
        report.spurious
    );
    let results = d.results(sym("q"));
    assert!(results.contains(&tuple("x(1, 2)")));
    assert!(!results.contains(&tuple("x(1, 3)")), "vetoed pair leaked");
}

#[test]
fn logich_repairs_tree_after_edge_deletion() {
    // Dynamic topology: on a triangle 0-1, 0-2, 1-2, deleting edge 0-2
    // must move node 2 from depth 1 to depth 2 (via 1) — the retraction
    // cascade plus re-derivation of the XY program in-network.
    let src = r#"
        .output h.
        h(0, 0, 0).
        h(0, X, 1) :- g(0, X).
        hp(Y, D + 1) :- h(_, Y, D'), (D + 1) > D', h(_, X, D), g(X, Y).
        h(X, Y, D + 1) :- g(X, Y), h(_, X, D), not hp(Y, D + 1).
    "#;
    // 2x2 grid: nodes 0,1 adjacent; 0,2 adjacent; 1,3; 2,3.
    let topo = Topology::square_grid(2);
    let mut d = Deployment::new(
        src,
        BuiltinRegistry::standard(),
        topo,
        config_with(Strategy::Perpendicular { band_width: 1.0 }),
    )
    .unwrap();
    // Graph facts: the full 2x2 link set, injected at incident nodes.
    let mut events = Vec::new();
    let mut at = 100;
    for (a, b) in [
        (0u32, 1u32),
        (1, 0),
        (0, 2),
        (2, 0),
        (1, 3),
        (3, 1),
        (2, 3),
        (3, 2),
    ] {
        events.push(ev(at, a, "g", &format!("g({a}, {b})"), UpdateKind::Insert));
        at += 300;
    }
    // Much later: the 0-2 link dies (both directions).
    events.push(ev(60_000_000, 0, "g", "g(0, 2)", UpdateKind::Delete));
    events.push(ev(60_000_500, 2, "g", "g(2, 0)", UpdateKind::Delete));
    d.schedule_all(events.clone()).unwrap();
    d.run(400_000_000);
    let results = d.results(sym("h"));
    let depths_of = |v: i64| -> Vec<i64> {
        results
            .iter()
            .filter(|t| t.get(1) == Term::Int(v))
            .map(|t| t.get(2).as_i64().unwrap())
            .collect()
    };
    // After repair: 0@0, 1@1, 2 now reachable only via 3: 0-1-3-2 => depth 3.
    assert_eq!(depths_of(0), vec![0]);
    assert_eq!(depths_of(1), vec![1]);
    assert_eq!(depths_of(3), vec![2]);
    assert_eq!(
        depths_of(2),
        vec![3],
        "node 2 must re-home via 3: {results:?}"
    );
}

#[test]
fn failure_preserves_soundness() {
    // Killing a node mid-run must never fabricate results.
    let topo = Topology::square_grid(5);
    let mut d = Deployment::new(
        JOIN2,
        BuiltinRegistry::standard(),
        topo,
        config_with(Strategy::Perpendicular { band_width: 1.0 }),
    )
    .unwrap();
    let events = join2_events();
    d.schedule_all(events.clone()).unwrap();
    d.run(300);
    d.fail_node(NodeId(12)); // center of the 5x5 grid
    d.run(200_000);
    let report = oracle::check(&d, &events, sym("q"));
    assert!(
        report.spurious.is_empty(),
        "failure fabricated results: {:?}",
        report.spurious
    );
}

#[test]
fn tombstone_before_replica_is_ordered_correctly() {
    // A deletion whose StoreWalk overtakes (or arrives without) the
    // insert's replica must still suppress joins at probes later than the
    // deletion timestamp. Drive it by deleting immediately after inserting,
    // with jittery delays.
    let mut cfg = config_with(Strategy::Perpendicular { band_width: 1.0 });
    cfg.sim.hop_delay = (1, 120); // heavy jitter: walks interleave
    cfg.sim.seed = 77;
    let topo = Topology::square_grid(4);
    let mut d = Deployment::new(JOIN2, BuiltinRegistry::standard(), topo, cfg).unwrap();
    let events = vec![
        ev(10, 1, "r1", "r1(1, 7)", UpdateKind::Insert),
        ev(12, 1, "r1", "r1(1, 7)", UpdateKind::Delete), // near-simultaneous
        ev(30_000, 14, "r2", "r2(2, 7)", UpdateKind::Insert),
    ];
    d.schedule_all(events.clone()).unwrap();
    d.run(200_000);
    let report = oracle::check(&d, &events, sym("q"));
    assert!(
        report.exact(),
        "missing {:?} spurious {:?}",
        report.missing,
        report.spurious
    );
    assert_eq!(report.expected, 0, "deleted tuple must not join later");
}

/// The flood twin of the test above: one tuple inserted, deleted and
/// inserted again within 50 ms under NaiveBroadcast, while a duplication
/// window doubles a quarter of all transmissions and a reorder window lets
/// copies overtake each other. Copies of both generations and of the delete
/// cross at every node, and a node forwards one only when storing it
/// changed its store; the flood still reaches everyone and stops. A second
/// tuple is inserted and deleted for good, and its partner is sensed after
/// the delete, far from the source: it must find the tombstone there, or
/// its probe joins the deleted tuple.
#[test]
fn a_flood_of_one_tuples_generations_survives_duplicates_and_reordering() {
    let mut cfg = config_with(Strategy::NaiveBroadcast);
    cfg.sim.seed = 5;
    cfg.sim.faults = (FaultSchedule::new())
        .dup_window(0, 10_000, 250_000)
        .reorder_window(0, 10_000, 40);
    let topo = Topology::square_grid(4);
    let mut d = Deployment::new(JOIN2, BuiltinRegistry::standard(), topo, cfg).unwrap();
    let mut events = vec![
        ev(10, 5, "r1", "r1(1, 7)", UpdateKind::Insert),
        ev(12, 5, "r1", "r1(4, 8)", UpdateKind::Insert),
        ev(20, 12, "r2", "r2(2, 7)", UpdateKind::Insert),
        ev(35, 5, "r1", "r1(1, 7)", UpdateKind::Delete),
        ev(37, 5, "r1", "r1(4, 8)", UpdateKind::Delete),
        ev(45, 15, "r2", "r2(3, 7)", UpdateKind::Insert),
        ev(45, 15, "r2", "r2(5, 8)", UpdateKind::Insert),
        ev(60, 5, "r1", "r1(1, 7)", UpdateKind::Insert),
    ];
    d.schedule_all(events.clone()).unwrap();
    d.run(20_000);
    let exact = |d: &Deployment, events: &[WorkloadEvent], want: usize| {
        let report = oracle::check(d, events, sym("q"));
        assert!(
            report.exact(),
            "missing {:?} spurious {:?}",
            report.missing,
            report.spurious
        );
        assert_eq!(report.expected, want);
    };
    exact(&d, &events, 2);
    // Every node holds `r1(1, 7)` at its second generation, the
    // tombstoned `r1(4, 8)` and the three partners.
    for node in d.sim.nodes() {
        assert_eq!(node.replica_count(), 5, "{}", node.id);
        let r1_gens = node
            .id_bindings()
            .into_iter()
            .filter(|b| b.2 == tuple("r1(1, 7)"));
        assert!(r1_gens.map(|b| b.0.ts).all(|ts| ts == 60), "{}", node.id);
    }
    let delete = ev(20_010, 5, "r1", "r1(1, 7)", UpdateKind::Delete);
    d.schedule_all([delete.clone()]).unwrap();
    events.push(delete);
    d.run(200_000);
    assert!(d.sim.is_quiescent(), "the flood must stop");
    exact(&d, &events, 0);
}

#[test]
fn stage_hints_flow_to_distributed_compiler() {
    // Pin the stage positions explicitly; the XY pipeline must behave the
    // same as with auto-detection.
    let src = r#"
        .stage j 1.
        .stage jp 1.
        .output j.
        j(0, 0).
        j(X, 1) :- g(0, X).
        jp(Y, D + 1) :- j(Y, D'), (D + 1) > D', j(X, D), g(X, Y).
        j(Y, D + 1) :- g(X, Y), j(X, D), not jp(Y, D + 1).
    "#;
    let topo = Topology::square_grid(3);
    let mut d = Deployment::new(
        src,
        BuiltinRegistry::standard(),
        topo.clone(),
        config_with(Strategy::Perpendicular { band_width: 1.0 }),
    )
    .unwrap();
    d.schedule_all(graph_edges(&topo, 100, 300)).unwrap();
    d.run(200_000_000);
    let results = d.results(sym("j"));
    for node in topo.nodes() {
        let (x, y) = topo.grid_coords(node).unwrap();
        let want = (x + y) as i64;
        let got: Vec<i64> = results
            .iter()
            .filter(|t| t.get(0) == Term::Int(node.0 as i64))
            .map(|t| t.get(1).as_i64().unwrap())
            .collect();
        assert!(got.iter().all(|&d| d == want) && !got.is_empty());
    }
}

#[test]
fn centroid_under_loss_stays_sound() {
    let mut cfg = config_with(Strategy::Centroid);
    cfg.sim.loss_prob = 0.15;
    cfg.sim.seed = 8;
    let topo = Topology::square_grid(5);
    let mut d = Deployment::new(JOIN2, BuiltinRegistry::standard(), topo, cfg).unwrap();
    let events = join2_events();
    d.schedule_all(events.clone()).unwrap();
    d.run(200_000);
    let report = oracle::check(&d, &events, sym("q"));
    assert!(
        report.spurious.is_empty(),
        "loss fabricated: {:?}",
        report.spurious
    );
}
