//! Cross-crate end-to-end scenarios: the paper's three running examples as
//! assertions, plus engine-equivalence checks spanning the workspace.

use sensorlog::core::workload::{graph_edges, VehicleWorkload};
use sensorlog::netstack::flood::run_flood;
use sensorlog::prelude::*;

fn sym(s: &str) -> Symbol {
    Symbol::intern(s)
}

#[test]
fn example1_battlefield_full_pipeline() {
    let program = r#"
        .output uncov.
        cov(L, T)   :- veh("enemy", L, T), veh("friendly", F, T), dist(L, F) <= 8.
        uncov(L, T) :- not cov(L, T), veh("enemy", L, T).
    "#;
    let topo = Topology::square_grid(5);
    let mut d = Deployment::new(
        program,
        BuiltinRegistry::standard(),
        topo.clone(),
        DeployConfig::default(),
    )
    .unwrap();
    let events = VehicleWorkload {
        n_enemy: 2,
        n_friendly: 1,
        interval: 20_000,
        duration: 80_000,
        seed: 7,
    }
    .events(&topo);
    assert!(!events.is_empty());
    d.schedule_all(events.clone());
    d.run(100_000_000);
    let report = oracle::check(&d, &events, sym("uncov"));
    assert!(
        report.exact(),
        "missing {:?} spurious {:?}",
        report.missing,
        report.spurious
    );
}

#[test]
fn example2_trajectories_with_function_symbols() {
    use sensorlog::logic::builtin::stdlib;
    let mut reg = BuiltinRegistry::standard();
    stdlib::register_tracking(&mut reg);
    stdlib::register_lists(&mut reg);
    let program = r#"
        notstart(R2)   :- report(R1), report(R2), close(R1, R2, 3, 2).
        notlast(R1)    :- report(R1), report(R2), close(R1, R2, 3, 2).
        traj([R2, R1]) :- report(R1), report(R2), close(R1, R2, 3, 2), not notstart(R1).
        traj([R2 | T]) :- traj(T), R1 == first(T), report(R2), close(R1, R2, 3, 2).
        complete(T)    :- traj(T), R == first(T), not notlast(R).
        parallel(L1, L2) :- complete(L1), complete(L2), L1 < L2, is_parallel(L1, L2, 0.1).
    "#;
    let engine = Engine::from_source(program, reg).unwrap();
    let mut edb = Database::new();
    edb.load_facts(
        r#"
        report(r(0, 0, 0)). report(r(2, 0, 1)). report(r(4, 0, 2)).
        report(r(0, 5, 0)). report(r(2, 5, 1)). report(r(4, 5, 2)).
        "#,
    )
    .unwrap();
    let out = engine.run(&edb).unwrap();
    assert_eq!(out.len_of(sym("complete")), 2);
    assert_eq!(out.len_of(sym("parallel")), 1);
}

#[test]
fn example3_logich_in_network_equals_flood_tree_depths() {
    let program = r#"
        .output h.
        h(0, 0, 0).
        h(0, X, 1) :- g(0, X).
        hp(Y, D + 1) :- h(_, Y, D'), (D + 1) > D', h(_, X, D), g(X, Y).
        h(X, Y, D + 1) :- g(X, Y), h(_, X, D), not hp(Y, D + 1).
    "#;
    let topo = Topology::square_grid(3);
    let mut d = Deployment::new(
        program,
        BuiltinRegistry::standard(),
        topo.clone(),
        DeployConfig::default(),
    )
    .unwrap();
    d.schedule_all(graph_edges(&topo, 100, 300));
    d.run(100_000_000);
    let h = d.results(sym("h"));

    let flood = run_flood(&topo, NodeId(0), SimConfig::default());
    for node in topo.nodes() {
        let flood_depth = flood.tree[node.index()].1.unwrap() as i64;
        let deductive: Vec<i64> = h
            .iter()
            .filter(|t| t.get(1) == Term::Int(node.0 as i64))
            .map(|t| t.get(2).as_i64().unwrap())
            .collect();
        assert!(
            deductive.iter().all(|&d| d == flood_depth) && !deductive.is_empty(),
            "node {node}: deductive {deductive:?} vs flood {flood_depth}"
        );
    }
}

/// Every link of the grid is advertised, those into the sink included:
/// `g(1, 0)` and `g(4, 0)` would re-derive the root at depth 2 unless
/// `hp(0, 2)` blocks it, and `hp(0, 2)` needs the static fact `h(0, 0, 0)`
/// to be live wherever the rules run — at the owners under PA, inside the
/// central engine under Centroid.
#[test]
fn logich_with_links_into_the_sink_is_exact_under_centroid_and_pa() {
    let program = include_str!("../examples/programs/sptree.dl");
    let topo = Topology::square_grid(4);
    let events = graph_edges(&topo, 100, 1);
    for strategy in [
        Strategy::Centroid,
        Strategy::Perpendicular { band_width: 1.0 },
    ] {
        let config = DeployConfig {
            rt: RtConfig {
                strategy,
                ..RtConfig::default()
            },
            ..DeployConfig::default()
        };
        let mut d =
            Deployment::new(program, BuiltinRegistry::standard(), topo.clone(), config).unwrap();
        d.schedule_all(events.clone());
        d.run(100_000_000);
        let report = oracle::check(&d, &events, sym("h"));
        assert_eq!(report.expected, 25, "{strategy:?}");
        assert!(
            report.exact(),
            "{strategy:?}: missing {:?} spurious {:?}",
            report.missing,
            report.spurious
        );
        assert!(d.node_stats().iter().all(|s| s.center_apply_errors == 0));
    }
}

/// Sec. V's per-node memory under Centroid is the central server's store:
/// every link fact is held there, and nowhere else holds anything.
#[test]
fn centroid_peak_node_memory_is_held_by_the_centre() {
    let program = include_str!("../examples/programs/sptree.dl");
    let topo = Topology::square_grid(4);
    let events = graph_edges(&topo, 100, 1);
    let config = DeployConfig {
        rt: RtConfig {
            strategy: Strategy::Centroid,
            ..RtConfig::default()
        },
        ..DeployConfig::default()
    };
    let mut d = Deployment::new(program, BuiltinRegistry::standard(), topo, config).unwrap();
    d.schedule_all(events.clone());
    d.run(100_000_000);
    let g_facts = events.len();
    assert!(g_facts > 0);
    assert!(d.peak_node_memory() >= g_facts, "{}", d.peak_node_memory());
    let centre = d.net().center();
    for (i, s) in d.node_stats().iter().enumerate() {
        let mem = s.peak_replicas + s.peak_derivations;
        if i == centre.index() {
            assert_eq!(mem, d.peak_node_memory());
        } else {
            assert_eq!(mem, 0, "node {i} stores nothing under Centroid");
        }
    }
}

#[test]
fn centralized_engines_agree_on_mixed_updates() {
    // Batch, incremental, and DRed engines must agree on the same net EDB.
    let program = r#"
        cov(V, K)   :- sight(V, K), supp(S, K).
        alert(V, K) :- not cov(V, K), sight(V, K).
    "#;
    let reg = BuiltinRegistry::standard;
    let mut inc = IncrementalEngine::from_source(program, reg()).unwrap();
    let mut dred = sensorlog::eval::rederive::RederiveEngine::from_source(program, reg()).unwrap();
    let mut updates = Vec::new();
    let mut ts = 0;
    for k in 0..4i64 {
        for v in 0..10i64 {
            ts += 1;
            updates.push(Update::insert(
                sym("sight"),
                Tuple::new(vec![Term::Int(v), Term::Int(k)]),
                ts,
            ));
        }
        if k % 2 == 0 {
            ts += 1;
            updates.push(Update::insert(
                sym("supp"),
                Tuple::new(vec![Term::Int(99), Term::Int(k)]),
                ts,
            ));
        }
    }
    // Delete one suppressor later.
    ts += 1;
    updates.push(Update::delete(
        sym("supp"),
        Tuple::new(vec![Term::Int(99), Term::Int(0)]),
        ts,
    ));
    for u in &updates {
        inc.apply(u.clone()).unwrap();
        dred.apply(u.clone()).unwrap();
    }
    // Oracle: batch over the net EDB.
    let batch = Engine::from_source(program, reg()).unwrap();
    let mut edb = Database::new();
    for p in [sym("sight"), sym("supp")] {
        for t in inc.db.sorted(p) {
            edb.insert(p, t);
        }
    }
    let expect = batch.run(&edb).unwrap();
    assert_eq!(inc.db.sorted(sym("alert")), expect.sorted(sym("alert")));
    assert_eq!(dred.db.sorted(sym("alert")), expect.sorted(sym("alert")));
    // Epoch 0 lost its suppressor: all 10 alerts live; epoch 2 covered.
    assert_eq!(
        inc.db
            .sorted(sym("alert"))
            .iter()
            .filter(|t| t.get(1) == Term::Int(0))
            .count(),
        10
    );
}

#[test]
fn window_expiry_end_to_end() {
    let program = r#"
        .window s 1000.
        q(X) :- s(X).
    "#;
    let mut inc = IncrementalEngine::from_source(program, BuiltinRegistry::standard()).unwrap();
    inc.apply(Update::insert(
        sym("s"),
        Tuple::new(vec![Term::Int(1)]),
        100,
    ))
    .unwrap();
    inc.apply(Update::insert(
        sym("s"),
        Tuple::new(vec![Term::Int(2)]),
        900,
    ))
    .unwrap();
    assert_eq!(inc.db.len_of(sym("q")), 2);
    inc.advance_time(1_200);
    // s(1) expired (100 + 1000 <= 1200), s(2) still in window.
    assert_eq!(inc.db.len_of(sym("s")), 1);
    assert_eq!(inc.db.len_of(sym("q")), 1);
}

#[test]
fn magic_and_full_evaluation_agree_end_to_end() {
    use sensorlog::logic::magic::{magic_transform, Query};
    use sensorlog::logic::Atom;
    let program = r#"
        t(X, Y) :- e(X, Y).
        t(X, Y) :- e(X, Z), t(Z, Y).
    "#;
    let prog = parse_program(program).unwrap();
    let reg = BuiltinRegistry::standard();
    let mut edb = Database::new();
    for (a, b) in [(1, 2), (2, 3), (3, 4), (10, 11)] {
        edb.insert(sym("e"), Tuple::new(vec![Term::Int(a), Term::Int(b)]));
    }
    let analysis = analyze(&prog, &reg).unwrap();
    let full = Engine::new(analysis, reg.clone()).run(&edb).unwrap();
    let answers: Vec<Tuple> = full
        .sorted(sym("t"))
        .into_iter()
        .filter(|t| t.get(0) == Term::Int(1))
        .collect();
    assert_eq!(answers.len(), 3);

    let q = Query {
        atom: Atom::new("t", vec![Term::Int(1), Term::var("Y")]),
    };
    let magic = magic_transform(&prog, &q);
    assert!(magic.applied);
    let mut magic_edb = edb.clone();
    for (p, args) in &magic.seeds {
        magic_edb.insert(*p, Tuple::new(args.clone()));
    }
    let m_analysis = analyze(&magic.program, &reg).unwrap();
    let magical = Engine::new(m_analysis, reg).run(&magic_edb).unwrap();
    let magic_answers: Vec<Tuple> = magical
        .sorted(magic.answer_pred)
        .into_iter()
        .filter(|t| t.get(0) == Term::Int(1))
        .collect();
    assert_eq!(magic_answers, answers);
    // And magic never touched the unreachable component.
    assert!(!magical
        .sorted(magic.answer_pred)
        .iter()
        .any(|t| t.get(0) == Term::Int(10)));
}
