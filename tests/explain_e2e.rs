//! End-to-end `explain` over a recursive program: a transitive-closure
//! chain derived across a lossy-free 4×4 grid must yield a multi-level
//! cross-node derivation tree whose edges carry journal-enriched hop and
//! latency attribution, and whose critical path walks leaf → result in
//! nondecreasing finish time.

use sensorlog::prelude::*;
use sensorlog::provenance::{critical_path, explain_atom, render_text, ProvDag};

const REACH: &str = r#"
    .output reach.
    reach(X, Y) :- edge(X, Y).
    reach(X, Z) :- reach(X, Y), edge(Y, Z).
"#;

fn sym(s: &str) -> Symbol {
    Symbol::intern(s)
}

fn tup(vals: &[i64]) -> Tuple {
    Tuple::new(vals.iter().map(|&v| Term::Int(v)).collect::<Vec<_>>())
}

/// edge(1,2) @ node 0, edge(2,3) @ node 10, edge(3,4) @ node 15: the
/// chain spans the grid, so every join crosses the network.
fn chain_events() -> Vec<WorkloadEvent> {
    [(0u32, 1i64, 2i64), (10, 2, 3), (15, 3, 4)]
        .iter()
        .enumerate()
        .map(|(i, &(node, x, y))| WorkloadEvent {
            at: 1_000 + i as u64 * 500,
            node: NodeId(node),
            pred: sym("edge"),
            tuple: tup(&[x, y]),
            kind: UpdateKind::Insert,
        })
        .collect()
}

fn run_chain() -> (Deployment, sensorlog::netsim::Journal) {
    let cfg = DeployConfig {
        rt: RtConfig {
            strategy: Strategy::Perpendicular { band_width: 1.0 },
            ..RtConfig::default()
        },
        sim: SimConfig {
            seed: 5,
            ..SimConfig::default()
        },
        provenance: Provenance::enabled(),
        ..DeployConfig::default()
    };
    let mut d = Deployment::new(
        REACH,
        BuiltinRegistry::standard(),
        Topology::square_grid(4),
        cfg,
    )
    .unwrap();
    let journal = d.attach_journal();
    d.schedule_all(chain_events());
    d.run(60_000_000);
    let j = journal.take();
    (d, j)
}

#[test]
fn recursive_chain_explains_end_to_end() {
    let (d, journal) = run_chain();
    let reach = d.results(sym("reach"));
    assert!(
        reach.contains(&tup(&[1, 4])),
        "chain must close transitively, got {reach:?}"
    );

    let records = d.provenance_records();
    let dag = ProvDag::build_with_journal(&records, &journal);
    let proof = dag
        .why(sym("reach"), &tup(&[1, 4]))
        .expect("reach(1,4) live");

    // The root is the recursive rule; one premise is itself derived
    // (reach(1,3)), recursing down to the edge(1,2) leaf.
    assert_eq!(
        proof.rule_id,
        Some(1),
        "reach(1,4) comes from the step rule"
    );
    let derived = proof
        .premises
        .iter()
        .find(|e| e.premise.rule_id.is_some())
        .expect("the step rule consumes a derived reach premise");
    assert_eq!(derived.premise.pred, sym("reach"));
    assert_eq!(derived.premise.tuple, tup(&[1, 3]));
    let leaf_edge = proof
        .premises
        .iter()
        .find(|e| e.premise.rule_id.is_none())
        .expect("the step rule consumes an EDB edge premise");
    assert_eq!(leaf_edge.premise.pred, sym("edge"));

    // Cross-node evidence: some premise travelled, and the journal pairing
    // confirmed its deliveries.
    let routed = proof
        .premises
        .iter()
        .chain(derived.premise.premises.iter())
        .find(|e| !e.hops.is_empty())
        .expect("a grid-spanning chain must route messages");
    assert!(
        routed.hops.iter().any(|h| h.delivered_at.is_some()),
        "journal enrichment must mark deliveries on {:?}",
        routed.hops
    );
    assert!(routed.latency > 0, "a routed premise takes sim time");

    // Critical path: leaf first, finish times nondecreasing, root last.
    let path = critical_path(&proof);
    assert!(path.len() >= 3, "chain depth ≥ 3, got {}", path.len());
    assert_eq!(path.last().unwrap().pred, sym("reach"));
    assert_eq!(path.last().unwrap().tuple, tup(&[1, 4]));
    assert!(
        path.windows(2).all(|w| w[0].finish_at <= w[1].finish_at),
        "critical path must be causally ordered: {path:?}"
    );

    // The rendered tree nests all three chain links.
    let text = render_text(&proof);
    for needle in ["reach(1, 4)", "reach(1, 3)", "edge(1, 2)", "sim-ms"] {
        assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
    }
}

#[test]
fn deployment_explain_covers_present_and_absent() {
    let (d, _journal) = run_chain();

    let present = d.explain(sym("reach"), &tup(&[1, 4]));
    assert!(present.is_proof());
    assert!(present.text().contains("critical path"));
    assert!(present.dot().is_some_and(|dot| dot.starts_with("digraph")));

    // reach(4,1) never derives (the chain is directed): why-not names the
    // rules and their first failing subgoal.
    let absent = d.explain(sym("reach"), &tup(&[4, 1]));
    assert!(!absent.is_proof());
    let text = absent.text();
    assert!(
        text.contains("not derivable"),
        "why-not render missing: {text}"
    );

    // explain_atom agrees with the trait surface.
    let dag = ProvDag::build(&d.provenance_records());
    let e = explain_atom(
        &dag,
        &d.prog.analysis.program,
        &d.prog.reg,
        sym("reach"),
        &tup(&[1, 4]),
    );
    assert!(e.is_proof());

    // And the whole run satisfies the provenance invariant.
    let report = check_provenance(&d, &[sym("reach")]);
    assert!(report.ok(), "violations: {:?}", report.violations);
}

/// logicH on a 5x5 grid under Centroid with the provenance plane on: every
/// link comes up, then node 6's links go down again, so the central engine
/// both gains and loses derivations (the XY negation retracts `h` tuples
/// as shorter paths appear). The records the centre emits for its own
/// derivations, and their JSONL bytes, are pinned (FNV-1a of
/// `prov::to_jsonl`, as `Journal::content_hash` hashes its text).
#[test]
fn centroid_provenance_jsonl_is_pinned() {
    use sensorlog::core::prov::{self, ProvRecord};
    use sensorlog::core::workload::graph_edges;
    const LOGIC_H: &str = r#"
        .output h.
        h(0, 0, 0).
        h(0, X, 1) :- g(0, X).
        hp(Y, D + 1) :- h(_, Y, D'), (D + 1) > D', h(_, X, D), g(X, Y).
        h(X, Y, D + 1) :- g(X, Y), h(_, X, D), not hp(Y, D + 1).
    "#;
    let topo = Topology::square_grid(5);
    let cfg = DeployConfig {
        rt: RtConfig {
            strategy: Strategy::Centroid,
            ..RtConfig::default()
        },
        sim: SimConfig {
            seed: 3,
            ..SimConfig::default()
        },
        provenance: Provenance::enabled(),
        ..DeployConfig::default()
    };
    let mut d = Deployment::new(LOGIC_H, BuiltinRegistry::standard(), topo.clone(), cfg).unwrap();
    let mut events = graph_edges(&topo, 100, 200);
    let downs: Vec<WorkloadEvent> = (events.iter())
        .filter(|e| e.node == NodeId(6))
        .map(|e| WorkloadEvent {
            at: e.at + 60_000,
            kind: UpdateKind::Delete,
            ..e.clone()
        })
        .collect();
    events.extend(downs);
    d.schedule_all(events);
    d.run(60_000_000);

    let records = d.provenance_records();
    let text = prov::to_jsonl(&records);
    let fnv = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    });
    let derivs = |sign: i8| {
        (records.iter())
            .filter(|r| matches!(r, ProvRecord::Deriv { sign: s, .. } if *s == sign))
            .count()
    };
    assert_eq!(
        (records.len(), derivs(1), derivs(-1)),
        (657, 230, 70),
        "record counts drifted"
    );
    assert_eq!(fnv, 0x0e66_42a5_2dbe_5f22, "provenance JSONL bytes drifted");
    let report = check_provenance(&d, &[sym("h")]);
    assert!(report.ok(), "violations: {:?}", report.violations);
}
