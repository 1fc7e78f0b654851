//! Quickstart: write a deductive program, run it centrally, then deploy it
//! on a simulated sensor network and watch the distributed evaluation agree
//! with the centralized one.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use sensorlog::prelude::*;

const PROGRAM: &str = r#"
    % Pair up same-key readings from two sensor streams.
    .output pair.
    pair(X, Y, K) :- temp(N1, X, K), humid(N2, Y, K).
"#;

fn main() {
    // ---------------------------------------------------------------
    // 1. Parse + analyze: the frontend classifies the program.
    // ---------------------------------------------------------------
    let prog = parse_program(PROGRAM).expect("parses");
    let analysis = analyze(&prog, &BuiltinRegistry::standard()).expect("analyzes");
    println!("program class: {:?}", analysis.class);
    for rule in &analysis.program.rules {
        println!("  {rule}");
    }

    // ---------------------------------------------------------------
    // 2. Centralized evaluation over a small fact base.
    // ---------------------------------------------------------------
    let engine = Engine::new(analysis, BuiltinRegistry::standard());
    let mut edb = Database::new();
    edb.load_facts(
        r#"
        temp(3, 21, 1).
        temp(9, 24, 2).
        humid(5, 60, 1).
        humid(7, 55, 9).
        "#,
    )
    .unwrap();
    let out = engine.run(&edb).unwrap();
    println!("\ncentralized results:");
    for t in out.sorted(Symbol::intern("pair")) {
        println!("  pair{t}");
    }

    // ---------------------------------------------------------------
    // 3. Distributed: deploy on a 4x4 grid with the Perpendicular
    //    Approach, inject the same readings at their sensing nodes.
    // ---------------------------------------------------------------
    let topo = Topology::square_grid(4);
    let mut d = Deployment::new(
        PROGRAM,
        BuiltinRegistry::standard(),
        topo,
        DeployConfig::default(),
    )
    .unwrap();
    let mk = |src: &str| {
        let (p, args) = parse_fact(src).unwrap();
        (p, Tuple::new(args))
    };
    let raw = [
        (10u64, 3u32, "temp(3, 21, 1)"),
        (500, 9, "temp(9, 24, 2)"),
        (900, 5, "humid(5, 60, 1)"),
        (1400, 7, "humid(7, 55, 9)"),
    ];
    let events: Vec<WorkloadEvent> = raw
        .iter()
        .map(|&(at, node, fact)| {
            let (pred, tuple) = mk(fact);
            WorkloadEvent {
                at,
                node: NodeId(node),
                pred,
                tuple,
                kind: UpdateKind::Insert,
            }
        })
        .collect();
    d.schedule_all(events.clone())
        .expect("workload events lie on the topology");
    d.run(60_000);

    println!("\ndistributed results (gathered from owner nodes):");
    for t in d.results(Symbol::intern("pair")) {
        println!("  pair{t}");
    }
    println!(
        "\nnetwork cost: {} messages ({} storage, {} probe, {} result)",
        d.metrics().total_tx(),
        &d.metrics().tx_of("store"),
        &d.metrics().tx_of("probe"),
        &d.metrics().tx_of("result"),
    );

    // ---------------------------------------------------------------
    // 4. The oracle check: distributed == centralized at quiescence.
    // ---------------------------------------------------------------
    let report = oracle::check(&d, &events, Symbol::intern("pair"));
    assert!(report.exact(), "distributed run diverged from the oracle");
    println!("\noracle check: exact ({} result tuples)", report.expected);
}
