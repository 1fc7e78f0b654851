//! Example 1 of the paper: battlefield vehicle tracking with negation.
//!
//! A sensor field watches enemy and friendly vehicles. An alert fires for
//! every *uncovered* enemy — one with no friendly vehicle within coverage
//! range. Friendlies move, so their old positions are retracted and alerts
//! flip live as coverage changes — exercising the distributed
//! set-of-derivations maintenance under insertions *and* deletions.
//!
//! ```text
//! cargo run --example battlefield
//! ```

use sensorlog::core::workload::VehicleWorkload;
use sensorlog::prelude::*;

const PROGRAM: &str = r#"
    % Example 1 (Sec. II-B): alert on uncovered enemy vehicles.
    .output uncov.
    cov(L, T)   :- veh("enemy", L, T), veh("friendly", F, T),
                   dist(L, F) <= 8.
    uncov(L, T) :- not cov(L, T), veh("enemy", L, T).
"#;

fn main() {
    let topo = Topology::square_grid(6);
    let mut d = Deployment::new(
        PROGRAM,
        BuiltinRegistry::standard(),
        topo.clone(),
        DeployConfig::default(),
    )
    .unwrap();

    // Wandering vehicles: 3 enemies, 2 friendlies, sighted every 20 s.
    let events = VehicleWorkload {
        n_enemy: 3,
        n_friendly: 2,
        interval: 20_000,
        duration: 100_000,
        seed: 42,
    }
    .events(&topo);
    println!(
        "injecting {} sightings/retractions over {}s of simulated time",
        events.len(),
        100
    );
    d.schedule_all(events.clone())
        .expect("workload events lie on the topology");
    d.run(100_000_000);

    // Alert transitions as they were observed at owner nodes.
    println!("\nalert log (owner-side transitions):");
    let mut log: Vec<_> = d
        .sim
        .nodes()
        .flat_map(|n| n.output_log().iter().cloned())
        .collect();
    log.sort_by_key(|(_, _, _, ts)| *ts);
    for (pred, tuple, kind, ts) in log.iter().take(30) {
        let op = match kind {
            UpdateKind::Insert => "RAISED ",
            UpdateKind::Delete => "cleared",
        };
        println!("  t={:>7}ms {op} {pred}{tuple}", ts);
    }
    if log.len() > 30 {
        println!("  … {} more transitions", log.len() - 30);
    }

    println!("\nfinal standing alerts:");
    for t in d.results(Symbol::intern("uncov")) {
        println!("  uncov{t}");
    }

    let report = oracle::check(&d, &events, Symbol::intern("uncov"));
    if !report.exact() {
        eprintln!("missing: {:?}", report.missing);
        eprintln!("spurious: {:?}", report.spurious);
    }
    assert!(
        report.exact(),
        "distributed alerts diverged from the oracle"
    );
    println!(
        "\noracle check: exact — {} standing alerts, {} total messages",
        report.expected,
        d.metrics().total_tx()
    );
}
