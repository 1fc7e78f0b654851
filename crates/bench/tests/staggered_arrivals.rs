//! ROADMAP item 8's repro, committed: the tree programs under PA with the
//! grid's links arriving one by one.
//!
//! The tree programs are on the neighbourhood plane (`logic::xy::locate`):
//! each join runs at one node, which holds every literal and negation it
//! reads, and both programs are oracle-exact at every grid
//! `bench scale` runs with links 20 or 200 ms apart — the 6×6 logicH run
//! that was item 8's repro included. Item 8 itself (a negation check a
//! column walk never tries) is still there for any program off the plane:
//! logicH over a ternary link places nothing, so it keeps hashed owners
//! and PA walks, and on 6×6 with links 200 ms apart it quiesces holding
//! three `h` tuples the oracle does not derive. That case is an ignored
//! test `ci.sh` runs and requires to *fail*, so the day item 8 is fixed CI
//! says so.

use sensorlog_bench::common::{seed17, sptree_deployment, LOGIC_H, LOGIC_J};
use sensorlog_core::oracle::{self, OracleReport};
use sensorlog_core::workload::graph_edges;
use sensorlog_core::{DeployConfig, Deployment};
use sensorlog_logic::builtin::BuiltinRegistry;
use sensorlog_logic::{Term, Tuple};
use sensorlog_netsim::Topology;

/// Run `d` to quiescence and hold its output against the oracle.
fn held(mut d: Deployment) -> (u64, OracleReport) {
    d.run(2_000_000);
    let report = oracle::check(&d, d.applied_events(), d.prog.outputs[0]);
    (d.metrics().total_tx(), report)
}

/// Run `src` on `grid` with links `spacing` ms apart (the `bench scale`
/// recipe: seed 17, loss-free, PA) and hold its output against the oracle.
fn tree_run(src: &str, grid: (u32, u32), spacing: u64) -> (u64, OracleReport) {
    held(sptree_deployment(src, grid, seed17(), spacing))
}

#[test]
fn tree_programs_are_oracle_exact_where_arrivals_settle() {
    for (program, src) in [("logicH", LOGIC_H), ("logicJ", LOGIC_J)] {
        for (grid, spacing) in [
            ((5, 5), 200),
            ((6, 6), 200),
            ((10, 5), 200),
            ((14, 7), 200),
            ((20, 10), 200),
            ((10, 5), 20),
            ((14, 7), 20),
            ((20, 10), 20),
        ] {
            let (_, report) = tree_run(src, grid, spacing);
            assert!(
                report.exact() && report.expected > 0,
                "{program} {grid:?} @ {spacing} ms: {} expected, {} found, spurious {:?}",
                report.expected,
                report.found,
                report.spurious
            );
        }
    }
}

/// Item 8's repro until the neighbourhood plane: 61 expected, 63 found
/// (tx 3,855) with `h(30, 24, 6)` and `h(31, 25, 7)` never retracted; 64
/// found (tx 4,773) before pass plans and node-placed owners.
#[test]
fn logich_6x6_links_200ms_apart_is_oracle_exact() {
    let (tx, report) = tree_run(LOGIC_H, (6, 6), 200);
    assert!(report.exact(), "tx {tx}: {report:?}");
}

/// logicH with a third link column: nothing is placed, so nothing is on the
/// neighbourhood plane, and the run is the PA run item 8 is about.
const LOGIC_H_TERNARY: &str = r#"
    .output h.
    h(0, 0, 0).
    h(0, X, 1) :- g(0, X, _).
    hp(Y, D + 1) :- h(_, Y, D'), (D + 1) > D', h(_, X, D), g(X, Y, _).
    h(X, Y, D + 1) :- g(X, Y, _), h(_, X, D), not hp(Y, D + 1).
"#;

/// Fails today: 61 expected, 64 found (tx 5,064) — zombies a column walk
/// leaves when a negated atom's row comes before the row that grounds it
/// (ROADMAP item 8(b)).
#[test]
#[ignore = "ROADMAP item 8"]
fn ternary_logich_6x6_links_200ms_apart_is_oracle_exact() {
    let topo = Topology::grid(6, 6);
    let cfg = DeployConfig {
        sim: seed17(),
        ..DeployConfig::default()
    };
    let mut d = Deployment::new(
        LOGIC_H_TERNARY,
        BuiltinRegistry::standard(),
        topo.clone(),
        cfg,
    )
    .expect("ternary logicH compiles");
    assert!(d.prog.places.values().all(|p| p.plane.is_none()));
    d.schedule_all(graph_edges(&topo, 100, 200).into_iter().map(|mut link| {
        let mut cols = link.tuple.terms();
        cols.push(Term::Int(1));
        link.tuple = Tuple::new(cols);
        link
    }))
    .unwrap();
    let (tx, report) = held(d);
    assert!(
        report.exact(),
        "tx {tx}: {} expected, {} found, {} spurious {:?}, {} missing",
        report.expected,
        report.found,
        report.spurious.len(),
        report.spurious,
        report.missing.len()
    );
}
