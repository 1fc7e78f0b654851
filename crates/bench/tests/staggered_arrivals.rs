//! ROADMAP item 8's repro, committed: the tree programs under PA with the
//! grid's links arriving one by one.
//!
//! The tree programs are on the neighbourhood plane (`logic::xy::locate`):
//! each join runs at one node, which holds every literal and negation it
//! reads, and both programs are oracle-exact at every grid
//! `bench scale` runs with links 20 or 200 ms apart — the 6×6 logicH run
//! that was item 8's repro included. Item 8 itself (a negation check a
//! column walk never tries) showed off the plane: logicH over a ternary
//! link places nothing, so it keeps hashed owners and PA walks, and it
//! quiesced holding `h` tuples the oracle does not derive until a probe
//! whose pin leaves a negated literal unbound walked its region once more
//! to check it (`boundness::Negations::Repass`). Its witness and a sweep over
//! grids, link spacings and link orders are here.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sensorlog_bench::common::{seed17, sptree_deployment, LOGIC_H, LOGIC_J};
use sensorlog_core::oracle::{self, OracleReport};
use sensorlog_core::workload::graph_edges;
use sensorlog_core::{DeployConfig, Deployment, RtConfig, Strategy};
use sensorlog_logic::builtin::BuiltinRegistry;
use sensorlog_logic::{Term, Tuple};
use sensorlog_netsim::{SimConfig, Topology};

const PA: Strategy = Strategy::Perpendicular { band_width: 1.0 };

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

/// `LOGIC_H_TERNARY` on `grid` under `strategy`, the grid's links `spacing`
/// ms apart, run to quiescence and held against the oracle. Seed 17 keeps
/// `graph_edges` order; any other seed shuffles the same links over the same
/// arrival times. The seed also seeds the simulator. Nothing is on the
/// neighbourhood plane.
fn ternary_run(
    grid: (u32, u32),
    spacing: u64,
    seed: u64,
    strategy: Strategy,
) -> (u64, OracleReport) {
    held(ternary_deployment(grid, spacing, seed, strategy))
}

/// `LOGIC_H_TERNARY` on `grid` as [`ternary_run`] deploys it, not yet run.
fn ternary_deployment(grid: (u32, u32), spacing: u64, seed: u64, strategy: Strategy) -> Deployment {
    let topo = Topology::grid(grid.0, grid.1);
    let cfg = DeployConfig {
        sim: SimConfig {
            seed,
            ..SimConfig::default()
        },
        rt: RtConfig {
            strategy,
            ..RtConfig::default()
        },
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
    let mut links = graph_edges(&topo, 100, spacing);
    if seed != 17 {
        // Fisher–Yates over the links, each keeping a slot's arrival time.
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..links.len()).rev() {
            let j = rng.gen_range(0..=i);
            let (a, b) = (links[i].at, links[j].at);
            links.swap(i, j);
            (links[i].at, links[j].at) = (a, b);
        }
    }
    d.schedule_all(links.into_iter().map(|mut link| {
        let mut cols = link.tuple.terms();
        cols.push(Term::Int(1));
        link.tuple = Tuple::new(cols);
        link
    }))
    .unwrap();
    d
}

/// Run `d` to quiescence ten simulated seconds at a time, failing as soon
/// as it has sent more than `max_tx` messages, and hold its output against
/// the oracle.
fn held_within(mut d: Deployment, max_tx: u64) -> (u64, OracleReport) {
    let mut until = 0;
    loop {
        until += 10_000;
        d.run(until);
        let tx = d.metrics().total_tx();
        assert!(tx <= max_tx, "{tx} messages by {until} ms, and not settled");
        if d.sim.is_quiescent() {
            let report = oracle::check(&d, d.applied_events(), d.prog.outputs[0]);
            return (tx, report);
        }
    }
}

fn assert_exact(what: &str, (tx, report): (u64, OracleReport)) {
    assert!(
        report.exact() && report.expected > 0,
        "{what}: tx {tx}, {} expected, {} found, {} spurious {:?}, {} missing",
        report.expected,
        report.found,
        report.spurious.len(),
        report.spurious,
        report.missing.len()
    );
}

/// Item 8's witness: 61 expected, 64 found (tx 5,064) before a probe whose
/// pin leaves a negated literal unbound walked once more to check it — the
/// zombies a column walk left when a negated atom's row came before the
/// row that grounds it.
#[test]
fn ternary_logich_6x6_links_200ms_apart_is_oracle_exact() {
    assert_exact("6x6 @ 200 ms", ternary_run((6, 6), 200, 17, PA));
}

/// Item 8's sweep off the plane: four grids, links 1 to 1,000 ms apart,
/// seed 17's link order and five shuffles of it, plus the 20×10 grid at
/// 200 and 1,000 ms for two orders. Before the check pass 42 of the 96
/// small-grid runs held zombies, and 20×10 at 200 ms sent 2.5 M messages.
/// Centroid, which runs no walks, is the control on seed 17.
#[test]
fn ternary_logich_is_oracle_exact_over_grids_spacings_and_link_orders() {
    let mut runs = Vec::new();
    for grid in [(5, 5), (6, 6), (7, 7), (10, 5)] {
        for spacing in [1, 20, 200, 1_000] {
            for seed in [17, 3, 5, 7, 11, 13] {
                runs.push((grid, spacing, seed));
            }
        }
    }
    for spacing in [200, 1_000] {
        for seed in [17, 3] {
            runs.push(((20, 10), spacing, seed));
        }
    }
    for (grid, spacing, seed) in runs {
        let what = format!("PA {grid:?} @ {spacing} ms, seed {seed}");
        assert_exact(&what, ternary_run(grid, spacing, seed, PA));
        if seed == 17 && grid != (20, 10) {
            let what = format!("Centroid {grid:?} @ {spacing} ms");
            assert_exact(&what, ternary_run(grid, spacing, seed, Strategy::Centroid));
        }
    }
}

/// Off the plane a stage waits for its delay bound, however wide the grid.
/// Under the constant 2,000 ms stagger a stage's retraction chain on a
/// 20-wide grid (a 19-hop row store, τs + τc, a two-pass 19-hop column walk
/// and a result routed to a hashed owner) outran the holddown: 20×20 never
/// settled, sending 1.46 M messages by 150 s with 55–298 spurious tuples,
/// and 14×14 sent 112,033. Both settle oracle-exact now.
#[test]
fn ternary_logich_20x20_links_1ms_apart_settles_oracle_exact() {
    for (grid, max_tx) in [((14, 14), 112_033), ((20, 20), 500_000)] {
        let d = ternary_deployment(grid, 1, 17, PA);
        assert_exact(&format!("PA {grid:?} @ 1 ms"), held_within(d, max_tx));
    }
}
