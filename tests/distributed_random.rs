//! Randomized distributed-vs-oracle checks: small deployments with random
//! workloads across strategies and seeds must converge exactly (loss-free).
//! Seeds are fixed for determinism; each case is a full simulated network.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sensorlog::core::workload::UniformStreams;
use sensorlog::prelude::*;

fn sym(s: &str) -> Symbol {
    Symbol::intern(s)
}

/// A program the random workloads feed: its source, its output, and the
/// two base streams `UniformStreams` generates (`pred(node, value, key)`).
type Program = (&'static str, &'static str, [&'static str; 2]);

const JOIN3: Program = (
    r#"
    .output q.
    q(X, Y) :- r1(N1, X, K), r2(N2, Y, K).
    "#,
    "q",
    ["r1", "r2"],
);

const NEG: Program = (
    r#"
    .output alert.
    cov(V, K)   :- sight(N1, V, K), supp(N2, S, K).
    alert(V, K) :- not cov(V, K), sight(N1, V, K).
    "#,
    "alert",
    ["sight", "supp"],
);

/// `r1` is read only by a selection, a rule with no other relational
/// literal: no rule joins it, so its updates are neither stored nor
/// walked. `hot`, derived from it, joins `r2` as any stream does.
const SELECT: Program = (
    r#"
    .output warm.
    hot(V, K)  :- r1(N, V, K), V > 20.
    warm(V, W) :- hot(V, K), r2(N, W, K).
    "#,
    "warm",
    ["r1", "r2"],
);

fn run_one(program: Program, strategy: Strategy, seed: u64, with_deletes: bool) {
    let (src, output, preds) = program;
    let topo = Topology::square_grid(4);
    let cfg = DeployConfig {
        rt: RtConfig {
            strategy,
            ..RtConfig::default()
        },
        sim: SimConfig {
            seed,
            ..SimConfig::default()
        },
        provenance: Provenance::enabled(),
        ..DeployConfig::default()
    };
    let mut d = Deployment::new(src, BuiltinRegistry::standard(), topo.clone(), cfg).unwrap();
    let events = UniformStreams {
        preds: preds.map(sym).to_vec(),
        interval: 10_000,
        duration: 20_000,
        delete_fraction: if with_deletes { 0.3 } else { 0.0 },
        delete_lag: 25_000,
        groups: 6,
        seed: seed * 3 + 1,
    }
    .events(&topo);
    d.schedule_all(events.clone()).unwrap();
    d.run(60_000_000);
    let report = oracle::check(&d, &events, sym(output));
    assert!(
        report.exact(),
        "{} seed {seed} deletes {with_deletes}: missing {:?} spurious {:?}",
        strategy.name(),
        report.missing,
        report.spurious
    );
    // Every oracle-expected result must also carry a well-founded proof in
    // the provenance DAG (leaves = live EDB facts), and nothing the
    // network holds may be DAG-unsupported.
    let prov = check_provenance(&d, &[sym(output)]);
    assert!(
        prov.ok(),
        "{} seed {seed} deletes {with_deletes}: provenance violations {:?}",
        strategy.name(),
        prov.violations
    );
}

/// Each strategy × seed runs the three-stream join, and the selection
/// program with deletes.
#[test]
fn random_join_workloads_all_strategies() {
    for seed in [1u64, 2, 3] {
        for strategy in [
            Strategy::Perpendicular { band_width: 1.0 },
            Strategy::NaiveBroadcast,
            Strategy::LocalStorage,
            Strategy::Centroid,
        ] {
            run_one(JOIN3, strategy, seed, false);
            run_one(SELECT, strategy, seed, true);
        }
    }
}

#[test]
fn random_join_with_deletes_pa() {
    for seed in [4u64, 5, 6, 7] {
        run_one(
            JOIN3,
            Strategy::Perpendicular { band_width: 1.0 },
            seed,
            true,
        );
    }
}

#[test]
fn random_negation_with_deletes() {
    for seed in [8u64, 9, 10] {
        for strategy in [
            Strategy::Perpendicular { band_width: 1.0 },
            Strategy::Centroid,
        ] {
            run_one(NEG, strategy, seed, true);
        }
    }
}

#[test]
fn random_event_storms_same_instant() {
    // Many updates at the *same* millisecond stress the timestamp
    // tie-breaking (Definition 2 ID ordering).
    for seed in [11u64, 12] {
        let topo = Topology::square_grid(4);
        let mut d = Deployment::new(
            JOIN3.0,
            BuiltinRegistry::standard(),
            topo.clone(),
            DeployConfig::default(),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut events = Vec::new();
        for burst in 0..3u64 {
            let at = 1_000 + burst * 20_000;
            for _ in 0..10 {
                let node = NodeId(rng.gen_range(0..16));
                let pred = if rng.gen() { sym("r1") } else { sym("r2") };
                let tuple = Tuple::new(vec![
                    Term::Int(node.0 as i64),
                    Term::Int(rng.gen_range(0..1000)),
                    Term::Int(rng.gen_range(0..4)),
                ]);
                events.push(WorkloadEvent {
                    at,
                    node,
                    pred,
                    tuple,
                    kind: UpdateKind::Insert,
                });
            }
        }
        d.schedule_all(events.clone()).unwrap();
        d.run(60_000_000);
        let report = oracle::check(&d, &events, sym("q"));
        assert!(report.expected > 0, "storm must produce joins");
        assert!(
            report.exact(),
            "seed {seed}: missing {:?} spurious {:?}",
            report.missing,
            report.spurious
        );
    }
}

#[test]
fn clock_skew_and_jitter_randomized() {
    for seed in [13u64, 14] {
        let topo = Topology::square_grid(4);
        let cfg = DeployConfig {
            sim: SimConfig {
                seed,
                clock_skew_max: 40,
                hop_delay: (5, 60),
                ..SimConfig::default()
            },
            ..DeployConfig::default()
        };
        let mut d = Deployment::new(NEG.0, BuiltinRegistry::standard(), topo.clone(), cfg).unwrap();
        let events = UniformStreams {
            preds: vec![sym("sight"), sym("supp")],
            interval: 12_000,
            duration: 24_000,
            delete_fraction: 0.25,
            delete_lag: 30_000,
            groups: 5,
            seed,
        }
        .events(&topo);
        d.schedule_all(events.clone()).unwrap();
        d.run(120_000_000);
        let report = oracle::check(&d, &events, sym("alert"));
        assert!(
            report.exact(),
            "seed {seed}: missing {:?} spurious {:?}",
            report.missing,
            report.spurious
        );
    }
}

/// Example 3 and the improved tree program of Secs. V/VI.
const TREE_PROGRAMS: [(&str, &str); 2] = [
    (
        "h",
        r#"
        .output h.
        h(0, 0, 0).
        h(0, X, 1) :- g(0, X).
        hp(Y, D + 1) :- h(_, Y, D'), (D + 1) > D', h(_, X, D), g(X, Y).
        h(X, Y, D + 1) :- g(X, Y), h(_, X, D), not hp(Y, D + 1).
        "#,
    ),
    (
        "j",
        r#"
        .output j.
        j(0, 0).
        j(X, 1) :- g(0, X).
        jp(Y, D + 1) :- j(Y, D'), (D + 1) > D', j(X, D), g(X, Y).
        j(Y, D + 1) :- g(X, Y), j(X, D), not jp(Y, D + 1).
        "#,
    ),
];

/// ROADMAP item 8(a): the tree programs under PA, links arriving one by one
/// in a seeded random order `spacing` ms apart — 64 cases over four grids
/// and four spacings, 200 and 1000 ms being the regime that left zombies
/// before the neighbourhood plane. Every case must equal the oracle.
#[test]
fn tree_programs_are_exact_under_shuffled_link_arrivals() {
    let mut cases = 0;
    for (output, src) in TREE_PROGRAMS {
        for (cols, rows) in [(5, 5), (6, 6), (7, 7), (10, 5)] {
            for spacing in [1, 20, 200, 1_000] {
                for shuffle in [1u64, 2] {
                    let topo = Topology::grid(cols, rows);
                    let mut links = workload::graph_edges(&topo, 100, 0);
                    let mut rng = StdRng::seed_from_u64(shuffle * 1_000 + u64::from(cols * rows));
                    for i in (1..links.len()).rev() {
                        links.swap(i, rng.gen_range(0..=i));
                    }
                    for (i, link) in links.iter_mut().enumerate() {
                        link.at = 100 + i as u64 * spacing;
                    }
                    let cfg = DeployConfig {
                        sim: SimConfig {
                            seed: shuffle,
                            ..SimConfig::default()
                        },
                        ..DeployConfig::default()
                    };
                    let mut d = Deployment::new(src, BuiltinRegistry::standard(), topo, cfg)
                        .expect("tree program compiles");
                    d.schedule_all(links.clone()).unwrap();
                    d.run(2_000_000);
                    let report = oracle::check(&d, &links, sym(output));
                    assert!(
                        report.exact() && report.expected > 0,
                        "{output} {cols}x{rows} @ {spacing} ms, shuffle {shuffle}: \
                         missing {:?} spurious {:?}",
                        report.missing,
                        report.spurious
                    );
                    cases += 1;
                }
            }
        }
    }
    assert_eq!(cases, 64);
}
