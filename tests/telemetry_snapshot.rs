//! Acceptance check for the telemetry layer: with telemetry enabled, the
//! JSONL snapshot of a run contains per-predicate message counters,
//! per-phase span timings, and merged network-wide histograms — asserted
//! for both the shortest-path-tree (sptree) and the random-geometric-graph
//! experiment configurations.

use sensorlog::core::deploy::{DeployConfig, Deployment, WorkloadEvent};
use sensorlog::core::strategy::Strategy;
use sensorlog::core::workload::graph_edges;
use sensorlog::prelude::*;

const LOGIC_J: &str = r#"
    .output j.
    j(0, 0).
    j(X, 1) :- g(0, X).
    jp(Y, D + 1) :- j(Y, D'), (D + 1) > D', j(X, D), g(X, Y).
    j(Y, D + 1) :- g(X, Y), j(X, D), not jp(Y, D + 1).
"#;

const JOIN3: &str = r#"
    .output q.
    q(X, Y) :- r1(N1, X, K), r2(N2, Y, K).
"#;

/// The snapshot shape every telemetry-enabled run must produce.
fn assert_full_snapshot(snap: &Snapshot, label: &str, preds: &[&str]) {
    // Per-predicate message counters: every workload predicate shows up
    // under a `pred:` scope with per-plane send counts.
    let scopes = snap.pred_scopes();
    for p in preds {
        assert!(
            scopes.contains(&p.to_string()),
            "{label}: no pred:{p} scope"
        );
    }
    let sent: u64 = ["sent_store", "sent_probe", "sent_result", "sent_centroid"]
        .iter()
        .map(|n| snap.counter_sum("pred:", n))
        .sum();
    assert!(sent > 0, "{label}: no per-predicate send counters");

    // Per-phase span timings, with wall-time actually recorded.
    for phase in ["core.update.initiate", "sim.route", "sim.deliver"] {
        let p = snap
            .phase(phase)
            .unwrap_or_else(|| panic!("{label}: phase {phase} missing"));
        assert!(p.count > 0, "{label}: phase {phase} never fired");
    }
    assert!(
        snap.phases.iter().any(|p| p.wall_ns > 0),
        "{label}: no wall time recorded in any phase"
    );
    assert!(
        snap.phase("core.join.probe").is_some_and(|p| p.sim_ms > 0),
        "{label}: join probes accumulated no simulated latency"
    );

    // Merged network-wide histogram rollups, present in the JSONL too.
    for hist in ["tx_bytes", "hop_delay_ms"] {
        let m = snap
            .merged_hist(hist)
            .unwrap_or_else(|| panic!("{label}: no merged {hist} histogram"));
        assert!(m.count > 0, "{label}: merged {hist} is empty");
    }
    let jsonl = snap.to_jsonl();
    for needle in [
        r#""scope":"merged","name":"tx_bytes""#,
        r#""type":"phase""#,
        r#""scope":"pred:"#,
    ] {
        assert!(jsonl.contains(needle), "{label}: JSONL lacks {needle}");
    }

    // Static-bound cross-validation: observed per-predicate peaks were
    // recorded, and none of them exceeded the analyzer's memory bounds.
    assert!(
        snap.gauges
            .iter()
            .any(|g| g.scope.starts_with("pred:") && g.name == "peak_stored" && g.value > 0),
        "{label}: no per-predicate peak_stored gauges recorded"
    );
    assert_eq!(
        snap.gauge("global", "diag.bound.violations"),
        0,
        "{label}: observed state exceeded the static analyzer's bounds"
    );
}

#[test]
fn sptree_snapshot_is_complete() {
    let topo = Topology::square_grid(4);
    let cfg = DeployConfig {
        rt: RtConfig {
            strategy: Strategy::Perpendicular { band_width: 1.0 },
            ..RtConfig::default()
        },
        sim: SimConfig::default(),
        telemetry: Telemetry::enabled(),
        ..DeployConfig::default()
    };
    let mut d = Deployment::new(LOGIC_J, BuiltinRegistry::standard(), topo.clone(), cfg).unwrap();
    d.schedule_all(graph_edges(&topo, 100, 200)).unwrap();
    d.run(200_000_000);
    assert_full_snapshot(&d.telemetry_snapshot(), "sptree", &["g", "j", "jp"]);
}

#[test]
fn geometric_snapshot_is_complete() {
    let topo = Topology::random_geometric(25, 4.0, 1.7, 97).unwrap();
    let cfg = DeployConfig {
        rt: RtConfig {
            strategy: Strategy::Perpendicular { band_width: 1.7 },
            ..RtConfig::default()
        },
        sim: SimConfig {
            seed: 13,
            ..SimConfig::default()
        },
        telemetry: Telemetry::enabled(),
        ..DeployConfig::default()
    };
    let mut d = Deployment::new(JOIN3, BuiltinRegistry::standard(), topo.clone(), cfg).unwrap();
    let mut events = Vec::new();
    let mut value = 0i64;
    for node in topo.nodes() {
        for pred in ["r1", "r2"] {
            value += 1;
            events.push(WorkloadEvent {
                at: 500 + 100 * node.0 as u64,
                node,
                pred: Symbol::intern(pred),
                tuple: Tuple::new(vec![
                    Term::Int(node.0 as i64),
                    Term::Int(value),
                    // Both streams at a node share a key: joins guaranteed.
                    Term::Int(node.0 as i64 % 12),
                ]),
                kind: UpdateKind::Insert,
            });
        }
    }
    d.schedule_all(events).unwrap();
    d.run(60_000_000);
    assert_full_snapshot(&d.telemetry_snapshot(), "geometric", &["q", "r1", "r2"]);
}
