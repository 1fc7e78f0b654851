//! Fig. 16: PA beyond grids — the banded generalization for arbitrary
//! topologies (the construction the paper defers to \[44\]: "generalization
//! of PA to networks with arbitrary topology requires developing an
//! appropriate notion of vertical and horizontal paths such that each
//! vertical path intersects with every horizontal path"). Coordinate bands
//! play the role of rows/columns on connected random geometric graphs.

use crate::common::{gate_exact_runs, last_event, sym, JOIN2};
use crate::report::Report;
use crate::row;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sensorlog_core::deploy::{DeployConfig, Deployment, WorkloadEvent};
use sensorlog_core::oracle;
use sensorlog_core::{RtConfig, Strategy};
use sensorlog_eval::UpdateKind;
use sensorlog_logic::builtin::BuiltinRegistry;
use sensorlog_logic::{Term, Tuple};
use sensorlog_netsim::{SimConfig, Topology};

/// Random workload over a geometric topology (one reading per node per
/// stream, selective keys).
fn geo_workload(topo: &Topology, seed: u64) -> Vec<WorkloadEvent> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    let groups = (topo.len() as u32).max(2);
    let mut value = 0i64;
    for node in topo.nodes() {
        for pred in ["r1", "r2"] {
            value += 1;
            out.push(WorkloadEvent {
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
    out.sort_by_key(|e| e.at);
    out
}

/// Fig. 16's graphs, `(nodes, side)`, each with its PA run's pinned settle
/// time (ms, quiescence minus the last event). Each wait is priced by the
/// walks the bands take, and a route by the graph's longest; pricing a row
/// as (widest band − 1) routes of twice one node's eccentricity made them
/// 2,524 / 4,731 / 11,228, and a route as twice that eccentricity 634 /
/// 951 / 1,508.
const FIG16: [(usize, f64, u64); 3] = [(25, 4.0, 634), (50, 5.5, 861), (100, 8.0, 1358)];

/// Fig. 16: two-stream join on connected random geometric graphs with
/// banded PA vs Centroid. Loss-free, so every run must equal the oracle;
/// PA's settle time is gated per graph.
pub fn fig16(_quick: bool, r: &mut Report) {
    let mut runs = Vec::new();
    for (n, side, settle_pin) in FIG16 {
        let mut cells = Vec::new();
        for strategy in [
            Strategy::Perpendicular { band_width: 1.7 },
            Strategy::Centroid,
        ] {
            let topo = Topology::random_geometric(n, side, 1.7, 97)
                .expect("fig16 density is chosen to connect");
            let cfg = DeployConfig {
                rt: RtConfig {
                    strategy,
                    ..RtConfig::default()
                },
                sim: SimConfig {
                    seed: 13,
                    ..SimConfig::default()
                },
                ..DeployConfig::default()
            };
            let mut d = Deployment::new(JOIN2, BuiltinRegistry::standard(), topo.clone(), cfg)
                .expect("join compiles");
            let events = geo_workload(&topo, 29 + n as u64);
            d.schedule_all(events.clone())
                .expect("workload events lie on the topology");
            let settle_ms = d.run(60_000_000) - last_event(&d);
            let report = oracle::check(&d, &events, sym("q"));
            cells.push((d.metrics().total_tx(), report.completeness(), settle_ms));
            runs.push(report);
        }
        let pa_settle_ms = cells[0].2;
        r.gate(&format!("pa_settle_ms_{n}_nodes"), settle_pin, pa_settle_ms);
        r.row(row![
            "nodes" => n, "side" => side, "pa_tx" => cells[0].0, "pa_compl" => cells[0].1,
            "pa_settle_ms" => pa_settle_ms,
            "centroid_tx" => cells[1].0, "centroid_compl" => cells[1].1,
        ]);
    }
    gate_exact_runs(r, &runs);
}
