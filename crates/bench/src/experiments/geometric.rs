//! Fig. 16: PA beyond grids — the banded generalization for arbitrary
//! topologies (the construction the paper defers to \[44\]: "generalization
//! of PA to networks with arbitrary topology requires developing an
//! appropriate notion of vertical and horizontal paths such that each
//! vertical path intersects with every horizontal path"). Coordinate bands
//! play the role of rows/columns on connected random geometric graphs.

use crate::common::sym;
use crate::table::{f2, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sensorlog_core::deploy::{DeployConfig, Deployment, WorkloadEvent};
use sensorlog_core::oracle;
use sensorlog_core::{RtConfig, Strategy};
use sensorlog_eval::UpdateKind;
use sensorlog_logic::builtin::BuiltinRegistry;
use sensorlog_logic::{Term, Tuple};
use sensorlog_netsim::{SimConfig, Topology};

const JOIN3: &str = r#"
    .output q.
    q(X, Y) :- r1(N1, X, K), r2(N2, Y, K).
"#;

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

/// Fig. 16: two-stream join on connected random geometric graphs with
/// banded PA vs Centroid.
pub fn fig16() -> Table {
    let mut t = Table::new(
        "fig16",
        "banded PA on random geometric graphs (radio radius 1.7)",
        &[
            "nodes",
            "side",
            "PA msgs",
            "PA compl",
            "Centroid msgs",
            "Centroid compl",
        ],
    );
    for (n, side) in [(25usize, 4.0f64), (50, 5.5), (100, 8.0)] {
        let mut row = vec![n.to_string(), format!("{side:.1}")];
        for strategy in [
            Strategy::Perpendicular { band_width: 1.7 },
            Strategy::Centroid,
        ] {
            let topo = Topology::random_geometric(n, side, 1.7, 97)
                .expect("fig16 density is chosen to connect");
            let cfg = DeployConfig {
                rt: RtConfig {
                    strategy,
                    // Banded walks span multi-hop gaps: give storage/join
                    // phases more headroom than the grid defaults.
                    tau_s: 4_000,
                    tau_j: 8_000,
                    ..RtConfig::default()
                },
                sim: SimConfig {
                    seed: 13,
                    ..SimConfig::default()
                },
                ..DeployConfig::default()
            };
            let mut d =
                Deployment::new(JOIN3, BuiltinRegistry::standard(), topo.clone(), cfg).unwrap();
            let events = geo_workload(&topo, 29 + n as u64);
            d.schedule_all(events.clone());
            d.run(60_000_000);
            let report = oracle::check(&d, &events, sym("q"));
            assert!(report.expected > 0, "geometric workload must join");
            assert!(
                report.soundness() > 0.999,
                "{} n={n}: spurious {:?}",
                strategy.name(),
                report.spurious
            );
            row.push(d.metrics().total_tx().to_string());
            row.push(f2(report.completeness()));
        }
        t.row(row);
    }
    t
}
