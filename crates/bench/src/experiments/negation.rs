//! Fig. 10: incremental maintenance with negation — an Example-1-style
//! alert query under a mixed insert/delete workload. Measures
//! communication by phase and verifies exactness against the oracle for
//! growing delete fractions.

use crate::common::{gate_exact_runs, series, sym, CaseSpec};
use crate::report::Report;
use crate::row;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sensorlog_core::deploy::WorkloadEvent;
use sensorlog_core::{PassMode, Strategy};
use sensorlog_eval::UpdateKind;
use sensorlog_logic::{Term, Tuple};
use sensorlog_netsim::{SimConfig, Topology};

/// Per-epoch alert with negation: a sighting is covered when a suppressor
/// reading from the same node exists for that epoch; deleting the
/// suppressor must re-raise the alert.
const ALERT: &str = r#"
    .output alert.
    cov(V, K) :- sight(V, K), supp(V, K).
    alert(V, K) :- not cov(V, K), sight(V, K).
"#;

/// Epoch workload: every node sights every epoch; every 4th node has a
/// suppressor, a `frac` fraction of which are later deleted.
fn alert_events(topo: &Topology, epochs: u64, frac: f64, seed: u64) -> Vec<WorkloadEvent> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for k in 1..=epochs {
        for node in topo.nodes() {
            let base = k * 12_000 + node.0 as u64 * 37;
            let key = |p: &str| {
                (
                    sym(p),
                    Tuple::new(vec![Term::Int(node.0 as i64), Term::Int(k as i64)]),
                )
            };
            let (sp, st) = key("sight");
            out.push(WorkloadEvent {
                at: base,
                node,
                pred: sp,
                tuple: st,
                kind: UpdateKind::Insert,
            });
            if node.0 % 4 == 0 {
                let (pp, pt) = key("supp");
                out.push(WorkloadEvent {
                    at: base + 500,
                    node,
                    pred: pp,
                    tuple: pt.clone(),
                    kind: UpdateKind::Insert,
                });
                if rng.gen::<f64>() < frac {
                    out.push(WorkloadEvent {
                        at: base + 45_000,
                        node,
                        pred: pp,
                        tuple: pt,
                        kind: UpdateKind::Delete,
                    });
                }
            }
        }
    }
    out.sort_by_key(|e| e.at);
    out
}

/// Fig. 10: delete fraction sweep on an 8×8 grid. Loss-free, so every run
/// must equal the oracle; the message counts are pinned.
pub fn fig10(_quick: bool, r: &mut Report) {
    let mut points = Vec::new();
    for frac in [0.0f64, 0.25, 0.5] {
        let topo = Topology::square_grid(8);
        let events = alert_events(&topo, 2, frac, 23);
        let p = CaseSpec {
            src: ALERT.to_string(),
            topo,
            strategy: Strategy::Perpendicular { band_width: 1.0 },
            pass_mode: PassMode::OnePass,
            sim: SimConfig::default(),
            events,
            output: sym("alert"),
            horizon: 120_000_000,
        }
        .run();
        r.row(row![
            "del_frac" => frac, "tx" => p.total_tx, "store" => p.tx_store,
            "probe" => p.tx_probe, "result" => p.tx_result, "alerts" => p.oracle.expected,
            "compl" => p.oracle.completeness(), "sound" => p.oracle.soundness(),
        ]);
        points.push(p);
    }
    gate_exact_runs(r, points.iter().map(|p| &p.oracle));
    r.gate(
        "tx",
        "4427 4927 5107",
        series(points.iter().map(|p| p.total_tx)),
    );
}
