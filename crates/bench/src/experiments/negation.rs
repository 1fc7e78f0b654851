//! Fig. 10: incremental maintenance with negation — an Example-1-style
//! alert query under a mixed insert/delete workload. Measures
//! communication by phase and verifies exactness against the oracle for
//! growing delete fractions.

use crate::common::{sym, CaseSpec};
use crate::table::{f2, Table};
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

/// Fig. 10: delete fraction sweep on an 8×8 grid.
pub fn fig10() -> Table {
    let mut t = Table::new(
        "fig10",
        "negation maintenance under insert/delete mix (8x8 grid, Example-1-style query)",
        &[
            "del frac", "msgs", "store", "probe", "result", "alerts", "compl", "sound",
        ],
    );
    for frac in [0.0f64, 0.25, 0.5] {
        let topo = Topology::square_grid(8);
        let events = alert_events(&topo, 2, frac, 23);
        let p = CaseSpec {
            src: ALERT.to_string(),
            topo,
            strategy: Strategy::Perpendicular { band_width: 1.0 },
            pass_mode: PassMode::OnePass,
            sim: SimConfig::default(),
            spatial_radius: None,
            events,
            output: sym("alert"),
            horizon: 120_000_000,
        }
        .run();
        assert!(
            p.completeness > 0.999 && p.soundness > 0.999,
            "lossless negation maintenance must be exact at frac={frac}: compl {} sound {}",
            p.completeness,
            p.soundness
        );
        t.row(vec![
            f2(frac),
            p.total_tx.to_string(),
            p.tx_store.to_string(),
            p.tx_probe.to_string(),
            p.tx_result.to_string(),
            p.expected.to_string(),
            f2(p.completeness),
            f2(p.soundness),
        ]);
    }
    t
}
