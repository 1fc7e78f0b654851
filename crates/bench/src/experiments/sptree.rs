//! Fig. 8: the shortest-path-tree programs (Example 3) vs. the procedural
//! flood baseline — total messages and convergence time vs. network size.
//!
//! Three contenders:
//! * `logicH` — the paper's Example 3 program, verbatim;
//! * `logicJ` — the improved program the paper references in Secs. V/VI:
//!   the per-edge argument of `h` is dropped (`j(y, d)` = "y is at depth
//!   d"), shrinking both the derived tables and the derivation sets;
//! * `flood` — the hand-written BFS beacon protocol (the Kairos-style
//!   procedural comparator).

use crate::common::{sptree_deployment, tree_depths_correct, LOGIC_H, LOGIC_J};
use crate::table::Table;
use sensorlog_logic::Symbol;
use sensorlog_netsim::{NodeId, SimConfig, Topology};
use sensorlog_netstack::flood::run_flood;

/// Run one deductive tree construction; returns (messages, converged-at ms,
/// depths correct?).
fn run_deductive(src: &str, out_pred: &str, m: u32) -> (u64, u64, bool) {
    let topo = Topology::square_grid(m);
    let mut d = sptree_deployment(src, (m, m), SimConfig::default(), 200);
    let converged = d.run(200_000_000);
    let results = d.results(Symbol::intern(out_pred));
    let ok = tree_depths_correct(&topo, &results, usize::from(out_pred == "h"));
    (d.metrics().total_tx(), converged, ok)
}

/// Fig. 8: messages and convergence time for logicH / logicJ / flood.
pub fn fig8() -> Table {
    let mut t = Table::new(
        "fig8",
        "shortest-path tree: messages (and convergence s) vs grid size",
        &[
            "m",
            "logicH msgs",
            "logicH s",
            "logicJ msgs",
            "logicJ s",
            "flood msgs",
            "flood s",
        ],
    );
    for m in [3u32, 4, 5] {
        let (h_msgs, h_t, h_ok) = run_deductive(LOGIC_H, "h", m);
        let (j_msgs, j_t, j_ok) = run_deductive(LOGIC_J, "j", m);
        assert!(h_ok, "logicH wrong tree at m={m}");
        assert!(j_ok, "logicJ wrong tree at m={m}");
        let flood = run_flood(&Topology::square_grid(m), NodeId(0), SimConfig::default());
        t.row(vec![
            m.to_string(),
            h_msgs.to_string(),
            format!("{:.1}", h_t as f64 / 1000.0),
            j_msgs.to_string(),
            format!("{:.1}", j_t as f64 / 1000.0),
            flood.total_messages.to_string(),
            format!("{:.1}", flood.converged_at as f64 / 1000.0),
        ]);
    }
    t
}
