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

use crate::common::{last_event, series, sptree_deployment, tree_depths_correct, LOGIC_H, LOGIC_J};
use crate::report::Report;
use crate::row;
use sensorlog_logic::Symbol;
use sensorlog_netsim::{NodeId, SimConfig, Topology};
use sensorlog_netstack::flood::run_flood;

/// One deductive tree construction, links `spacing` ms apart from t = 100
/// ms: (messages, converged-at s, settle ms, depths correct?). Settle is
/// quiescence minus the last link's arrival.
fn run_deductive(src: &str, out_pred: &str, m: u32, spacing: u64) -> (u64, f64, u64, bool) {
    let topo = Topology::square_grid(m);
    let mut d = sptree_deployment(src, (m, m), SimConfig::default(), spacing);
    let converged = d.run(200_000_000);
    let results = d.results(Symbol::intern(out_pred));
    let ok = tree_depths_correct(&topo, &results, usize::from(out_pred == "h"));
    let settle = converged - last_event(&d);
    (
        d.metrics().total_tx(),
        converged as f64 / 1000.0,
        settle,
        ok,
    )
}

/// Fig. 8: messages and convergence time for logicH / logicJ / flood. All
/// three must build the BFS tree; both programs' message counts and all
/// three settle times (quiescence minus the last workload event: the last
/// link's arrival, or the flood's start at t = 0) are pinned. The programs
/// run twice: links 200 ms apart, and every link at t = 100 ms (`_flat_`,
/// the flood's like-for-like arrival profile).
pub fn fig8(_quick: bool, r: &mut Report) {
    let (mut h_tx, mut j_tx, mut correct) = (Vec::new(), Vec::new(), 0);
    let (mut h_settle, mut j_settle, mut flood_settle) = (Vec::new(), Vec::new(), Vec::new());
    let (mut h_flat, mut j_flat) = (Vec::new(), Vec::new());
    let sizes = [3u32, 4, 5];
    for m in sizes {
        let topo = Topology::square_grid(m);
        let (h_msgs, h_s, h_settle_ms, h_ok) = run_deductive(LOGIC_H, "h", m, 200);
        let (j_msgs, j_s, j_settle_ms, j_ok) = run_deductive(LOGIC_J, "j", m, 200);
        let (.., h_flat_ms, h_flat_ok) = run_deductive(LOGIC_H, "h", m, 0);
        let (.., j_flat_ms, j_flat_ok) = run_deductive(LOGIC_J, "j", m, 0);
        let flood = run_flood(&topo, NodeId(0), SimConfig::default());
        let flood_ok = topo.nodes().all(|n| {
            let (x, y) = topo.grid_coords(n).expect("grid topology");
            flood.tree[n.0 as usize].1 == Some(x + y)
        });
        correct += usize::from(h_ok) + usize::from(j_ok) + usize::from(flood_ok);
        h_tx.push(h_msgs);
        j_tx.push(j_msgs);
        h_settle.push(h_settle_ms);
        j_settle.push(j_settle_ms);
        flood_settle.push(flood.converged_at);
        // A run that built the wrong tree has no settle time to pin.
        let settled = |ok: bool, ms: u64| if ok { ms.to_string() } else { "wrong".into() };
        h_flat.push(settled(h_flat_ok, h_flat_ms));
        j_flat.push(settled(j_flat_ok, j_flat_ms));
        r.row(row![
            "m" => m, "logicH_tx" => h_msgs, "logicH_s" => h_s, "logicH_settle_ms" => h_settle_ms,
            "logicJ_tx" => j_msgs, "logicJ_s" => j_s, "logicJ_settle_ms" => j_settle_ms,
            "flood_tx" => flood.total_messages, "flood_s" => flood.converged_at as f64 / 1000.0,
            "flood_settle_ms" => flood.converged_at,
            "logicH_flat_settle_ms" => h_flat_ms, "logicJ_flat_settle_ms" => j_flat_ms,
        ]);
    }
    r.gate("trees_correct", 3 * sizes.len(), correct);
    r.gate("logicH_tx", "142 303 524", series(h_tx));
    r.gate("logicJ_tx", "104 207 344", series(j_tx));
    r.gate("logicH_settle_ms", "168 157 157", series(h_settle));
    r.gate("logicJ_settle_ms", "179 164 159", series(j_settle));
    r.gate("flood_settle_ms", "63 86 119", series(flood_settle));
    r.gate("logicH_flat_settle_ms", "826 1149 1467", series(h_flat));
    r.gate("logicJ_flat_settle_ms", "827 1163 1481", series(j_flat));
}
