//! Fig. 15: finalize-holddown ablation — the design choice DESIGN.md calls
//! out. Owners debounce liveness transitions ("we need to wait for an
//! appropriate time before actually finalizing a derived fact", Sec. IV-C),
//! with XY components staggered so retractors (`jp`) settle before the
//! tuples they block (`j`) propagate. Turning the stagger off — a flat
//! `.holddown` declaration for both — lets transient insert/retract pairs
//! escape into the network — correct at quiescence, but paid for in
//! messages.

use crate::common::{tree_depths_correct, LOGIC_J};
use crate::report::Report;
use crate::row;
use sensorlog_core::deploy::{DeployConfig, Deployment};
use sensorlog_core::workload::graph_edges;
use sensorlog_core::{RtConfig, Strategy};
use sensorlog_logic::builtin::BuiltinRegistry;
use sensorlog_logic::Symbol;
use sensorlog_netsim::Topology;

/// Runs `src` (logicJ, perhaps with `.holddown` declarations). Returns
/// (messages, quiesced?, tree correct at cutoff).
fn run_with(src: &str, m: u32) -> (u64, bool, bool) {
    let topo = Topology::square_grid(m);
    let cfg = DeployConfig {
        rt: RtConfig {
            strategy: Strategy::Perpendicular { band_width: 1.0 },
            ..RtConfig::default()
        },
        ..DeployConfig::default()
    };
    let mut d = Deployment::new(src, BuiltinRegistry::standard(), topo.clone(), cfg)
        .expect("logicJ compiles");
    d.schedule_all(graph_edges(&topo, 100, 200))
        .expect("workload events lie on the topology");
    // Hard cutoff: without the holddown, transient insert/retract pairs can
    // chase each other up the stages indefinitely — the very failure mode
    // the debouncing exists to prevent. 20 simulated seconds is ~2x the
    // staggered convergence time (the last link lands at 9.5 s).
    d.run(20_000);
    let quiesced = d.sim.is_quiescent();
    let results = d.results(Symbol::intern("j"));
    let ok = tree_depths_correct(&topo, &results, 0);
    (d.metrics().total_tx(), quiesced, ok)
}

/// Fig. 15: logicJ on a 4×4 grid under three holddown settings: the
/// derived one (staggered), and two flat ones the program declares. Only
/// the derived one quiesces with the right tree; each row —
/// messages by the cutoff, quiesced?, tree correct? — is pinned, so the two
/// `false` rows stay the failures the ablation exists to show. A flat
/// row's message count by the cutoff follows the hop-delay draws.
pub fn fig15(_quick: bool, r: &mut Report) {
    let flat = |ms: u64| format!(".holddown j {ms}. .holddown jp {ms}.\n{LOGIC_J}");
    for (label, gate, src, want) in [
        (
            "staggered (derived)",
            "staggered",
            LOGIC_J.to_string(),
            "207/true/true",
        ),
        ("flat 100ms", "flat_100ms", flat(100), "222075/false/false"),
        ("none (1ms)", "none_1ms", flat(1), "308017/false/false"),
    ] {
        let (tx, quiesced, tree_correct) = run_with(&src, 4);
        r.row(row![
            "holddown" => label, "tx_at_20s" => tx, "quiesced" => quiesced,
            "tree_correct" => tree_correct,
        ]);
        r.gate(gate, want, format!("{tx}/{quiesced}/{tree_correct}"));
    }
}
