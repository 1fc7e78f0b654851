//! Fig. 15: finalize-holddown ablation — the design choice DESIGN.md calls
//! out. Owners debounce liveness transitions ("we need to wait for an
//! appropriate time before actually finalizing a derived fact", Sec. IV-C),
//! with XY components staggered so retractors (`jp`) settle before the
//! tuples they block (`j`) propagate. Turning the stagger off lets
//! transient insert/retract pairs escape into the network — correct at
//! quiescence, but paid for in messages.

use crate::common::{tree_depths_correct, LOGIC_J};
use crate::report::Report;
use crate::row;
use sensorlog_core::deploy::{DeployConfig, Deployment};
use sensorlog_core::workload::graph_edges;
use sensorlog_core::{PlanTiming, RtConfig, Strategy};
use sensorlog_logic::builtin::BuiltinRegistry;
use sensorlog_logic::Symbol;
use sensorlog_netsim::Topology;

/// Returns (messages, quiesced?, tree correct at cutoff).
fn run_with(timing: PlanTiming, m: u32) -> (u64, bool, bool) {
    let topo = Topology::square_grid(m);
    let cfg = DeployConfig {
        rt: RtConfig {
            strategy: Strategy::Perpendicular { band_width: 1.0 },
            ..RtConfig::default()
        },
        plan: timing,
        ..DeployConfig::default()
    };
    let mut d = Deployment::new(LOGIC_J, BuiltinRegistry::standard(), topo.clone(), cfg)
        .expect("logicJ compiles");
    d.schedule_all(graph_edges(&topo, 100, 200))
        .expect("workload events lie on the topology");
    // Hard cutoff: without the holddown, transient insert/retract pairs can
    // chase each other up the stages indefinitely — the very failure mode
    // the debouncing exists to prevent. 60 simulated seconds is ~2x the
    // staggered convergence time.
    d.run(60_000);
    let quiesced = d.sim.is_quiescent();
    let results = d.results(Symbol::intern("j"));
    let ok = tree_depths_correct(&topo, &results, 0);
    (d.metrics().total_tx(), quiesced, ok)
}

/// Fig. 15: logicJ on a 4×4 grid under three holddown settings. Only the
/// planner's default (staggered) quiesces with the right tree; each row —
/// messages by the cutoff, quiesced?, tree correct? — is pinned, so the two
/// `false` rows stay the failures the ablation exists to show. The 1 ms
/// row's livelock runs in one of two modes, about 7,000 or 11,800 messages
/// by the cutoff, and which one follows the hop-delay draws.
pub fn fig15(_quick: bool, r: &mut Report) {
    let flat = |holddown_base| PlanTiming {
        holddown_base,
        xy_stagger: 0,
    };
    for (label, gate, timing, want) in [
        (
            "staggered (default)",
            "staggered",
            PlanTiming::default(),
            "216/true/true",
        ),
        ("flat 100ms", "flat_100ms", flat(100), "6326/false/false"),
        ("none (1ms)", "none_1ms", flat(1), "11830/false/false"),
    ] {
        let (tx, quiesced, tree_correct) = run_with(timing, 4);
        r.row(row![
            "holddown" => label, "tx_at_60s" => tx, "quiesced" => quiesced,
            "tree_correct" => tree_correct,
        ]);
        r.gate(gate, want, format!("{tx}/{quiesced}/{tree_correct}"));
    }
}
