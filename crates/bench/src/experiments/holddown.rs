//! Fig. 15: finalize-holddown ablation — the design choice DESIGN.md calls
//! out. Owners debounce liveness transitions ("we need to wait for an
//! appropriate time before actually finalizing a derived fact", Sec. IV-C),
//! with XY components staggered so retractors (`jp`) settle before the
//! tuples they block (`j`) propagate. Turning the stagger off lets
//! transient insert/retract pairs escape into the network — correct at
//! quiescence, but paid for in messages.

use crate::common::{tree_depths_correct, LOGIC_J};
use crate::table::Table;
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
    let mut d = Deployment::new(LOGIC_J, BuiltinRegistry::standard(), topo.clone(), cfg).unwrap();
    d.schedule_all(graph_edges(&topo, 100, 200));
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

/// Fig. 15: logicJ on a 4×4 grid under three holddown settings.
pub fn fig15() -> Table {
    let mut t = Table::new(
        "fig15",
        "finalize-holddown ablation (logicJ, 4x4 grid)",
        &["holddown", "msgs @60s", "quiesced", "tree correct"],
    );
    for (label, timing) in [
        (
            "staggered (default)",
            PlanTiming {
                holddown_base: 100,
                xy_stagger: 2_000,
            },
        ),
        (
            "flat 100ms",
            PlanTiming {
                holddown_base: 100,
                xy_stagger: 0,
            },
        ),
        (
            "none (1ms)",
            PlanTiming {
                holddown_base: 1,
                xy_stagger: 0,
            },
        ),
    ] {
        let (msgs, quiesced, ok) = run_with(timing, 4);
        t.row(vec![
            label.into(),
            msgs.to_string(),
            if quiesced { "yes" } else { "NO" }.into(),
            if ok { "yes" } else { "NO" }.into(),
        ]);
    }
    t
}
