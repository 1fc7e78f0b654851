//! Tables 4 and 5: the observability views the telemetry layer adds on
//! top of the paper's communication-cost currency.
//!
//! * **Table 4** — per-predicate message breakdown: where the traffic of a
//!   run actually goes, predicate by predicate, split into the storage /
//!   probe / result planes. Compares the two shortest-path-tree programs
//!   (logicH carries a per-edge argument that logicJ drops, so logicH ships
//!   strictly more result traffic per predicate) and PA vs Centroid on the
//!   two-stream join (Centroid concentrates store traffic on one owner;
//!   PA trades it for probe traffic along bands).
//! * **Table 5** — phase timing: for the same four runs, how often each
//!   instrumented runtime phase fired and how much simulated time the
//!   latency-style phases accumulated. Wall-clock is recorded in the
//!   snapshot too but deliberately left out of the table: it varies run to
//!   run, while counts and sim-ms are deterministic.

use crate::common::{
    gate_exact_runs, join_workload, sptree_deployment_observed, tree_depths_correct, CaseSpec,
    RunPoint, JOIN2, LOGIC_H, LOGIC_J,
};
use crate::report::Report;
use crate::row;
use sensorlog_core::prov::Provenance;
use sensorlog_core::{PassMode, Strategy};
use sensorlog_logic::Symbol;
use sensorlog_netsim::{SimConfig, Topology};
use sensorlog_telemetry::{Snapshot, Telemetry};

/// Run one shortest-path-tree program with telemetry enabled: its snapshot
/// (Fig. 8 runs blind; here the breakdown is the point) and whether its
/// tree is the BFS tree.
fn sptree_snapshot(src: &str, out_pred: &str, m: u32) -> (Snapshot, bool) {
    let mut d = sptree_deployment_observed(
        src,
        (m, m),
        SimConfig::default(),
        Provenance::disabled(),
        Telemetry::enabled(),
        200,
    );
    d.run(200_000_000);
    let results = d.results(Symbol::intern(out_pred));
    let correct = tree_depths_correct(d.sim.topology(), &results, usize::from(out_pred == "h"));
    (d.telemetry_snapshot(), correct)
}

/// Run the two-stream join under `strategy` on an `m × m` grid (the `bench
/// smoke` case reports the same run).
pub fn join_point(strategy: Strategy, m: u32) -> RunPoint {
    let topo = Topology::square_grid(m);
    let events = join_workload(&topo, &["r1", "r2"], m * m * 2, 41 + m as u64);
    CaseSpec {
        src: JOIN2.to_string(),
        topo,
        strategy,
        pass_mode: PassMode::OnePass,
        sim: SimConfig::default(),
        events,
        output: Symbol::intern("q"),
        horizon: 30_000_000,
    }
    .run()
}

/// Tables 4 and 5 from one set of four runs — two loss-free tree programs,
/// which must build the BFS tree, and the loss-free join under PA and
/// Centroid, which must equal the oracle. Table 4's rows (one per run and
/// predicate) come first, then Table 5's (one per run and phase); every run
/// must send per-predicate traffic and record deliveries.
pub fn table4_5(_quick: bool, r: &mut Report) {
    let (h, h_ok) = sptree_snapshot(LOGIC_H, "h", 4);
    let (j, j_ok) = sptree_snapshot(LOGIC_J, "j", 4);
    let pa = join_point(Strategy::Perpendicular { band_width: 1.0 }, 6);
    let centroid = join_point(Strategy::Centroid, 6);
    r.gate("trees_correct", 2, usize::from(h_ok) + usize::from(j_ok));
    gate_exact_runs(r, [&pa.oracle, &centroid.oracle]);
    let runs = [
        ("logicH m=4", h),
        ("logicJ m=4", j),
        ("PA join m=6", pa.snapshot),
        ("Centroid join m=6", centroid.snapshot),
    ];
    table4(r, &runs);
    table5(r, &runs);
}

/// Table 4: per-predicate message breakdown (per-hop sends by plane).
fn table4(r: &mut Report, runs: &[(&'static str, Snapshot)]) {
    let mut sending = 0;
    for (label, snap) in runs {
        let mut total_sent = 0u64;
        for pred in snap.pred_scopes() {
            let scope = format!("pred:{pred}");
            let sent = |plane| snap.counter(&scope, plane);
            // Centroid ships everything on the to-center plane instead.
            let planes = ["sent_store", "sent_probe", "sent_result", "sent_centroid"];
            total_sent += planes.iter().map(|&p| sent(p)).sum::<u64>();
            r.row(row![
                "run" => *label, "pred" => pred.as_str(), "store" => sent("sent_store"),
                "probe" => sent("sent_probe"), "result" => sent("sent_result"),
                "center" => sent("sent_centroid"), "deltas" => sent("deriv_deltas"),
                "emitted" => sent("results_emitted"),
            ]);
        }
        sending += usize::from(total_sent > 0);
    }
    r.gate("runs_with_pred_traffic", runs.len(), sending);
}

/// Table 5: phase activity — how often each instrumented phase fired and
/// the simulated latency it accumulated.
fn table5(r: &mut Report, runs: &[(&'static str, Snapshot)]) {
    // Runtime phases first, simulator phases last; latency-style phases
    // (result.apply, join.probe) are the ones with meaningful sim-ms.
    const PHASES: &[&str] = &[
        "core.update.initiate",
        "core.join.start",
        "core.join.probe",
        "core.result.apply",
        "inc.apply",
        "sim.route",
        "sim.deliver",
        "sim.timer",
    ];
    let mut delivering = 0;
    for (label, snap) in runs {
        for &name in PHASES {
            let Some(p) = snap.phase(name) else { continue };
            r.row(row!["run" => *label, "phase" => name, "count" => p.count, "sim_ms" => p.sim_ms]);
        }
        delivering += usize::from(snap.phase("sim.deliver").is_some());
    }
    r.gate("runs_with_deliveries", runs.len(), delivering);
}
