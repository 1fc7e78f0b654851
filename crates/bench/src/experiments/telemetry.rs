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
    join_workload, sptree_deployment_observed, CaseSpec, RunPoint, JOIN2, LOGIC_H, LOGIC_J,
};
use crate::table::Table;
use sensorlog_core::prov::Provenance;
use sensorlog_core::{PassMode, Strategy};
use sensorlog_logic::Symbol;
use sensorlog_netsim::{SimConfig, Topology};
use sensorlog_telemetry::{Snapshot, Telemetry};

/// Run one shortest-path-tree program with telemetry enabled and return
/// its snapshot (the sptree experiment itself runs blind; here the
/// breakdown is the point).
fn sptree_snapshot(src: &str, m: u32) -> Snapshot {
    let mut d = sptree_deployment_observed(
        src,
        (m, m),
        SimConfig::default(),
        Provenance::disabled(),
        Telemetry::enabled(),
        200,
    );
    d.run(200_000_000);
    d.telemetry_snapshot()
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
        spatial_radius: None,
        events,
        output: Symbol::intern("q"),
        horizon: 30_000_000,
    }
    .run()
}

/// The four runs both tables report, labelled.
fn runs() -> Vec<(&'static str, Snapshot)> {
    vec![
        ("logicH m=4", sptree_snapshot(LOGIC_H, 4)),
        ("logicJ m=4", sptree_snapshot(LOGIC_J, 4)),
        (
            "PA join m=6",
            join_point(Strategy::Perpendicular { band_width: 1.0 }, 6).snapshot,
        ),
        (
            "Centroid join m=6",
            join_point(Strategy::Centroid, 6).snapshot,
        ),
    ]
}

/// Tables 4 and 5 from one set of runs (the dispatcher caches the pair so
/// `all` doesn't run the four deployments twice).
pub fn table4_table5() -> (Table, Table) {
    let runs = runs();
    (build_table4(&runs), build_table5(&runs))
}

/// Table 4: per-predicate message breakdown (per-hop sends by plane).
fn build_table4(runs: &[(&'static str, Snapshot)]) -> Table {
    let mut t = Table::new(
        "table4",
        "per-predicate message breakdown (per-hop sends)",
        &[
            "run", "pred", "store", "probe", "result", "center", "deltas", "emitted",
        ],
    );
    for (label, snap) in runs {
        let mut total_sent = 0u64;
        for pred in snap.pred_scopes() {
            let scope = format!("pred:{pred}");
            let store = snap.counter(&scope, "sent_store");
            let probe = snap.counter(&scope, "sent_probe");
            let result = snap.counter(&scope, "sent_result");
            // Centroid ships everything on the to-center plane instead.
            let center = snap.counter(&scope, "sent_centroid");
            total_sent += store + probe + result + center;
            t.row(vec![
                label.to_string(),
                pred.clone(),
                store.to_string(),
                probe.to_string(),
                result.to_string(),
                center.to_string(),
                snap.counter(&scope, "deriv_deltas").to_string(),
                snap.counter(&scope, "results_emitted").to_string(),
            ]);
        }
        assert!(total_sent > 0, "{label}: no per-predicate traffic recorded");
    }
    t
}

/// Table 5: phase activity — how often each instrumented phase fired and
/// the simulated latency it accumulated.
fn build_table5(runs: &[(&'static str, Snapshot)]) -> Table {
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
    let mut t = Table::new(
        "table5",
        "phase activity: fire count and accumulated simulated latency",
        &["run", "phase", "count", "sim ms"],
    );
    for (label, snap) in runs {
        for &name in PHASES {
            let Some(p) = snap.phase(name) else { continue };
            t.row(vec![
                label.to_string(),
                name.to_string(),
                p.count.to_string(),
                p.sim_ms.to_string(),
            ]);
        }
        assert!(
            snap.phase("sim.deliver").is_some(),
            "{label}: profiler recorded no deliveries"
        );
    }
    t
}
