//! Fig. 13: node-failure robustness — the motivation the paper gives for
//! avoiding central collection ("may result in quick failure of the nodes
//! close to the server, rendering the central server disconnected from the
//! network", Sec. III-A). We crash a node mid-run and measure what fraction
//! of the expected results each strategy can still produce/serve.

use crate::common::{gate_no_spurious, series, sym, JOIN2};
use crate::report::Report;
use crate::row;
use sensorlog_core::deploy::{DeployConfig, Deployment};
use sensorlog_core::oracle::{self, OracleReport};
use sensorlog_core::workload::UniformStreams;
use sensorlog_core::{NetInfo, RtConfig, Strategy};
use sensorlog_logic::builtin::BuiltinRegistry;
use sensorlog_netsim::{NodeId, SimConfig, Topology};

/// One run: crash `victim` halfway through the workload; its results
/// against the oracle's.
fn run_with_failure(strategy: Strategy, victim: NodeId) -> OracleReport {
    let topo = Topology::square_grid(8);
    let cfg = DeployConfig {
        rt: RtConfig {
            strategy,
            ..RtConfig::default()
        },
        sim: SimConfig {
            seed: 71,
            ..SimConfig::default()
        },
        ..DeployConfig::default()
    };
    let mut d = Deployment::new(JOIN2, BuiltinRegistry::standard(), topo.clone(), cfg)
        .expect("join compiles");
    let events = UniformStreams {
        preds: vec![sym("r1"), sym("r2")],
        interval: 8_000,
        duration: 32_000,
        delete_fraction: 0.0,
        delete_lag: 0,
        groups: 64,
        seed: 15,
    }
    .events(&topo);
    d.schedule_all(events.clone())
        .expect("workload events lie on the topology");
    // First half of the run, then the crash, then the rest.
    d.run(16_000);
    d.fail_node(victim);
    d.run(60_000_000);
    // The oracle sees every *scheduled* event (the crashed node's own
    // readings included): the completeness deficit is what the failure cost.
    oracle::check(&d, &events, sym("q"))
}

/// Fig. 13: kill (a) the central node — Centroid's server — and (b) a
/// corner node, under PA and Centroid. The crash makes every run partial,
/// so the results each found are pinned; none may be spurious.
pub fn fig13(_quick: bool, r: &mut Report) {
    let center = NetInfo::new(Topology::square_grid(8)).center();
    let mut runs = Vec::new();
    for (label, victim) in [("center (the server)", center), ("corner node", NodeId(0))] {
        let pa = run_with_failure(Strategy::Perpendicular { band_width: 1.0 }, victim);
        let ce = run_with_failure(Strategy::Centroid, victim);
        r.row(row![
            "victim" => label, "pa_compl" => pa.completeness(), "pa_sound" => pa.soundness(),
            "centroid_compl" => ce.completeness(), "centroid_sound" => ce.soundness(),
        ]);
        runs.push((pa, ce));
    }
    gate_no_spurious(r, runs.iter().flat_map(|(pa, ce)| [pa, ce]));
    r.gate(
        "pa_found",
        "847 946",
        series(runs.iter().map(|(pa, _)| pa.found)),
    );
    r.gate(
        "centroid_found",
        "0 1057",
        series(runs.iter().map(|(_, ce)| ce.found)),
    );
}
