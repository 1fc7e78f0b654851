//! Fig. 13: node-failure robustness — the motivation the paper gives for
//! avoiding central collection ("may result in quick failure of the nodes
//! close to the server, rendering the central server disconnected from the
//! network", Sec. III-A). We crash a node mid-run and measure what fraction
//! of the expected results each strategy can still produce/serve.

use crate::common::sym;
use crate::table::{f2, Table};
use sensorlog_core::deploy::{DeployConfig, Deployment};
use sensorlog_core::oracle;
use sensorlog_core::workload::UniformStreams;
use sensorlog_core::{NetInfo, RtConfig, Strategy};
use sensorlog_logic::builtin::BuiltinRegistry;
use sensorlog_netsim::{NodeId, SimConfig, Topology};

const JOIN3: &str = r#"
    .output q.
    q(X, Y) :- r1(N1, X, K), r2(N2, Y, K).
"#;

/// One run: crash `victim` halfway through the workload; return
/// (completeness, soundness).
fn run_with_failure(strategy: Strategy, victim: NodeId) -> (f64, f64) {
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
    let mut d = Deployment::new(JOIN3, BuiltinRegistry::standard(), topo.clone(), cfg).unwrap();
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
    d.schedule_all(events.clone());
    // First half of the run, then the crash, then the rest.
    d.run(16_000);
    d.fail_node(victim);
    d.run(60_000_000);
    // The oracle sees every *scheduled* event (the crashed node's own
    // readings included): the completeness deficit is what the failure cost.
    let report = oracle::check(&d, &events, sym("q"));
    (report.completeness(), report.soundness())
}

/// Fig. 13: kill (a) the central node — Centroid's server — and (b) a
/// corner node, under PA and Centroid.
pub fn fig13() -> Table {
    let mut t = Table::new(
        "fig13",
        "node failure at T/2 (8x8 grid): result completeness after the crash",
        &[
            "victim",
            "PA compl",
            "PA sound",
            "Centroid compl",
            "Centroid sound",
        ],
    );
    let center = NetInfo::new(Topology::square_grid(8)).center();
    let corner = NodeId(0);
    for (label, victim) in [("center (the server)", center), ("corner node", corner)] {
        let (pa_c, pa_s) = run_with_failure(Strategy::Perpendicular { band_width: 1.0 }, victim);
        let (ce_c, ce_s) = run_with_failure(Strategy::Centroid, victim);
        t.row(vec![label.into(), f2(pa_c), f2(pa_s), f2(ce_c), f2(ce_s)]);
    }
    t
}
