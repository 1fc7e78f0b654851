//! Pre/post-PR trace-stability probe: a lossy 200-node logicH run whose
//! journal hash must stay byte-identical across observability changes.

use sensorlog::core::deploy::{DeployConfig, Deployment};
use sensorlog::core::strategy::Strategy;
use sensorlog::core::workload::graph_edges;
use sensorlog::prelude::*;
use std::time::Instant;

const LOGIC_H: &str = r#"
    .output h.
    h(0, 0, 0).
    h(0, X, 1) :- g(0, X).
    hp(Y, D + 1) :- h(_, Y, D'), (D + 1) > D', h(_, X, D), g(X, Y).
    h(X, Y, D + 1) :- g(X, Y), h(_, X, D), not hp(Y, D + 1).
"#;

fn main() {
    let topo = Topology::grid(20, 10); // 200 nodes
    let cfg = DeployConfig {
        rt: RtConfig {
            strategy: Strategy::Perpendicular { band_width: 1.0 },
            ..RtConfig::default()
        },
        sim: SimConfig {
            loss_prob: 0.1,
            seed: 17,
            ..SimConfig::default()
        },
        ..DeployConfig::default()
    };
    let t0 = Instant::now();
    let mut d = Deployment::new(LOGIC_H, BuiltinRegistry::standard(), topo.clone(), cfg).unwrap();
    let journal = d.attach_journal();
    d.schedule_all(graph_edges(&topo, 100, 200))
        .expect("workload events lie on the topology");
    d.run(2_000_000);
    let j = journal.take();
    println!(
        "records={} hash={:016x} tx={} wall={:.2}s",
        j.records.len(),
        j.content_hash(),
        d.metrics().total_tx(),
        t0.elapsed().as_secs_f64()
    );
}
