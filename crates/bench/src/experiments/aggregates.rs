//! Fig. 14: in-network aggregation — TAG partial aggregation vs. naive
//! central collection, the comparison behind the paper's pointer to
//! "specialized distributed techniques such as TAG \[32\]" (Sec. IV-C).

use crate::table::{f2, Table};
use sensorlog_core::agg::{compile_aggregate, oracle_value, run_central_collection, run_tag};
use sensorlog_logic::parse_program;
use sensorlog_netsim::{NodeId, SimConfig, Topology};

const AVG: &str = ".output mean.\nmean(avg<V>) :- reading(N, V).\n";

/// Fig. 14: one aggregate epoch per grid size, TAG vs central collection.
pub fn fig14() -> Table {
    let mut t = Table::new(
        "fig14",
        "global avg query: TAG vs central collection (messages per epoch)",
        &["m", "nodes", "TAG msgs", "central msgs", "saving"],
    );
    let query = compile_aggregate(&parse_program(AVG).unwrap()).unwrap();
    for m in [4u32, 8, 12, 16] {
        let topo = Topology::square_grid(m);
        let n = topo.len();
        let readings: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let root = NodeId(0);
        let tag = run_tag(&query, &topo, root, &readings, SimConfig::default())
            .expect("loss-free epoch on a connected grid");
        let central = run_central_collection(&query, &topo, root, &readings);
        let oracle = oracle_value(AVG, &query, &readings).unwrap();
        assert!((tag.value - oracle).abs() < 1e-9, "TAG diverged at m={m}");
        assert!(
            (central.value - oracle).abs() < 1e-9,
            "central diverged at m={m}"
        );
        t.row(vec![
            m.to_string(),
            n.to_string(),
            tag.messages.to_string(),
            central.messages.to_string(),
            format!("{}x", f2(central.messages as f64 / tag.messages as f64)),
        ]);
    }
    t
}
