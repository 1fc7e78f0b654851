//! Fig. 14: in-network aggregation — TAG partial aggregation vs. naive
//! central collection, the comparison behind the paper's pointer to
//! "specialized distributed techniques such as TAG \[32\]" (Sec. IV-C).

use crate::report::Report;
use crate::row;
use sensorlog_core::agg::{compile_aggregate, oracle_value, run_central_collection, run_tag};
use sensorlog_logic::parse_program;
use sensorlog_netsim::{NodeId, SimConfig, Topology};

const AVG: &str = ".output mean.\nmean(avg<V>) :- reading(N, V).\n";

/// Fig. 14: one aggregate epoch per grid size, TAG vs central collection;
/// both must compute the centralized oracle's value.
pub fn fig14(_quick: bool, r: &mut Report) {
    let query = compile_aggregate(&parse_program(AVG).expect("avg parses")).expect("avg compiles");
    let sizes = [4u32, 8, 12, 16];
    let (mut tag_exact, mut central_exact) = (0, 0);
    for m in sizes {
        let topo = Topology::square_grid(m);
        let n = topo.len();
        let readings: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let root = NodeId(0);
        let tag = run_tag(&query, &topo, root, &readings, SimConfig::default())
            .expect("loss-free epoch on a connected grid");
        let central = run_central_collection(&query, &topo, root, &readings);
        let oracle = oracle_value(AVG, &query, &readings).expect("avg evaluates");
        tag_exact += usize::from((tag.value - oracle).abs() < 1e-9);
        central_exact += usize::from((central.value - oracle).abs() < 1e-9);
        r.row(row![
            "m" => m, "nodes" => n, "tag_msgs" => tag.messages, "central_msgs" => central.messages,
            "saving" => central.messages as f64 / tag.messages as f64,
        ]);
    }
    r.gate("tag_equals_oracle", sizes.len(), tag_exact);
    r.gate("central_equals_oracle", sizes.len(), central_exact);
}
