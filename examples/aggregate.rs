//! In-network aggregation: a global aggregate query compiled onto the TAG
//! gathering-tree substrate — the route the paper prescribes for aggregates
//! (Sec. IV-C: "specialized distributed techniques such as TAG [32]").
//!
//! ```text
//! cargo run --example aggregate
//! ```

use sensorlog::core::agg::{compile_aggregate, oracle_value, run_central_collection, run_tag};
use sensorlog::prelude::*;

const QUERY: &str = r#"
    % Network-wide mean temperature.
    .output mean.
    mean(avg<V>) :- temp(N, V).
"#;

fn main() {
    let prog = parse_program(QUERY).expect("parses");
    let query = compile_aggregate(&prog).expect("TAG-compilable global aggregate");
    println!(
        "query: {:?} over stream `{}` (value column {})",
        query.op, query.source, query.value_col
    );

    let topo = Topology::square_grid(8);
    let root = NodeId(0);
    // One temperature reading per node: a plausible field gradient.
    let readings: Vec<f64> = topo
        .nodes()
        .map(|n| {
            let (x, y) = topo.position(n);
            // Distinct per node (x + y/10 is injective for y < 10), so
            // the bag/set aggregate semantics coincide (see core::agg doc).
            18.0 + x + 0.1 * y
        })
        .collect();

    let tag = run_tag(&query, &topo, root, &readings, SimConfig::default())
        .expect("loss-free epoch on a connected grid");
    let central = run_central_collection(&query, &topo, root, &readings);
    let oracle = oracle_value(QUERY, &query, &readings).expect("oracle evaluates");

    println!("\n64-node grid, one epoch:");
    println!(
        "  TAG in-network:      value {:>8.3}  — {:>4} messages",
        tag.value, tag.messages
    );
    println!(
        "  central collection:  value {:>8.3}  — {:>4} messages",
        central.value, central.messages
    );
    println!("  deductive oracle:    value {oracle:>8.3}");
    assert!((tag.value - oracle).abs() < 1e-6);
    assert!((central.value - oracle).abs() < 1e-6);
    println!(
        "\nTAG saves {:.1}x the messages by merging partial aggregates up the tree.",
        central.messages as f64 / tag.messages as f64
    );
}
