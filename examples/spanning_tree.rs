//! Example 3 of the paper: the XY-stratified shortest-path-tree programs,
//! evaluated *in-network*, against the hand-written flood protocol.
//!
//! `logicH` is the paper's 4-rule program; `logicJ` is the improved variant
//! referenced in Secs. V/VI (the per-edge argument dropped). Both are
//! "more compact than the ~20 lines of procedural code written in Kairos"
//! — here the procedural comparator is `sensorlog_netstack::flood`.
//!
//! ```text
//! cargo run --example spanning_tree
//! ```

use sensorlog::core::workload::graph_edges;
use sensorlog::netstack::flood::run_flood;
use sensorlog::prelude::*;

const LOGIC_H: &str = r#"
    .output h.
    h(0, 0, 0).
    h(0, X, 1) :- g(0, X).
    hp(Y, D + 1) :- h(_, Y, D'), (D + 1) > D', h(_, X, D), g(X, Y).
    h(X, Y, D + 1) :- g(X, Y), h(_, X, D), not hp(Y, D + 1).
"#;

const LOGIC_J: &str = r#"
    .output j.
    j(0, 0).
    j(X, 1) :- g(0, X).
    jp(Y, D + 1) :- j(Y, D'), (D + 1) > D', j(X, D), g(X, Y).
    j(Y, D + 1) :- g(X, Y), j(X, D), not jp(Y, D + 1).
"#;

fn run(name: &str, src: &str, out_pred: &str, depth_col: (usize, usize)) -> u64 {
    let topo = Topology::square_grid(4);
    let mut d = Deployment::new(
        src,
        BuiltinRegistry::standard(),
        topo.clone(),
        DeployConfig::default(),
    )
    .unwrap();
    // The network's own links, announced by each incident node.
    d.schedule_all(graph_edges(&topo, 100, 200))
        .expect("workload events lie on the topology");
    let converged = d.run(200_000_000);
    let results = d.results(Symbol::intern(out_pred));

    println!(
        "\n== {name}: {} tuples, converged at {:.1}s ==",
        results.len(),
        converged as f64 / 1000.0
    );
    for node in topo.nodes() {
        let (x, y) = topo.grid_coords(node).unwrap();
        let want = (x + y) as i64;
        let got: Vec<i64> = results
            .iter()
            .filter(|t| t.get(depth_col.0) == Term::Int(node.0 as i64))
            .map(|t| t.get(depth_col.1).as_i64().unwrap())
            .collect();
        assert!(
            got.iter().all(|&d| d == want) && !got.is_empty(),
            "{name}: node {node} expected depth {want}, got {got:?}"
        );
    }
    println!("   BFS depths verified for all 16 nodes");
    let msgs = d.metrics().total_tx();
    println!("   total messages: {msgs}");
    msgs
}

fn main() {
    println!("shortest-path tree from node 0 on a 4x4 grid, three ways:");

    let h = run("logicH (Example 3, 4 rules)", LOGIC_H, "h", (1, 2));
    let j = run("logicJ (improved, Secs. V/VI)", LOGIC_J, "j", (0, 1));

    let flood = run_flood(&Topology::square_grid(4), NodeId(0), SimConfig::default());
    println!(
        "\n== flood (procedural baseline) ==\n   total messages: {} (converged at {:.2}s)",
        flood.total_messages,
        flood.converged_at as f64 / 1000.0
    );

    println!(
        "\nsummary: logicH {h} msgs  >  logicJ {j} msgs  >  flood {} msgs",
        flood.total_messages
    );
    println!(
        "The deductive programs pay a generality tax over the specialized\n\
         protocol, but are 4 declarative rules instead of a hand-written\n\
         state machine — and logicJ shows how a schema tweak recovers a\n\
         {:.0}% saving over logicH.",
        100.0 * (1.0 - j as f64 / h as f64)
    );
    assert!(j < h, "logicJ must beat logicH");
}
