//! Table 1: per-node memory — peak stored replicas and derivations for the
//! three example programs (Sec. V "Memory Requirements": "the total number
//! of tuples stored at any node is at most 2 to 3 times its degree" for the
//! shortest-path program).

use crate::common::{
    gate_exact_runs, join_workload, sptree_deployment, static_bound_total, sym,
    tree_depths_correct, CaseSpec, RunPoint, JOIN2, LOGIC_J,
};
use crate::report::Report;
use crate::row;
use sensorlog_core::invariants::check_static_bounds;
use sensorlog_core::workload::UniformStreams;
use sensorlog_core::{PassMode, Strategy};
use sensorlog_netsim::{SimConfig, Topology};

/// Table 1: per run, the busiest node's peak stored replicas, peak
/// derivations and peak total, beside the static analyzer's per-node
/// ceiling (null when unbounded). Every observed peak must sit under a
/// finite ceiling — the runtime half of `sensorlog check`'s memory-bound
/// cross-validation — and every run must be exact.
pub fn table1(_quick: bool, r: &mut Report) {
    let mut within_bound = 0;
    let mut add =
        |r: &mut Report, program: &str, grid: &str, peaks: [usize; 3], bound: Option<u64>| {
            within_bound += usize::from(bound.is_none_or(|b| peaks[2] as u64 <= b));
            r.row(row![
                "program" => program, "grid" => grid, "peak_replicas" => peaks[0],
                "peak_derivs" => peaks[1], "peak_total" => peaks[2], "static_bound" => bound,
            ]);
        };
    let peaks = |p: &RunPoint| [p.peak_replicas, p.peak_derivations, p.peak_node_memory];

    // Two-stream join on 8x8.
    let topo = Topology::square_grid(8);
    let events = join_workload(&topo, &["r1", "r2"], 32, 9);
    let join = CaseSpec {
        src: JOIN2.to_string(),
        topo,
        strategy: Strategy::Perpendicular { band_width: 1.0 },
        pass_mode: PassMode::OnePass,
        sim: SimConfig::default(),
        events,
        output: sym("q"),
        horizon: 30_000_000,
    }
    .run();
    add(r, "join2", "8x8", peaks(&join), join.static_bound_total);

    // Negation query on 8x8, a quarter of its readings deleted.
    let topo = Topology::square_grid(8);
    let events = UniformStreams {
        preds: vec![sym("sight"), sym("supp")],
        interval: 10_000,
        duration: 20_000,
        delete_fraction: 0.25,
        delete_lag: 30_000,
        groups: 16,
        seed: 10,
    }
    .events(&topo);
    let uncov = CaseSpec {
        src: r#"
        .output alert.
        cov(V, K) :- sight(N, V, K), supp(N, S, K).
        alert(V, K) :- not cov(V, K), sight(N, V, K).
        "#
        .to_string(),
        topo,
        strategy: Strategy::Perpendicular { band_width: 1.0 },
        pass_mode: PassMode::OnePass,
        sim: SimConfig::default(),
        events,
        output: sym("alert"),
        horizon: 60_000_000,
    }
    .run();
    add(r, "uncov", "8x8", peaks(&uncov), uncov.static_bound_total);

    // Shortest-path tree (logicJ) on 4x4.
    let mut d = sptree_deployment(LOGIC_J, (4, 4), SimConfig::default(), 200);
    d.run(200_000_000);
    let stats = d.node_stats();
    let max_rep = stats.iter().map(|s| s.peak_replicas).max().unwrap_or(0);
    let max_der = stats.iter().map(|s| s.peak_derivations).max().unwrap_or(0);
    let logic_j = [max_rep, max_der, d.peak_node_memory()];
    add(r, "logicJ", "4x4", logic_j, static_bound_total(&d));

    r.gate("peaks_within_static_bound", 3, within_bound);
    r.gate(
        "logicJ_static_bounds_hold",
        true,
        check_static_bounds(&d).ok(),
    );
    let tree = tree_depths_correct(d.sim.topology(), &d.results(sym("j")), 0);
    r.gate("logicJ_tree_correct", true, tree);
    gate_exact_runs(r, [&join.oracle, &uncov.oracle]);
}
