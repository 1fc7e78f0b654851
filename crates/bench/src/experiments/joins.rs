//! Join experiments: Figs. 4–7 (communication cost vs. network size, load
//! balance, multi-stream one-pass vs. multiple-pass, spatial constraints).

use crate::common::{
    gate_exact_runs, join_strategies, join_workload, run_cases, series, sym, CaseSpec, RunPoint,
    JOIN2,
};
use crate::report::Report;
use crate::row;
use sensorlog_core::deploy::WorkloadEvent;
use sensorlog_core::{PassMode, Strategy};
use sensorlog_eval::UpdateKind;
use sensorlog_logic::{Term, Tuple};
use sensorlog_netsim::{SimConfig, Topology};

/// One (strategy, m) cell of the Fig. 4/5 sweep.
fn sweep_spec(strategy: Strategy, m: u32) -> CaseSpec {
    let topo = Topology::square_grid(m);
    // Selective join keys (≈1 partner per key): result volume stays
    // proportional to input volume as the network grows.
    let events = join_workload(&topo, &["r1", "r2"], m * m * 2, 41 + m as u64);
    CaseSpec {
        src: JOIN2.to_string(),
        topo,
        strategy,
        pass_mode: PassMode::OnePass,
        sim: SimConfig::default(),
        events,
        output: sym("q"),
        horizon: 30_000_000,
    }
}

/// Figs. 4 and 5, one sweep: total messages vs. network size for a
/// two-stream join under the four strategies (Fig. 4), and the hottest
/// node's load and max / mean imbalance of the same runs (Fig. 5). Every
/// run is loss-free and must equal the oracle; every strategy's message
/// count is pinned (PA's and Centroid's are the shape claim's two series).
pub fn fig4_5(_quick: bool, r: &mut Report) {
    let sizes = [6u32, 8, 10, 12];
    // The whole (size × strategy) sweep fans out across worker threads —
    // each cell is its own deterministic single-threaded simulation, and
    // `run_cases` hands results back in spec order.
    let specs: Vec<CaseSpec> = sizes
        .iter()
        .flat_map(|&m| join_strategies().into_iter().map(move |s| sweep_spec(s, m)))
        .collect();
    let points = run_cases(&specs);
    for (&m, p) in sizes.iter().zip(points.chunks(4)) {
        r.row(row![
            "m" => m, "nodes" => m * m,
            "pa_tx" => p[0].total_tx, "centroid_tx" => p[1].total_tx,
            "broadcast_tx" => p[2].total_tx, "localstore_tx" => p[3].total_tx,
            "pa_max_load" => p[0].max_node_load, "pa_imbalance" => p[0].imbalance,
            "centroid_max_load" => p[1].max_node_load, "centroid_imbalance" => p[1].imbalance,
        ]);
    }
    gate_exact_runs(r, points.iter().map(|p| &p.oracle));
    let tx = |i: usize| series(points.iter().skip(i).step_by(4).map(|p| p.total_tx));
    r.gate("pa_tx", "2061 5138 10237 18200", tx(0));
    r.gate("centroid_tx", "432 1024 2000 3456", tx(1));
    r.gate("broadcast_tx", "17546 58042 145329 306417", tx(2));
    r.gate("localstore_tx", "6010 18623 44462 91086", tx(3));
}

/// Fig. 6: multi-stream joins — message cost and bytes for 2, 3, 4 streams
/// under one-pass vs multiple-pass PA (10×10 grid).
pub fn fig6(_quick: bool, r: &mut Report) {
    let ns = [2usize, 3, 4];
    let mut specs = Vec::new();
    for &n in &ns {
        let preds: Vec<String> = (1..=n).map(|i| format!("r{i}")).collect();
        let pred_refs: Vec<&str> = preds.iter().map(String::as_str).collect();
        let body: Vec<String> = (1..=n).map(|i| format!("r{i}(N{i}, X{i}, K)")).collect();
        let head_args: Vec<String> = (1..=n).map(|i| format!("X{i}")).collect();
        let src = format!(
            ".output q.\nq({}) :- {}.\n",
            head_args.join(", "),
            body.join(", ")
        );
        for mode in [PassMode::OnePass, PassMode::MultiPass] {
            let topo = Topology::square_grid(10);
            // Tight groups keep the n-way join output bounded.
            let events = join_workload(&topo, &pred_refs, 120, 77);
            specs.push(CaseSpec {
                src: src.clone(),
                topo,
                strategy: Strategy::Perpendicular { band_width: 1.0 },
                pass_mode: mode,
                sim: SimConfig::default(),
                events,
                output: sym("q"),
                horizon: 60_000_000,
            });
        }
    }
    let points = run_cases(&specs);
    let kb = |p: &RunPoint| p.total_bytes as f64 / 1024.0;
    for (&n, p) in ns.iter().zip(points.chunks(2)) {
        r.row(row![
            "streams" => n, "onepass_tx" => p[0].total_tx, "onepass_kb" => kb(&p[0]),
            "multipass_tx" => p[1].total_tx, "multipass_kb" => kb(&p[1]),
        ]);
    }
    gate_exact_runs(r, points.iter().map(|p| &p.oracle));
}

/// Fig. 7: spatial join constraints — cost vs constraint radius on a 12×12
/// grid. Tuples carry their source node's position; the rule's
/// `dist(L1, L2) <= R` is the one statement of the radius, from which the
/// compiler infers that PA may truncate both streams' regions to R
/// (`xy::Place::radius`). A radius of 100 spans the grid: the
/// unconstrained row, whose `radius` is null. Every row must equal the
/// oracle, and the message counts are pinned.
pub fn fig7(_quick: bool, r: &mut Report) {
    let m = 12u32;
    let mut points = Vec::new();
    for radius in [2.0f64, 4.0, 6.0, 8.0, 100.0] {
        let src = format!(
            ".output q.\nq(L1, L2, T) :- s1(L1, T), s2(L2, T), dist(L1, L2) <= {radius}.\n"
        );
        let topo = Topology::square_grid(m);
        // Location-bearing workload: loc(x, y) from the source node.
        let mut events = Vec::new();
        for node in topo.nodes() {
            let (x, y) = topo.grid_coords(node).expect("grid topology");
            for (i, pred) in ["s1", "s2"].iter().enumerate() {
                let at = 1_000 + (node.0 as u64 * 2 + i as u64) * 500;
                events.push(WorkloadEvent {
                    at,
                    node,
                    pred: sym(pred),
                    tuple: Tuple::new(vec![
                        Term::app("loc", vec![Term::Int(x as i64), Term::Int(y as i64)]),
                        Term::Int(7), // shared T: everything joins
                    ]),
                    kind: UpdateKind::Insert,
                });
            }
        }
        let p = CaseSpec {
            src: src.clone(),
            topo,
            strategy: Strategy::Perpendicular { band_width: 1.0 },
            pass_mode: PassMode::OnePass,
            sim: SimConfig::default(),
            events,
            output: sym("q"),
            horizon: 120_000_000,
        }
        .run();
        r.row(row![
            "radius" => (radius < 99.0).then_some(radius), "tx" => p.total_tx,
            "kb" => p.total_bytes as f64 / 1024.0, "results" => p.oracle.expected,
        ]);
        points.push(p);
    }
    // Truncated regions must still meet for every spatially joinable pair.
    gate_exact_runs(r, points.iter().map(|p| &p.oracle));
    r.gate(
        "tx",
        "14480 42638 79168 114036 166729",
        series(points.iter().map(|p| p.total_tx)),
    );
}
