//! Join experiments: Figs. 4–7 (communication cost vs. network size, load
//! balance, multi-stream one-pass vs. multiple-pass, spatial constraints).

use crate::common::{join_strategies, join_workload, run_cases, sym, CaseSpec, RunPoint, JOIN2};
use crate::table::{f2, Table};
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
        spatial_radius: None,
        events,
        output: sym("q"),
        horizon: 30_000_000,
    }
}

/// Fig. 4: total communication cost vs. network size for a two-stream join
/// under the four strategies, and Fig. 5: the load-balance view of the same
/// runs.
pub fn fig4_fig5() -> (Table, Table) {
    let sizes = [6u32, 8, 10, 12];
    let mut fig4 = Table::new(
        "fig4",
        "two-stream join: total messages vs network size (m x m grid)",
        &["m", "nodes", "PA", "Centroid", "Broadcast", "LocalStore"],
    );
    let mut fig5 = Table::new(
        "fig5",
        "two-stream join: hottest-node load (msgs) and imbalance (max/mean)",
        &["m", "PA max", "PA imb", "Centroid max", "Centroid imb"],
    );
    // The whole (size × strategy) sweep fans out across worker threads —
    // each cell is its own deterministic single-threaded simulation, and
    // `run_cases` hands results back in spec order.
    let specs: Vec<CaseSpec> = sizes
        .iter()
        .flat_map(|&m| join_strategies().into_iter().map(move |s| sweep_spec(s, m)))
        .collect();
    let all_points = run_cases(&specs);
    for (si, &m) in sizes.iter().enumerate() {
        let points: &[RunPoint] = &all_points[si * 4..si * 4 + 4];
        for p in points {
            assert!(
                p.completeness > 0.999 && p.soundness > 0.999,
                "lossless runs must be exact (m={m})"
            );
            assert!(p.expected > 0, "workload must produce joins (m={m})");
        }
        fig4.row(vec![
            m.to_string(),
            (m * m).to_string(),
            points[0].total_tx.to_string(),
            points[1].total_tx.to_string(),
            points[2].total_tx.to_string(),
            points[3].total_tx.to_string(),
        ]);
        fig5.row(vec![
            m.to_string(),
            points[0].max_node_load.to_string(),
            f2(points[0].imbalance),
            points[1].max_node_load.to_string(),
            f2(points[1].imbalance),
        ]);
    }
    (fig4, fig5)
}

/// Fig. 6: multi-stream joins — message cost and bytes for 2, 3, 4 streams
/// under one-pass vs multiple-pass PA (10×10 grid).
pub fn fig6() -> Table {
    let mut t = Table::new(
        "fig6",
        "n-stream join on 10x10 grid: one-pass vs multiple-pass PA",
        &[
            "streams",
            "1pass msgs",
            "1pass KB",
            "mpass msgs",
            "mpass KB",
        ],
    );
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
                spatial_radius: None,
                events,
                output: sym("q"),
                horizon: 60_000_000,
            });
        }
    }
    let points = run_cases(&specs);
    for (i, &n) in ns.iter().enumerate() {
        let mut row = vec![n.to_string()];
        for p in &points[i * 2..i * 2 + 2] {
            assert!(p.completeness > 0.999, "lossless run must be complete");
            assert!(p.expected > 0, "workload must produce joins (n={n})");
            row.push(p.total_tx.to_string());
            row.push(f2(p.total_bytes as f64 / 1024.0));
        }
        t.row(row);
    }
    t
}

/// Fig. 7: spatial join constraints — cost vs constraint radius on a 12×12
/// grid. Tuples carry their source location; the join predicate requires
/// `dist(L1, L2) <= R`, letting PA truncate both regions to radius R.
pub fn fig7() -> Table {
    let mut t = Table::new(
        "fig7",
        "spatial constraint radius vs PA communication cost (12x12 grid)",
        &["radius", "msgs", "KB", "results"],
    );
    let m = 12u32;
    for radius in [2.0f64, 4.0, 6.0, 8.0, 100.0] {
        let src = format!(
            ".output q.\nq(L1, L2, T) :- s1(L1, T), s2(L2, T), dist(L1, L2) <= {radius}.\n"
        );
        let topo = Topology::square_grid(m);
        // Location-bearing workload: loc(x, y) from the source node.
        let mut events = Vec::new();
        let mut value = 0i64;
        for node in topo.nodes() {
            let (x, y) = topo.grid_coords(node).unwrap();
            for (i, pred) in ["s1", "s2"].iter().enumerate() {
                value += 1;
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
        let _ = value;
        let p = CaseSpec {
            src: src.clone(),
            topo,
            strategy: Strategy::Perpendicular { band_width: 1.0 },
            pass_mode: PassMode::OnePass,
            sim: SimConfig::default(),
            spatial_radius: Some(radius),
            events,
            output: sym("q"),
            horizon: 120_000_000,
        }
        .run();
        assert!(
            p.completeness > 0.999,
            "truncation must preserve spatially-constrained joins (r={radius}): {}",
            p.completeness
        );
        t.row(vec![
            if radius > 99.0 {
                "inf".into()
            } else {
                format!("{radius:.0}")
            },
            p.total_tx.to_string(),
            f2(p.total_bytes as f64 / 1024.0),
            p.expected.to_string(),
        ]);
    }
    t
}
