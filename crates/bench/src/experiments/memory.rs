//! Table 1: per-node memory — peak stored replicas and derivations for the
//! three example programs (Sec. V "Memory Requirements": "the total number
//! of tuples stored at any node is at most 2 to 3 times its degree" for the
//! shortest-path program).

use crate::common::{join_workload, sptree_deployment, sym, CaseSpec, JOIN2, LOGIC_J};
use crate::table::Table;
use sensorlog_core::workload::UniformStreams;
use sensorlog_core::{PassMode, Strategy};
use sensorlog_netsim::{SimConfig, Topology};

/// Table 1 rows: program, grid, peak replicas (max node), peak derivations
/// (max node), peak total items.
pub fn table1() -> Table {
    let mut t = Table::new(
        "table1",
        "per-node memory: peak stored items under PA",
        &[
            "program",
            "grid",
            "peak replicas",
            "peak derivs",
            "peak total",
            "static bound",
        ],
    );
    let fmt_bound = |b: Option<u64>| b.map_or_else(|| "unbounded".into(), |v| v.to_string());

    // Two-stream join on 8x8.
    {
        let topo = Topology::square_grid(8);
        let events = join_workload(&topo, &["r1", "r2"], 32, 9);
        let p = CaseSpec {
            src: JOIN2.to_string(),
            topo,
            strategy: Strategy::Perpendicular { band_width: 1.0 },
            pass_mode: PassMode::OnePass,
            sim: SimConfig::default(),
            spatial_radius: None,
            events,
            output: sym("q"),
            horizon: 30_000_000,
        }
        .run();
        assert_dominates(&p, "join2");
        t.row(vec![
            "join2".into(),
            "8x8".into(),
            p.peak_replicas.to_string(),
            p.peak_derivations.to_string(),
            p.peak_node_memory.to_string(),
            fmt_bound(p.static_bound_total),
        ]);
    }

    // Negation query on 8x8 (reuse fig10 at frac 0 shape via a quick run).
    {
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
        let p = CaseSpec {
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
            spatial_radius: None,
            events,
            output: sym("alert"),
            horizon: 60_000_000,
        }
        .run();
        assert_dominates(&p, "uncov");
        t.row(vec![
            "uncov".into(),
            "8x8".into(),
            p.peak_replicas.to_string(),
            p.peak_derivations.to_string(),
            p.peak_node_memory.to_string(),
            fmt_bound(p.static_bound_total),
        ]);
    }

    // Shortest-path tree (logicJ) on 4x4 with detailed per-node split.
    {
        let mut d = sptree_deployment(LOGIC_J, (4, 4), SimConfig::default(), 200);
        d.run(200_000_000);
        let stats = d.node_stats();
        let max_rep = stats.iter().map(|s| s.peak_replicas).max().unwrap_or(0);
        let max_der = stats.iter().map(|s| s.peak_derivations).max().unwrap_or(0);
        let report = sensorlog_core::invariants::check_static_bounds(&d);
        assert!(report.ok(), "logicJ: static bounds violated: {report}");
        let bound = crate::common::static_bound_total(&d);
        if let Some(bound) = bound {
            assert!(
                d.peak_node_memory() as u64 <= bound,
                "logicJ: peak {} exceeds static bound {bound}",
                d.peak_node_memory()
            );
        }
        t.row(vec![
            "logicJ".into(),
            "4x4".into(),
            max_rep.to_string(),
            max_der.to_string(),
            d.peak_node_memory().to_string(),
            fmt_bound(bound),
        ]);
    }
    t
}

/// The observed per-node peak must sit under the static ceiling whenever
/// the analyzer derives a finite one — the bench's runtime half of the
/// `sensorlog check` memory-bound cross-validation.
fn assert_dominates(p: &crate::common::RunPoint, label: &str) {
    if let Some(bound) = p.static_bound_total {
        assert!(
            p.peak_node_memory as u64 <= bound,
            "{label}: observed peak {} exceeds static bound {bound}",
            p.peak_node_memory
        );
    }
}
