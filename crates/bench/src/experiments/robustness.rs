//! Fig. 9 (robustness under message loss) and Table 2 (the testbed
//! profile: clock skew + jittered delays + asymmetric links).

use crate::common::{join_workload, run_cases, sym, CaseSpec, JOIN2};
use crate::table::{f2, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sensorlog_core::workload::UniformStreams;
use sensorlog_core::{PassMode, Strategy};
use sensorlog_netsim::{SimConfig, Topology};

/// Fig. 9: result completeness vs per-transmission loss probability, PA vs
/// Centroid on an 8×8 grid.
pub fn fig9() -> Table {
    let mut t = Table::new(
        "fig9",
        "completeness vs message-loss rate (8x8 grid, 2-stream join; ARQ = 3 link retries)",
        &[
            "loss",
            "PA",
            "PA+ARQ",
            "Centroid",
            "Centroid+ARQ",
            "PA sound",
        ],
    );
    let losses = [0.0f64, 0.05, 0.10, 0.20, 0.30];
    let mut specs = Vec::new();
    for &loss in &losses {
        for strategy in [
            Strategy::Perpendicular { band_width: 1.0 },
            Strategy::Centroid,
        ] {
            for retries in [0u32, 3] {
                let topo = Topology::square_grid(8);
                let events = join_workload(&topo, &["r1", "r2"], 32, 5);
                specs.push(CaseSpec {
                    src: JOIN2.to_string(),
                    topo,
                    strategy,
                    pass_mode: PassMode::OnePass,
                    sim: SimConfig {
                        loss_prob: loss,
                        retries,
                        seed: 17,
                        ..SimConfig::default()
                    },
                    spatial_radius: None,
                    events,
                    output: sym("q"),
                    horizon: 30_000_000,
                });
            }
        }
    }
    let points = run_cases(&specs);
    for (i, &loss) in losses.iter().enumerate() {
        // Spec order per loss: PA, PA+ARQ, Centroid, Centroid+ARQ.
        let p = &points[i * 4..i * 4 + 4];
        let mut row = vec![f2(loss)];
        row.extend(p.iter().map(|p| f2(p.completeness)));
        row.push(f2(p[0].soundness));
        t.row(row);
    }
    t
}

/// Table 2: the testbed profile — small networks, 50 ms clock skew,
/// heavily jittered delays, asymmetric per-link loss. Reports completeness,
/// delivery ratio, and wall-clock convergence.
pub fn table2() -> Table {
    let mut t = Table::new(
        "table2",
        "testbed profile: skew 50ms, delay 5-80ms, asymmetric loss ~5%, MAC ARQ x3",
        &[
            "grid",
            "events",
            "compl",
            "sound",
            "delivery",
            "converged s",
        ],
    );
    for m in [3u32, 4] {
        let topo = Topology::square_grid(m);
        // Asymmetric per-link loss in [0, 0.1].
        let mut rng = StdRng::seed_from_u64(99);
        let mut link_loss = std::collections::HashMap::new();
        for a in topo.nodes() {
            for &b in topo.neighbors(a) {
                link_loss.insert((a, b), rng.gen_range(0.0..0.10));
            }
        }
        let sim = SimConfig {
            hop_delay: (5, 80),
            clock_skew_max: 50,
            link_loss,
            retries: 3, // mote MACs retransmit at the link layer
            seed: 31,
            ..SimConfig::default()
        };
        let events = UniformStreams {
            preds: vec![sym("r1"), sym("r2")],
            interval: 6_000,
            duration: 18_000,
            delete_fraction: 0.0,
            delete_lag: 0,
            groups: 8,
            seed: 7,
        }
        .events(&topo);
        let n_events = events.len();
        let p = CaseSpec {
            src: JOIN2.to_string(),
            topo,
            strategy: Strategy::Perpendicular { band_width: 1.0 },
            pass_mode: PassMode::OnePass,
            sim,
            spatial_radius: None,
            events,
            output: sym("q"),
            horizon: 30_000_000,
        }
        .run();
        t.row(vec![
            format!("{m}x{m}"),
            n_events.to_string(),
            f2(p.completeness),
            f2(p.soundness),
            f2(p.delivery_ratio),
            format!("{:.1}", p.final_time as f64 / 1000.0),
        ]);
    }
    t
}
