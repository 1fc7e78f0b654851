//! Fig. 9 (robustness under message loss) and Table 2 (the testbed
//! profile: clock skew + jittered delays + asymmetric links).

use crate::common::{gate_no_spurious, join_workload, run_cases, series, sym, CaseSpec, JOIN2};
use crate::report::Report;
use crate::row;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sensorlog_core::workload::UniformStreams;
use sensorlog_core::{PassMode, Strategy};
use sensorlog_netsim::{SimConfig, Topology};

/// Fig. 9: result completeness vs per-transmission loss probability, PA vs
/// Centroid on an 8×8 grid, each without and with 3 link retries (ARQ).
/// The loss-free runs must equal the oracle; the lossy ones are partial,
/// so the results each run found are pinned, and no run may hold a
/// spurious one.
pub fn fig9(_quick: bool, r: &mut Report) {
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
                    events,
                    output: sym("q"),
                    horizon: 30_000_000,
                });
            }
        }
    }
    let points = run_cases(&specs);
    // Spec order per loss: PA, PA+ARQ, Centroid, Centroid+ARQ.
    for (&loss, p) in losses.iter().zip(points.chunks(4)) {
        let compl = |i: usize| p[i].oracle.completeness();
        r.row(row![
            "loss" => loss, "pa" => compl(0), "pa_arq" => compl(1), "centroid" => compl(2),
            "centroid_arq" => compl(3), "pa_sound" => p[0].oracle.soundness(),
        ]);
    }
    let exact = points[..4].iter().filter(|p| p.oracle.exact()).count();
    r.gate("loss_free_runs_oracle_exact", 4, exact);
    gate_no_spurious(r, points.iter().map(|p| &p.oracle));
    let found = |i: usize| series(points.iter().skip(i).step_by(4).map(|p| p.oracle.found));
    r.gate("pa_found", "477 246 120 36 18", found(0));
    r.gate("pa_arq_found", "477 477 477 449 414", found(1));
    r.gate("centroid_found", "477 321 211 110 56", found(2));
    r.gate("centroid_arq_found", "477 477 475 468 453", found(3));
}

/// Table 2: the testbed profile — small networks, 50 ms clock skew,
/// heavily jittered delays, asymmetric per-link loss. Reports completeness,
/// delivery ratio, and convergence; the results each run found are pinned.
pub fn table2(_quick: bool, r: &mut Report) {
    let mut points = Vec::new();
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
            events,
            output: sym("q"),
            horizon: 30_000_000,
        }
        .run();
        r.row(row![
            "grid" => format!("{m}x{m}"), "events" => n_events,
            "compl" => p.oracle.completeness(), "sound" => p.oracle.soundness(),
            "delivery" => p.delivery_ratio, "converged_s" => p.final_time as f64 / 1000.0,
        ]);
        points.push(p);
    }
    gate_no_spurious(r, points.iter().map(|p| &p.oracle));
    r.gate(
        "found",
        "100 285",
        series(points.iter().map(|p| p.oracle.found)),
    );
}
