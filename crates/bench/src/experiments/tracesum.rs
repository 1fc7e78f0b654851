//! Table 3 (ours): per-run event-trace summaries.
//!
//! Not a paper figure — this table exercises the trace layer
//! (`sensorlog_netsim::trace`) end to end on the Fig. 4 workload and
//! records the message mix each strategy generates: transmission attempts
//! by payload kind, drops by reason, and the simulator's event-queue
//! high-water mark. The loss-free rows double as a sanity check that the
//! streaming trace counters agree with the radio metrics.

use crate::common::{join_strategies, join_workload, CaseSpec, JOIN2};
use crate::table::Table;
use sensorlog_core::{PassMode, Strategy};
use sensorlog_logic::Symbol;
use sensorlog_netsim::{SimConfig, Topology};

fn strategy_name(s: Strategy) -> &'static str {
    match s {
        Strategy::Perpendicular { .. } => "PA",
        Strategy::Centroid => "Centroid",
        Strategy::NaiveBroadcast => "Broadcast",
        Strategy::LocalStorage => "LocalStore",
    }
}

/// Trace-summary table: 8×8 grid, two-stream join, loss-free and lossy.
pub fn table3() -> Table {
    let mut t = Table::new(
        "table3",
        "event-trace summary: 8x8 grid two-stream join (sends by kind, drops, queue depth)",
        &[
            "strategy",
            "loss",
            "sends",
            "store",
            "probe",
            "result",
            "delivered",
            "drops",
            "max queue",
        ],
    );
    for loss in [0.0f64, 0.1] {
        for strategy in join_strategies() {
            let topo = Topology::square_grid(8);
            let events = join_workload(&topo, &["r1", "r2"], 128, 49);
            let sim = SimConfig {
                loss_prob: loss,
                // One retry, not two: with p=0.1 a message dies with
                // probability 1e-2, so even the ~1k-send Centroid row
                // expects ~11 exhausted drops and the drops>0 assertion
                // below is statistically safe; at two retries (1e-3) the
                // small rows turn it into a seed lottery.
                retries: if loss > 0.0 { 1 } else { 0 },
                ..SimConfig::default()
            };
            let p = CaseSpec {
                src: JOIN2.to_string(),
                topo,
                strategy,
                pass_mode: PassMode::OnePass,
                sim,
                spatial_radius: None,
                events,
                output: Symbol::intern("q"),
                horizon: 30_000_000,
            }
            .run();
            // The trace layer and the radio metrics count the same
            // transmissions through independent code paths.
            assert_eq!(p.trace.sends, p.total_tx, "trace vs metrics mismatch");
            // Every transmission attempt either gets its message delivered
            // or is a failed attempt; only retry-exhausted messages become
            // Drop records, so the counts match exactly when retries = 0
            // and sends exceed the sum otherwise.
            // Air losses with a retry budget are reported as `Retries`
            // (budget exhausted), without one as `Loss`; this row runs with
            // retries = 1, so exhausted drops land in `drops_retries`.
            let dropped = p.trace.drops_loss
                + p.trace.drops_dead
                + p.trace.drops_retries
                + p.trace.drops_partition;
            if loss == 0.0 {
                assert_eq!(p.trace.sends, p.trace.delivers, "loss-free: all delivered");
            } else {
                assert!(
                    p.trace.sends >= p.trace.delivers + dropped,
                    "attempts must cover deliveries and drops"
                );
                assert!(dropped > 0, "lossy run must drop something");
            }
            let kind = |k: &str| p.trace.sends_by_kind.get(k).copied().unwrap_or(0);
            t.row(vec![
                strategy_name(strategy).into(),
                format!("{loss:.1}"),
                p.trace.sends.to_string(),
                kind("store").to_string(),
                kind("probe").to_string(),
                kind("result").to_string(),
                p.trace.delivers.to_string(),
                dropped.to_string(),
                p.max_queue_depth.to_string(),
            ]);
        }
    }
    t
}
