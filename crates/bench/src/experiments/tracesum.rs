//! Table 3 (ours): per-run event-trace summaries.
//!
//! Not a paper figure — this table exercises the trace layer
//! (`sensorlog_netsim::trace`) end to end on the Fig. 4 workload and
//! records the message mix each strategy generates: transmission attempts
//! by payload kind, drops by reason, and the simulator's event-queue
//! high-water mark. The loss-free rows double as a sanity check that the
//! streaming trace counters agree with the radio metrics.

use crate::common::{join_strategies, join_workload, series, CaseSpec, JOIN2};
use crate::report::Report;
use crate::row;
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
/// The trace layer and the radio metrics count the same transmissions
/// through independent code paths, and must agree. Loss-free, every send
/// is delivered and the results are the oracle's; lossy, the attempts
/// cover deliveries plus drops, every run drops something, and the drop
/// counts are pinned.
pub fn table3(_quick: bool, r: &mut Report) {
    let [mut traced, mut delivered, mut exact, mut covered, mut dropping] = [0; 5];
    let mut lossy_drops = Vec::new();
    for loss in [0.0f64, 0.1] {
        for strategy in join_strategies() {
            let topo = Topology::square_grid(8);
            let events = join_workload(&topo, &["r1", "r2"], 128, 49);
            let sim = SimConfig {
                loss_prob: loss,
                // One retry, not two: with p=0.1 a message dies with
                // probability 1e-2, so even the ~1k-send Centroid row
                // expects ~11 exhausted drops and `lossy_runs_drop` is
                // statistically safe; at two retries (1e-3) the small rows
                // turn it into a seed lottery.
                retries: if loss > 0.0 { 1 } else { 0 },
                ..SimConfig::default()
            };
            let p = CaseSpec {
                src: JOIN2.to_string(),
                topo,
                strategy,
                pass_mode: PassMode::OnePass,
                sim,
                events,
                output: Symbol::intern("q"),
                horizon: 30_000_000,
            }
            .run();
            let t = &p.trace;
            traced += usize::from(t.sends == p.total_tx);
            // Only retry-exhausted messages become Drop records: air losses
            // with a retry budget are reported as `Retries`, without one as
            // `Loss`. So attempts equal deliveries exactly when loss-free,
            // and exceed deliveries plus drops otherwise.
            let dropped = t.drops_loss + t.drops_dead + t.drops_retries + t.drops_partition;
            if loss == 0.0 {
                delivered += usize::from(t.sends == t.delivers);
                exact += usize::from(p.oracle.exact());
            } else {
                covered += usize::from(t.sends >= t.delivers + dropped);
                dropping += usize::from(dropped > 0);
                lossy_drops.push(dropped);
            }
            let kind = |k: &str| t.sends_by_kind.get(k).copied().unwrap_or(0);
            r.row(row![
                "strategy" => strategy_name(strategy), "loss" => loss, "sends" => t.sends,
                "store" => kind("store"), "probe" => kind("probe"), "result" => kind("result"),
                "delivered" => t.delivers, "drops" => dropped, "max_queue" => p.max_queue_depth,
            ]);
        }
    }
    r.gate("trace_sends_equal_metrics_tx", 8, traced);
    r.gate("loss_free_sends_all_delivered", 4, delivered);
    r.gate("loss_free_runs_oracle_exact", 4, exact);
    r.gate("lossy_attempts_cover_deliveries_and_drops", 4, covered);
    r.gate("lossy_runs_drop", 4, dropping);
    r.gate("lossy_drops", "62 16 558 137", series(lossy_drops));
}
