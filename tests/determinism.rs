//! Cross-run determinism of full distributed deployments.
//!
//! A seeded lossy run must be reproducible in-process *and* across
//! processes: total transmissions, event counts, per-node output logs, and
//! the byte-exact event-trace journal (see `sensorlog_netsim::trace`).
//! This test is the permanent form of the harness used to root-cause the
//! seed flake where `Relation`'s `HashMap` iteration order leaked into
//! message-emission order and made loss hit different messages per
//! process.

use sensorlog::core::deploy::{DeployConfig, Deployment};
use sensorlog::core::strategy::Strategy;
use sensorlog::core::workload::UniformStreams;
use sensorlog::prelude::*;
use sensorlog_netsim::Journal;

fn sym(s: &str) -> Symbol {
    Symbol::intern(s)
}

const JOIN3: &str = r#"
    q(X, K) :- r1(X, K), r2(Y, K), X != Y.
"#;

struct RunFingerprint {
    total_tx: u64,
    events_processed: u64,
    results: usize,
    output_log: String,
    journal: Journal,
}

fn run_once(loss: f64, seed: u64) -> RunFingerprint {
    let topo = Topology::square_grid(6);
    let w = UniformStreams {
        preds: vec![sym("r1"), sym("r2")],
        interval: 5_000,
        duration: 20_000,
        delete_fraction: 0.2,
        delete_lag: 3_000,
        groups: 18,
        seed: 5,
    };
    let cfg = DeployConfig {
        rt: RtConfig {
            strategy: Strategy::Perpendicular { band_width: 1.0 },
            ..RtConfig::default()
        },
        sim: SimConfig {
            loss_prob: loss,
            seed,
            ..SimConfig::default()
        },
        ..DeployConfig::default()
    };
    let mut d = Deployment::new(JOIN3, BuiltinRegistry::standard(), topo.clone(), cfg).unwrap();
    let journal = d.attach_journal();
    d.schedule_all(w.events(&topo)).unwrap();
    d.run(3_000_000);
    let mut output_log = String::new();
    for id in d.sim.topology().nodes() {
        for (p, t, k, ts) in d.node(id).output_log() {
            output_log.push_str(&format!("{id} {p} {t} {k:?} {ts}\n"));
        }
    }
    RunFingerprint {
        total_tx: d.metrics().total_tx(),
        events_processed: d.sim.events_processed(),
        results: d.results(sym("q")).len(),
        output_log,
        journal: journal.take(),
    }
}

#[test]
fn repeated_lossy_runs_are_byte_identical() {
    for seed in [3u64, 7, 21, 40] {
        let a = run_once(0.10, seed);
        let b = run_once(0.10, seed);
        assert!(a.results > 0 || a.total_tx > 0, "run produced nothing");
        assert_eq!(a.total_tx, b.total_tx, "seed {seed}: total_tx differs");
        assert_eq!(
            a.events_processed, b.events_processed,
            "seed {seed}: events differ"
        );
        assert_eq!(
            a.output_log, b.output_log,
            "seed {seed}: output logs differ"
        );
        // The strongest form: the full event journals render to identical
        // bytes. On divergence, point at the first differing record.
        if let Some(i) = a.journal.first_divergence(&b.journal) {
            panic!(
                "seed {seed}: journals diverge at record {i}:\n  a: {:?}\n  b: {:?}",
                a.journal.records.get(i),
                b.journal.records.get(i)
            );
        }
        assert_eq!(a.journal.to_text(), b.journal.to_text());
        assert_eq!(a.journal.content_hash(), b.journal.content_hash());
    }
}

#[test]
fn different_seeds_give_different_schedules() {
    let a = run_once(0.10, 3);
    let b = run_once(0.10, 4);
    // Same workload, different radio RNG: the journals must differ (loss
    // hits different messages), while each stays internally consistent.
    assert_ne!(
        a.journal.content_hash(),
        b.journal.content_hash(),
        "distinct seeds produced identical schedules"
    );
}
