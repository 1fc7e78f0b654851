//! Pinned trace-hash regression: a lossy 200-node logicH run whose event
//! journal must stay byte-identical across observability changes, and must
//! be unaffected by enabling telemetry (the observer may never touch the
//! RNG, the event queue, or timers).
//!
//! The pinned values come from `examples/trace_hash.rs` run at the
//! origin-keyed-tie baseline. If a change legitimately alters simulator
//! behavior (new message kind, different timer schedule), re-run the
//! example and update the constants — but an unexplained diff here means
//! determinism broke.
//!
//! The simulator's one queue, a binary heap on `(at, tie)`, hits this pin;
//! the pin's lineage predates the heap (it survived the timer wheel the
//! heap replaced), so the two pop orders are one order.

use sensorlog::core::deploy::{DeployConfig, Deployment};
use sensorlog::core::strategy::Strategy;
use sensorlog::core::workload::graph_edges;
use sensorlog::prelude::*;

const LOGIC_H: &str = r#"
    .output h.
    h(0, 0, 0).
    h(0, X, 1) :- g(0, X).
    hp(Y, D + 1) :- h(_, Y, D'), (D + 1) > D', h(_, X, D), g(X, Y).
    h(X, Y, D + 1) :- g(X, Y), h(_, X, D), not hp(Y, D + 1).
"#;

// Re-pinned in PR 25, whose pass plans and node-placed `h` / `hp` owners
// change what a probe carries and where a result goes: the parent's pin was
// 29,219 records, hash `f223a9e4a847cca2`, 14,138 transmissions.
const PINNED_HASH: u64 = 0x956199edd32bb44f;
const PINNED_RECORDS: usize = 29841;
const PINNED_TX: u64 = 14444;

fn run_probe(telemetry: Telemetry) -> (usize, u64, u64) {
    run_probe_full(telemetry, Provenance::disabled()).0
}

/// Returns the journal fingerprint triple plus the number of provenance
/// records the run captured.
fn run_probe_full(telemetry: Telemetry, provenance: Provenance) -> ((usize, u64, u64), usize) {
    let topo = Topology::grid(20, 10); // 200 nodes
    let cfg = DeployConfig {
        rt: RtConfig {
            strategy: Strategy::Perpendicular { band_width: 1.0 },
            ..RtConfig::default()
        },
        sim: SimConfig {
            loss_prob: 0.1,
            seed: 17,
            ..SimConfig::default()
        },
        telemetry,
        provenance: provenance.clone(),
        ..DeployConfig::default()
    };
    let mut d = Deployment::new(LOGIC_H, BuiltinRegistry::standard(), topo.clone(), cfg).unwrap();
    let journal = d.attach_journal();
    d.schedule_all(graph_edges(&topo, 100, 200));
    d.run(2_000_000);
    let j = journal.take();
    (
        (j.records.len(), j.content_hash(), d.metrics().total_tx()),
        provenance.len(),
    )
}

#[test]
fn lossy_logic_h_trace_is_pinned() {
    let (records, hash, tx) = run_probe(Telemetry::disabled());
    assert_eq!(records, PINNED_RECORDS, "journal record count drifted");
    assert_eq!(tx, PINNED_TX, "transmission count drifted");
    assert_eq!(hash, PINNED_HASH, "journal content hash drifted");
}

#[test]
fn heap_backend_matches_the_same_pin() {
    // The heap is the simulator's only event queue. Two back-to-back runs
    // in one process must both hit the pin: no queue, tie counter or
    // interned state may leak from one deployment into the next.
    for run in 0..2 {
        let (records, hash, tx) = run_probe(Telemetry::disabled());
        assert_eq!(
            records, PINNED_RECORDS,
            "run {run}: heap record count drifted"
        );
        assert_eq!(tx, PINNED_TX, "run {run}: heap transmission count drifted");
        assert_eq!(
            hash, PINNED_HASH,
            "run {run}: the heap queue left the pinned journal"
        );
    }
}

#[test]
fn telemetry_does_not_perturb_the_trace() {
    let (records, hash, tx) = run_probe(Telemetry::enabled());
    assert_eq!(records, PINNED_RECORDS);
    assert_eq!(tx, PINNED_TX);
    assert_eq!(
        hash, PINNED_HASH,
        "an enabled telemetry handle changed simulator behavior"
    );
}

#[test]
fn provenance_does_not_perturb_the_trace() {
    // The provenance plane is a pure observer, exactly like telemetry:
    // with recording enabled the journal must stay byte-identical to the
    // pin, while actually capturing a non-trivial record log. Disabled,
    // it must capture nothing at all.
    let ((records, hash, tx), n_prov) =
        run_probe_full(Telemetry::disabled(), Provenance::enabled());
    assert_eq!(records, PINNED_RECORDS);
    assert_eq!(tx, PINNED_TX);
    assert_eq!(
        hash, PINNED_HASH,
        "an enabled provenance handle changed simulator behavior"
    );
    assert!(
        n_prov > 1_000,
        "a 200-node logicH run should capture thousands of provenance records, got {n_prov}"
    );

    let (_, n_disabled) = run_probe_full(Telemetry::disabled(), Provenance::disabled());
    assert_eq!(n_disabled, 0, "disabled plane must record nothing");
}
