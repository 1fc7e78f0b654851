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
//! The same pin also gates the scheduler backends: the serial event heap
//! (the default) and the region-sharded lockstep scheduler must both
//! produce this exact journal — the shard backend's window barriers and
//! mailbox flushes are required to be observationally invisible. The pin
//! predates the heap's promotion to default: it was recorded on the timer
//! wheel the heap replaced, so the two pop orders are one order.

use proptest::prelude::*;
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
    run_probe_full(
        telemetry,
        SimConfig::default().sched,
        Provenance::disabled(),
    )
    .0
}

fn run_probe_sched(telemetry: Telemetry, sched: Sched) -> (usize, u64, u64) {
    run_probe_full(telemetry, sched, Provenance::disabled()).0
}

/// Returns the journal fingerprint triple plus the number of provenance
/// records the run captured.
fn run_probe_full(
    telemetry: Telemetry,
    sched: Sched,
    provenance: Provenance,
) -> ((usize, u64, u64), usize) {
    let topo = Topology::grid(20, 10); // 200 nodes
    let cfg = DeployConfig {
        rt: RtConfig {
            strategy: Strategy::Perpendicular { band_width: 1.0 },
            ..RtConfig::default()
        },
        sim: SimConfig {
            loss_prob: 0.1,
            seed: 17,
            sched,
            ..SimConfig::default()
        },
        telemetry,
        provenance: provenance.clone(),
        ..DeployConfig::default()
    };
    let mut d = Deployment::new(LOGIC_H, BuiltinRegistry::standard(), topo.clone(), cfg).unwrap();
    // Force the shard backend into real lockstep windows: at 200 nodes its
    // pending queue would often sit below the serial-fallback threshold,
    // and this pin is meant to exercise barriers + mailbox flushes, not
    // the fallback path. No effect on the other backends.
    d.set_shard_threshold(0);
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
    // The default scheduler is the serial heap, and it hits the constants
    // pinned for the timer wheel it replaced.
    assert_eq!(SimConfig::default().sched, Sched::Heap);
    let (records, hash, tx) = run_probe_sched(Telemetry::disabled(), Sched::Heap);
    assert_eq!(records, PINNED_RECORDS, "heap backend record count drifted");
    assert_eq!(tx, PINNED_TX, "heap backend transmission count drifted");
    assert_eq!(
        hash, PINNED_HASH,
        "the heap scheduler left the pinned journal"
    );
}

#[test]
fn shard_backend_matches_the_same_pin() {
    // The region-sharded lockstep scheduler — per-region heaps advanced
    // in lookahead-bounded windows, cross-region mailboxes flushed at the
    // barrier, trace merged by (at, key) — must hit the exact constants
    // pinned for the serial queue. Byte-identity, not statistical
    // similarity: conservative PDES is an execution strategy, not a model
    // change.
    let (records, hash, tx) = run_probe_sched(Telemetry::disabled(), Sched::Shard { workers: 2 });
    assert_eq!(
        records, PINNED_RECORDS,
        "shard backend record count drifted"
    );
    assert_eq!(tx, PINNED_TX, "shard backend transmission count drifted");
    assert_eq!(
        hash, PINNED_HASH,
        "sharded and serial schedulers produced different journals"
    );
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
        run_probe_full(Telemetry::disabled(), Sched::Heap, Provenance::enabled());
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

    let (_, n_disabled) =
        run_probe_full(Telemetry::disabled(), Sched::Heap, Provenance::disabled());
    assert_eq!(n_disabled, 0, "disabled plane must record nothing");
}

#[test]
fn provenance_pin_holds_on_the_shard_backend_too() {
    // Under the region-sharded scheduler nodes run on worker threads, so
    // provenance recording goes through the shared mutex concurrently —
    // the journal must still match the pin byte-for-byte.
    let ((records, hash, tx), n_prov) = run_probe_full(
        Telemetry::disabled(),
        Sched::Shard { workers: 2 },
        Provenance::enabled(),
    );
    assert_eq!(records, PINNED_RECORDS);
    assert_eq!(tx, PINNED_TX);
    assert_eq!(
        hash, PINNED_HASH,
        "provenance under the shard backend changed the journal"
    );
    assert!(n_prov > 1_000);
}

/// Heap-vs-shard journals for a small lossy logicH run under arbitrary
/// worker counts and seeds. Returns the two record vectors.
fn shard_oracle_pair(
    cols: usize,
    rows: usize,
    seed: u64,
    loss: f64,
    workers: usize,
) -> (
    Vec<sensorlog::netsim::TraceRecord>,
    Vec<sensorlog::netsim::TraceRecord>,
) {
    let mut out = Vec::new();
    for sched in [Sched::Heap, Sched::Shard { workers }] {
        let topo = Topology::grid(cols as u32, rows as u32);
        let cfg = DeployConfig {
            rt: RtConfig {
                strategy: Strategy::Perpendicular { band_width: 1.0 },
                ..RtConfig::default()
            },
            sim: SimConfig {
                loss_prob: loss,
                seed,
                sched,
                ..SimConfig::default()
            },
            ..DeployConfig::default()
        };
        let mut d =
            Deployment::new(LOGIC_H, BuiltinRegistry::standard(), topo.clone(), cfg).unwrap();
        d.set_shard_threshold(0);
        let journal = d.attach_journal();
        d.schedule_all(graph_edges(&topo, 40, 120));
        d.run(400_000);
        out.push(journal.take().records);
    }
    let shard = out.pop().unwrap();
    let heap = out.pop().unwrap();
    (heap, shard)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Window-barrier flushing never reorders deliveries: for random grid
    /// shapes, seeds, loss rates, and worker counts, the sharded journal is
    /// record-for-record identical to the serial heap's, and its
    /// timestamps are nondecreasing — same-tick records keep the oracle's
    /// (at, seq) order across every barrier.
    #[test]
    fn window_barriers_never_reorder_same_tick_deliveries(
        cols in 3usize..7,
        rows in 2usize..5,
        seed in 0u64..1_000,
        loss in prop_oneof![Just(0.0), Just(0.15)],
        workers in 1usize..5,
    ) {
        let (heap, shard) = shard_oracle_pair(cols, rows, seed, loss, workers);
        prop_assert_eq!(heap.len(), shard.len());
        for (h, s) in heap.iter().zip(shard.iter()) {
            prop_assert_eq!(h, s);
        }
        for pair in shard.windows(2) {
            prop_assert!(
                pair[0].at <= pair[1].at,
                "merged journal time went backwards: {} then {}",
                pair[0].at,
                pair[1].at
            );
            prop_assert!(pair[0].seq < pair[1].seq, "seq not strictly increasing");
        }
    }
}
