//! Pinned trace-hash regression: a lossy 200-node logicH run whose event
//! journal must stay byte-identical across observability changes, and must
//! be unaffected by enabling telemetry (the observer may never touch the
//! RNG, the event queue, or timers); and a clock-skewed JOIN2 run, the one
//! pin whose timers τc scales.
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

// Re-pinned when every wait became its delay bound, derived per deployment
// (on the plane a stage waits one 30 ms hop where it waited 1,500 ms for τs
// and 2,000 ms more per XY step): the pin was 36,830 records, hash
// `2f297ff1385c4b37`, 15,818 transmissions. Before that it was re-pinned
// when the plane began storing a `g` link only at the end it
// names (`h` / `hp` still go to every neighbour): the pin was 28,427
// records, hash `1c2127377b640852`, 12,169 transmissions. At 10 % loss
// without retries the plane's lost negated partners leave zombies (ROADMAP
// items 8(b) and 14) whose count swings with the loss draws, which follow
// the send order; this seed's run draws more of them (tx 15,818), others
// fewer. Before that, the plane itself had moved the pin from 29,841 /
// `956199edd32bb44f` / 14,444, and pass plans and node-placed owners from
// 29,219 / `f223a9e4a847cca2` / 14,138.
const PINNED_HASH: u64 = 0xaf4a88a95bcddca1;
const PINNED_RECORDS: usize = 19475;
const PINNED_TX: u64 = 8052;

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
    d.schedule_all(graph_edges(&topo, 100, 200)).unwrap();
    d.run(2_000_000);
    let j = journal.take();
    (
        (j.records.len(), j.content_hash(), d.metrics().total_tx()),
        provenance.snapshot().len(),
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

const JOIN2: &str = r#"
    .output q.
    q(X, Y) :- r1(N1, X, K), r2(N2, Y, K).
"#;

// Table 2's 4x4 testbed run: 50 ms clock skew, jittered hop delays, seeded
// asymmetric per-link loss under 3 link retries. The pins above all run
// with no skew, so this one is what holds τc handling to its bytes. Its
// waits are derived from those bounds (an 80 ms hop after three backoffs of
// 5, 10 and 20 ms, τc 50 ms): with the constant τs and τj it was
// (3210, 0x26fbd336d3f3855e, 1450).
const SKEWED_PIN: (usize, u64, u64) = (3209, 0x47765432a07b1e40, 1449);

#[test]
fn skewed_trace_is_pinned() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sensorlog::core::workload::UniformStreams;

    let topo = Topology::square_grid(4);
    let mut rng = StdRng::seed_from_u64(99);
    let mut link_loss = std::collections::HashMap::new();
    for a in topo.nodes() {
        for &b in topo.neighbors(a) {
            link_loss.insert((a, b), rng.gen_range(0.0..0.10));
        }
    }
    let cfg = DeployConfig {
        rt: RtConfig {
            strategy: Strategy::Perpendicular { band_width: 1.0 },
            ..RtConfig::default()
        },
        sim: SimConfig {
            hop_delay: (5, 80),
            clock_skew_max: 50,
            link_loss,
            retries: 3,
            seed: 31,
            ..SimConfig::default()
        },
        ..DeployConfig::default()
    };
    let events = UniformStreams {
        preds: vec![Symbol::intern("r1"), Symbol::intern("r2")],
        interval: 6_000,
        duration: 18_000,
        delete_fraction: 0.0,
        delete_lag: 0,
        groups: 8,
        seed: 7,
    }
    .events(&topo);
    let mut d = Deployment::new(JOIN2, BuiltinRegistry::standard(), topo, cfg).unwrap();
    let journal = d.attach_journal();
    d.schedule_all(events.clone()).unwrap();
    d.run(30_000_000);
    let j = journal.take();
    let got = (j.records.len(), j.content_hash(), d.metrics().total_tx());
    assert_eq!(got, SKEWED_PIN, "the skewed journal drifted");
    let report = oracle::check(&d, &events, Symbol::intern("q"));
    assert_eq!(report.found, 285, "Table 2's 4x4 run found {report:?}");
}

/// Example 1 as `examples/programs/battlefield.dl` states it, `.window veh
/// 60000`, on a lossy 6×6 PA grid run past its retention: every replica of
/// `veh` and `cov` and the owned entries of `cov` and `uncov` are queued to
/// expire, and their expiries fire in the journal. No other pin runs a
/// windowed program.
const WINDOWED_PIN: (usize, u64, u64) = (2620, 0xd1e0994b74d5a3e6, 1055);
/// Derivations of that run still held at quiescence, of a peak of 30: none,
/// every owned entry goes a window after its last delta (10 stayed while an
/// entry minted after its expiry was queued outlived its window).
const WINDOWED_HELD: usize = 0;

#[test]
fn windowed_battlefield_trace_is_pinned() {
    use sensorlog::core::workload::VehicleWorkload;

    let topo = Topology::square_grid(6);
    let cfg = DeployConfig {
        sim: SimConfig {
            loss_prob: 0.05,
            seed: 23,
            ..SimConfig::default()
        },
        ..DeployConfig::default()
    };
    let program = include_str!("../examples/programs/battlefield.dl");
    let events = VehicleWorkload {
        n_enemy: 4,
        n_friendly: 4,
        interval: 2_000,
        duration: 12_000,
        seed: 5,
    }
    .events(&topo);
    let mut d = Deployment::new(program, BuiltinRegistry::standard(), topo, cfg).unwrap();
    let journal = d.attach_journal();
    d.schedule_all(events).unwrap();
    let end = d.run(10_000_000);
    let j = journal.take();
    let got = (j.records.len(), j.content_hash(), d.metrics().total_tx());
    assert_eq!(got, WINDOWED_PIN, "the windowed journal drifted");
    // Past the last sighting's retention every replica has expired.
    assert!(end > 60_000, "quiescent at {end}");
    let nodes = || d.sim.nodes();
    assert!(nodes().map(|n| n.stats.peak_replicas).sum::<usize>() > 300);
    assert_eq!(nodes().map(|n| n.replica_count()).sum::<usize>(), 0);
    // Owned entries have gone with them: each at the due its last delta
    // queued (`runtime::fire_expiry`), whenever its holddown minted its id.
    let held: Vec<(Symbol, Tuple, i64)> =
        nodes().flat_map(|n| n.derivation_count_entries()).collect();
    assert_eq!(held.len(), WINDOWED_HELD, "derivations held: {held:?}");
    assert!(held
        .iter()
        .all(|(p, ..)| ["cov", "uncov"].contains(&p.as_str())));
}
