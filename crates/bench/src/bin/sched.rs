//! Scheduler + index-probe microbenchmarks, exported as `BENCH_sched.json`.
//!
//! ```text
//! sched [--quick] [--out BENCH_sched.json]
//! ```
//!
//! Two comparisons, matching the hot paths the timer-wheel/index work
//! optimized:
//!
//! * **queue** — the event queue under the simulator's hold model (pop the
//!   head, push a successor at `head + delay` with delay drawn from the
//!   bounded per-hop window), `BinaryHeap` vs `TimerWheel`, at pending
//!   populations of 100 / 1k / 10k / 100k events ("nodes": steady state is
//!   roughly one in-flight event per node). Also pure enqueue (fill from
//!   empty) and pure dequeue (drain) ops/sec.
//! * **probe** — `Relation::select` on a column prefix (a range of the
//!   relation's ordered map) vs the filtered-scan baseline
//!   (`Relation::scan_into`), ops/sec at growing relation sizes.
//!
//! `--quick` shrinks every dimension so CI can prove the harness end-to-end
//! (runs, exits 0, JSON parses) in well under a second; the committed
//! `BENCH_sched.json` comes from a full run and still carries the `join`
//! rows of the engine-level indexed-vs-scan comparison, recorded before the
//! engines' scan switch was removed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sensorlog_eval::relation::{Relation, TupleMeta};
use sensorlog_logic::intern;
use sensorlog_logic::{Term, Tuple};
use sensorlog_netsim::{SimTime, TimerWheel};
use std::collections::BinaryHeap;
use std::process::ExitCode;
use std::time::Instant;

/// The bounded per-hop delay window the simulator draws from
/// (`SimConfig::hop_delay` default), which is what makes the calendar-queue
/// layout effective: successors land within a few ring slots of the head.
const DELAY: (u64, u64) = (10, 40);

/// One event-queue backend under test.
trait Queue {
    fn push(&mut self, at: SimTime, seq: u64);
    fn pop(&mut self) -> Option<(SimTime, u64)>;
}

struct Heap(BinaryHeap<std::cmp::Reverse<(SimTime, u64)>>);

impl Queue for Heap {
    fn push(&mut self, at: SimTime, seq: u64) {
        self.0.push(std::cmp::Reverse((at, seq)));
    }
    fn pop(&mut self) -> Option<(SimTime, u64)> {
        self.0.pop().map(|std::cmp::Reverse(x)| x)
    }
}

struct Wheel(TimerWheel<()>);

impl Queue for Wheel {
    fn push(&mut self, at: SimTime, seq: u64) {
        self.0.push(at, seq, ());
    }
    fn pop(&mut self) -> Option<(SimTime, u64)> {
        self.0.pop().map(|(at, seq, ())| (at, seq))
    }
}

struct QueueRow {
    nodes: usize,
    backend: &'static str,
    hold_ops_per_sec: f64,
    enqueue_ops_per_sec: f64,
    dequeue_ops_per_sec: f64,
}

/// Hold model: pop the earliest event, schedule its successor a bounded
/// delay later. `ops` pops+pushes at a steady pending population of `n`.
fn bench_queue<Q: Queue>(mut mk: impl FnMut() -> Q, n: usize, ops: usize) -> (f64, f64, f64) {
    let mut rng = StdRng::seed_from_u64(0xBE0C + n as u64);
    let init: Vec<(SimTime, u64)> = (0..n)
        .map(|i| (rng.gen_range(1_000..1_000 + DELAY.1), i as u64))
        .collect();

    // Steady-state hold model.
    let mut q = mk();
    for &(at, seq) in &init {
        q.push(at, seq);
    }
    let mut seq = n as u64;
    let t0 = Instant::now();
    for _ in 0..ops {
        let (at, _) = q.pop().expect("hold model never drains");
        seq += 1;
        q.push(at + rng.gen_range(DELAY.0..=DELAY.1), seq);
    }
    let hold = ops as f64 / t0.elapsed().as_secs_f64();

    // Pure enqueue (fill from empty) and pure dequeue (drain), repeated so
    // small populations still accumulate measurable work.
    let rounds = (200_000 / n).max(1);
    let mut enq_s = 0.0;
    let mut deq_s = 0.0;
    for _ in 0..rounds {
        let mut q = mk();
        let t0 = Instant::now();
        for &(at, seq) in &init {
            q.push(at, seq);
        }
        enq_s += t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        while q.pop().is_some() {}
        deq_s += t0.elapsed().as_secs_f64();
    }
    let total = (rounds * n) as f64;
    (hold, total / enq_s, total / deq_s)
}

struct ProbeRow {
    tuples: usize,
    indexed_ops_per_sec: f64,
    scan_ops_per_sec: f64,
}

/// `Relation::select` as an ordered range vs a filtered scan.
fn bench_probe(tuples: usize, probes: usize) -> ProbeRow {
    let mut rel = Relation::new();
    let keys = (tuples / 4).max(1) as i64;
    for i in 0..tuples {
        let t = Tuple::new(vec![Term::Int(i as i64 % keys), Term::Int(i as i64)]);
        rel.insert(t, TupleMeta::default());
    }
    let mut rng = StdRng::seed_from_u64(0x9806E);
    let mut out = Vec::new();

    let t0 = Instant::now();
    for _ in 0..probes {
        out.clear();
        rel.select(
            &[0],
            &[intern::intern_int(rng.gen_range(0..keys))],
            &mut out,
        );
    }
    let idx_ops = probes as f64 / t0.elapsed().as_secs_f64();

    // Scan baseline: fewer probes (each is O(tuples)), same key stream.
    let mut rng = StdRng::seed_from_u64(0x9806E);
    let scan_probes = (probes / 50).max(10);
    let t0 = Instant::now();
    for _ in 0..scan_probes {
        out.clear();
        let key = intern::intern_int(rng.gen_range(0..keys));
        rel.scan_into(&[0], &[key], &mut out);
    }
    let scan_ops = scan_probes as f64 / t0.elapsed().as_secs_f64();
    ProbeRow {
        tuples,
        indexed_ops_per_sec: idx_ops,
        scan_ops_per_sec: scan_ops,
    }
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = flag(&args, "--out").unwrap_or_else(|| "BENCH_sched.json".into());

    let (sizes, hold_ops): (&[usize], usize) = if quick {
        (&[100, 1_000], 20_000)
    } else {
        (&[100, 1_000, 10_000, 100_000], 2_000_000)
    };

    let mut queue_rows: Vec<QueueRow> = Vec::new();
    for &n in sizes {
        let (h_hold, h_enq, h_deq) = bench_queue(|| Heap(BinaryHeap::new()), n, hold_ops);
        queue_rows.push(QueueRow {
            nodes: n,
            backend: "heap",
            hold_ops_per_sec: h_hold,
            enqueue_ops_per_sec: h_enq,
            dequeue_ops_per_sec: h_deq,
        });
        let (w_hold, w_enq, w_deq) = bench_queue(|| Wheel(TimerWheel::new()), n, hold_ops);
        queue_rows.push(QueueRow {
            nodes: n,
            backend: "wheel",
            hold_ops_per_sec: w_hold,
            enqueue_ops_per_sec: w_enq,
            dequeue_ops_per_sec: w_deq,
        });
        eprintln!(
            "queue n={n}: hold {:.2}x enq {:.2}x deq {:.2}x (wheel/heap)",
            w_hold / h_hold,
            w_enq / h_enq,
            w_deq / h_deq
        );
    }

    let probe_sizes: &[usize] = if quick {
        &[1_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    let probe_rows: Vec<ProbeRow> = probe_sizes
        .iter()
        .map(|&t| bench_probe(t, if quick { 20_000 } else { 500_000 }))
        .collect();

    // Hand-rolled JSON — stable field order, no external deps.
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"bench\": \"sched\",\n  \"quick\": {quick},\n"));
    s.push_str(&format!(
        "  \"delay_model_ms\": [{}, {}],\n  \"queue\": [\n",
        DELAY.0, DELAY.1
    ));
    for (i, r) in queue_rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"nodes\": {}, \"backend\": \"{}\", \"hold_ops_per_sec\": {:.0}, \
             \"enqueue_ops_per_sec\": {:.0}, \"dequeue_ops_per_sec\": {:.0}}}{}\n",
            r.nodes,
            r.backend,
            r.hold_ops_per_sec,
            r.enqueue_ops_per_sec,
            r.dequeue_ops_per_sec,
            if i + 1 < queue_rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"queue_dequeue_speedup\": {");
    for (i, pair) in queue_rows.chunks(2).enumerate() {
        s.push_str(&format!(
            "{}\"{}\": {:.2}",
            if i > 0 { ", " } else { "" },
            pair[0].nodes,
            pair[1].dequeue_ops_per_sec / pair[0].dequeue_ops_per_sec
        ));
    }
    s.push_str("},\n  \"probe\": [\n");
    for (i, r) in probe_rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"tuples\": {}, \"indexed_ops_per_sec\": {:.0}, \"scan_ops_per_sec\": {:.0}}}{}\n",
            r.tuples,
            r.indexed_ops_per_sec,
            r.scan_ops_per_sec,
            if i + 1 < probe_rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");

    if let Err(e) = std::fs::write(&out_path, &s) {
        eprintln!("sched: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "sched OK: {} queue rows, {} probe rows -> {out_path}",
        queue_rows.len(),
        probe_rows.len()
    );
    ExitCode::SUCCESS
}
