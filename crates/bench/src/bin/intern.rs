//! Interned-tuple representation gates.
//!
//! ```text
//! intern [--out <file>]
//! ```
//!
//! Two checks, matching what the flat-representation work changed:
//!
//! * **journal pin** — the 50-node logicH deployment that anchors the
//!   provenance smoke, re-run here and compared against the pre-refactor
//!   journal hash: the id representation must be invisible on the wire
//!   and in the trace.
//! * **resolve gate** — `intern::resolve_counts()` deltas across a
//!   centralized `Engine` fixpoint and across the deployment run. Every
//!   boxed-`Term` materialization is supposed to happen inside a declared
//!   `intern::boundary` scope (display, lineage, aggregate folds, builtin
//!   calls, geographic hashing); a hot-path delta of anything but zero
//!   means a resolve leaked into the fixpoint loop. The boundary delta is
//!   reported so `ci.sh` can hold it below the run's journal record count.
//!
//! The JSON goes to `--out`, or to stdout. The committed
//! `BENCH_intern.json` is the PR 9 record, which also timed that PR's
//! trie probe against a boxed replica of the PR 3 index; that comparison
//! left with the boxed matcher, and the trie after it.

use sensorlog_core::deploy::{DeployConfig, Deployment};
use sensorlog_core::workload::graph_edges;
use sensorlog_core::{RtConfig, Strategy};
use sensorlog_eval::{Database, Engine};
use sensorlog_logic::builtin::BuiltinRegistry;
use sensorlog_logic::intern;
use sensorlog_logic::{Symbol, Term, Tuple};
use sensorlog_netsim::{SimConfig, Topology};
use std::process::ExitCode;

const LOGIC_H: &str = r#"
    .output h.
    h(0, 0, 0).
    h(0, X, 1) :- g(0, X).
    hp(Y, D + 1) :- h(_, Y, D'), (D + 1) > D', h(_, X, D), g(X, Y).
    h(X, Y, D + 1) :- g(X, Y), h(_, X, D), not hp(Y, D + 1).
"#;

/// Pre-refactor pin of the 50-node quick deployment journal (the same
/// scenario and hash the provenance smoke pins in `ci.sh`).
const JOURNAL_PIN: u64 = 0x3c1e_c08c_6289_dba4;

// ------------------------------------------------------------------ pin

struct PinRun {
    hash: u64,
    records: usize,
    hot_delta: u64,
    boundary_delta: u64,
}

/// The provenance-smoke scenario: loss-free logicH shortest-path tree on
/// a 10×5 grid, seed 17 — with resolve counters sampled around the run.
fn run_pin() -> PinRun {
    let topo = Topology::grid(10, 5);
    let cfg = DeployConfig {
        rt: RtConfig {
            strategy: Strategy::Perpendicular { band_width: 1.0 },
            ..RtConfig::default()
        },
        sim: SimConfig {
            seed: 17,
            ..SimConfig::default()
        },
        ..DeployConfig::default()
    };
    let mut d = Deployment::new(LOGIC_H, BuiltinRegistry::standard(), topo.clone(), cfg)
        .expect("bench program compiles");
    let journal = d.attach_journal();
    d.schedule_all(graph_edges(&topo, 100, 200));
    let before = intern::resolve_counts();
    d.run(2_000_000);
    let after = intern::resolve_counts();
    let j = journal.take();
    PinRun {
        hash: j.content_hash(),
        records: j.records.len(),
        hot_delta: after.hot - before.hot,
        boundary_delta: after.boundary - before.boundary,
    }
}

/// Centralized semi-naive fixpoint of logicH on an 8×8 grid: the hot loop
/// with no display/wire boundary at all, so even the boundary delta stays
/// small and the hot delta must be exactly zero.
fn run_engine_gate() -> (u64, u64) {
    let topo = Topology::square_grid(8);
    let mut edb = Database::new();
    let g = Symbol::intern("g");
    for a in topo.nodes() {
        for &b in topo.neighbors(a) {
            edb.insert(
                g,
                Tuple::new(vec![Term::Int(a.0 as i64), Term::Int(b.0 as i64)]),
            );
        }
    }
    let engine =
        Engine::from_source(LOGIC_H, BuiltinRegistry::standard()).expect("program compiles");
    let before = intern::resolve_counts();
    let out = engine.run(&edb).expect("program evaluates");
    let after = intern::resolve_counts();
    assert!(
        out.len_of(Symbol::intern("h")) > 0,
        "fixpoint produced no h"
    );
    (after.hot - before.hot, after.boundary - before.boundary)
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = flag(&args, "--out");

    let (engine_hot, engine_boundary) = run_engine_gate();
    eprintln!("engine gate: hot resolves {engine_hot}, boundary {engine_boundary}");
    if engine_hot != 0 {
        eprintln!("intern: {engine_hot} resolve() calls leaked into the centralized fixpoint");
        return ExitCode::FAILURE;
    }

    let pin = run_pin();
    eprintln!(
        "pin run: hash {:016x}, {} records, hot resolves {}, boundary {}",
        pin.hash, pin.records, pin.hot_delta, pin.boundary_delta
    );
    if pin.hash != JOURNAL_PIN {
        eprintln!(
            "intern: journal hash {:016x} drifted from the pre-refactor pin {JOURNAL_PIN:016x} \
             (the flat representation is supposed to be invisible on the wire)",
            pin.hash
        );
        return ExitCode::FAILURE;
    }
    if pin.hot_delta != 0 {
        eprintln!(
            "intern: {} resolve() calls leaked outside boundary scopes during the deployment run",
            pin.hot_delta
        );
        return ExitCode::FAILURE;
    }

    let s = format!(
        "{{\n  \"bench\": \"intern\",\n  \
         \"journal\": {{\"hash\": \"{:016x}\", \"records\": {}, \"matches_pre_refactor_pin\": true}},\n  \
         \"resolves\": {{\"engine_hot\": {engine_hot}, \"engine_boundary\": {engine_boundary}, \
         \"deploy_hot\": {}, \"deploy_boundary\": {}}}\n}}\n",
        pin.hash, pin.records, pin.hot_delta, pin.boundary_delta
    );
    match out_path {
        Some(path) => std::fs::write(path, &s).expect("write bench artifact"),
        None => print!("{s}"),
    }
    eprintln!("intern OK: pin + resolve gate");
    ExitCode::SUCCESS
}
