//! Journal persistence across processes.
//!
//! A journal recorded in one process is saved to a JSONL file, then a
//! *separate* process loads the file, re-runs the identical deployment,
//! and verifies byte-identical replay via `ReplayChecker`. The child is
//! this same test binary, re-invoked with `SENSORLOG_REPLAY_JOURNAL` set,
//! so no auxiliary binary needs to exist.

use sensorlog::core::deploy::{DeployConfig, Deployment};
use sensorlog::core::strategy::Strategy;
use sensorlog::core::workload::UniformStreams;
use sensorlog::prelude::*;
use sensorlog_netsim::{Journal, ReplayChecker, TraceRecord, TraceSink};
use std::cell::RefCell;
use std::path::Path;
use std::process::Command;
use std::rc::Rc;

const JOIN3: &str = r#"
    q(X, K) :- r1(X, K), r2(Y, K), X != Y.
"#;

const ENV_KEY: &str = "SENSORLOG_REPLAY_JOURNAL";

fn deployment() -> Deployment {
    let topo = Topology::square_grid(6);
    let w = UniformStreams {
        preds: vec![Symbol::intern("r1"), Symbol::intern("r2")],
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
            loss_prob: 0.15,
            seed: 23,
            ..SimConfig::default()
        },
        ..DeployConfig::default()
    };
    let mut d = Deployment::new(JOIN3, BuiltinRegistry::standard(), topo.clone(), cfg).unwrap();
    d.schedule_all(w.events(&topo)).unwrap();
    d
}

/// Child role: load the journal written by the parent, re-run the same
/// deployment against a `ReplayChecker`, and exit nonzero on divergence.
fn replay_child(path: &Path) -> Result<(), String> {
    let recorded = Journal::load(path).map_err(|e| format!("load failed: {e}"))?;
    if recorded.records.is_empty() {
        return Err("loaded journal is empty".into());
    }
    struct SharedChecker(Rc<RefCell<ReplayChecker>>);
    impl TraceSink for SharedChecker {
        fn record(&mut self, rec: TraceRecord) {
            self.0.borrow_mut().record(rec);
        }
    }
    let checker = Rc::new(RefCell::new(ReplayChecker::new(recorded)));
    let mut d = deployment();
    d.sim.set_trace(Box::new(SharedChecker(checker.clone())));
    d.run(3_000_000);
    let verdict = checker.borrow().result();
    verdict.map_err(|div| div.to_string())
}

#[test]
fn journal_round_trips_across_processes() {
    // Child role: this test binary was re-spawned to do the replay half.
    if let Ok(path) = std::env::var(ENV_KEY) {
        match replay_child(Path::new(&path)) {
            Ok(()) => std::process::exit(0),
            Err(e) => {
                eprintln!("replay child failed: {e}");
                std::process::exit(1);
            }
        }
    }

    // Parent role: record, persist, verify the file round-trips in-process,
    // then hand it to a fresh process for the replay check.
    let mut d = deployment();
    let journal = d.attach_journal();
    d.run(3_000_000);
    let recorded = journal.take();
    assert!(!recorded.records.is_empty(), "run journaled nothing");

    let path = std::env::temp_dir().join(format!(
        "sensorlog_journal_xproc_{}.jsonl",
        std::process::id()
    ));
    recorded.save(&path).expect("save journal");
    let reloaded = Journal::load(&path).expect("load journal");
    assert_eq!(
        recorded.to_text(),
        reloaded.to_text(),
        "disk round-trip must be byte-identical"
    );
    assert_eq!(recorded.content_hash(), reloaded.content_hash());

    let exe = std::env::current_exe().expect("test executable path");
    let out = Command::new(exe)
        .arg("journal_round_trips_across_processes")
        .arg("--exact")
        .arg("--nocapture")
        .env(ENV_KEY, &path)
        .output()
        .expect("spawn replay child");
    std::fs::remove_file(&path).ok();
    assert!(
        out.status.success(),
        "cross-process replay diverged:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}
