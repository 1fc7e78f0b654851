//! # sensorlog
//!
//! A deductive framework for programming sensor networks — a faithful Rust
//! reproduction of *"Deductive Framework for Programming Sensor Networks"*
//! (Gupta, Zhu & Xu, ICDE 2009). See `DESIGN.md` for the system inventory
//! and `EXPERIMENTS.md` for the reproduced evaluation.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`logic`] — the rule language: first-order terms with function
//!   symbols, parser, safety, stratification, XY-stratification, magic sets;
//! * [`eval`] — the centralized bottom-up engine: semi-naive fixpoint,
//!   XY-staged evaluation, and set-of-derivations / DRed incremental
//!   maintenance, with counting as the set-of-derivations engine's ledger
//!   with the derivation projected away;
//! * [`netsim`] — the deterministic discrete-event sensor-network
//!   simulator (the TOSSIM substitute);
//! * [`netstack`] — routing, geographic hashing, gathering trees, TAG
//!   aggregation, and the procedural flood baseline;
//! * [`core`] — the distributed asynchronous deductive engine: the
//!   (Generalized) Perpendicular Approach with storage/join phases, derived
//!   stream hashing, and distributed set-of-derivations maintenance;
//! * [`telemetry`] — workspace-wide observability: deterministic metrics
//!   registry, span-based phase profiler, and the JSONL snapshot exporter;
//! * [`provenance`] — the derivation provenance plane: the cross-node
//!   causal DAG, `why` / `why-not` / critical-path queries, and the
//!   proof-checking invariant behind `sensorlog explain`.
//!
//! ## Hello, sensor network
//!
//! ```
//! use sensorlog::prelude::*;
//!
//! // Example 1 of the paper: uncovered-enemy-vehicle alerts.
//! let program = r#"
//!     .output uncov.
//!     cov(L, T) :- veh("enemy", L, T), veh("friendly", F, T),
//!                  dist(L, F) <= 5.
//!     uncov(L, T) :- not cov(L, T), veh("enemy", L, T).
//! "#;
//!
//! // Centralized: parse, analyze, evaluate.
//! let engine = Engine::from_source(program, BuiltinRegistry::standard()).unwrap();
//! let mut edb = Database::new();
//! edb.load_facts(r#"
//!     veh("enemy", 10, 1).
//!     veh("friendly", 12, 1).
//!     veh("enemy", 90, 1).
//! "#).unwrap();
//! let out = engine.run(&edb).unwrap();
//! assert_eq!(out.len_of(Symbol::intern("uncov")), 1); // only the one at 90
//! ```

#![forbid(unsafe_code)]

pub use sensorlog_core as core;
pub use sensorlog_eval as eval;
pub use sensorlog_logic as logic;
pub use sensorlog_netsim as netsim;
pub use sensorlog_netstack as netstack;
pub use sensorlog_provenance as provenance;
pub use sensorlog_telemetry as telemetry;

/// Everything a typical application needs.
pub mod prelude {
    pub use sensorlog_core::deploy::{DeployConfig, Deployment, EventError, WorkloadEvent};
    pub use sensorlog_core::{oracle, workload, PassMode, Provenance, RtConfig, Strategy};
    pub use sensorlog_eval::{Database, Engine, EvalConfig, IncrementalEngine, Update, UpdateKind};
    pub use sensorlog_logic::builtin::BuiltinRegistry;
    pub use sensorlog_logic::{
        analyze, parse_fact, parse_program, parse_rule, Analysis, ProgramClass, Symbol, Term, Tuple,
    };
    pub use sensorlog_netsim::{NodeId, SchedStats, SimConfig, Simulator, Topology};
    pub use sensorlog_provenance::{check_provenance, explain_atom, Explain, Explanation, ProvDag};
    pub use sensorlog_telemetry::{Scope, Snapshot, Telemetry};
}
