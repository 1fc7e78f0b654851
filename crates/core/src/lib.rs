//! # sensorlog-core
//!
//! The paper's primary contribution: **distributed, asynchronous bottom-up
//! evaluation of deductive programs in sensor networks** (Gupta, Zhu & Xu,
//! ICDE 2009), built on the simulator (`sensorlog-netsim`), the network
//! services (`sensorlog-netstack`) and the language/engine crates.
//!
//! * [`strategy`] — the Generalized Perpendicular Approach family:
//!   Perpendicular (rows store / columns join), NaiveBroadcast,
//!   LocalStorage, and the Centroid central-server baseline (Sec. III-A);
//! * [`plan`] — program compilation for node deployment, including
//!   staggered finalize-holddowns for XY components (Secs. IV-C, V);
//! * [`partial`] — partial results and the per-node one-pass join step
//!   (Fig. 1), local negation kills (Sec. IV-B);
//! * [`runtime`] — the node state machine: storage phase (replication /
//!   tombstones), delayed join phase (τs + τc), derivation-count ownership
//!   with liveness propagation (Secs. III–IV, Fig. 3);
//! * [`deploy`] / [`workload`] / [`oracle`] — the experiment harness:
//!   deployments, workload generators, and centralized-oracle checking.
//!
//! ## Quickstart
//!
//! ```
//! use sensorlog_core::deploy::{DeployConfig, Deployment, WorkloadEvent};
//! use sensorlog_core::oracle;
//! use sensorlog_logic::builtin::BuiltinRegistry;
//! use sensorlog_logic::{parse_fact, Symbol, Tuple};
//! use sensorlog_netsim::{NodeId, Topology};
//! use sensorlog_eval::UpdateKind;
//!
//! let src = r#"
//!     .output q.
//!     q(X, Y) :- r1(X, T), r2(Y, T).
//! "#;
//! let topo = Topology::square_grid(4);
//! let mut d = Deployment::new(src, BuiltinRegistry::standard(), topo,
//!                             DeployConfig::default()).unwrap();
//! let mk = |pred: &str, src: &str| {
//!     let (p, args) = parse_fact(src).unwrap();
//!     assert_eq!(p, Symbol::intern(pred));
//!     Tuple::new(args)
//! };
//! let events = vec![
//!     WorkloadEvent { at: 10, node: NodeId(1), pred: Symbol::intern("r1"),
//!                     tuple: mk("r1", "r1(1, 7)"), kind: UpdateKind::Insert },
//!     WorkloadEvent { at: 20, node: NodeId(14), pred: Symbol::intern("r2"),
//!                     tuple: mk("r2", "r2(2, 7)"), kind: UpdateKind::Insert },
//! ];
//! d.schedule_all(events.clone()).unwrap();
//! d.run(60_000);
//! let report = oracle::check(&d, &events, Symbol::intern("q"));
//! assert!(report.exact(), "missing {:?} spurious {:?}", report.missing, report.spurious);
//! ```

#![forbid(unsafe_code)]

pub mod agg;
pub mod deploy;
pub mod invariants;
pub mod msg;
pub mod oracle;
pub mod partial;
pub mod plan;
pub mod prov;
pub mod runtime;
pub mod strategy;
pub mod tupleid;
pub mod workload;

pub use deploy::{DeployConfig, Deployment, EventError, WorkloadEvent};
pub use invariants::{InvariantReport, Violation};
pub use plan::{compile_source, DistProgram, PlanTiming};
pub use prov::{ProvRecord, Provenance};
pub use runtime::{NetInfo, RtConfig, SensorlogNode};
pub use strategy::{PassMode, Strategy};
pub use tupleid::{clamp_absorbs, DerivationKey, FactRecord, TupleId};
