//! # sensorlog-netsim
//!
//! Deterministic discrete-event sensor-network simulator — the substitution
//! for TOSSIM (see DESIGN.md). The paper's evaluation metrics are functions
//! of the message-passing schedule (communication cost, load balance,
//! latency, correctness under loss), which this simulator reproduces with:
//!
//! * unit-disk radio over [`topology::Topology`] (grids and random
//!   geometric graphs);
//! * bounded, jittered per-hop delays (Theorems 1–3 assume bounded delays);
//! * Bernoulli and per-link (asymmetric) message loss;
//! * per-node clock skew bounded by τc;
//! * per-node / per-kind message, byte and energy accounting
//!   ([`metrics::Metrics`]).
//!
//! Nodes implement [`sim::App`]; the harness injects sensor readings via
//! [`sim::Simulator::invoke`].
//!
//! Events wait in one binary heap keyed `(at, tie)` with origin-keyed ties,
//! so a seed fixes the schedule and its journal byte for byte (pinned in
//! `tests/trace_stability.rs`).

#![forbid(unsafe_code)]

pub mod faults;
pub mod metrics;
pub mod sim;
pub mod topology;
pub mod trace;

pub use faults::{FaultEvent, FaultKind, FaultSchedule, LinkState, RandomFaults};
pub use metrics::{Metrics, NodeCounters};
pub use sim::{App, Ctx, MsgMeta, SchedStats, SimConfig, SimTime, Simulator};
pub use topology::{Bfs, ConnectivityError, NodeId, Topology, TopologyKind};
pub use trace::{
    DropReason, Journal, ReplayChecker, SharedJournal, SharedSummary, TraceEvent, TraceRecord,
    TraceSink, TraceSummary,
};
