//! # sensorlog-eval
//!
//! Centralized bottom-up evaluation of sensorlog deductive programs —
//! the reference engine of the framework (and the "central server" that the
//! Centroid baseline ships every tuple to).
//!
//! * [`relation`] — tuples with generation timestamps, indexed relations,
//!   databases;
//! * [`eval_body`] — the local join machinery: a streaming body walk (and
//!   `solutions`, which collects its substitutions), delta pinning,
//!   self-join staircase filters, Theorem-3 visibility;
//! * [`aggregate`] — head aggregates over all-solutions;
//! * [`seminaive`] — batch engine: semi-naive fixpoint, stratified negation,
//!   XY-staged evaluation (the correctness oracle);
//! * [`incremental`] — continuous maintenance under inserts/deletes with the
//!   paper's **set-of-derivations** approach (Sec. IV) over [`Support`],
//!   the signed-count ledger the distributed owners share. Counting is the
//!   same engine with the derivation projected out of the ledger's key
//!   ([`IncrementalEngine::counting`]), and its opt-in [`Firing`] log —
//!   the ledger's own key transitions — is what a Centroid center proves
//!   its results from;
//! * [`rederive`] — delete-and-rederive, the alternative that keeps no
//!   ledger;
//! * [`planner`] — static probe planning: the bound-position signatures
//!   each body literal probes with, driving persistent index registration,
//!   and the delta plans the three maintenance engines' one delta pass reads.

#![forbid(unsafe_code)]

pub mod aggregate;
pub mod error;
pub mod eval_body;
pub mod incremental;
pub mod planner;
pub mod rederive;
pub mod relation;
pub mod seminaive;

pub use error::EvalError;
pub use eval_body::{BodyEval, TupleFilter};
pub use incremental::{
    Derivation, Firing, IncrementalEngine, LedgerKey, Support, Update, UpdateKind,
};
pub use planner::program_signatures;
pub use relation::{Database, IndexStatsSnapshot, Relation, TupleMeta};
pub use seminaive::{effective_windows, Engine, EvalConfig};

/// Most steps one update's cascade may take in an incremental engine
/// before it fails with [`EvalError::LimitExceeded`].
pub(crate) const MAX_CASCADE: usize = 1_000_000;
