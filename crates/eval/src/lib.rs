//! # sensorlog-eval
//!
//! Centralized bottom-up evaluation of sensorlog deductive programs —
//! the reference engine of the framework (and the "central server" that the
//! Centroid baseline ships every tuple to).
//!
//! * [`relation`] — tuples with timestamps/tombstones, indexed relations,
//!   databases;
//! * [`eval_body`] — the local join machinery: a streaming body walk (and
//!   its collector, `solutions`), delta pinning, self-join staircase
//!   filters, Theorem-3 visibility;
//! * [`aggregate`] — head aggregates over all-solutions;
//! * [`seminaive`] — batch engine: semi-naive fixpoint, stratified negation,
//!   XY-staged evaluation (the correctness oracle);
//! * [`incremental`] — continuous maintenance under inserts/deletes with the
//!   paper's **set-of-derivations** approach (Sec. IV) over [`Support`],
//!   the signed-count ledger the distributed owners share, plus the
//!   [`counting`] and [`rederive`] alternatives it compares against;
//! * [`lineage`] — opt-in per-firing lineage capture with compact interned
//!   atoms (the provenance plane's local layer);
//! * [`planner`] — static probe planning: the bound-position signatures
//!   each body literal probes with, driving persistent index registration,
//!   and the delta plans the three maintenance engines' one delta pass reads.

#![forbid(unsafe_code)]

pub mod aggregate;
pub mod counting;
pub mod error;
pub mod eval_body;
pub mod incremental;
pub mod lineage;
pub mod planner;
pub mod rederive;
pub mod relation;
pub mod seminaive;

pub use error::EvalError;
pub use eval_body::{BodyEval, Solution, TupleFilter};
pub use incremental::{IncrementalEngine, Support, Update, UpdateKind};
pub use lineage::{AtomId, LineageLog, LineageRecord, EDB_RULE};
pub use planner::program_signatures;
pub use relation::{Database, IndexStatsSnapshot, Relation, TupleMeta};
pub use seminaive::{effective_windows, Engine, EvalConfig};
