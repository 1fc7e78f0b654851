//! Derivation provenance plane — the analysis half.
//!
//! The distributed runtime (`sensorlog_core::prov`) captures four kinds of
//! raw provenance records while a deployment runs. This crate ingests those
//! records (plus, optionally, the netsim journal for per-hop delivery
//! detail) and materializes the global causal DAG keyed by
//! [`sensorlog_core::TupleId`], then answers the three questions the paper's
//! debugging story needs:
//!
//! * [`ProvDag::why`] — the full cross-node derivation tree of a tuple:
//!   which rule fired where, from which premise tuples, carried by which
//!   messages over how many hops, with per-edge simulated latency;
//! * [`ProvDag::why_not`] — why a tuple was *not* derived: per candidate
//!   rule, the first subgoal with no live match (distinguishing
//!   never-present from retracted premises, and negation blocks);
//! * [`critical_path`] — the chain of premises that bounded the tuple's
//!   end-to-end derivation latency.
//!
//! [`Explain`] packages all of this behind one call on a
//! [`sensorlog_core::Deployment`], and [`check_provenance`] turns the DAG
//! into an invariant: every tuple the centralized oracle expects must have
//! a well-founded proof whose leaves are live EDB facts.

#![forbid(unsafe_code)]

pub mod dag;
pub mod explain;
pub mod invariants;

pub use dag::{
    critical_path, render_dot, render_text, render_why_not, CriticalStep, FailedRule, HopInfo,
    ProofEdge, ProofNode, ProvDag, WhyNot,
};
pub use explain::{explain_atom, Explain, Explanation};
pub use invariants::check_provenance;
