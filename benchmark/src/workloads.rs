//! The six workloads: what runs, on what, and why it is in the benchmark.
//!
//! Each layer the ROADMAP wants optimised does most of the work in one
//! workload and almost none in another, so a layer-local change predicts a
//! move on one row and *no change* on another (README, "How the metrics
//! interact"). Sizes give a repetition of roughly 0.1–0.5 s on the 2-core
//! host the benchmark was sized on, so a 10 s run holds 15–40 of them.

use crate::inputs::{Event, Fact, Shape};
use crate::reference::Row;
use sensorlog::prelude::*;

/// Example 3 of the paper (logicH): the XY-stratified shortest-path tree.
pub const LOGIC_H: &str = r#"
    .output h.
    h(0, 0, 0).
    h(0, X, 1) :- g(0, X).
    hp(Y, D + 1) :- h(_, Y, D'), (D + 1) > D', h(_, X, D), g(X, Y).
    h(X, Y, D + 1) :- g(X, Y), h(_, X, D), not hp(Y, D + 1).
"#;

/// The two-stream join of Sec. III-A.
pub const JOIN2: &str = r#"
    .output q.
    q(X, Y) :- r1(N1, X, K), r2(N2, Y, K).
"#;

/// Example 1 of the paper: uncovered enemy vehicles (negation, a builtin,
/// and a sliding window).
pub const BATTLEFIELD: &str = r#"
    .window veh 60000.
    .output uncov.
    cov(L, T)   :- veh("enemy", L, T), veh("friendly", F, T), dist(L, F) <= 8.
    uncov(L, T) :- not cov(L, T), veh("enemy", L, T).
"#;

/// The `dist(L, F) <= 8` of [`BATTLEFIELD`], for the reference checker.
pub const COVER_RADIUS: u32 = 8;

#[derive(Clone, Copy, Debug)]
pub enum Kind {
    /// `Deployment::run` to quiescence, or to `horizon` ms where sliding
    /// windows would otherwise expire the result.
    Deploy { strategy: Strategy, horizon: u64 },
    /// Centralized `Engine::run` over the links as a `Database`.
    EngineBatch,
    /// `IncrementalEngine::apply` over the events as an update stream.
    EngineIncr,
}

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub program: &'static str,
    pub output: &'static str,
    pub kind: Kind,
    pub shape: Shape,
    /// The traced run also makes repetitions with `Provenance::enabled()`.
    pub provenance: bool,
}

const TO_QUIESCENCE: u64 = 2_000_000_000;

pub const SPECS: &[Spec] = &[
    Spec {
        name: "sptree_pa",
        why: "few, expensive join probes over growing relations: core.join.probe is >90% of the run (ROADMAP item 1)",
        program: LOGIC_H,
        output: "h",
        kind: Kind::Deploy {
            strategy: Strategy::Perpendicular { band_width: 1.0 },
            horizon: TO_QUIESCENCE,
        },
        shape: Shape::Sptree { cols: 10, rows: 5 },
        provenance: true,
    },
    Spec {
        name: "sptree_centroid",
        why: "same program under Centroid: core.join.probe never runs, eval's inc.apply and routing do the work; largest setup_s",
        program: LOGIC_H,
        output: "h",
        kind: Kind::Deploy {
            strategy: Strategy::Centroid,
            horizon: TO_QUIESCENCE,
        },
        shape: Shape::Sptree { cols: 60, rows: 30 },
        provenance: false,
    },
    Spec {
        name: "join_bcast",
        why: "two-stream join under NaiveBroadcast: simulator- and routing-bound, where netsim/netstack work shows and the join kernel does not",
        program: JOIN2,
        output: "q",
        kind: Kind::Deploy {
            strategy: Strategy::NaiveBroadcast,
            horizon: TO_QUIESCENCE,
        },
        shape: Shape::Join {
            cols: 10,
            rows: 10,
            interval_ms: 8_000,
            duration_ms: 16_000,
            groups: 200,
            delete_share: 0.0,
            delete_lag_ms: 0,
        },
        provenance: false,
    },
    Spec {
        name: "battlefield_pa",
        why: "Example 1 under PA: many cheap probes on small relations with deletes, negation kills and timers; per-probe set-up cost shows here (Theorem 3's case)",
        program: BATTLEFIELD,
        output: "uncov",
        kind: Kind::Deploy {
            strategy: Strategy::Perpendicular { band_width: 1.0 },
            // Sightings end at 16 s; the first 60 s window closes after 62 s.
            horizon: 60_000,
        },
        shape: Shape::Battle {
            cols: 20,
            rows: 20,
            enemy: 40,
            friendly: 40,
            interval_ms: 2_000,
            duration_ms: 18_000,
        },
        provenance: false,
    },
    Spec {
        name: "engine_batch",
        why: "centralized Engine::run of logicH: what `sensorlog run`, the oracle and every Deployment check pay; semi-naive / XY staging and relation cloning, no network (ROADMAP item 3, read-mostly)",
        program: LOGIC_H,
        output: "h",
        kind: Kind::EngineBatch,
        shape: Shape::Sptree { cols: 30, rows: 30 },
        provenance: false,
    },
    Spec {
        name: "engine_incr",
        why: "IncrementalEngine::apply over an insert/delete stream for the two-stream join: writes beside reads on one relation store (ROADMAP item 3, write-heavy)",
        program: JOIN2,
        output: "q",
        kind: Kind::EngineIncr,
        shape: Shape::Join {
            cols: 12,
            rows: 12,
            interval_ms: 1_000,
            duration_ms: 16_000,
            groups: 288,
            delete_share: 0.3,
            delete_lag_ms: 6_000,
        },
        provenance: false,
    },
];

impl Spec {
    /// The shape a run uses: the declared one, or its `--quick` reduction.
    pub fn sized(&self, quick: bool) -> Shape {
        if quick {
            self.shape.quick()
        } else {
            self.shape
        }
    }
}

pub fn find(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// The program's view of one benchmark fact.
pub fn to_tuple(fact: &Fact) -> (Symbol, Tuple) {
    match *fact {
        Fact::Link { from, to } => (
            Symbol::intern("g"),
            Tuple::new(vec![Term::Int(from as i64), Term::Int(to as i64)]),
        ),
        Fact::Reading {
            stream,
            node,
            value,
            key,
        } => (
            Symbol::intern(if stream == 0 { "r1" } else { "r2" }),
            Tuple::new(vec![
                Term::Int(node as i64),
                Term::Int(value),
                Term::Int(key),
            ]),
        ),
        Fact::Veh { friendly, loc, t } => (
            Symbol::intern("veh"),
            Tuple::new(vec![
                Term::str(if friendly { "friendly" } else { "enemy" }),
                Term::Int(loc as i64),
                Term::Int(t as i64),
            ]),
        ),
    }
}

fn kind_of(e: &Event) -> UpdateKind {
    if e.insert {
        UpdateKind::Insert
    } else {
        UpdateKind::Delete
    }
}

pub fn to_workload_event(e: &Event) -> WorkloadEvent {
    let (pred, tuple) = to_tuple(&e.fact);
    WorkloadEvent {
        at: e.at,
        node: NodeId(e.node),
        pred,
        tuple,
        kind: kind_of(e),
    }
}

pub fn to_update(e: &Event) -> Update {
    let (pred, tuple) = to_tuple(&e.fact);
    Update {
        pred,
        tuple,
        kind: kind_of(e),
        ts: e.at,
    }
}

/// A result tuple of the program as a reference [`Row`]. `None` if an
/// argument is not an integer — which no correct result of these six
/// programs is, so the caller counts it as spurious.
pub fn to_row(t: &Tuple) -> Option<Row> {
    (0..t.arity()).map(|i| t.get(i).as_i64()).collect()
}
