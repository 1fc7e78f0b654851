//! Runtime invariant checking over a [`Deployment`].
//!
//! The distributed runtime maintains redundant state on purpose — counts
//! of derivations at owners, replicated fragments along storage regions,
//! globally unique tuple ids — and each redundancy implies an invariant
//! that must hold at quiescence. This module makes those invariants
//! executable so tests (and debugging sessions) can assert them after any
//! run instead of inferring health from end-to-end results alone:
//!
//! 1. **Count non-negativity** — every per-derivation-key count in an
//!    owner's [`crate::runtime::SensorlogNode`] state is positive at
//!    quiescence. Counts
//!    may be transiently negative mid-run (a delete delta overtaking its
//!    insert on an independent route), which is why this is a quiescence
//!    invariant, not a step invariant.
//! 2. **Tuple-id uniqueness** — a [`TupleId`] denotes one fact network-
//!    wide: no two nodes may bind the same id to different (pred, tuple)
//!    pairs. (The same binding replicated on many nodes is the normal
//!    case and is fine.)
//! 3. **Holddown settlement** — at quiescence no owner entry may have a
//!    holddown still armed or a liveness state that differs from what it
//!    last propagated.
//! 4. **Oracle consistency** (opt-in, loss-free runs only) — gathered
//!    results for an output predicate match the centralized engine on the
//!    net fact set, per [`crate::oracle`]. Under message loss this is
//!    expected to fail for completeness; use the report's metrics
//!    instead.
//! 5. **Static memory/communication bounds** — the observed peak stored
//!    tuples per predicate on every node never exceed the per-node
//!    envelope derived by the frontier-width abstract interpreter
//!    (`sensorlog_logic::absint::frontier`, paper Sec. V), evaluated
//!    against the run's actual topology size and injected-event counts;
//!    and when every predicate has a finite bound, total transmissions
//!    stay under a generous per-update routing envelope and each message
//!    kind stays under its per-kind estimate. A violation
//!    means either the analyzer's bound derivation or the runtime's
//!    storage discipline is wrong — the two are developed independently,
//!    which is what makes the cross-check meaningful.
//! 6. **Message conservation** — network-wide, per message kind, every
//!    transmission attempt is accounted for exactly once:
//!    `tx == rx + lost`. Loss on air, ARQ retransmissions, and drops at
//!    crashed nodes all book a `lost`; anything else delivered books an
//!    `rx`. A gap means the simulator leaked or double-counted a message.
//!    Like (1) and (3) this only holds at quiescence — in-flight messages
//!    have a `tx` but no disposition yet — so the check is skipped on a
//!    non-quiescent simulator. [`Deployment::run`] also debug-asserts it
//!    after every quiescent run.
//! 7. **Plane locality** — every neighbourhood-plane update is about a node
//!    (one sensed elsewhere is sent there to start) and, for the link
//!    relation, states a radio link (`plan::breaks_plane`): the plane's
//!    store targets are exact only then, so a run that broke it is
//!    flagged, not trusted.
//! 8. **Evaluation** — no node met an update or a head it could not
//!    evaluate (`NodeStats::eval_errors`): what it dropped is missing from
//!    the result, and the oracle's engine fails on the same program.

use crate::deploy::{Deployment, WorkloadEvent};
use crate::oracle;
use crate::plan::Reach;
use crate::tupleid::TupleId;
use sensorlog_logic::absint;
use sensorlog_logic::diag::BoundParams;
use sensorlog_logic::{Symbol, Tuple};
use sensorlog_netsim::NodeId;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// One invariant violation.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Node the violation was observed at (`None` for network-wide ones).
    pub node: Option<NodeId>,
    /// Which invariant, as a stable short name.
    pub invariant: &'static str,
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.node {
            Some(n) => write!(f, "[{}] at {}: {}", self.invariant, n, self.detail),
            None => write!(f, "[{}] {}", self.invariant, self.detail),
        }
    }
}

/// Outcome of an invariant pass.
#[derive(Clone, Debug, Default)]
pub struct InvariantReport {
    pub violations: Vec<Violation>,
}

impl InvariantReport {
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Record one violation (public so out-of-crate checkers — e.g. the
    /// provenance plane's proof checker — report through the same type).
    pub fn push(&mut self, node: Option<NodeId>, invariant: &'static str, detail: String) {
        self.violations.push(Violation {
            node,
            invariant,
            detail,
        });
    }

    /// Merge another report's violations into this one.
    pub fn merge(&mut self, other: InvariantReport) {
        self.violations.extend(other.violations);
    }
}

impl fmt::Display for InvariantReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.ok() {
            return write!(f, "all invariants hold");
        }
        writeln!(f, "{} invariant violation(s):", self.violations.len())?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        Ok(())
    }
}

/// Check the structural invariants (1)–(3), (7) and (8) over every live
/// node.
///
/// Call at quiescence (after [`Deployment::run`] returns); counts and
/// holddowns are legitimately unsettled while messages are in flight, so
/// a non-quiescent simulator only gets the id-uniqueness check.
pub fn check_structural(d: &Deployment) -> InvariantReport {
    let mut report = InvariantReport::default();
    let quiescent = d.sim.is_quiescent();
    // Count non-negativity only holds on fault-free runs: under the fault
    // plane, repeated tombstone refreshes legitimately leave a clamped −1
    // for derivations whose insert was lost to a crash.
    let check_counts = quiescent && !d.faults_active();
    let mut id_map: HashMap<TupleId, (NodeId, Symbol, Tuple)> = HashMap::new();

    for id in d.sim.topology().nodes() {
        if d.sim.is_failed(id) {
            continue; // crashed nodes keep arbitrary frozen state
        }
        let node = d.sim.node(id);

        if check_counts {
            for (pred, tuple, count) in node.derivation_count_entries() {
                if count < 0 {
                    report.push(
                        Some(id),
                        "count-nonnegative",
                        format!("{pred}{tuple:?} has derivation count {count}"),
                    );
                }
            }
        }
        if node.stats.locality_violations > 0 {
            report.push(
                Some(id),
                "plane-locality",
                format!(
                    "{} neighbourhood-plane update(s) about no node, or over a \
                     link to a non-neighbour",
                    node.stats.locality_violations
                ),
            );
        }
        if node.stats.eval_errors > 0 {
            report.push(
                Some(id),
                "eval-error",
                format!(
                    "{} update(s) or head(s) this node could not evaluate, \
                     each lost to the result",
                    node.stats.eval_errors
                ),
            );
        }
        if quiescent {
            for (pred, tuple) in node.unsettled_owned() {
                report.push(
                    Some(id),
                    "holddown-settled",
                    format!("{pred}{tuple:?} unsettled at quiescence"),
                );
            }
        }

        for (tid, pred, tuple) in node.id_bindings() {
            match id_map.get(&tid) {
                None => {
                    id_map.insert(tid, (id, pred, tuple));
                }
                Some((first_node, p0, t0)) if *p0 != pred || *t0 != tuple => {
                    report.push(
                        None,
                        "tuple-id-unique",
                        format!(
                            "id {tid:?} bound to {p0}{t0:?} at {first_node} \
                             but {pred}{tuple:?} at {id}"
                        ),
                    );
                }
                Some(_) => {} // same binding replicated: fine
            }
        }
    }
    report
}

/// The per-node ceiling on each predicate's stored tuples that
/// [`check_static_bounds`] enforces, under the run's observed `params`:
/// `2 × T(p)` — one replica and one owned copy per distinct tuple, `T(p)`
/// the frontier-width interpreter's whole-network bound — and for a
/// neighbourhood-plane predicate no more than its store set's share
/// (`absint::neighbourhood_cap`) — on a lossy run, for the link relation
/// only. `None` for an unbounded predicate.
pub fn node_caps(d: &Deployment, params: &BoundParams) -> BTreeMap<Symbol, Option<u64>> {
    let topo = d.sim.topology();
    let degree = (topo.nodes()).map(|n| topo.neighbors(n).len() as u64).max();
    let fr = absint::frontier(&d.prog.analysis);
    // The store-set share counts the tuples of the exact fixpoint: a lost
    // store lets a join derive what the model has none of, so on lossy
    // links only the link relation, which holds what was sensed, keeps it.
    let exact = d.sim.config.hop_loss() <= 0.0;
    let mut caps = BTreeMap::new();
    for (&pred, expr) in &fr.bounds {
        let whole = expr.eval(params).map(|t| t.saturating_mul(2));
        let plane = match d.prog.reach(pred) {
            Reach::Plane(on) => Some(on),
            _ => None,
        };
        let local = (plane.filter(|on| exact || on.link == pred))
            .and_then(|on| absint::neighbourhood_cap(expr, on, params, degree?));
        caps.insert(pred, whole.map(|w| local.map_or(w, |l| l.min(w))));
    }
    caps
}

/// Check invariant (5): observed state never exceeds the static model.
///
/// * **Memory**: each node's peak stored-tuple count for predicate `p`
///   (fragment replicas + owned derived entries) must stay within its
///   [`node_caps`] ceiling. Unbounded predicates are skipped.
/// * **Communication**: when *every* predicate has a finite bound, the
///   run's total transmissions must stay within a generous envelope of
///   `8 × nodes` hops per tuple transition (covers storage walks, probe
///   walks, result routing, and flood baselines with slack).
///
/// Unlike the quiescence invariants this holds mid-run too — peaks only
/// grow, and the bound is an all-time ceiling.
pub fn check_static_bounds(d: &Deployment) -> InvariantReport {
    let mut report = InvariantReport::default();
    let params = BoundParams {
        nodes: d.sim.topology().len() as u64,
        default_events: 0,
        events: d.injected_events(),
    };
    let fr = absint::frontier(&d.prog.analysis);
    let bounds = &fr.bounds;
    let caps = node_caps(d, &params);

    for id in d.sim.topology().nodes() {
        if d.sim.is_failed(id) {
            continue;
        }
        let node = d.sim.node(id);
        for (pred, peak) in node.peak_pred_stored() {
            // Unknown to the analyzer (e.g. magic), or unbounded.
            let Some(&Some(cap)) = caps.get(&pred) else {
                continue;
            };
            if peak as u64 > cap {
                report.push(
                    Some(id),
                    "static-memory-bound",
                    format!(
                        "predicate `{pred}` peaked at {peak} stored tuples \
                         but the static bound ({}) allows {cap} per node",
                        bounds[&pred]
                    ),
                );
            }
        }
    }

    let mut envelope: u64 = 0;
    let mut all_finite = true;
    for expr in bounds.values() {
        match expr.eval(&params) {
            Some(t) => envelope = envelope.saturating_add(t.saturating_mul(2)),
            None => {
                all_finite = false;
                break;
            }
        }
    }
    if all_finite {
        let per_update = 8u64.saturating_mul(d.sim.topology().len() as u64);
        let cap = envelope.saturating_mul(per_update);
        let tx = d.metrics().total_tx();
        if tx > cap {
            report.push(
                None,
                "static-comm-envelope",
                format!(
                    "{tx} total transmissions exceed the static envelope \
                     {cap} (= {envelope} tuple transitions × {per_update} hops)"
                ),
            );
        }
    }

    // Per-kind envelopes from the same frontier pass: `store`, `probe`,
    // `result`, and `centroid` traffic each stays under its analyzer
    // estimate. Heartbeat/liveness ("hb"/"live") traffic is control-plane
    // and not modeled; the fault plane's recovery replay and tombstone
    // refresh aren't either, so skip the kind checks when it is active.
    // Each link-layer ARQ retry books another tx, so scale by attempts.
    if all_finite && !d.faults_active() {
        let env = absint::comm_envelopes(&d.prog.analysis, bounds);
        let attempts = 1 + d.sim.config.retries as u64;
        for (kind, expr) in [
            ("store", &env.store),
            ("probe", &env.probe),
            ("result", &env.result),
            ("centroid", &env.centroid),
        ] {
            let Some(t) = expr.eval(&params) else {
                continue;
            };
            let cap = t.saturating_mul(attempts);
            let tx = d.metrics().tx_of(kind);
            if tx > cap {
                report.push(
                    None,
                    "static-comm-kind",
                    format!(
                        "kind `{kind}`: {tx} transmissions exceed the static \
                         envelope ({expr}) × {attempts} attempt(s) = {cap}"
                    ),
                );
            }
        }
    }
    report
}

/// Check invariant (6): per message kind, `tx == rx + lost` network-wide.
///
/// Only meaningful at quiescence (an in-flight message has been
/// transmitted but not yet delivered or dropped), so a non-quiescent
/// simulator yields an empty report.
pub fn check_message_conservation(d: &Deployment) -> InvariantReport {
    let mut report = InvariantReport::default();
    if !d.sim.is_quiescent() {
        return report;
    }
    for (kind, tx, rx, lost) in d.metrics().kind_balance() {
        if tx != rx + lost {
            report.push(
                None,
                "message-conservation",
                format!("kind `{kind}`: {tx} sent but {rx} delivered + {lost} lost"),
            );
        }
    }
    report
}

/// Check invariant (4): gathered results equal the centralized oracle's
/// for each of `preds`. Only meaningful for loss-free, failure-free runs
/// inside every stream window.
pub fn check_against_oracle(
    d: &Deployment,
    events: &[WorkloadEvent],
    preds: &[Symbol],
) -> InvariantReport {
    let mut report = InvariantReport::default();
    for &pred in preds {
        let r = oracle::check(d, events, pred);
        if let Some(e) = &r.error {
            report.push(None, "oracle-eval", format!("{pred}: {e}"));
        }
        for t in &r.missing {
            report.push(
                None,
                "oracle-complete",
                format!("{pred}{t:?} expected but not derived"),
            );
        }
        for t in &r.spurious {
            report.push(
                None,
                "oracle-sound",
                format!("{pred}{t:?} derived but not expected"),
            );
        }
    }
    report
}

/// Convergence-to-oracle after faults heal (the fault plane's end-to-end
/// guarantee): once every crashed node has restarted (or stayed dead),
/// every partition has healed, and the network has quiesced, the gathered
/// results for each of `preds` must equal the centralized oracle's
/// fixpoint over the **surviving EDB** — the workload events that actually
/// entered the network and whose origin node is alive at the end —
/// restricted to tuples whose owner node is alive (a dead owner's results
/// are unreachable by definition, not a protocol failure).
///
/// * A tuple the oracle expects but the network lacks is a
///   `convergence-complete` violation: recovery replay or refresh failed
///   to rebuild state lost to a fault.
/// * A tuple the network holds but the oracle rejects is a
///   `convergence-sound` violation: liveness retraction failed to tear
///   down derivations whose inputs died (Theorem 3's semantics under
///   failure detection).
pub fn check_convergence(d: &Deployment, preds: &[Symbol]) -> InvariantReport {
    let mut report = InvariantReport::default();
    for &pred in preds {
        let expected = match oracle::surviving_results(d, pred) {
            Ok(expected) => expected,
            Err(e) => {
                report.push(None, "oracle-eval", format!("{pred}: {e}"));
                continue;
            }
        };
        let found = d.results(pred);
        for t in expected.difference(&found) {
            report.push(
                None,
                "convergence-complete",
                format!("{pred}{t:?} expected from surviving EDB but not derived"),
            );
        }
        for t in found.difference(&expected) {
            report.push(
                None,
                "convergence-sound",
                format!("{pred}{t:?} still derived but unsupported by surviving EDB"),
            );
        }
    }
    report
}

/// All invariants: structural checks plus oracle consistency for the
/// program's declared output predicates.
pub fn check_all(d: &Deployment, events: &[WorkloadEvent]) -> InvariantReport {
    let mut report = check_structural(d);
    report.merge(check_static_bounds(d));
    report.merge(check_message_conservation(d));
    report.merge(check_against_oracle(d, events, &d.prog.outputs));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::DeployConfig;
    use crate::msg::Payload;
    use crate::tupleid::{DerivationKey, FactRecord};
    use sensorlog_eval::UpdateKind;
    use sensorlog_logic::builtin::BuiltinRegistry;
    use sensorlog_logic::Term;
    use sensorlog_netsim::App;
    use std::sync::Arc;

    fn join_deployment() -> (Deployment, Vec<WorkloadEvent>) {
        let src = r#"
            .output q.
            q(X, Y) :- r1(X, T), r2(Y, T).
        "#;
        let topo = sensorlog_netsim::Topology::square_grid(4);
        let mut d = Deployment::new(
            src,
            BuiltinRegistry::standard(),
            topo,
            DeployConfig::default(),
        )
        .unwrap();
        let mk = |p: &str, args: Vec<i64>| {
            (
                Symbol::intern(p),
                Tuple::new(args.into_iter().map(Term::Int).collect()),
            )
        };
        let (p1, t1) = mk("r1", vec![1, 7]);
        let (p2, t2) = mk("r2", vec![2, 7]);
        let events = vec![
            WorkloadEvent {
                at: 10,
                node: NodeId(1),
                pred: p1,
                tuple: t1,
                kind: UpdateKind::Insert,
            },
            WorkloadEvent {
                at: 20,
                node: NodeId(14),
                pred: p2,
                tuple: t2,
                kind: UpdateKind::Insert,
            },
        ];
        d.schedule_all(events.clone()).unwrap();
        d.run(60_000);
        (d, events)
    }

    #[test]
    fn clean_run_upholds_all_invariants() {
        let (d, events) = join_deployment();
        assert!(d.sim.is_quiescent());
        let report = check_all(&d, &events);
        assert!(report.ok(), "{report}");
        assert_eq!(format!("{report}"), "all invariants hold");
    }

    /// A head no engine can evaluate (`m(X / 0)`) is counted where the
    /// walk drops it and reported, and the oracle names the engine's error
    /// instead of panicking.
    #[test]
    fn a_head_nothing_can_evaluate_is_reported() {
        let src = ".output m. n(0). m(X / 0) :- n(X).";
        let topo = sensorlog_netsim::Topology::square_grid(3);
        let cfg = DeployConfig::default();
        let mut d = Deployment::new(src, BuiltinRegistry::standard(), topo, cfg).unwrap();
        let (pred, tuple) = sensorlog_logic::parse_fact("n(5)").unwrap();
        let events = vec![WorkloadEvent {
            at: 100,
            node: NodeId(1),
            pred,
            tuple: Tuple::new(tuple),
            kind: UpdateKind::Insert,
        }];
        d.schedule_all(events.clone()).unwrap();
        d.run(60_000);
        let dropped: u64 = d.node_stats().iter().map(|s| s.eval_errors).sum();
        assert_eq!(dropped, 2, "n(0)'s head and n(5)'s");
        let names = |r: InvariantReport| r.violations.into_iter().map(|v| v.invariant);
        assert!(names(check_structural(&d)).any(|n| n == "eval-error"));
        let m = Symbol::intern("m");
        let report = oracle::check(&d, &events, m);
        assert!(!report.exact());
        let error = report.error.map(|e| e.to_string()).unwrap_or_default();
        assert!(error.contains("div(0, 0) failed"), "{error}");
        assert!(names(check_all(&d, &events)).any(|n| n == "oracle-eval"));
        assert!(names(check_convergence(&d, &[m])).any(|n| n == "oracle-eval"));
    }

    /// `abs` of the least `i64` is an evaluation error under PA too: the
    /// node that fires the rule drops the head and counts it, and nothing
    /// is derived (a debug build panicked there, a release one derived
    /// `p(-9223372036854775808)`).
    #[test]
    fn the_least_ints_abs_is_dropped_and_reported() {
        let src = ".output p. p(abs(X)) :- q(X). q(-9223372036854775807 - 1).";
        let topo = sensorlog_netsim::Topology::square_grid(3);
        let cfg = DeployConfig::default();
        let mut d = Deployment::new(src, BuiltinRegistry::standard(), topo, cfg).unwrap();
        d.run(60_000);
        assert!(d.results(Symbol::intern("p")).is_empty());
        let dropped: u64 = d.node_stats().iter().map(|s| s.eval_errors).sum();
        assert_eq!(dropped, 1);
        let names = |r: InvariantReport| r.violations.into_iter().map(|v| v.invariant);
        assert!(names(check_structural(&d)).any(|n| n == "eval-error"));
    }

    /// Acceptance criterion: a deliberately injected count-underflow — a
    /// delete delta for a derivation the owner never saw — is caught by
    /// `check_structural`.
    #[test]
    fn injected_count_underflow_is_caught() {
        let (mut d, _) = join_deployment();
        assert!(check_structural(&d).ok(), "baseline must be green");

        let pred = Symbol::intern("q");
        let tuple = Tuple::new(vec![Term::Int(1), Term::Int(2)]);
        let phantom = TupleId {
            node: NodeId(3),
            ts: 1,
            seq: 999,
        };
        let key = DerivationKey {
            rule_id: 0,
            inputs: vec![(0, phantom)],
        };
        let victim = NodeId(5);
        d.sim.invoke(victim, |node, ctx| {
            node.on_message(
                ctx,
                NodeId(3),
                Arc::new(Payload::DerivDelta {
                    pred,
                    tuple: tuple.clone(),
                    key,
                    sign: -1,
                    tau: 1,
                    origin: phantom,
                }),
            );
        });
        d.sim.run_to_quiescence(120_000);

        let report = check_structural(&d);
        assert!(!report.ok(), "underflow must be flagged");
        let hit = report
            .violations
            .iter()
            .find(|v| v.invariant == "count-nonnegative")
            .unwrap_or_else(|| panic!("no count violation in: {report}"));
        assert_eq!(hit.node, Some(victim));
        assert!(hit.detail.contains("-1"), "detail: {}", hit.detail);
    }

    /// logicH on a 3×3 grid with telemetry on: its `g`, `h` and `hp` are on
    /// the neighbourhood plane.
    fn sptree_3x3() -> Deployment {
        let src = include_str!("../../../examples/programs/sptree.dl");
        let config = DeployConfig {
            telemetry: sensorlog_telemetry::Telemetry::enabled(),
            ..DeployConfig::default()
        };
        let topo = sensorlog_netsim::Topology::square_grid(3);
        let d = Deployment::new(src, BuiltinRegistry::standard(), topo, config).unwrap();
        assert!(d.prog.place(Symbol::intern("g")).plane.is_some());
        d
    }

    /// A plane tuple sensed away from the node it is about starts there: on
    /// a 3×3 grid, every logicH link injected at the next node still gives
    /// the oracle's tree, and nothing is counted.
    #[test]
    fn plane_updates_sensed_elsewhere_start_where_they_belong() {
        let mut d = sptree_3x3();
        let mut links = crate::workload::graph_edges(d.sim.topology(), 100, 20);
        for e in &mut links {
            e.node = NodeId((e.node.0 + 1) % 9);
        }
        d.schedule_all(links).unwrap();
        d.run(60_000);
        let h = Symbol::intern("h");
        let held = oracle::check(&d, d.applied_events(), h);
        assert!(held.exact(), "{held:?}");
        assert!(d.node_stats().iter().all(|s| s.locality_violations == 0));
        assert!(check_structural(&d).ok());
    }

    /// What no route repairs is checked, not assumed: a logicH link between
    /// two corners of a 3×3 grid is counted where it starts and reported.
    #[test]
    fn plane_locality_violations_are_reported() {
        let mut d = sptree_3x3();
        let g = Symbol::intern("g");
        d.schedule_all([WorkloadEvent {
            at: 100,
            node: NodeId(0),
            pred: g,
            tuple: Tuple::new(vec![Term::Int(0), Term::Int(8)]),
            kind: UpdateKind::Insert,
        }])
        .unwrap();
        d.run(60_000);

        let stats = d.node_stats();
        assert_eq!(stats.iter().map(|s| s.locality_violations).sum::<u64>(), 1);
        let snap = d.telemetry_snapshot();
        assert_eq!(snap.counter("pred:g", "locality_violations"), 1);
        let report = check_structural(&d);
        let flagged: Vec<Option<NodeId>> = (report.violations.iter())
            .filter(|v| v.invariant == "plane-locality")
            .map(|v| v.node)
            .collect();
        assert_eq!(flagged, [Some(NodeId(0))], "{report}");
    }

    /// Two nodes holding the *same* tuple id bound to *different* facts is
    /// a network-wide consistency violation (Definition 2: the id denotes
    /// one fact).
    #[test]
    fn conflicting_id_bindings_are_caught() {
        let (mut d, _) = join_deployment();
        assert!(check_structural(&d).ok(), "baseline must be green");

        let pred = Symbol::intern("r1");
        let stolen = TupleId {
            node: NodeId(9),
            ts: 50,
            seq: 7,
        };
        for (node, val) in [(NodeId(2), 41), (NodeId(13), 42)] {
            let fact = FactRecord::insert(pred, Tuple::new(vec![Term::Int(val)]), stolen);
            d.sim.invoke(node, |n, ctx| {
                n.on_message(ctx, NodeId(9), Arc::new(Payload::FloodStore { fact }));
            });
        }
        d.sim.run_to_quiescence(120_000);

        let report = check_structural(&d);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.invariant == "tuple-id-unique"),
            "no id-uniqueness violation in: {report}"
        );
    }

    /// Under message loss the structural invariants still hold (the
    /// runtime degrades by dropping, never by corrupting owner state);
    /// only oracle completeness may suffer.
    #[test]
    fn lossy_run_keeps_structural_invariants() {
        let src = r#"
            .output q.
            q(X, Y) :- r1(X, T), r2(Y, T).
        "#;
        let topo = sensorlog_netsim::Topology::square_grid(4);
        let mut config = DeployConfig::default();
        config.sim.loss_prob = 0.2;
        config.sim.seed = 5;
        let mut d = Deployment::new(src, BuiltinRegistry::standard(), topo, config).unwrap();
        let mut events = Vec::new();
        for i in 0..6i64 {
            events.push(WorkloadEvent {
                at: 10 + 10 * i as u64,
                node: NodeId((i as u32 * 3) % 16),
                pred: Symbol::intern(if i % 2 == 0 { "r1" } else { "r2" }),
                tuple: Tuple::new(vec![Term::Int(i), Term::Int(7)]),
                kind: UpdateKind::Insert,
            });
        }
        d.schedule_all(events.clone()).unwrap();
        d.run(120_000);
        let report = check_structural(&d);
        assert!(report.ok(), "{report}");
    }

    /// Invariant (5) on a clean run: every kind balances with zero losses.
    #[test]
    fn clean_run_conserves_messages() {
        let (d, _) = join_deployment();
        assert!(d.sim.is_quiescent());
        let report = check_message_conservation(&d);
        assert!(report.ok(), "{report}");
        let rows = d.metrics().kind_balance();
        assert!(!rows.is_empty(), "a join run must send messages");
        for (kind, tx, rx, lost) in rows {
            assert_eq!(lost, 0, "loss-free run lost {lost} `{kind}` messages");
            assert_eq!(tx, rx);
        }
    }

    /// Invariant (5) under heavy loss: `lost` is nonzero, yet every
    /// transmission is still accounted for (`tx == rx + lost` per kind).
    #[test]
    fn lossy_run_conserves_messages() {
        let src = r#"
            .output q.
            q(X, Y) :- r1(X, T), r2(Y, T).
        "#;
        let topo = sensorlog_netsim::Topology::square_grid(4);
        let mut config = DeployConfig::default();
        config.sim.loss_prob = 0.25;
        config.sim.seed = 11;
        let mut d = Deployment::new(src, BuiltinRegistry::standard(), topo, config).unwrap();
        let mut events = Vec::new();
        for i in 0..8i64 {
            events.push(WorkloadEvent {
                at: 10 + 10 * i as u64,
                node: NodeId((i as u32 * 5) % 16),
                pred: Symbol::intern(if i % 2 == 0 { "r1" } else { "r2" }),
                tuple: Tuple::new(vec![Term::Int(i), Term::Int(3)]),
                kind: UpdateKind::Insert,
            });
        }
        d.schedule_all(events).unwrap();
        d.run(120_000);
        assert!(d.sim.is_quiescent());
        assert!(d.metrics().lost() > 0, "0.25 loss must drop something");
        let report = check_message_conservation(&d);
        assert!(report.ok(), "{report}");
    }

    /// Invariant (5) with a mid-run crash: deliveries to the dead node
    /// book as losses, so the per-kind balance still closes.
    #[test]
    fn crashed_node_run_conserves_messages() {
        let (mut d, events) = join_deployment();
        d.fail_node(NodeId(6));
        let at = d.sim.now() + 10;
        d.schedule_all(events.iter().map(|e| WorkloadEvent { at, ..e.clone() }))
            .unwrap();
        d.run(240_000);
        assert!(d.sim.is_quiescent());
        let report = check_message_conservation(&d);
        assert!(report.ok(), "{report}");
    }
}
