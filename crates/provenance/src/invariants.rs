//! Provenance as an invariant: the deductive results of a run must be
//! *explainable*, not just correct.
//!
//! [`check_provenance`] cross-checks the materialized DAG against the
//! centralized oracle fixpoint (the same oracle the convergence invariants
//! use): every tuple the oracle expects from the surviving EDB must have a
//! well-founded proof whose leaves are live EDB facts, and every result the
//! network actually holds must be supported by the DAG. Violations mean
//! the provenance plane lost records (or the run derived something its own
//! lineage cannot justify) — either way, `explain` output could not be
//! trusted for this run.

use crate::dag::{ProofNode, ProvDag};
use sensorlog_core::{oracle, Deployment, InvariantReport, WorkloadEvent};
use sensorlog_logic::{Symbol, Tuple};
use std::collections::BTreeSet;

/// Check that every oracle-expected result tuple has a well-founded proof
/// in the run's provenance DAG, and every held result is DAG-supported.
///
/// Mirrors `check_convergence`'s fault handling: expectations come from
/// the surviving EDB (events whose source node is alive at the end) and
/// are restricted to tuples whose owner is alive.
pub fn check_provenance(d: &Deployment, preds: &[Symbol]) -> InvariantReport {
    let mut report = InvariantReport::default();
    if !d.provenance().is_enabled() {
        report.push(
            None,
            "provenance-enabled",
            "provenance plane is disabled; enable it via DeployConfig::provenance".to_string(),
        );
        return report;
    }
    let dag = ProvDag::build(&d.provenance_records());
    let surviving: Vec<WorkloadEvent> = d
        .applied_events()
        .iter()
        .filter(|e| !d.sim.is_failed(e.node))
        .cloned()
        .collect();
    for &pred in preds {
        let expected: BTreeSet<Tuple> = oracle::expected_results(d, &surviving, pred)
            .into_iter()
            .filter(|t| !d.sim.is_failed(d.owner(pred, t)))
            .collect();
        for t in &expected {
            match dag.why(pred, t) {
                Some(proof) => check_well_founded(&proof, &mut report),
                None => report.push(
                    None,
                    "provenance-missing",
                    format!("{pred}{t} expected by the oracle but has no proof in the DAG"),
                ),
            }
        }
        for t in d.results(pred) {
            if dag.why(pred, &t).is_none() {
                report.push(
                    None,
                    "provenance-unsupported",
                    format!("{pred}{t} held by the network but unsupported by the DAG"),
                );
            }
        }
    }
    report
}

/// Every leaf of the proof must be an EDB fact, and no atom may appear
/// twice on a root-to-leaf path (well-foundedness is by construction —
/// this is the belt-and-suspenders check the invariant promises).
fn check_well_founded(proof: &ProofNode, report: &mut InvariantReport) {
    let mut path: Vec<(Symbol, Tuple)> = Vec::new();
    walk(proof, &mut path, report);
}

fn walk(node: &ProofNode, path: &mut Vec<(Symbol, Tuple)>, report: &mut InvariantReport) {
    let key = (node.pred, node.tuple.clone());
    if path.contains(&key) {
        report.push(
            None,
            "provenance-cycle",
            format!(
                "{}{} appears twice on its own proof path",
                node.pred, node.tuple
            ),
        );
        return;
    }
    if node.premises.is_empty() {
        if let Some(rule_id) = node.rule_id {
            report.push(
                None,
                "provenance-leaf",
                format!(
                    "{}{} is a proof leaf but was derived by rule {} (not an EDB fact)",
                    node.pred, node.tuple, rule_id
                ),
            );
        }
    }
    path.push(key);
    for edge in &node.premises {
        walk(&edge.premise, path, report);
    }
    path.pop();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explain::Explain;
    use sensorlog_core::DeployConfig;
    use sensorlog_core::{ProvRecord, Provenance};
    use sensorlog_eval::UpdateKind;
    use sensorlog_logic::builtin::BuiltinRegistry;
    use sensorlog_logic::{Term, Tuple};
    use sensorlog_netsim::Topology;

    fn join_deployment() -> (Deployment, Vec<WorkloadEvent>) {
        let src = r#"
            .output q.
            q(X, Y) :- r1(X, T), r2(Y, T).
        "#;
        let topo = Topology::square_grid(4);
        let cfg = DeployConfig {
            provenance: Provenance::enabled(),
            ..DeployConfig::default()
        };
        let mut d = Deployment::new(src, BuiltinRegistry::standard(), topo, cfg).unwrap();
        let ev = |at, node: u32, pred: &str, args: Vec<i64>| WorkloadEvent {
            at,
            node: sensorlog_netsim::NodeId(node),
            pred: Symbol::intern(pred),
            tuple: Tuple::new(args.into_iter().map(Term::Int).collect::<Vec<_>>()),
            kind: UpdateKind::Insert,
        };
        let events = vec![ev(10, 0, "r1", vec![1, 7]), ev(20, 15, "r2", vec![2, 7])];
        d.schedule_all(events.clone());
        d.run(60_000);
        (d, events)
    }

    #[test]
    fn real_run_passes_the_provenance_invariant() {
        let (d, _events) = join_deployment();
        let q = Symbol::intern("q");
        assert_eq!(d.results(q).len(), 1, "join derives q(1,2)");
        let report = check_provenance(&d, &[q]);
        assert!(report.ok(), "violations: {:?}", report.violations);
        // And the explanation is a real cross-node proof.
        let t = Tuple::new(vec![Term::Int(1), Term::Int(2)]);
        let ex = d.explain(q, &t);
        assert!(ex.is_proof(), "explain: {}", ex.text());
        assert!(ex.text().contains("critical path"), "{}", ex.text());
        // Absent tuple gets a why-not verdict.
        let absent = Tuple::new(vec![Term::Int(9), Term::Int(9)]);
        let ex = d.explain(q, &absent);
        assert!(!ex.is_proof());
    }

    /// The clamp has one definition (`sensorlog_core::clamp_absorbs`), asked
    /// by the owner's ledger and by the DAG's replay of the owner's records:
    /// redeliver the run's own `q` derivation — a replayed `+1`, then `-1`s
    /// past zero, then `+1`s back — through the owner's message handler, and
    /// after every delivery the DAG built from the records so far agrees
    /// with the owner on whether `q(1, 2)` is live, and the owner's stored
    /// count for the key is -1 or 1 or gone.
    #[test]
    fn dag_and_owner_agree_on_liveness_under_redelivery() {
        use sensorlog_core::msg::Payload;
        use sensorlog_netsim::App;
        use std::sync::Arc;
        let (mut d, _events) = join_deployment();
        let q = Symbol::intern("q");
        let t = Tuple::new(vec![Term::Int(1), Term::Int(2)]);
        let (owner, key, tau, origin) = (d.provenance_records().into_iter())
            .find_map(|r| match r {
                ProvRecord::Deriv {
                    owner,
                    pred,
                    key,
                    tau,
                    origin,
                    ..
                } if pred == q => Some((owner, key, tau, origin)),
                _ => None,
            })
            .expect("the run derived q");
        // (delta, is q(1, 2) live afterwards) — the run left the count at 1.
        let steps = [
            (1, true),
            (-1, false),
            (-1, false),
            (-1, false),
            (1, false),
            (1, true),
        ];
        for (sign, want_live) in steps {
            let (tuple, key) = (t.clone(), key.clone());
            d.sim.invoke(owner, |node, ctx| {
                let delta = Payload::DerivDelta {
                    pred: q,
                    tuple,
                    key,
                    sign,
                    tau,
                    origin,
                };
                node.on_message(ctx, owner, Arc::new(delta));
            });
            let node = d.node(owner);
            assert_eq!(
                node.owned_live(q).contains(&t),
                want_live,
                "owner after {sign}"
            );
            let dag = ProvDag::build(&d.provenance_records());
            assert_eq!(dag.atom_live(q, &t), want_live, "dag after {sign}");
            let counts = node.derivation_count_entries();
            assert!(
                counts.iter().all(|&(_, _, c)| c == 1 || c == -1),
                "{counts:?}"
            );
        }
    }

    #[test]
    fn disabled_plane_is_reported() {
        let src = ".output q.\nq(X, Y) :- r1(X, T), r2(Y, T).";
        let d = Deployment::new(
            src,
            BuiltinRegistry::standard(),
            Topology::square_grid(3),
            DeployConfig::default(),
        )
        .unwrap();
        let report = check_provenance(&d, &[Symbol::intern("q")]);
        assert!(!report.ok());
        assert_eq!(report.violations[0].invariant, "provenance-enabled");
    }
}
