//! Oracle checking: compare a distributed run's results against the
//! centralized batch engine on the same net fact set (the correctness claim
//! of Theorems 1–3 at quiescence).

use crate::deploy::{Deployment, WorkloadEvent};
use sensorlog_eval::relation::Database;
use sensorlog_eval::{Engine, EvalError, UpdateKind};
use sensorlog_logic::{Symbol, Tuple};
use std::collections::BTreeSet;

/// Completeness/soundness report for one output predicate.
#[derive(Clone, Debug)]
pub struct OracleReport {
    pub pred: Symbol,
    pub expected: usize,
    pub found: usize,
    pub missing: Vec<Tuple>,
    pub spurious: Vec<Tuple>,
    /// Why the centralized engine could not evaluate the program, if it
    /// could not: then nothing is expected, `missing` and `spurious` are
    /// empty, and the report is not exact.
    pub error: Option<EvalError>,
}

impl OracleReport {
    pub fn exact(&self) -> bool {
        self.error.is_none() && self.missing.is_empty() && self.spurious.is_empty()
    }

    /// |found ∩ expected| / |expected| — the Fig. 9 completeness metric.
    pub fn completeness(&self) -> f64 {
        if self.expected == 0 {
            return 1.0;
        }
        (self.expected - self.missing.len()) as f64 / self.expected as f64
    }

    /// |found ∩ expected| / |found| — soundness (1.0 = no spurious tuples).
    pub fn soundness(&self) -> f64 {
        if self.found == 0 {
            return 1.0;
        }
        (self.found - self.spurious.len()) as f64 / self.found as f64
    }
}

/// The net EDB after applying `events` in order (inserts minus deletes),
/// ignoring windows — valid when the run horizon is shorter than every
/// window.
pub fn net_edb(events: &[WorkloadEvent]) -> Database {
    let mut db = Database::new();
    let mut sorted = events.to_vec();
    sorted.sort_by_key(|e| e.at);
    for ev in sorted {
        match ev.kind {
            UpdateKind::Insert => {
                db.insert(ev.pred, ev.tuple);
            }
            UpdateKind::Delete => {
                db.remove(ev.pred, &ev.tuple);
            }
        }
    }
    db
}

/// Expected quiescent result of `pred` for the deployment's program over
/// the net EDB (static facts from empty-body rules already live in the
/// program itself), or the engine's error on a program it cannot evaluate.
pub fn expected_results(
    d: &Deployment,
    events: &[WorkloadEvent],
    pred: Symbol,
) -> Result<BTreeSet<Tuple>, EvalError> {
    let engine = Engine::new(d.prog.analysis.clone(), d.prog.reg.clone());
    let out = engine.run(&net_edb(events))?;
    Ok(out.sorted(pred).into_iter().collect())
}

/// What a run that saw faults should hold of `pred` at quiescence: the
/// oracle fixpoint over the surviving EDB (the applied events whose source
/// is alive at the end), less the tuples whose owner is dead (a dead
/// owner's results are unreachable).
pub fn surviving_results(d: &Deployment, pred: Symbol) -> Result<BTreeSet<Tuple>, EvalError> {
    let surviving: Vec<WorkloadEvent> = (d.applied_events().iter())
        .filter(|e| !d.sim.is_failed(e.node))
        .cloned()
        .collect();
    let expected = expected_results(d, &surviving, pred)?;
    let alive = |t: &Tuple| !d.sim.is_failed(d.owner(pred, t));
    Ok(expected.into_iter().filter(alive).collect())
}

/// Compare the deployment's gathered results against the oracle.
pub fn check(d: &Deployment, events: &[WorkloadEvent], pred: Symbol) -> OracleReport {
    let found = d.results(pred);
    let mut report = OracleReport {
        pred,
        expected: 0,
        found: found.len(),
        missing: Vec::new(),
        spurious: Vec::new(),
        error: None,
    };
    match expected_results(d, events, pred) {
        Ok(expected) => {
            report.expected = expected.len();
            report.missing = expected.difference(&found).cloned().collect();
            report.spurious = found.difference(&expected).cloned().collect();
        }
        Err(e) => report.error = Some(e),
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensorlog_logic::Term;
    use sensorlog_netsim::NodeId;

    fn ev(at: u64, pred: &str, v: i64, kind: UpdateKind) -> WorkloadEvent {
        WorkloadEvent {
            at,
            node: NodeId(0),
            pred: Symbol::intern(pred),
            tuple: Tuple::new(vec![Term::Int(v)]),
            kind,
        }
    }

    #[test]
    fn net_edb_applies_in_order() {
        let events = vec![
            ev(1, "a", 1, UpdateKind::Insert),
            ev(2, "a", 2, UpdateKind::Insert),
            ev(3, "a", 1, UpdateKind::Delete),
        ];
        let db = net_edb(&events);
        assert_eq!(db.len_of(Symbol::intern("a")), 1);
        assert!(db.contains(Symbol::intern("a"), &Tuple::new(vec![Term::Int(2)])));
    }

    #[test]
    fn report_metrics() {
        let r = OracleReport {
            pred: Symbol::intern("q"),
            expected: 4,
            found: 4,
            missing: vec![Tuple::new(vec![Term::Int(9)])],
            spurious: vec![Tuple::new(vec![Term::Int(7)])],
            error: None,
        };
        assert!(!r.exact());
        assert!((r.completeness() - 0.75).abs() < 1e-9);
        assert!((r.soundness() - 0.75).abs() < 1e-9);
        let empty = OracleReport {
            pred: Symbol::intern("q"),
            expected: 0,
            found: 0,
            missing: vec![],
            spurious: vec![],
            error: None,
        };
        assert!(empty.exact());
        assert_eq!(empty.completeness(), 1.0);
        let failed = OracleReport {
            error: Some(EvalError::Internal("no fixpoint".into())),
            ..empty
        };
        assert!(!failed.exact(), "a program the oracle cannot evaluate");
    }
}
