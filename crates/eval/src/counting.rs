//! Counting-based maintenance (the first alternative of Sec. IV-A).
//!
//! Keeps a single multiplicity per derived tuple — the *number* of
//! derivations — instead of the derivations themselves. Cheaper in space,
//! but (a) restricted to non-recursive programs (counts diverge under
//! recursion) and (b) "difficult to implement accurately for a
//! fault-tolerant technique such as GPA, due to non-deterministic
//! duplication of result tuples" — which is why the paper picks the
//! set-of-derivations approach. This engine exists for the Fig. 11 ablation.

use crate::error::EvalError;
use crate::eval_body::{ground_facts, instantiate_head, BodyEval, TupleFilter};
use crate::relation::{Database, TupleMeta};
use sensorlog_logic::analyze::{Analysis, ProgramClass};
use sensorlog_logic::ast::Literal;
use sensorlog_logic::builtin::BuiltinRegistry;
use sensorlog_logic::flat::FlatSubst;
use sensorlog_logic::{Symbol, Tuple};
use std::collections::{HashMap, VecDeque};

use crate::incremental::{Update, UpdateKind};

/// Counting engine: tuple → signed derivation count.
pub struct CountingEngine {
    pub analysis: Analysis,
    pub reg: BuiltinRegistry,
    pub db: Database,
    counts: HashMap<(Symbol, Tuple), i64>,
    occurrences: HashMap<Symbol, Vec<(usize, usize, bool)>>,
    pub body_evals: u64,
    pub max_cascade: usize,
}

impl CountingEngine {
    /// Rejects recursive programs: counting is only exact without recursion.
    pub fn new(analysis: Analysis, reg: BuiltinRegistry) -> Result<CountingEngine, EvalError> {
        if analysis.class != ProgramClass::NonRecursive {
            return Err(EvalError::Internal(
                "counting maintenance supports non-recursive programs only".into(),
            ));
        }
        let mut occurrences: HashMap<Symbol, Vec<(usize, usize, bool)>> = HashMap::new();
        for (ri, r) in analysis.program.rules.iter().enumerate() {
            if r.agg.is_some() {
                return Err(EvalError::Internal(
                    "counting maintenance does not support aggregates".into(),
                ));
            }
            for (li, lit) in r.body.iter().enumerate() {
                match lit {
                    Literal::Pos(a) => occurrences.entry(a.pred).or_default().push((ri, li, false)),
                    Literal::Neg(a) => occurrences.entry(a.pred).or_default().push((ri, li, true)),
                    _ => {}
                }
            }
        }
        let mut db = Database::new();
        crate::planner::register_program_indexes(&mut db, &analysis);
        let mut engine = CountingEngine {
            analysis,
            reg,
            db,
            counts: HashMap::new(),
            occurrences,
            body_evals: 0,
            max_cascade: 1_000_000,
        };
        // Ground empty-body rules hold from the start: one derivation each,
        // cascaded like any insertion.
        for (_, pred, tuple) in ground_facts(&engine.analysis.program, &engine.reg)? {
            *engine.counts.entry((pred, tuple.clone())).or_insert(0) += 1;
            engine.apply(Update::insert(pred, tuple, 0))?;
        }
        Ok(engine)
    }

    pub fn from_source(src: &str, reg: BuiltinRegistry) -> Result<CountingEngine, EvalError> {
        let prog =
            sensorlog_logic::parse_program(src).map_err(|e| EvalError::Internal(e.to_string()))?;
        let analysis = sensorlog_logic::analyze(&prog, &reg)?;
        CountingEngine::new(analysis, reg)
    }

    /// State size: number of counters (constant 1 word each — the space
    /// advantage over set-of-derivations).
    pub fn state_size(&self) -> usize {
        self.counts.len()
    }

    pub fn apply(&mut self, update: Update) -> Result<Vec<Update>, EvalError> {
        let mut queue = VecDeque::from([update]);
        let mut emitted = Vec::new();
        let mut steps = 0usize;
        while let Some(u) = queue.pop_front() {
            steps += 1;
            if steps > self.max_cascade {
                return Err(EvalError::LimitExceeded {
                    what: "update cascade",
                    limit: self.max_cascade,
                });
            }
            for d in self.process_one(&u)? {
                emitted.push(d.clone());
                queue.push_back(d);
            }
        }
        Ok(emitted)
    }

    fn process_one(&mut self, u: &Update) -> Result<Vec<Update>, EvalError> {
        match u.kind {
            UpdateKind::Insert => {
                if !self
                    .db
                    .relation_mut(u.pred)
                    .insert(u.tuple.clone(), TupleMeta::at(u.ts))
                {
                    return Ok(Vec::new());
                }
            }
            UpdateKind::Delete => {
                if !self.db.contains(u.pred, &u.tuple) {
                    return Ok(Vec::new());
                }
            }
        }
        let occs = self.occurrences.get(&u.pred).cloned().unwrap_or_default();
        let mut deltas: Vec<(Symbol, Tuple, i64)> = Vec::new();
        for (ri, li, negated) in occs {
            let rule = &self.analysis.program.rules[ri];
            let mut excluded = Vec::new();
            for (rj, lj, _) in self.occurrences.get(&u.pred).into_iter().flatten() {
                if *rj == ri
                    && match u.kind {
                        UpdateKind::Insert => *lj > li,
                        UpdateKind::Delete => *lj < li,
                    }
                {
                    excluded.push(*lj);
                }
            }
            let filter = TupleFilter {
                pred: u.pred,
                tuple: u.tuple.clone(),
                literal_indexes: excluded,
            };
            let ev = BodyEval {
                db: &self.db,
                reg: &self.reg,
                filter: Some(&filter),
            };
            self.body_evals += 1;
            let sols = ev.solutions(&rule.body, FlatSubst::new(), Some((li, &u.tuple)))?;
            let sign = match (u.kind, negated) {
                (UpdateKind::Insert, false) | (UpdateKind::Delete, true) => 1,
                (UpdateKind::Insert, true) | (UpdateKind::Delete, false) => -1,
            };
            for sol in &sols {
                let head = instantiate_head(rule, &sol.subst, &self.reg)?;
                deltas.push((rule.head.pred, head, sign));
            }
        }
        if u.kind == UpdateKind::Delete {
            self.db.remove(u.pred, &u.tuple);
        }
        let mut out = Vec::new();
        for (pred, tuple, sign) in deltas {
            let c = self.counts.entry((pred, tuple.clone())).or_insert(0);
            let was = *c > 0;
            *c += sign;
            let now = *c > 0;
            if *c == 0 {
                self.counts.remove(&(pred, tuple.clone()));
            }
            if !was && now {
                out.push(Update::insert(pred, tuple, u.ts));
            } else if was && !now {
                out.push(Update::delete(pred, tuple, u.ts));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensorlog_logic::parser::parse_fact;

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    fn tup(src: &str) -> Tuple {
        let (_, args) = parse_fact(&format!("x({src})")).unwrap();
        Tuple::new(args)
    }

    fn ins(fact: &str, ts: u64) -> Update {
        let (p, args) = parse_fact(fact).unwrap();
        Update::insert(p, Tuple::new(args), ts)
    }

    fn del(fact: &str, ts: u64) -> Update {
        let (p, args) = parse_fact(fact).unwrap();
        Update::delete(p, Tuple::new(args), ts)
    }

    #[test]
    fn basic_counting() {
        let src = r#"
            q(Z) :- a(Z).
            q(Z) :- b(Z).
        "#;
        let mut e = CountingEngine::from_source(src, BuiltinRegistry::standard()).unwrap();
        e.apply(ins("a(1)", 1)).unwrap();
        e.apply(ins("b(1)", 2)).unwrap();
        assert!(e.db.contains(sym("q"), &tup("1")));
        assert_eq!(e.state_size(), 1); // one counter, vs two derivations
        e.apply(del("a(1)", 3)).unwrap();
        assert!(e.db.contains(sym("q"), &tup("1")));
        e.apply(del("b(1)", 4)).unwrap();
        assert!(!e.db.contains(sym("q"), &tup("1")));
    }

    #[test]
    fn negation_counting() {
        let src = r#"
            cov(L) :- enemy(L), friendly(F), dist(L, F) <= 5.
            uncov(L) :- not cov(L), enemy(L).
        "#;
        let mut e = CountingEngine::from_source(src, BuiltinRegistry::standard()).unwrap();
        e.apply(ins("enemy(10)", 1)).unwrap();
        assert!(e.db.contains(sym("uncov"), &tup("10")));
        e.apply(ins("friendly(12)", 2)).unwrap();
        assert!(!e.db.contains(sym("uncov"), &tup("10")));
        e.apply(del("friendly(12)", 3)).unwrap();
        assert!(e.db.contains(sym("uncov"), &tup("10")));
    }

    #[test]
    fn ground_facts_are_live_after_new_and_survive_base_updates() {
        let src = r#"
            p(1). p(2).
            q(X) :- p(X), not b(X).
        "#;
        let mut e = CountingEngine::from_source(src, BuiltinRegistry::standard()).unwrap();
        let oracle =
            crate::seminaive::Engine::from_source(src, BuiltinRegistry::standard()).unwrap();
        let matches_oracle = |e: &CountingEngine| {
            let mut edb = Database::new();
            for t in e.db.sorted(sym("b")) {
                edb.insert(sym("b"), t);
            }
            let expect = oracle.run(&edb).unwrap();
            for p in [sym("p"), sym("q")] {
                assert_eq!(e.db.sorted(p), expect.sorted(p), "divergence on {p}");
            }
        };
        // No update applied yet: the semi-naive fixpoint is already there.
        assert_eq!(e.db.sorted(sym("q")), vec![tup("1"), tup("2")]);
        matches_oracle(&e);
        e.apply(ins("b(1)", 1)).unwrap();
        assert_eq!(e.db.sorted(sym("q")), vec![tup("2")]);
        matches_oracle(&e);
        e.apply(del("b(1)", 2)).unwrap();
        assert_eq!(e.db.sorted(sym("q")), vec![tup("1"), tup("2")]);
        matches_oracle(&e);
    }

    #[test]
    fn rejects_recursion() {
        let src = r#"
            t(X, Y) :- e(X, Y).
            t(X, Y) :- t(X, Z), e(Z, Y).
        "#;
        assert!(CountingEngine::from_source(src, BuiltinRegistry::standard()).is_err());
    }

    #[test]
    fn rejects_aggregates() {
        let src = "best(min<V>) :- m(V).";
        assert!(CountingEngine::from_source(src, BuiltinRegistry::standard()).is_err());
    }
}
