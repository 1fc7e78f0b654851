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
use crate::eval_body::{ground_facts, instantiate_head};
use crate::planner::DeltaPlans;
use crate::relation::{Database, TupleMeta};
use sensorlog_logic::analyze::{Analysis, ProgramClass};
use sensorlog_logic::builtin::BuiltinRegistry;
use sensorlog_logic::{Symbol, Tuple};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

use crate::incremental::{cascade, Update, UpdateKind};

/// Counting engine: tuple → signed derivation count.
pub struct CountingEngine {
    pub analysis: Analysis,
    pub reg: BuiltinRegistry,
    pub db: Database,
    counts: HashMap<(Symbol, Tuple), i64>,
    plans: DeltaPlans,
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
        if analysis.program.rules.iter().any(|r| r.agg.is_some()) {
            return Err(EvalError::Internal(
                "counting maintenance does not support aggregates".into(),
            ));
        }
        let mut db = Database::new();
        let plans = DeltaPlans::compile(&analysis, &mut db);
        let mut engine = CountingEngine {
            analysis,
            reg,
            db,
            counts: HashMap::new(),
            plans,
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
        cascade(update, self.max_cascade, |u, out| self.process_one(u, out))
    }

    fn process_one(&mut self, u: &Update, out: &mut Vec<Update>) -> Result<(), EvalError> {
        match u.kind {
            UpdateKind::Insert => {
                if !self
                    .db
                    .relation_mut(u.pred)
                    .insert(u.tuple.clone(), TupleMeta::at(u.ts))
                {
                    return Ok(());
                }
            }
            UpdateKind::Delete => {
                if !self.db.contains(u.pred, &u.tuple) {
                    return Ok(());
                }
            }
        }
        let mut deltas: Vec<(Symbol, Tuple, i64)> = Vec::new();
        let rules = &self.analysis.program.rules;
        let reg = &self.reg;
        self.body_evals += self.plans.for_each_delta(
            rules,
            &self.db,
            reg,
            (u.kind, u.pred, &u.tuple),
            None,
            |ri, sign, subst, _| {
                let head = instantiate_head(&rules[ri], &subst, reg)?;
                deltas.push((rules[ri].head.pred, head, sign));
                Ok(())
            },
        )?;
        if u.kind == UpdateKind::Delete {
            self.db.remove(u.pred, &u.tuple);
        }
        for (pred, tuple, sign) in deltas {
            let mut entry = match self.counts.entry((pred, tuple)) {
                Entry::Occupied(e) => e,
                Entry::Vacant(e) => e.insert_entry(0),
            };
            let was = *entry.get() > 0;
            *entry.get_mut() += sign;
            let now = *entry.get() > 0;
            let tuple = &entry.key().1;
            if !was && now {
                out.push(Update::insert(pred, tuple.clone(), u.ts));
            } else if was && !now {
                out.push(Update::delete(pred, tuple.clone(), u.ts));
            }
            if *entry.get() == 0 {
                entry.remove();
            }
        }
        Ok(())
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
