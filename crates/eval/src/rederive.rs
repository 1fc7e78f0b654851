//! Delete-and-rederive maintenance (the second alternative of Sec. IV-A,
//! "Rederivation Approach" \[27\], DRed-style).
//!
//! Keeps *no* per-tuple bookkeeping. Insertions propagate like semi-naive
//! deltas. Deletions first **over-delete** everything with a derivation
//! through the deleted tuple, then try to **rederive** each casualty from
//! what remains — "the rederivation technique will result in a lot of
//! communication overhead" (each rederivation attempt is a full body
//! evaluation, the in-network analogue of an extra join traversal). The
//! `body_evals` counter is the work metric the Fig. 11 ablation plots.
//!
//! Supports non-recursive and stratified-recursive programs without
//! aggregates; recursion is handled by iterating over-delete/rederive to
//! fixpoint in stratum order.

use crate::error::EvalError;
use crate::eval_body::{ground_facts, instantiate_head, BodyEval, TupleFilter};
use crate::planner::DeltaPlans;
use crate::relation::{Database, TupleMeta};
use sensorlog_logic::analyze::{Analysis, ProgramClass};
use sensorlog_logic::builtin::BuiltinRegistry;
use sensorlog_logic::flat::{flat_match_args, FlatSubst};
use sensorlog_logic::{Symbol, Tuple};
use sensorlog_telemetry::Profiler;
use std::collections::{HashSet, VecDeque};

use crate::incremental::{Update, UpdateKind};

/// Candidate head tuples of one delta step.
type Heads = Vec<(Symbol, Tuple)>;

/// DRed-style maintenance engine.
pub struct RederiveEngine {
    pub analysis: Analysis,
    pub reg: BuiltinRegistry,
    pub db: Database,
    plans: DeltaPlans,
    pub body_evals: u64,
    /// Phase profiler (disabled by default): times insert cascades and the
    /// over-delete/rederive passes separately.
    pub profiler: Profiler,
    pub max_cascade: usize,
}

impl RederiveEngine {
    pub fn new(analysis: Analysis, reg: BuiltinRegistry) -> Result<RederiveEngine, EvalError> {
        if analysis.class == ProgramClass::XYStratified {
            return Err(EvalError::Internal(
                "rederivation maintenance does not support XY-stratified programs".into(),
            ));
        }
        if analysis.program.rules.iter().any(|r| r.agg.is_some()) {
            return Err(EvalError::Internal(
                "rederivation maintenance does not support aggregates".into(),
            ));
        }
        let mut db = Database::new();
        let plans = DeltaPlans::compile(&analysis, &mut db);
        // `rederivable` evaluates every rule seeded with a casualty's head.
        crate::planner::register_head_seeded_indexes(&mut db, analysis.program.rules.iter());
        let mut engine = RederiveEngine {
            analysis,
            reg,
            db,
            plans,
            body_evals: 0,
            profiler: Profiler::disabled(),
            max_cascade: 1_000_000,
        };
        // Ground empty-body rules hold from the start; `rederivable` finds
        // them again through their (empty) bodies.
        for (_, pred, tuple) in ground_facts(&engine.analysis.program, &engine.reg)? {
            engine.apply(Update::insert(pred, tuple, 0))?;
        }
        Ok(engine)
    }

    pub fn from_source(src: &str, reg: BuiltinRegistry) -> Result<RederiveEngine, EvalError> {
        let prog =
            sensorlog_logic::parse_program(src).map_err(|e| EvalError::Internal(e.to_string()))?;
        let analysis = sensorlog_logic::analyze(&prog, &reg)?;
        RederiveEngine::new(analysis, reg)
    }

    /// Per-tuple state size is zero by construction.
    pub fn state_size(&self) -> usize {
        0
    }

    pub fn apply(&mut self, update: Update) -> Result<(), EvalError> {
        match update.kind {
            UpdateKind::Insert => self.insert(update),
            UpdateKind::Delete => self.delete(update),
        }
    }

    /// The heads `(gained, lost)` when `tuple` of `pred` is inserted or
    /// deleted: the shared delta pass over the current database, restricted
    /// to the positive or the negated occurrences when `negated` says so.
    /// DRed keeps no counts, so a head is only a candidate — the caller
    /// decides against the database.
    fn delta(
        &mut self,
        (kind, pred, tuple): (UpdateKind, Symbol, &Tuple),
        negated: Option<bool>,
    ) -> Result<(Heads, Heads), EvalError> {
        let (mut gained, mut lost) = (Vec::new(), Vec::new());
        let rules = &self.analysis.program.rules;
        let reg = &self.reg;
        self.body_evals += self.plans.for_each_delta(
            rules,
            &self.db,
            reg,
            (kind, pred, tuple),
            negated,
            |ri, sign, subst, _| {
                let rule = &rules[ri];
                let head = instantiate_head(rule, &subst, reg)?;
                if sign < 0 {
                    lost.push((rule.head.pred, head));
                } else {
                    gained.push((rule.head.pred, head));
                }
                Ok(())
            },
        )?;
        Ok((gained, lost))
    }

    /// Insert: semi-naive delta cascade (sign-free — presence is the state).
    fn insert(&mut self, u: Update) -> Result<(), EvalError> {
        let _span = self.profiler.span("dred.insert");
        if !self
            .db
            .relation_mut(u.pred)
            .insert(u.tuple.clone(), TupleMeta::at(u.ts))
        {
            return Ok(());
        }
        let ts = u.ts;
        self.cascade(VecDeque::from([(u.pred, u.tuple)]), ts)
    }

    /// Store `heads`; those that were new are returned, for a cascade to
    /// propagate.
    fn store(&mut self, mut heads: Heads, ts: u64) -> Heads {
        heads.retain(|(p, t)| {
            let rel = self.db.relation_mut(*p);
            rel.insert(t.clone(), TupleMeta::at(ts))
        });
        heads
    }

    /// Propagate tuples that were just stored. Each step evaluates every
    /// occurrence against one state, stores what it gains, and only then
    /// over-deletes what it blocks — so a head gained from a tuple the same
    /// step retracts is in the database for that retraction to find.
    fn cascade(&mut self, mut queue: VecDeque<(Symbol, Tuple)>, ts: u64) -> Result<(), EvalError> {
        let mut steps = 0;
        while let Some((pred, tuple)) = queue.pop_front() {
            steps += 1;
            if steps > self.max_cascade {
                return Err(EvalError::LimitExceeded {
                    what: "insert cascade",
                    limit: self.max_cascade,
                });
            }
            // Retracted while it waited: nothing follows from it.
            if !self.db.contains(pred, &tuple) {
                continue;
            }
            let (gained, lost) = self.delta((UpdateKind::Insert, pred, &tuple), None)?;
            queue.extend(self.store(gained, ts));
            // An insert into a negated subgoal can only delete: over-delete
            // the affected heads, then rederive.
            for (p, t) in lost {
                if self.db.contains(p, &t) {
                    self.delete(Update::delete(p, t, ts))?;
                }
            }
        }
        Ok(())
    }

    /// Delete: over-delete transitively, then rederive survivors.
    fn delete(&mut self, u: Update) -> Result<(), EvalError> {
        let _span = self.profiler.span("dred.delete");
        if !self.db.contains(u.pred, &u.tuple) {
            return Ok(());
        }
        // Phase 1: over-delete. Collect everything with a derivation
        // through the frontier, walking until closure. (A *delete* on a
        // negated subgoal can only create tuples; handled in phase 3.)
        let root = (u.pred, u.tuple);
        let mut overdeleted: Vec<(Symbol, Tuple)> = Vec::new();
        let mut frontier: VecDeque<(Symbol, Tuple)> = VecDeque::from([root.clone()]);
        let mut seen: HashSet<(Symbol, Tuple)> = HashSet::from([root.clone()]);
        let mut steps = 0;
        while let Some((pred, tuple)) = frontier.pop_front() {
            steps += 1;
            if steps > self.max_cascade {
                return Err(EvalError::LimitExceeded {
                    what: "delete cascade",
                    limit: self.max_cascade,
                });
            }
            let (_, lost) = self.delta((UpdateKind::Delete, pred, &tuple), Some(false))?;
            for key in lost {
                if self.db.contains(key.0, &key.1) && seen.insert(key.clone()) {
                    frontier.push_back(key);
                }
            }
            if (pred, &tuple) != (root.0, &root.1) {
                overdeleted.push((pred, tuple));
            }
        }
        // Physically remove the base tuple and all casualties.
        self.db.remove(root.0, &root.1);
        for (p, t) in &overdeleted {
            self.db.remove(*p, t);
        }

        // Phase 2: rederive casualties in stratum order, iterating until no
        // change (recursive rederivations feed each other).
        let strat = &self.analysis.strat;
        let mut remaining: Vec<(Symbol, Tuple)> = overdeleted;
        remaining.sort_by_key(|(p, _)| strat.level_of(*p));
        loop {
            let mut changed = false;
            let mut still_out = Vec::new();
            for (p, t) in remaining {
                if self.rederivable(p, &t)? {
                    self.db
                        .relation_mut(p)
                        .insert(t.clone(), TupleMeta::at(u.ts));
                    changed = true;
                } else {
                    still_out.push((p, t));
                }
            }
            remaining = still_out;
            if !changed || remaining.is_empty() {
                break;
            }
        }

        // Phase 3: deletions may *unblock* negated subgoals. Derive the
        // additions from the negated occurrences of every deleted tuple.
        for (pred, tuple) in std::iter::once(root).chain(remaining) {
            let (gained, _) = self.delta((UpdateKind::Delete, pred, &tuple), Some(true))?;
            let fresh = self.store(gained, u.ts);
            self.cascade(fresh.into(), u.ts)?;
        }
        Ok(())
    }

    /// Can `tuple` of `pred` be derived from the current database?
    fn rederivable(&mut self, pred: Symbol, tuple: &Tuple) -> Result<bool, EvalError> {
        let _span = self.profiler.span("dred.rederive");
        for rule in &self.analysis.program.rules {
            if rule.head.pred != pred {
                continue;
            }
            // Seed with the same semantic head match the forward direction
            // inverts: `q(X + 1)` against `q(2)` binds `X = 1`.
            let mut seed = FlatSubst::new();
            if !flat_match_args(&self.reg, &rule.head.args, tuple.ids(), &mut seed) {
                continue;
            }
            // The casualty itself must not self-justify: exclude it from
            // every positive occurrence of its own predicate.
            let every_literal: Vec<usize> = (0..rule.body.len()).collect();
            let ev = BodyEval {
                db: &self.db,
                reg: &self.reg,
                filter: Some(TupleFilter {
                    pred,
                    tuple,
                    literal_indexes: &every_literal,
                }),
            };
            self.body_evals += 1;
            if !ev.solutions(&rule.body, seed, None)?.is_empty() {
                return Ok(true);
            }
        }
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seminaive::Engine;
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
    fn ground_facts_are_live_after_new_and_survive_base_updates() {
        let src = r#"
            p(1). p(2).
            q(X) :- p(X), not b(X).
        "#;
        let mut e = RederiveEngine::from_source(src, BuiltinRegistry::standard()).unwrap();
        // No update applied yet: the semi-naive fixpoint is already there.
        assert_eq!(e.db.sorted(sym("q")), vec![tup("1"), tup("2")]);
        assert_matches_oracle(&e, src);
        e.apply(ins("b(1)", 1)).unwrap();
        assert_eq!(e.db.sorted(sym("q")), vec![tup("2")]);
        assert_matches_oracle(&e, src);
        e.apply(del("b(1)", 2)).unwrap();
        assert_eq!(e.db.sorted(sym("q")), vec![tup("1"), tup("2")]);
        assert_matches_oracle(&e, src);
    }

    fn assert_matches_oracle(e: &RederiveEngine, src: &str) {
        let oracle = Engine::from_source(src, BuiltinRegistry::standard()).unwrap();
        let mut edb = Database::new();
        for p in &e.analysis.program.edb_preds() {
            for t in e.db.sorted(*p) {
                edb.insert(*p, t);
            }
        }
        let expect = oracle.run(&edb).unwrap();
        for p in e.analysis.program.idb_preds() {
            assert_eq!(e.db.sorted(p), expect.sorted(p), "divergence on {p}");
        }
    }

    #[test]
    fn alternative_derivation_survives() {
        let src = r#"
            q(Z) :- a(Z).
            q(Z) :- b(Z).
        "#;
        let mut e = RederiveEngine::from_source(src, BuiltinRegistry::standard()).unwrap();
        e.apply(ins("a(1)", 1)).unwrap();
        e.apply(ins("b(1)", 2)).unwrap();
        e.apply(del("a(1)", 3)).unwrap();
        assert!(e.db.contains(sym("q"), &tup("1")), "rederived via b");
        e.apply(del("b(1)", 4)).unwrap();
        assert!(!e.db.contains(sym("q"), &tup("1")));
    }

    #[test]
    fn alternative_derivation_through_interpreted_head_survives() {
        let src = r#"
            q(X + 1) :- a(X).
            q(Z) :- b(Z).
        "#;
        let mut e = RederiveEngine::from_source(src, BuiltinRegistry::standard()).unwrap();
        e.apply(ins("a(1)", 1)).unwrap();
        e.apply(ins("b(2)", 2)).unwrap();
        e.apply(del("b(2)", 3)).unwrap();
        assert!(e.db.contains(sym("q"), &tup("2")), "rederived via a(1)");
        assert_matches_oracle(&e, src);
    }

    #[test]
    fn recursive_overdelete_rederive() {
        let src = r#"
            t(X, Y) :- e(X, Y).
            t(X, Y) :- t(X, Z), e(Z, Y).
        "#;
        let mut e = RederiveEngine::from_source(src, BuiltinRegistry::standard()).unwrap();
        // Diamond: 1->2->4, 1->3->4, then onward 4->5.
        for (i, (a, b)) in [(1, 2), (2, 4), (1, 3), (3, 4), (4, 5)].iter().enumerate() {
            e.apply(ins(&format!("e({a}, {b})"), i as u64)).unwrap();
        }
        assert!(e.db.contains(sym("t"), &tup("1, 5")));
        // Deleting one diamond edge keeps reachability via the other side.
        e.apply(del("e(2, 4)", 10)).unwrap();
        assert!(e.db.contains(sym("t"), &tup("1, 4")), "rederived via 3");
        assert!(e.db.contains(sym("t"), &tup("1, 5")));
        assert!(!e.db.contains(sym("t"), &tup("2, 4")));
        assert_matches_oracle(&e, src);
        // Deleting the second edge disconnects.
        e.apply(del("e(3, 4)", 11)).unwrap();
        assert!(!e.db.contains(sym("t"), &tup("1, 4")));
        assert!(!e.db.contains(sym("t"), &tup("1, 5")));
        assert_matches_oracle(&e, src);
    }

    #[test]
    fn negation_unblocking() {
        let src = r#"
            cov(L) :- enemy(L), friendly(F), dist(L, F) <= 5.
            uncov(L) :- not cov(L), enemy(L).
        "#;
        let mut e = RederiveEngine::from_source(src, BuiltinRegistry::standard()).unwrap();
        e.apply(ins("enemy(10)", 1)).unwrap();
        assert!(e.db.contains(sym("uncov"), &tup("10")));
        e.apply(ins("friendly(12)", 2)).unwrap();
        assert!(!e.db.contains(sym("uncov"), &tup("10")));
        e.apply(del("friendly(12)", 3)).unwrap();
        assert!(e.db.contains(sym("uncov"), &tup("10")));
        assert_matches_oracle(&e, src);
    }

    #[test]
    fn one_step_gains_and_blocks_through_the_same_tuple() {
        // A step evaluates every occurrence against one state, so a head
        // can be gained through a tuple the same step goes on to retract
        // (`w` needs `v`, which `p` blocks; `h2` needs `b`, which the
        // unblocked `h1` blocks). Whatever the rule order, the retraction
        // must find that head — and nothing may follow from it meanwhile.
        let insert_blocks = [
            "v(X) :- a(X), not p(X).",
            "w(X) :- p(X), v(X).",
            "z(X) :- w(X).",
        ];
        let delete_unblocks = [
            "h1(X) :- a(X), not p(X).",
            "b(X) :- a(X), not h1(X).",
            "h2(X) :- b(X), not p(X).",
            "z(X) :- h2(X).",
        ];
        for rules in [&insert_blocks[..], &delete_unblocks[..]] {
            for reversed in [false, true] {
                let mut rules = rules.to_vec();
                if reversed {
                    rules.reverse();
                }
                let src = rules.join("\n");
                let mut e = RederiveEngine::from_source(&src, BuiltinRegistry::standard()).unwrap();
                let stream = [
                    ins("a(1)", 1),
                    ins("p(1)", 2),
                    del("p(1)", 3),
                    ins("p(1)", 4),
                ];
                for u in stream {
                    e.apply(u).unwrap();
                    assert_matches_oracle(&e, &src);
                }
            }
        }
    }

    #[test]
    fn rederivation_costs_more_body_evals() {
        // The ablation claim: deletions cost more under DRed than under
        // set-of-derivations when alternative derivations abound.
        let src = r#"
            t(X, Y) :- e(X, Y).
            t(X, Y) :- t(X, Z), e(Z, Y).
        "#;
        let mut dred = RederiveEngine::from_source(src, BuiltinRegistry::standard()).unwrap();
        let mut sod =
            crate::incremental::IncrementalEngine::from_source(src, BuiltinRegistry::standard())
                .unwrap();
        let mut ts = 0;
        for a in 0..6 {
            for b in 0..6 {
                if a != b && (a + b) % 2 == 0 {
                    dred.apply(ins(&format!("e({a}, {b})"), ts)).unwrap();
                    sod.apply(ins(&format!("e({a}, {b})"), ts)).unwrap();
                    ts += 1;
                }
            }
        }
        let dred_before = dred.body_evals;
        let sod_before = sod.stats.body_evals;
        dred.apply(del("e(0, 2)", ts)).unwrap();
        sod.apply(del("e(0, 2)", ts)).unwrap();
        let dred_cost = dred.body_evals - dred_before;
        let sod_cost = sod.stats.body_evals - sod_before;
        assert!(
            dred_cost > sod_cost,
            "DRed delete cost {dred_cost} should exceed set-of-derivations {sod_cost}"
        );
    }

    #[test]
    fn rejects_xy_programs() {
        let src = r#"
            h(0, 0, 0).
            hp(Y, D + 1) :- h(_, Y, D'), (D + 1) > D', h(_, X, D), g(X, Y).
            h(X, Y, D + 1) :- g(X, Y), h(_, X, D), not hp(Y, D + 1).
        "#;
        assert!(RederiveEngine::from_source(src, BuiltinRegistry::standard()).is_err());
    }
}
