//! Batch bottom-up evaluation: semi-naive fixpoint with stratified negation
//! and XY-staged evaluation (Secs. III-B and IV-C).
//!
//! The engine walks the program's SCCs in dependency order (negated and
//! aggregate dependencies fully computed before use) and evaluates each SCC:
//!
//! * non-recursive — a single pass over its rules;
//! * recursive, negation-free within the SCC — classical semi-naive
//!   iteration pinning each recursive subgoal occurrence to the delta;
//! * XY-stratified — stage-by-stage evaluation binding each rule's head
//!   stage variable to the current stage, visiting predicates in the
//!   certified stage-local order (the paper's `H0, H'1, H1, H'2, …`
//!   schedule).
//!
//! The batch engine is the correctness *oracle* for both the incremental
//! engine and the distributed runtime.

use crate::aggregate::aggregate_rule;
use crate::error::EvalError;
use crate::eval_body::{instantiate_head, BodyEval};
use crate::relation::{Database, TupleMeta};
use sensorlog_logic::analyze::Analysis;
use sensorlog_logic::ast::{Literal, Rule};
use sensorlog_logic::builtin::BuiltinRegistry;
use sensorlog_logic::depgraph::DepGraph;
use sensorlog_logic::flat::FlatSubst;
use sensorlog_logic::intern::{self, Val};
use sensorlog_logic::xy::{StageExpr, XyInfo};
use sensorlog_logic::{analyze, Symbol, Tuple};
use sensorlog_telemetry::Profiler;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Resource guards for evaluation. Function symbols make the language
/// Turing-complete, so a runaway program must hit a limit, not hang.
#[derive(Clone, Copy, Debug)]
pub struct EvalConfig {
    /// Max semi-naive iterations per SCC.
    pub max_iterations: usize,
    /// Max stages per XY component.
    pub max_stages: usize,
    /// Max total derived tuples.
    pub max_tuples: usize,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            max_iterations: 100_000,
            max_stages: 100_000,
            max_tuples: 10_000_000,
        }
    }
}

/// Batch engine: analysis + builtins + limits.
pub struct Engine {
    pub analysis: Analysis,
    pub reg: BuiltinRegistry,
    pub config: EvalConfig,
    /// Phase profiler (disabled by default; wire a live one via
    /// [`Profiler`] to time semi-naive rounds and XY stages).
    pub profiler: Profiler,
    sccs: Vec<Vec<Symbol>>,
}

impl Engine {
    pub fn new(analysis: Analysis, reg: BuiltinRegistry) -> Engine {
        let g = DepGraph::build(&analysis.program);
        let sccs = g.sccs();
        Engine {
            analysis,
            reg,
            config: EvalConfig::default(),
            profiler: Profiler::disabled(),
            sccs,
        }
    }

    /// Parse + analyze + build in one step.
    pub fn from_source(src: &str, reg: BuiltinRegistry) -> Result<Engine, EvalError> {
        let prog =
            sensorlog_logic::parse_program(src).map_err(|e| EvalError::Internal(e.to_string()))?;
        let analysis = analyze(&prog, &reg)?;
        Ok(Engine::new(analysis, reg))
    }

    pub fn with_config(mut self, config: EvalConfig) -> Engine {
        self.config = config;
        self
    }

    /// Evaluate the program over `edb`, returning the full database
    /// (EDB + all derived relations).
    pub fn run(&self, edb: &Database) -> Result<Database, EvalError> {
        let mut db = edb.clone();
        crate::planner::register_program_indexes(&mut db, &self.analysis);
        let prog = &self.analysis.program;
        let idb = prog.idb_preds();
        for scc in &self.sccs {
            let has_rules = scc.iter().any(|p| idb.contains(p));
            if !has_rules {
                continue;
            }
            let scc_set: BTreeSet<Symbol> = scc.iter().copied().collect();
            let rules: Vec<&Rule> = prog
                .rules
                .iter()
                .filter(|r| scc_set.contains(&r.head.pred))
                .collect();
            if let Some(info) = self
                .analysis
                .xy
                .iter()
                .find(|i| i.scc.iter().any(|p| scc_set.contains(p)))
            {
                self.eval_xy(&mut db, &rules, info)?;
            } else if is_recursive_unit(&rules, &scc_set) {
                self.eval_seminaive(&mut db, &rules, &scc_set)?;
            } else {
                self.eval_once(&mut db, &rules)?;
            }
            if db.total_tuples() > self.config.max_tuples {
                return Err(EvalError::LimitExceeded {
                    what: "derived tuples",
                    limit: self.config.max_tuples,
                });
            }
        }
        Ok(db)
    }

    /// Single pass for a non-recursive SCC (negation/aggregates allowed —
    /// everything they reference is already complete).
    fn eval_once(&self, db: &mut Database, rules: &[&Rule]) -> Result<(), EvalError> {
        let _span = self.profiler.span("eval.once");
        // Two-phase: compute all head tuples against the pre-pass state,
        // then insert, so rules for the same head don't see each other's
        // output mid-pass (they couldn't depend on it: same-SCC and
        // non-recursive means no rule references the head).
        let mut pending: Vec<(Symbol, Tuple)> = Vec::new();
        for rule in rules {
            let ev = BodyEval::new(db, &self.reg);
            let sols = ev.solutions(&rule.body, FlatSubst::new(), None)?;
            if rule.agg.is_some() {
                for t in aggregate_rule(rule, &sols, &self.reg)? {
                    pending.push((rule.head.pred, t));
                }
            } else {
                for sol in &sols {
                    let t = instantiate_head(rule, sol, &self.reg)?;
                    pending.push((rule.head.pred, t));
                }
            }
        }
        for (p, t) in pending {
            db.relation_mut(p).insert(t, TupleMeta::default());
        }
        Ok(())
    }

    /// Classical semi-naive fixpoint for a recursive, internally
    /// negation-free SCC.
    fn eval_seminaive(
        &self,
        db: &mut Database,
        rules: &[&Rule],
        scc_set: &BTreeSet<Symbol>,
    ) -> Result<(), EvalError> {
        // Round 0: full evaluation of every rule.
        let round0_span = self.profiler.span("eval.seminaive.round");
        let mut delta: HashMap<Symbol, Vec<Tuple>> = HashMap::new();
        let mut round0: Vec<(Symbol, Tuple)> = Vec::new();
        for rule in rules {
            let ev = BodyEval::new(db, &self.reg);
            let sols = ev.solutions(&rule.body, FlatSubst::new(), None)?;
            debug_assert!(rule.agg.is_none(), "aggregates cannot be recursive");
            for sol in &sols {
                round0.push((rule.head.pred, instantiate_head(rule, sol, &self.reg)?));
            }
        }
        for (p, t) in round0 {
            if db.relation_mut(p).insert(t.clone(), TupleMeta::default()) {
                delta.entry(p).or_default().push(t);
            }
        }
        drop(round0_span);

        let mut iterations = 0usize;
        while delta.values().any(|v| !v.is_empty()) {
            let _round = self.profiler.span("eval.seminaive.round");
            iterations += 1;
            if iterations > self.config.max_iterations {
                return Err(EvalError::LimitExceeded {
                    what: "semi-naive iterations",
                    limit: self.config.max_iterations,
                });
            }
            let mut produced: Vec<(Symbol, Tuple)> = Vec::new();
            for rule in rules {
                for (idx, lit) in rule.body.iter().enumerate() {
                    let atom = match lit {
                        Literal::Pos(a) if scc_set.contains(&a.pred) => a,
                        _ => continue,
                    };
                    let empty = Vec::new();
                    let dts = delta.get(&atom.pred).unwrap_or(&empty);
                    for dt in dts {
                        let ev = BodyEval::new(db, &self.reg);
                        let sols = ev.solutions(&rule.body, FlatSubst::new(), Some((idx, dt)))?;
                        for sol in &sols {
                            produced
                                .push((rule.head.pred, instantiate_head(rule, sol, &self.reg)?));
                        }
                    }
                }
            }
            let mut next: HashMap<Symbol, Vec<Tuple>> = HashMap::new();
            for (p, t) in produced {
                if db.relation_mut(p).insert(t.clone(), TupleMeta::default()) {
                    next.entry(p).or_default().push(t);
                }
            }
            if db.total_tuples() > self.config.max_tuples {
                return Err(EvalError::LimitExceeded {
                    what: "derived tuples",
                    limit: self.config.max_tuples,
                });
            }
            delta = next;
        }
        Ok(())
    }

    /// Stage-by-stage evaluation of an XY-stratified component.
    fn eval_xy(&self, db: &mut Database, rules: &[&Rule], info: &XyInfo) -> Result<(), EvalError> {
        // Import rules (no SCC subgoal in the body) run once up front: they
        // bootstrap the staged tables (base cases like `h(a, a, 0).`).
        let mut staged: Vec<(&Rule, StageExpr)> = Vec::new();
        let mut import: Vec<&Rule> = Vec::new();
        for &rule in rules {
            match info.staged_head(rule) {
                Some(head_stage) => staged.push((rule, head_stage)),
                None => import.push(rule),
            }
        }
        for rule in &import {
            let ev = BodyEval::new(db, &self.reg);
            let sols = ev.solutions(&rule.body, FlatSubst::new(), None)?;
            for sol in &sols {
                let t = instantiate_head(rule, sol, &self.reg)?;
                db.relation_mut(rule.head.pred)
                    .insert(t, TupleMeta::default());
            }
        }

        // Stage bounds from the tuples present so far.
        let (lo, mut hi) = match self.stage_bounds(db, info) {
            Some(b) => b,
            None => return Ok(()), // nothing to stage from
        };
        let mut stage = lo;
        let mut stages_run = 0usize;
        // Visit stages in order; `hi` grows as higher-stage tuples appear.
        while stage <= hi + 1 {
            let _stage_span = self.profiler.span("eval.xy.stage");
            stages_run += 1;
            if stages_run > self.config.max_stages {
                return Err(EvalError::LimitExceeded {
                    what: "XY stages",
                    limit: self.config.max_stages,
                });
            }
            for &pred in &info.stage_order {
                for &(rule, head_stage) in &staged {
                    if rule.head.pred != pred {
                        continue;
                    }
                    let hpos = info.stage_pos[&pred];
                    // Binding the head's stage variable is what makes a
                    // stage cost its frontier: `solutions` plans from the
                    // seed, so the rule opens at the literal it keys
                    // (`h(_, X, D)` with `D` bound) instead of a scan.
                    let mut seed = FlatSubst::new();
                    match head_stage {
                        StageExpr::Const(c) if c != stage => continue,
                        StageExpr::Const(_) => {}
                        StageExpr::Linear(v, off) => {
                            seed.bind(v, intern::intern_int(stage - off));
                        }
                    }
                    let ev = BodyEval::new(db, &self.reg);
                    let sols = ev.solutions(&rule.body, seed, None)?;
                    let mut new_tuples = Vec::new();
                    for sol in &sols {
                        new_tuples.push(instantiate_head(rule, sol, &self.reg)?);
                    }
                    for t in new_tuples {
                        if let Val::Int(s) = intern::entry(t.id(hpos)).val {
                            if db.relation_mut(pred).insert(t, TupleMeta::default()) {
                                hi = hi.max(s);
                            }
                        } else {
                            return Err(EvalError::Internal(format!(
                                "non-integer stage value in {pred} tuple"
                            )));
                        }
                    }
                }
            }
            if db.total_tuples() > self.config.max_tuples {
                return Err(EvalError::LimitExceeded {
                    what: "derived tuples",
                    limit: self.config.max_tuples,
                });
            }
            stage += 1;
        }
        Ok(())
    }

    /// (min, max) stage value among current SCC tuples.
    fn stage_bounds(&self, db: &Database, info: &XyInfo) -> Option<(i64, i64)> {
        let mut bounds: Option<(i64, i64)> = None;
        for (&pred, &pos) in &info.stage_pos {
            if let Some(rel) = db.relation(pred) {
                for t in rel.tuples() {
                    if let Val::Int(s) = intern::entry(t.id(pos)).val {
                        bounds = Some(match bounds {
                            None => (s, s),
                            Some((lo, hi)) => (lo.min(s), hi.max(s)),
                        });
                    }
                }
            }
        }
        bounds
    }
}

fn is_recursive_unit(rules: &[&Rule], scc_set: &BTreeSet<Symbol>) -> bool {
    scc_set.len() > 1
        || rules.iter().any(|r| {
            r.body.iter().any(
                |l| matches!(l, Literal::Pos(a) | Literal::Neg(a) if scc_set.contains(&a.pred)),
            )
        })
}

/// Effective sliding-window range per predicate: declared `.window` for base
/// streams, and for derived predicates the maximum over their rules of the
/// body predicates' effective windows ("implicit temporal correlation",
/// Sec. IV-C). `None` = unbounded.
pub fn effective_windows(analysis: &Analysis) -> BTreeMap<Symbol, u64> {
    let prog = &analysis.program;
    let mut out: BTreeMap<Symbol, u64> = prog.windows.clone();
    // Propagate along SCC dependency order until fixpoint (cheap: programs
    // are small).
    let mut changed = true;
    while changed {
        changed = false;
        for rule in &prog.rules {
            if out.contains_key(&rule.head.pred) {
                continue;
            }
            let mut acc: Option<u64> = None;
            let mut all_bounded = true;
            for lit in &rule.body {
                if let Literal::Pos(a) | Literal::Neg(a) = lit {
                    match out.get(&a.pred) {
                        Some(&w) => acc = Some(acc.map_or(w, |x: u64| x.max(w))),
                        None => all_bounded = false,
                    }
                }
            }
            if all_bounded {
                if let Some(w) = acc {
                    out.insert(rule.head.pred, w);
                    changed = true;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensorlog_logic::parser::parse_fact;
    use sensorlog_logic::Term;

    fn engine(src: &str) -> Engine {
        Engine::from_source(src, BuiltinRegistry::standard()).unwrap()
    }

    fn db(facts: &[&str]) -> Database {
        let mut d = Database::new();
        for f in facts {
            let (p, args) = parse_fact(f).unwrap();
            d.insert(p, Tuple::new(args));
        }
        d
    }

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    fn tup(src: &str) -> Tuple {
        let (_, args) = parse_fact(&format!("x({src})")).unwrap();
        Tuple::new(args)
    }

    #[test]
    fn nonrecursive_negation() {
        let e = engine(
            r#"
            cov(L) :- enemy(L), friendly(F), dist(L, F) <= 5.
            uncov(L) :- not cov(L), enemy(L).
            "#,
        );
        let out = e
            .run(&db(&["enemy(10)", "enemy(100)", "friendly(12)"]))
            .unwrap();
        assert_eq!(out.sorted(sym("cov")), vec![tup("10")]);
        assert_eq!(out.sorted(sym("uncov")), vec![tup("100")]);
    }

    #[test]
    fn transitive_closure() {
        let e = engine(
            r#"
            t(X, Y) :- e(X, Y).
            t(X, Y) :- t(X, Z), e(Z, Y).
            "#,
        );
        let out = e
            .run(&db(&["e(1, 2)", "e(2, 3)", "e(3, 4)", "e(4, 2)"]))
            .unwrap();
        // 1 reaches 2,3,4; 2,3,4 reach each other (cycle 2-3-4).
        assert_eq!(out.len_of(sym("t")), 3 + 9);
        assert!(out.contains(sym("t"), &tup("1, 4")));
        assert!(out.contains(sym("t"), &tup("4, 4")));
        assert!(!out.contains(sym("t"), &tup("2, 1")));
    }

    #[test]
    fn mutual_recursion() {
        let e = engine(
            r#"
            even(X) :- zero(X).
            even(Y) :- odd(X), succ(X, Y).
            odd(Y) :- even(X), succ(X, Y).
            "#,
        );
        let out = e
            .run(&db(&[
                "zero(0)",
                "succ(0,1)",
                "succ(1,2)",
                "succ(2,3)",
                "succ(3,4)",
            ]))
            .unwrap();
        assert_eq!(out.sorted(sym("even")), vec![tup("0"), tup("2"), tup("4")]);
        assert_eq!(out.sorted(sym("odd")), vec![tup("1"), tup("3")]);
    }

    #[test]
    fn stratified_negation_over_recursion() {
        let e = engine(
            r#"
            t(X, Y) :- e(X, Y).
            t(X, Y) :- t(X, Z), e(Z, Y).
            unreach(Y) :- node(Y), not t(1, Y).
            "#,
        );
        let out = e
            .run(&db(&[
                "e(1, 2)", "e(2, 3)", "e(5, 6)", "node(2)", "node(3)", "node(6)",
            ]))
            .unwrap();
        assert_eq!(out.sorted(sym("unreach")), vec![tup("6")]);
    }

    #[test]
    fn logich_shortest_path_tree() {
        // Example 3: BFS tree from root 0 over an undirected path graph
        // 0 - 1 - 2 - 3 plus a shortcut 0 - 2.
        let e = engine(
            r#"
            h(0, 0, 0).
            h(0, X, 1) :- g(0, X).
            hp(Y, D + 1) :- h(_, Y, D'), (D + 1) > D', h(_, X, D), g(X, Y).
            h(X, Y, D + 1) :- g(X, Y), h(_, X, D), not hp(Y, D + 1).
            "#,
        );
        let mut facts = Vec::new();
        for (a, b) in [(0, 1), (1, 2), (2, 3), (0, 2)] {
            facts.push(format!("g({a}, {b})"));
            facts.push(format!("g({b}, {a})"));
        }
        let fact_refs: Vec<&str> = facts.iter().map(String::as_str).collect();
        let out = e.run(&db(&fact_refs)).unwrap();
        let h = out.sorted(sym("h"));
        // Depths: 0@0, 1@1, 2@1, 3@2. No vertex at depth > its BFS depth.
        assert!(h.contains(&tup("0, 0, 0")));
        assert!(h.contains(&tup("0, 1, 1")));
        assert!(h.contains(&tup("0, 2, 1")));
        assert!(h.contains(&tup("2, 3, 2")));
        // hp blocks re-adding vertex 2 at depth 2 (via 1).
        assert!(!h
            .iter()
            .any(|t| t.get(1) == Term::Int(2) && t.get(2) == Term::Int(2)));
        // And vertex 1 at depth 2 (via 2).
        assert!(!h
            .iter()
            .any(|t| t.get(1) == Term::Int(1) && t.get(2) == Term::Int(2)));
        // Every reachable vertex appears exactly at its BFS depth.
        let depth_of = |v: i64| {
            h.iter()
                .filter(|t| t.get(1) == Term::Int(v))
                .map(|t| t.get(2).as_i64().unwrap())
                .min()
                .unwrap()
        };
        assert_eq!(depth_of(3), 2);
    }

    /// A stage costs its frontier, not its relations: the stage loop seeds
    /// the stage variable, so no body literal of a staged rule runs without
    /// a bound column, however many stages the input takes. Planned from an
    /// empty bound set instead, each stage scans `h` (rule `hp`) and `g`
    /// (rule `h`), and the count grows by two per stage.
    #[test]
    fn logich_full_scans_do_not_grow_with_stages() {
        let e = engine(
            r#"
            h(0, 0, 0).
            h(0, X, 1) :- g(0, X).
            hp(Y, D + 1) :- h(_, Y, D'), (D + 1) > D', h(_, X, D), g(X, Y).
            h(X, Y, D + 1) :- g(X, Y), h(_, X, D), not hp(Y, D + 1).
            "#,
        );
        let full_scans = |nodes: i64| {
            let mut edb = Database::new();
            for a in 0..nodes - 1 {
                edb.insert(sym("g"), tup(&format!("{a}, {}", a + 1)));
                edb.insert(sym("g"), tup(&format!("{}, {a}", a + 1)));
            }
            let out = e.run(&edb).unwrap();
            assert_eq!(out.len_of(sym("h")), nodes as usize);
            out.index_stats().full_scans
        };
        assert_eq!(full_scans(40), full_scans(10));
    }

    #[test]
    fn aggregates_over_recursion() {
        let e = engine(
            r#"
            p(Y, 1) :- e(1, Y).
            p(Y, D + 1) :- p(X, D), e(X, Y), D < 10.
            best(Y, min<D>) :- p(Y, D).
            "#,
        );
        let out = e.run(&db(&["e(1, 2)", "e(2, 3)", "e(1, 3)"])).unwrap();
        assert!(out.contains(sym("best"), &tup("3, 1")));
        assert!(out.contains(sym("best"), &tup("2, 1")));
    }

    #[test]
    fn function_symbols_build_lists() {
        // len_ok bounds recursion: only lists up to length 2 extended.
        let mut reg = BuiltinRegistry::standard();
        reg.register_pred(
            "len_ok",
            std::sync::Arc::new(|args: &[Term]| {
                fn len(t: &Term) -> usize {
                    match t {
                        Term::App(f, a) if f.as_str() == "cons" => 1 + len(&a[1]),
                        _ => 0,
                    }
                }
                Ok(len(&args[0]) < 3)
            }),
        );
        let prog = sensorlog_logic::parse_program(
            r#"
            path(Y, cons(Y, nil())) :- start(Y).
            path(Y, cons(Y, P)) :- path(X, P), e(X, Y), len_ok(P).
            "#,
        )
        .unwrap();
        let analysis = analyze(&prog, &reg).unwrap();
        let e = Engine::new(analysis, reg);
        let out = e.run(&db(&["start(1)", "e(1, 2)", "e(2, 3)"])).unwrap();
        assert!(out.len_of(sym("path")) >= 3);
    }

    #[test]
    fn runaway_recursion_hits_limit() {
        let e = engine(
            r#"
            p(f(X)) :- p(X).
            p(X) :- seed(X).
            "#,
        )
        .with_config(EvalConfig {
            max_iterations: 50,
            ..EvalConfig::default()
        });
        let err = e.run(&db(&["seed(0)"])).unwrap_err();
        assert!(matches!(err, EvalError::LimitExceeded { .. }));
    }

    #[test]
    fn effective_windows_propagate() {
        let e = engine(
            r#"
            .window a 100.
            .window b 200.
            q(X) :- a(X), b(X).
            r(X) :- q(X).
            "#,
        );
        let w = effective_windows(&e.analysis);
        assert_eq!(w.get(&sym("q")), Some(&200));
        assert_eq!(w.get(&sym("r")), Some(&200));
    }

    #[test]
    fn unwindowed_base_leaves_derived_unbounded() {
        let e = engine(
            r#"
            .window a 100.
            q(X) :- a(X), c(X).
            "#,
        );
        let w = effective_windows(&e.analysis);
        assert_eq!(w.get(&sym("q")), None);
    }

    #[test]
    fn empty_edb_empty_idb() {
        let e = engine("q(X) :- p(X).");
        let out = e.run(&Database::new()).unwrap();
        assert_eq!(out.len_of(sym("q")), 0);
    }
}
