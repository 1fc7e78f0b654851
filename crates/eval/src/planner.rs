//! Static probe planning: which index signature each body literal probes.
//!
//! [`order_literals`] fixes the literal evaluation order; [`probe_plan`]
//! replays that order *statically*, tracking which variables are bound at
//! each step, and derives for every positive literal the set of argument
//! positions that will be ground when the literal is probed — its
//! **bound-position signature**. The signature is what [`Relation::select`]
//! keys its persistent indexes on, so planning and probing agree by
//! construction: the dynamic ground-column set computed per substitution is
//! exactly the static bound set whenever the rule is safe (matching a
//! positive atom binds all of its variables; seeds and pins bind theirs).
//!
//! [`program_signatures`] enumerates the signatures a program can probe —
//! every [`rule_signatures`] variant of every rule: the unpinned order, each
//! pinned variant the semi-naive and incremental engines use, and for the
//! staged rules of an XY component the order seeded with the stage variable
//! that `Engine::eval_xy` runs — so engines register them all up front and
//! every probe lands on a maintained index instead of a scan. The two
//! engines that also evaluate a rule from its head — a rederivation check
//! seeded with the casualty, an aggregate group recomputed from its key —
//! add those plans with [`register_head_seeded_indexes`].
//!
//! [`order_literals`]: sensorlog_logic::boundness::order_literals
//! [`probe_plan`]: sensorlog_logic::boundness::probe_plan
//! [`Relation::select`]: crate::relation::Relation::select

use crate::relation::Database;
use sensorlog_logic::analyze::Analysis;
use sensorlog_logic::ast::{Literal, Rule};
use sensorlog_logic::boundness::{rule_signatures, RuleSignature};
use sensorlog_logic::Symbol;
use std::collections::{BTreeMap, BTreeSet};

/// The non-empty probe column sets of `rule`'s positive literals under one
/// evaluation order's `plan`.
fn probed<'a>(
    rule: &'a Rule,
    plan: Vec<Vec<usize>>,
) -> impl Iterator<Item = (Symbol, Vec<usize>)> + 'a {
    rule.body
        .iter()
        .zip(plan)
        .filter_map(|(lit, cols)| match lit {
            Literal::Pos(a) if !cols.is_empty() => Some((a.pred, cols)),
            _ => None,
        })
}

/// Every probe signature the engines can hit for the analyzed program: the
/// non-empty probe column sets of positive literals across the
/// [`rule_signatures`] of every rule.
pub fn program_signatures(analysis: &Analysis) -> BTreeMap<Symbol, BTreeSet<Vec<usize>>> {
    let mut out: BTreeMap<Symbol, BTreeSet<Vec<usize>>> = BTreeMap::new();
    for rule in &analysis.program.rules {
        for sig in rule_signatures(rule, &analysis.xy) {
            for (pred, cols) in probed(rule, sig.plan) {
                out.entry(pred).or_default().insert(cols);
            }
        }
    }
    out
}

/// Register every signature from [`program_signatures`] on `db`, so probes
/// land on maintained indexes from the first iteration.
pub fn register_program_indexes(db: &mut Database, analysis: &Analysis) {
    for (pred, sigs) in program_signatures(analysis) {
        for cols in sigs {
            db.register_index(pred, &cols);
        }
    }
}

/// Register what each of `rules` probes when its body is evaluated unpinned
/// from a seed binding the head's variables: matching a ground tuple (a
/// rederivation casualty, an aggregate group key) against the head binds
/// exactly those.
pub fn register_head_seeded_indexes<'a>(db: &mut Database, rules: impl Iterator<Item = &'a Rule>) {
    for rule in rules {
        let sig = RuleSignature::new(rule, None, rule.head.vars());
        for (pred, cols) in probed(rule, sig.plan) {
            db.register_index(pred, &cols);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensorlog_logic::builtin::BuiltinRegistry;
    use sensorlog_logic::{analyze, parse_program};

    #[test]
    fn program_signatures_cover_pinned_variants() {
        let prog = parse_program("t(X, Y) :- e(X, Y).\nt(X, Y) :- t(X, Z), e(Z, Y).").unwrap();
        let analysis = analyze(&prog, &BuiltinRegistry::standard()).unwrap();
        let sigs = program_signatures(&analysis);
        let e = sigs.get(&Symbol::intern("e")).unwrap();
        // Unpinned: e probed on Z (col 0). Pinned on e: t probed on Z.
        assert!(e.contains(&vec![0]));
        let t = sigs.get(&Symbol::intern("t")).unwrap();
        assert!(t.contains(&vec![1]), "t probed on Z when e is the delta");
    }

    fn assert_only_planned_probes(label: &str, engine: &str, db: &Database) {
        let stats = db.index_stats();
        assert_eq!(
            stats.scans, 0,
            "{label}/{engine}: a keyed probe missed every registered order"
        );
        let registered = db
            .preds()
            .any(|p| !db.relation(p).unwrap().registered_indexes().is_empty());
        assert!(
            stats.hits > 0 || !registered,
            "{label}/{engine}: orders were registered and none was probed"
        );
    }

    /// The gate on "what an engine evaluates, it registers": every engine
    /// runs every program it accepts over an insert-then-delete stream that
    /// rederives / regroups each rule, and no keyed probe may fall back to
    /// a filtered scan. An evaluation order added without its registration
    /// fails here (named in `ci.sh`).
    #[test]
    fn engines_probe_only_planned_signatures() {
        use crate::counting::CountingEngine;
        use crate::rederive::RederiveEngine;
        use crate::{Engine, IncrementalEngine, Update};
        use sensorlog_logic::{parse_facts, Tuple};

        let links: String = (0..6)
            .map(|i| format!("g({i}, {j}). g({j}, {i}). ", j = i + 1))
            .collect();
        let readings: String = (0..8)
            .map(|i| {
                format!(
                    "r1({i}, {}, {k}). r2({i}, {}, {k}). ",
                    10 + i,
                    20 + i,
                    k = i % 3
                )
            })
            .collect();
        let cases = [
            (
                "logicH",
                "h(0, 0, 0).
                 h(0, X, 1) :- g(0, X).
                 hp(Y, D + 1) :- h(_, Y, D'), (D + 1) > D', h(_, X, D), g(X, Y).
                 h(X, Y, D + 1) :- g(X, Y), h(_, X, D), not hp(Y, D + 1).",
                links.as_str(),
            ),
            (
                "logicJ",
                "j(0, 0).
                 j(X, 1) :- g(0, X).
                 jp(Y, D + 1) :- j(Y, D'), (D + 1) > D', j(X, D), g(X, Y).
                 j(Y, D + 1) :- g(X, Y), j(X, D), not jp(Y, D + 1).",
                links.as_str(),
            ),
            (
                "join",
                "q(X, Y) :- r1(N1, X, K), r2(N2, Y, K).",
                readings.as_str(),
            ),
            (
                "negation",
                r#"cov(L, T) :- veh("enemy", L, T), veh("friendly", F, T), dist(L, F) <= 8.
                   uncov(L, T) :- not cov(L, T), veh("enemy", L, T)."#,
                r#"veh("enemy", 1, 5). veh("friendly", 3, 5). veh("enemy", 40, 5).
                   veh("enemy", 41, 6). veh("friendly", 44, 6). veh("friendly", 90, 6)."#,
            ),
            // Group key on column 1: the regroup probes a non-prefix order.
            (
                "aggregate",
                "cnt(K, count<N>) :- r(N, K).",
                "r(1, 7). r(2, 7). r(3, 8). r(4, 8). r(5, 9).",
            ),
        ];
        let reg = BuiltinRegistry::standard;
        for (label, src, facts) in cases {
            let analysis = analyze(&parse_program(src).unwrap(), &reg()).unwrap();
            let facts: Vec<(Symbol, Tuple)> = parse_facts(facts)
                .unwrap()
                .into_iter()
                .map(|(p, args)| (p, Tuple::new(args)))
                .collect();

            let mut edb = Database::new();
            for (p, t) in &facts {
                edb.insert(*p, t.clone());
            }
            let out = Engine::new(analysis.clone(), reg()).run(&edb).unwrap();
            assert_only_planned_probes(label, "batch", &out);

            let inserts = facts.iter().map(|(p, t)| Update::insert(*p, t.clone(), 1));
            let deletes = facts.iter().map(|(p, t)| Update::delete(*p, t.clone(), 2));
            let stream: Vec<Update> = inserts.chain(deletes).collect();
            // Each maintenance engine that accepts the program.
            macro_rules! drive {
                ($engine:ident, $name:literal) => {
                    if let Ok(mut e) = $engine::new(analysis.clone(), reg()) {
                        for u in &stream {
                            e.apply(u.clone()).unwrap();
                        }
                        assert_only_planned_probes(label, $name, &e.db);
                    }
                };
            }
            drive!(IncrementalEngine, "incremental");
            drive!(CountingEngine, "counting");
            drive!(RederiveEngine, "rederive");
        }
    }
}
