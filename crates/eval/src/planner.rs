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
//! `DeltaPlans` is the same idea for the maintenance engines' delta pass:
//! which rules an update can fire, in which literal order, under which
//! staircase exclusions, is a function of the program, so it is compiled
//! when an engine is built and `DeltaPlans::for_each_delta` — the one
//! delta pass all three engines run — reads it per update.
//!
//! [`order_literals`]: sensorlog_logic::boundness::order_literals
//! [`probe_plan`]: sensorlog_logic::boundness::probe_plan
//! [`Relation::select`]: crate::relation::Relation::select

use crate::error::EvalError;
use crate::eval_body::{BodyEval, Inputs, TupleFilter};
use crate::incremental::UpdateKind;
use crate::relation::Database;
use sensorlog_logic::analyze::Analysis;
use sensorlog_logic::ast::{Literal, Rule};
use sensorlog_logic::boundness::{rule_signatures, RuleSignature};
use sensorlog_logic::builtin::BuiltinRegistry;
use sensorlog_logic::flat::FlatSubst;
use sensorlog_logic::intern::IdHashMap;
use sensorlog_logic::{Symbol, Tuple};
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

/// One relational body literal an update can pin, with what a delta on it
/// needs that the program fixes.
#[derive(Debug)]
struct Occurrence {
    /// Index of the rule in `program.rules`.
    rule: usize,
    literal: usize,
    negated: bool,
    /// The rule's literal order with this one pinned and nothing seeded.
    order: Vec<usize>,
    /// The staircase's exclusion lists (`incremental`'s module doc): the
    /// same-predicate literals later in the rule, which see the old state
    /// on an insert, and the earlier ones, which see the new state on a
    /// delete.
    later: Vec<usize>,
    earlier: Vec<usize>,
}

/// A program's delta plans: per predicate, its [`Occurrence`]s in rule,
/// then literal, order.
#[derive(Debug)]
pub(crate) struct DeltaPlans {
    by_pred: IdHashMap<Symbol, Vec<Occurrence>>,
}

impl DeltaPlans {
    /// Compile `analysis`'s program, registering on `db` every signature
    /// its evaluation orders probe ([`register_program_indexes`]) from the
    /// same pass over [`rule_signatures`] that yields the pinned orders.
    pub(crate) fn compile(analysis: &Analysis, db: &mut Database) -> DeltaPlans {
        let mut by_pred: IdHashMap<Symbol, Vec<Occurrence>> = IdHashMap::default();
        for (rule, r) in analysis.program.rules.iter().enumerate() {
            for sig in rule_signatures(r, &analysis.xy) {
                for (pred, cols) in probed(r, sig.plan) {
                    db.register_index(pred, &cols);
                }
                let Some(literal) = sig.pinned else {
                    continue;
                };
                let pred = r.body[literal].atom().expect("pins are relational").pred;
                let same_pred = r.body.iter().enumerate().filter_map(|(lj, l)| match l {
                    Literal::Pos(b) | Literal::Neg(b) if b.pred == pred => Some(lj),
                    _ => None,
                });
                by_pred.entry(pred).or_default().push(Occurrence {
                    rule,
                    literal,
                    negated: matches!(r.body[literal], Literal::Neg(_)),
                    order: sig.order,
                    later: same_pred.clone().filter(|&lj| lj > literal).collect(),
                    earlier: same_pred.filter(|&lj| lj < literal).collect(),
                });
            }
        }
        DeltaPlans { by_pred }
    }

    /// The delta pass of Sec. IV-B: for every occurrence of `pred` in
    /// `rules` (the program these plans were compiled from) — only the
    /// positive or only the negated ones when `negated` says so — pin it to
    /// `tuple` and hand `sink` each solution of the rest of the body over
    /// `db` under the staircase convention, as `(rule index, sign,
    /// substitution, inputs)`: sign `+1` for an insert at a positive
    /// occurrence or a delete at a negated one, `-1` otherwise. Returns the
    /// number of bodies evaluated.
    pub(crate) fn for_each_delta<'a>(
        &'a self,
        rules: &[Rule],
        db: &'a Database,
        reg: &'a BuiltinRegistry,
        (kind, pred, tuple): (UpdateKind, Symbol, &'a Tuple),
        negated: Option<bool>,
        mut sink: impl FnMut(usize, i64, FlatSubst, Inputs<'_>) -> Result<(), EvalError>,
    ) -> Result<u64, EvalError> {
        let mut body_evals = 0;
        for occ in self.by_pred.get(&pred).into_iter().flatten() {
            if negated.is_some_and(|n| n != occ.negated) {
                continue;
            }
            let rule = &rules[occ.rule];
            let (excluded, sign) = match (kind, occ.negated) {
                (UpdateKind::Insert, false) => (&occ.later, 1),
                (UpdateKind::Insert, true) => (&occ.later, -1),
                (UpdateKind::Delete, false) => (&occ.earlier, -1),
                (UpdateKind::Delete, true) => (&occ.earlier, 1),
            };
            let filter = TupleFilter {
                pred,
                tuple,
                literal_indexes: excluded,
            };
            let ev = BodyEval {
                db,
                reg,
                filter: (!excluded.is_empty()).then_some(filter),
            };
            body_evals += 1;
            ev.for_each(
                &rule.body,
                &occ.order,
                FlatSubst::new(),
                Some((occ.literal, tuple)),
                &mut |subst, inputs| sink(occ.rule, sign, subst, inputs),
            )?;
        }
        Ok(body_evals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// `bench::common`'s `LOGIC_H`, `LOGIC_J` and `JOIN2` rule for rule, a
    /// negation program and an aggregate one.
    const PROGRAMS: [(&str, &str); 5] = [
        (
            "logicH",
            "h(0, 0, 0).
             h(0, X, 1) :- g(0, X).
             hp(Y, D + 1) :- h(_, Y, D'), (D + 1) > D', h(_, X, D), g(X, Y).
             h(X, Y, D + 1) :- g(X, Y), h(_, X, D), not hp(Y, D + 1).",
        ),
        (
            "logicJ",
            "j(0, 0).
             j(X, 1) :- g(0, X).
             jp(Y, D + 1) :- j(Y, D'), (D + 1) > D', j(X, D), g(X, Y).
             j(Y, D + 1) :- g(X, Y), j(X, D), not jp(Y, D + 1).",
        ),
        ("join", "q(X, Y) :- r1(N1, X, K), r2(N2, Y, K)."),
        (
            "negation",
            r#"cov(L, T) :- veh("enemy", L, T), veh("friendly", F, T), dist(L, F) <= 8.
               uncov(L, T) :- not cov(L, T), veh("enemy", L, T)."#,
        ),
        // Group key on column 1: the regroup probes a non-prefix order.
        ("aggregate", "cnt(K, count<N>) :- r(N, K)."),
    ];

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
        let negation_facts = r#"veh("enemy", 1, 5). veh("friendly", 3, 5). veh("enemy", 40, 5).
            veh("enemy", 41, 6). veh("friendly", 44, 6). veh("friendly", 90, 6)."#;
        let facts = [
            links.as_str(),
            links.as_str(),
            readings.as_str(),
            negation_facts,
            "r(1, 7). r(2, 7). r(3, 8). r(4, 8). r(5, 9).",
        ];
        let reg = BuiltinRegistry::standard;
        for ((label, src), facts) in PROGRAMS.into_iter().zip(facts) {
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
                ($engine:path, $name:literal) => {
                    if let Ok(mut e) = $engine(analysis.clone(), reg()) {
                        for u in &stream {
                            e.apply(u.clone()).unwrap();
                        }
                        assert_only_planned_probes(label, $name, &e.db);
                    }
                };
            }
            drive!(IncrementalEngine::new, "incremental");
            drive!(IncrementalEngine::counting, "counting");
            drive!(RederiveEngine::new, "rederive");
        }
    }

    /// What `apply` reads is what a per-call plan would have been: for
    /// every program under `examples/programs/` and every one of
    /// [`PROGRAMS`], each relational body literal has one compiled
    /// occurrence, its order is `order_literals` pinned there, and what
    /// that order probes is what `register_program_indexes` registers.
    #[test]
    fn delta_plans_equal_the_per_call_plans() {
        use sensorlog_logic::boundness::{order_literals, probe_plan};

        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/programs");
        let mut sources: Vec<(String, String)> = std::fs::read_dir(dir)
            .unwrap()
            .map(|f| f.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "dl"))
            .map(|p| {
                (
                    p.display().to_string(),
                    std::fs::read_to_string(&p).unwrap(),
                )
            })
            .collect();
        assert!(sources.len() >= 6, "example programs not found in {dir}");
        sources.extend(PROGRAMS.map(|(label, src)| (label.to_string(), src.to_string())));
        for (label, src) in sources {
            let reg = BuiltinRegistry::standard();
            let analysis = analyze(&parse_program(&src).unwrap(), &reg).unwrap();
            let plans = DeltaPlans::compile(&analysis, &mut Database::new());
            let registered = program_signatures(&analysis);
            let rules = &analysis.program.rules;
            let mut compiled: Vec<(usize, usize)> = Vec::new();
            for (pred, occ) in
                (plans.by_pred.iter()).flat_map(|(p, occs)| occs.iter().map(move |o| (*p, o)))
            {
                let rule = &rules[occ.rule];
                let pin = Some(occ.literal);
                match &rule.body[occ.literal] {
                    Literal::Pos(a) => assert!(a.pred == pred && !occ.negated, "{label}"),
                    Literal::Neg(a) => assert!(a.pred == pred && occ.negated, "{label}"),
                    other => panic!("{label}: `{other}` is not relational"),
                }
                assert_eq!(occ.order, order_literals(&rule.body, pin, &[]), "{label}");
                for (p, cols) in probed(rule, probe_plan(&rule.body, &occ.order, pin, &[])) {
                    assert!(registered[&p].contains(&cols), "{label}: {p} on {cols:?}");
                }
                compiled.push((occ.rule, occ.literal));
            }
            compiled.sort_unstable();
            let relational: Vec<(usize, usize)> = (rules.iter().enumerate())
                .flat_map(|(ri, r)| {
                    let is_rel = |l: &Literal| matches!(l, Literal::Pos(_) | Literal::Neg(_));
                    (0..r.body.len())
                        .filter(move |&li| is_rel(&r.body[li]))
                        .map(move |li| (ri, li))
                })
                .collect();
            assert_eq!(compiled, relational, "{label}");
        }
    }
}
