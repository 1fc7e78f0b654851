//! Parity regression between the shared boundness analysis
//! (`sensorlog_logic::boundness`) and the eval-side consumers of it. A
//! divergence — a planner-local reordering tweak, a changed pin set, a seed
//! the evaluator binds but the planner does not model — would silently
//! desynchronize the static analyzer's lints and the registered indexes
//! from what the engines actually execute. These tests pin the contract on
//! the reference programs: `rule_signatures` enumerates exactly the
//! variants the engines evaluate (unpinned, every pin, and the stage-seeded
//! order of staged XY rules), `program_signatures` registers exactly the
//! probe columns of those signatures, and a batch run probes nothing else.

use sensorlog_eval::planner::program_signatures;
use sensorlog_eval::{Database, Engine};
use sensorlog_logic::absint::anchor_vars;
use sensorlog_logic::ast::Literal;
use sensorlog_logic::boundness::{rule_bound_vars, rule_signatures};
use sensorlog_logic::parser::parse_program;
use sensorlog_logic::{analyze, Analysis, BuiltinRegistry, Symbol, Term, Tuple};
use std::collections::{BTreeMap, BTreeSet};

const LOGIC_H: &str = r#"
    .output h.
    h(0, 0, 0).
    h(0, X, 1) :- g(0, X).
    hp(Y, D + 1) :- h(_, Y, D'), (D + 1) > D', h(_, X, D), g(X, Y).
    h(X, Y, D + 1) :- g(X, Y), h(_, X, D), not hp(Y, D + 1).
"#;

const LOGIC_J: &str = r#"
    .output j.
    j(0, 0).
    j(X, 1) :- g(0, X).
    jp(Y, D + 1) :- j(Y, D'), (D + 1) > D', j(X, D), g(X, Y).
    j(Y, D + 1) :- g(X, Y), j(X, D), not jp(Y, D + 1).
"#;

fn analysis_of(src: &str) -> Analysis {
    analyze(&parse_program(src).unwrap(), &BuiltinRegistry::standard()).unwrap()
}

/// The shared analysis enumerates the unpinned order, one pin per
/// relational literal, and — for the staged rules only — the order seeded
/// with the head's stage variable, which opens at the literal that variable
/// keys and leaves no positive literal without a bound column.
#[test]
fn signatures_cover_every_engine_variant() {
    // (order, plan) of the stage-seeded variant of rules #2 and #3.
    type Seeded = (Vec<usize>, Vec<Vec<usize>>);
    let expect: [(&str, &str, [Seeded; 2]); 2] = [
        (
            "logicH",
            LOGIC_H,
            [
                (vec![2, 3, 0, 1], vec![vec![1], vec![], vec![2], vec![0]]),
                (vec![1, 0, 2], vec![vec![0], vec![2], vec![]]),
            ],
        ),
        (
            "logicJ",
            LOGIC_J,
            [
                (vec![2, 3, 0, 1], vec![vec![0], vec![], vec![1], vec![0]]),
                (vec![1, 0, 2], vec![vec![0], vec![1], vec![]]),
            ],
        ),
    ];
    let d = Symbol::intern("D");
    for (label, src, seeded) in expect {
        let a = analysis_of(src);
        for (ri, rule) in a.program.rules.iter().enumerate() {
            let sigs = rule_signatures(rule, &a.xy);
            let rel = rule
                .body
                .iter()
                .filter(|l| matches!(l, Literal::Pos(_) | Literal::Neg(_)))
                .count();
            let staged = ri >= 2;
            assert_eq!(
                sigs.len(),
                rel + 1 + staged as usize,
                "{label} rule #{ri}: wrong signature count"
            );
            assert_eq!(
                (sigs[0].pinned, sigs[0].seed.is_empty()),
                (None, true),
                "{label} rule #{ri}: first is unpinned and unseeded"
            );
            let n_seeded = sigs.iter().filter(|s| !s.seed.is_empty()).count();
            assert_eq!(n_seeded, staged as usize, "{label} rule #{ri}");
            if staged {
                let sig = sigs.last().unwrap();
                assert_eq!((sig.pinned, &sig.seed), (None, &vec![d]));
                let (order, plan) = &seeded[ri - 2];
                assert_eq!(&sig.order, order, "{label} rule #{ri}: seeded order");
                assert_eq!(&sig.plan, plan, "{label} rule #{ri}: seeded plan");
            }
        }
    }
}

/// The frontier-width abstract interpreter counts recursive derivations
/// per valuation of a rule's *anchor* variables — the variables bound
/// outside the rule's own SCC. For that count to describe anything the
/// engines actually enumerate, every anchor variable must be one the
/// evaluator's boundness pass proves bound. A divergence here would mean
/// the static bound is built over variables the planner never grounds.
#[test]
fn frontier_anchors_are_planner_bound() {
    for (label, src) in [("logicH", LOGIC_H), ("logicJ", LOGIC_J)] {
        let prog = parse_program(src).unwrap();
        // Recursive SCCs: a pred is in its own recursive component when
        // some rule for it mentions another pred of the component (here,
        // both reference programs have one SCC: the two derived preds).
        let idb = prog.idb_preds();
        for (ri, rule) in prog.rules.iter().enumerate() {
            if rule.body.is_empty() {
                continue;
            }
            let anchors = anchor_vars(rule, &idb);
            let bound = rule_bound_vars(rule);
            assert!(
                anchors.is_subset(&bound),
                "{label} rule #{ri}: anchor vars {:?} not all planner-bound ({:?})",
                anchors,
                bound
            );
        }
    }
}

/// `program_signatures` (what the engines register as indexes) is exactly
/// the set of non-empty probe column sets of positive literals across the
/// shared per-rule signatures — the stage-seeded ones included.
fn assert_registered(label: &str, src: &str, want: &[(&str, &[&[usize]])]) {
    let a = analysis_of(src);
    let mut expected: BTreeMap<Symbol, BTreeSet<Vec<usize>>> = BTreeMap::new();
    for rule in &a.program.rules {
        for sig in rule_signatures(rule, &a.xy) {
            for (i, cols) in sig.plan.iter().enumerate() {
                if cols.is_empty() {
                    continue;
                }
                if let Literal::Pos(a) = &rule.body[i] {
                    expected.entry(a.pred).or_default().insert(cols.clone());
                }
            }
        }
    }
    let got = program_signatures(&a);
    assert_eq!(got, expected, "{label}: registered index set diverged");
    let want: BTreeMap<Symbol, BTreeSet<Vec<usize>>> = want
        .iter()
        .map(|(p, sets)| (Symbol::intern(p), sets.iter().map(|c| c.to_vec()).collect()))
        .collect();
    assert_eq!(got, want, "{label}: registered columns");
}

#[test]
fn registered_indexes_match_shared_plans() {
    // `h[2]`, `g[0]`, `h[1]` are what the stage loop probes.
    assert_registered(
        "logicH",
        LOGIC_H,
        &[("g", &[&[0], &[1]]), ("h", &[&[1], &[2], &[1, 2]])],
    );
    assert_registered(
        "logicJ",
        LOGIC_J,
        &[("g", &[&[0], &[1]]), ("j", &[&[0], &[1], &[0, 1]])],
    );
}

/// What the planner registers is what the stage loop probes: a batch run
/// serves every keyed probe from an ordered map — none by a filtered scan
/// of an unplanned signature — and registers nothing the planner did not
/// name.
#[test]
fn batch_run_probes_only_registered_indexes() {
    let mut edb = Database::new();
    for i in 0..8i64 {
        for (a, b) in [(i, i + 1), (i + 1, i)] {
            edb.insert(
                Symbol::intern("g"),
                Tuple::new(vec![Term::Int(a), Term::Int(b)]),
            );
        }
    }
    for (label, src) in [("logicH", LOGIC_H), ("logicJ", LOGIC_J)] {
        let engine = Engine::from_source(src, BuiltinRegistry::standard()).unwrap();
        let out = engine.run(&edb).unwrap();
        let stats = out.index_stats();
        assert!(stats.hits > 0, "{label}: no indexed probe at all");
        assert_eq!(
            stats.scans, 0,
            "{label}: a probe missed the planned indexes"
        );
        let planned = program_signatures(&engine.analysis);
        for pred in out.preds() {
            let rel = out.relation(pred).unwrap();
            let registered: BTreeSet<Vec<usize>> = rel.registered_indexes().into_iter().collect();
            assert_eq!(
                registered,
                planned.get(&pred).cloned().unwrap_or_default(),
                "{label}: {pred} holds a signature the planner did not register"
            );
        }
    }
}
