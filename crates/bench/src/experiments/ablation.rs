//! Fig. 11 (maintenance-strategy ablation: set-of-derivations vs counting
//! vs delete-rederive — the three options of Sec. IV-A) and Fig. 12
//! (magic-set transformation ablation, Sec. V).

use crate::common::sym;
use crate::table::{f2, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sensorlog_eval::rederive::RederiveEngine;
use sensorlog_eval::relation::Database;
use sensorlog_eval::{Engine, IncrementalEngine, Update};
use sensorlog_logic::builtin::BuiltinRegistry;
use sensorlog_logic::magic::{magic_transform, Query};
use sensorlog_logic::{analyze, parse_program, Atom, Term, Tuple};
use std::time::Instant;

/// Coverage by *any* suppressor in the epoch group: cov tuples accumulate
/// one derivation per suppressor, exposing the space gap between
/// set-of-derivations and counting (Sec. IV-A: "space overhead … tolerable
/// if tuples have only a few derivations").
const UNCOV: &str = r#"
    cov(V, K) :- sight(V, K), supp(S, K).
    alert(V, K) :- not cov(V, K), sight(V, K).
"#;

fn tup2(a: i64, b: i64) -> Tuple {
    Tuple::new(vec![Term::Int(a), Term::Int(b)])
}

/// The mixed workload: n nodes sight over `epochs` epochs; suppressors come
/// and go. Returns (updates, #deletes).
fn mixed_updates(n: i64, epochs: i64, seed: u64) -> (Vec<Update>, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    let mut deletes = 0;
    let mut ts = 0u64;
    for k in 1..=epochs {
        for v in 0..n {
            ts += 1;
            out.push(Update::insert(sym("sight"), tup2(v, k), ts));
            if v % 3 == 0 {
                ts += 1;
                out.push(Update::insert(sym("supp"), tup2(v, k), ts));
                // The last epoch loses *all* its suppressors (so alerts
                // actually fire); earlier epochs lose half.
                if k == epochs || rng.gen::<f64>() < 0.5 {
                    ts += 1;
                    out.push(Update::delete(sym("supp"), tup2(v, k), ts + 1000));
                    deletes += 1;
                }
            }
        }
    }
    out.sort_by_key(|u| u.ts);
    (out, deletes)
}

/// Fig. 11: body-evaluation work and state size per maintenance strategy
/// on the negation query (the paper's qualitative comparison of Sec. IV-A,
/// quantified).
pub fn fig11() -> Table {
    let mut t = Table::new(
        "fig11",
        "maintenance ablation: work (body evals) and state per strategy",
        &["strategy", "body evals", "state items", "final alerts"],
    );
    let (updates, _) = mixed_updates(60, 4, 3);

    // Set of derivations (the paper's choice).
    let mut sod = IncrementalEngine::from_source(UNCOV, BuiltinRegistry::standard()).unwrap();
    for u in updates.clone() {
        sod.apply(u).unwrap();
    }
    t.row(vec![
        "set-of-derivations".into(),
        sod.stats.body_evals.to_string(),
        sod.derivation_count().to_string(),
        sod.db.len_of(sym("alert")).to_string(),
    ]);

    // Counting: the same engine with the derivation projected out of the
    // ledger's key, so a state item is one count per tuple.
    let reg = BuiltinRegistry::standard();
    let analysis = analyze(&parse_program(UNCOV).unwrap(), &reg).unwrap();
    let mut cnt = IncrementalEngine::counting(analysis, reg).unwrap();
    for u in updates.clone() {
        cnt.apply(u).unwrap();
    }
    t.row(vec![
        "counting".into(),
        cnt.stats.body_evals.to_string(),
        cnt.derivation_count().to_string(),
        cnt.db.len_of(sym("alert")).to_string(),
    ]);

    // Delete-rederive.
    let mut dred = RederiveEngine::from_source(UNCOV, BuiltinRegistry::standard()).unwrap();
    for u in updates.clone() {
        dred.apply(u).unwrap();
    }
    t.row(vec![
        "delete-rederive".into(),
        dred.body_evals.to_string(),
        dred.state_size().to_string(),
        dred.db.len_of(sym("alert")).to_string(),
    ]);

    // All three must agree on the final result.
    let a = sod.db.sorted(sym("alert"));
    assert_eq!(a, cnt.db.sorted(sym("alert")), "counting diverged");
    assert_eq!(a, dred.db.sorted(sym("alert")), "rederive diverged");
    t
}

/// Fig. 12: magic sets — evaluation cost for a bound reachability query
/// with and without the transformation.
pub fn fig12() -> Table {
    let mut t = Table::new(
        "fig12",
        "magic-set ablation: t(a, Y)? over random graphs",
        &[
            "edges",
            "full tuples",
            "full ms",
            "magic tuples",
            "magic ms",
            "answers",
        ],
    );
    const TC: &str = r#"
        t(X, Y) :- e(X, Y).
        t(X, Y) :- e(X, Z), t(Z, Y).
    "#;
    for n_edges in [500usize, 2_000] {
        let mut rng = StdRng::seed_from_u64(8);
        // Forward DAG: i -> i+1..i+3 — all-pairs reachability is O(n²),
        // while the query constant attaches near the end so its reachable
        // cone is small (where magic pays off).
        let n_nodes = (n_edges / 2).max(20) as i64;
        let mut edb = Database::new();
        for _ in 0..n_edges {
            let a = rng.gen_range(0..n_nodes - 1);
            let b = (a + rng.gen_range(1..=3)).min(n_nodes - 1);
            edb.insert(sym("e"), tup2(a, b));
        }
        edb.insert(
            sym("e"),
            Tuple::new(vec![Term::atom("a"), Term::Int(n_nodes - 10)]),
        );

        let prog = parse_program(TC).unwrap();
        let reg = BuiltinRegistry::standard();

        // Full evaluation.
        let analysis = analyze(&prog, &reg).unwrap();
        let engine = Engine::new(analysis, reg.clone());
        let t0 = Instant::now();
        let full = engine.run(&edb).unwrap();
        let full_ms = t0.elapsed().as_secs_f64() * 1000.0;
        let full_tuples = full.len_of(sym("t"));
        let answers = full
            .sorted(sym("t"))
            .into_iter()
            .filter(|tp| tp.get(0) == Term::atom("a"))
            .count();

        // Magic evaluation.
        let q = Query {
            atom: Atom::new("t", vec![Term::atom("a"), Term::var("Y")]),
        };
        let magic = magic_transform(&prog, &q);
        assert!(magic.applied);
        let mut magic_edb = edb.clone();
        for (p, args) in &magic.seeds {
            magic_edb.insert(*p, Tuple::new(args.clone()));
        }
        let m_analysis = analyze(&magic.program, &reg).unwrap();
        let m_engine = Engine::new(m_analysis, reg.clone());
        let t0 = Instant::now();
        let magical = m_engine.run(&magic_edb).unwrap();
        let magic_ms = t0.elapsed().as_secs_f64() * 1000.0;
        let magic_tuples: usize = magical
            .preds()
            .filter(|p| p.as_str().starts_with("t__") || p.as_str().starts_with("m_t__"))
            .map(|p| magical.len_of(p))
            .sum();
        // The adorned answer predicate also holds non-query t facts used
        // during evaluation; the query answers are those with X = a.
        let magic_answers = magical
            .sorted(magic.answer_pred)
            .into_iter()
            .filter(|tp| tp.get(0) == Term::atom("a"))
            .count();
        assert_eq!(magic_answers, answers, "magic must preserve the answers");

        t.row(vec![
            n_edges.to_string(),
            full_tuples.to_string(),
            f2(full_ms),
            magic_tuples.to_string(),
            f2(magic_ms),
            answers.to_string(),
        ]);
    }
    t
}
