//! Fig. 11 (maintenance-strategy ablation: set-of-derivations vs counting
//! vs delete-rederive — the three options of Sec. IV-A) and Fig. 12
//! (magic-set transformation ablation, Sec. V).

use crate::common::{sym, timed};
use crate::report::Report;
use crate::row;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sensorlog_eval::rederive::RederiveEngine;
use sensorlog_eval::relation::Database;
use sensorlog_eval::{Engine, IncrementalEngine, Update};
use sensorlog_logic::builtin::BuiltinRegistry;
use sensorlog_logic::magic::{magic_transform, Query};
use sensorlog_logic::{analyze, parse_program, Atom, Term, Tuple};

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
/// and go.
fn mixed_updates(n: i64, epochs: i64, seed: u64) -> Vec<Update> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
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
                }
            }
        }
    }
    out.sort_by_key(|u| u.ts);
    out
}

/// Fig. 11: body-evaluation work and state size per maintenance strategy
/// on the negation query (the paper's qualitative comparison of Sec. IV-A,
/// quantified). All three engines must end on the same alerts.
pub fn fig11(_quick: bool, r: &mut Report) {
    let updates = mixed_updates(60, 4, 3);
    let reg = BuiltinRegistry::standard();

    // Set of derivations (the paper's choice).
    let mut sod = IncrementalEngine::from_source(UNCOV, reg.clone()).expect("uncov compiles");
    // Counting: the same engine with the derivation projected out of the
    // ledger's key, so a state item is one count per tuple.
    let analysis = analyze(&parse_program(UNCOV).expect("uncov parses"), &reg);
    let mut cnt = IncrementalEngine::counting(analysis.expect("uncov analyzes"), reg.clone())
        .expect("uncov compiles");
    let mut dred = RederiveEngine::from_source(UNCOV, reg).expect("uncov compiles");
    for u in updates {
        sod.apply(u.clone()).expect("update applies");
        cnt.apply(u.clone()).expect("update applies");
        dred.apply(u).expect("update applies");
    }
    let alert = sym("alert");
    for (strategy, evals, state, db) in [
        (
            "set-of-derivations",
            sod.stats.body_evals,
            sod.derivation_count(),
            &sod.db,
        ),
        (
            "counting",
            cnt.stats.body_evals,
            cnt.derivation_count(),
            &cnt.db,
        ),
        (
            "delete-rederive",
            dred.body_evals,
            dred.state_size(),
            &dred.db,
        ),
    ] {
        r.row(row![
            "strategy" => strategy, "body_evals" => evals, "state_items" => state,
            "final_alerts" => db.len_of(alert),
        ]);
    }
    let agrees = |db: &Database| db.sorted(alert) == sod.db.sorted(alert);
    r.gate(
        "counting_agrees_with_set_of_derivations",
        true,
        agrees(&cnt.db),
    );
    r.gate(
        "rederive_agrees_with_set_of_derivations",
        true,
        agrees(&dred.db),
    );
}

/// Fig. 12: magic sets — evaluation cost for a bound reachability query
/// with and without the transformation, whose answers must agree.
pub fn fig12(_quick: bool, r: &mut Report) {
    const TC: &str = r#"
        t(X, Y) :- e(X, Y).
        t(X, Y) :- e(X, Z), t(Z, Y).
    "#;
    let (mut applied, mut agree) = (0, 0);
    let sizes = [500usize, 2_000];
    for n_edges in sizes {
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

        let prog = parse_program(TC).expect("tc parses");
        let reg = BuiltinRegistry::standard();

        // Full evaluation.
        let analysis = analyze(&prog, &reg).expect("tc analyzes");
        let engine = Engine::new(analysis, reg.clone());
        let (full, full_s) = timed(|| engine.run(&edb).expect("tc evaluates"));
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
        applied += usize::from(magic.applied);
        let mut magic_edb = edb.clone();
        for (p, args) in &magic.seeds {
            magic_edb.insert(*p, Tuple::new(args.clone()));
        }
        let m_analysis = analyze(&magic.program, &reg).expect("magic program analyzes");
        let m_engine = Engine::new(m_analysis, reg.clone());
        let (magical, magic_s) = timed(|| m_engine.run(&magic_edb).expect("magic evaluates"));
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
        agree += usize::from(magic_answers == answers);
        r.row(row![
            "edges" => n_edges, "full_tuples" => full_tuples, "full_ms" => full_s * 1e3,
            "magic_tuples" => magic_tuples, "magic_ms" => magic_s * 1e3, "answers" => answers,
        ]);
    }
    r.gate("magic_applied", sizes.len(), applied);
    r.gate("magic_answers_equal_full", sizes.len(), agree);
}
