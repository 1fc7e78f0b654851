//! Criterion microbenchmarks for the hot inner loops: unification/matching,
//! relation indexing, semi-naive fixpoint, incremental maintenance, and the
//! XY staged evaluator.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sensorlog_eval::relation::{Database, TupleMeta};
use sensorlog_eval::{Engine, IncrementalEngine, Update};
use sensorlog_logic::builtin::BuiltinRegistry;
use sensorlog_logic::unify::{match_term, Subst};
use sensorlog_logic::{Symbol, Term, Tuple};

fn bench_matching(c: &mut Criterion) {
    let pattern = Term::app(
        "f",
        vec![
            Term::var("X"),
            Term::app("g", vec![Term::var("Y"), Term::Int(3)]),
            Term::var("X"),
        ],
    );
    let value = Term::app(
        "f",
        vec![
            Term::Int(7),
            Term::app("g", vec![Term::str("abc"), Term::Int(3)]),
            Term::Int(7),
        ],
    );
    c.bench_function("match_term nested", |b| {
        b.iter(|| {
            let mut s = Subst::new();
            black_box(match_term(black_box(&pattern), black_box(&value), &mut s))
        })
    });
}

fn bench_relation_select(c: &mut Criterion) {
    let mut db = Database::new();
    let p = Symbol::intern("bench_rel");
    for i in 0..10_000i64 {
        db.relation_mut(p).insert(
            Tuple::new(vec![Term::Int(i % 100), Term::Int(i)]),
            TupleMeta::default(),
        );
    }
    let rel = db.relation(p).unwrap();
    let key = sensorlog_logic::intern::intern_term(&Term::Int(7)).unwrap();
    c.bench_function("relation select indexed (10k tuples)", |b| {
        b.iter(|| {
            let mut out = Vec::new();
            rel.select(&[0], &[black_box(key)], &mut out);
            black_box(out.len())
        })
    });
}

fn tc_edb(n: usize) -> Database {
    let mut db = Database::new();
    let e = Symbol::intern("e");
    for i in 0..n as i64 {
        db.insert(e, Tuple::new(vec![Term::Int(i), Term::Int(i + 1)]));
    }
    db
}

fn bench_seminaive(c: &mut Criterion) {
    let engine = Engine::from_source(
        r#"
        t(X, Y) :- e(X, Y).
        t(X, Y) :- t(X, Z), e(Z, Y).
        "#,
        BuiltinRegistry::standard(),
    )
    .unwrap();
    let edb = tc_edb(60);
    c.bench_function("seminaive TC chain-60", |b| {
        b.iter(|| black_box(engine.run(black_box(&edb)).unwrap().total_tuples()))
    });
}

fn bench_incremental(c: &mut Criterion) {
    c.bench_function("incremental insert+delete (uncov)", |b| {
        b.iter_with_setup(
            || {
                let mut e = IncrementalEngine::from_source(
                    r#"
                    cov(V) :- sight(V), supp(V).
                    alert(V) :- not cov(V), sight(V).
                    "#,
                    BuiltinRegistry::standard(),
                )
                .unwrap();
                for v in 0..100i64 {
                    e.apply(Update::insert(
                        Symbol::intern("sight"),
                        Tuple::new(vec![Term::Int(v)]),
                        v as u64,
                    ))
                    .unwrap();
                }
                e
            },
            |mut e| {
                let t = Tuple::new(vec![Term::Int(50)]);
                e.apply(Update::insert(Symbol::intern("supp"), t.clone(), 1000))
                    .unwrap();
                e.apply(Update::delete(Symbol::intern("supp"), t, 1001))
                    .unwrap();
                black_box(e.db.len_of(Symbol::intern("alert")))
            },
        )
    });
}

fn bench_xy_eval(c: &mut Criterion) {
    let engine = Engine::from_source(
        r#"
        h(0, 0, 0).
        h(0, X, 1) :- g(0, X).
        hp(Y, D + 1) :- h(_, Y, D'), (D + 1) > D', h(_, X, D), g(X, Y).
        h(X, Y, D + 1) :- g(X, Y), h(_, X, D), not hp(Y, D + 1).
        "#,
        BuiltinRegistry::standard(),
    )
    .unwrap();
    // Ring of 30 nodes.
    let mut db = Database::new();
    let g = Symbol::intern("g");
    for i in 0..30i64 {
        let j = (i + 1) % 30;
        db.insert(g, Tuple::new(vec![Term::Int(i), Term::Int(j)]));
        db.insert(g, Tuple::new(vec![Term::Int(j), Term::Int(i)]));
    }
    c.bench_function("xy staged eval logicH ring-30", |b| {
        b.iter(|| black_box(engine.run(black_box(&db)).unwrap().total_tuples()))
    });
}

criterion_group!(
    benches,
    bench_matching,
    bench_relation_select,
    bench_seminaive,
    bench_incremental,
    bench_xy_eval
);
criterion_main!(benches);
