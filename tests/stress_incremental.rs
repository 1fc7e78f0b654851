//! Seed-sweep stress tests for the incremental engines against the batch
//! reference — broader than the proptest properties (hundreds of fixed
//! seeds, portable xorshift so every platform replays the same cases).
//! Kept from the root-cause harness for the cross-process seed flake:
//! these sweeps established the *centralized* engines were deterministic,
//! narrowing the fault to the distributed layer's iteration order.
//!
//! Every seed ends by retracting what is still live: an engine that ran a
//! stream and gave it all back must hold no tuple and no bookkeeping.

use sensorlog::eval::rederive::RederiveEngine;
use sensorlog::eval::LedgerKey;
use sensorlog::prelude::*;
use std::collections::BTreeSet;

fn sym(s: &str) -> Symbol {
    Symbol::intern(s)
}

fn tuple2(a: i64, b: i64) -> Tuple {
    Tuple::new(vec![Term::Int(a), Term::Int(b)])
}

const TC: &str = r#"
    t(X, Y) :- e(X, Y).
    t(X, Y) :- t(X, Z), e(Z, Y).
"#;

/// Portable xorshift64 (seed-stable across platforms and std versions).
struct R(u64);

impl R {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

const SEEDS: std::ops::Range<u64> = 1..150;

#[test]
fn stress_incremental_tc() {
    for seed in SEEDS {
        let mut rng = R(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
        let n_ops = 1 + (rng.next() % 30) as usize;
        let mut inc = IncrementalEngine::from_source(TC, BuiltinRegistry::standard()).unwrap();
        let mut dred = RederiveEngine::from_source(TC, BuiltinRegistry::standard()).unwrap();
        let mut live: BTreeSet<(i64, i64)> = BTreeSet::new();
        let mut ops_log = Vec::new();
        for i in 0..n_ops {
            let insert = rng.next().is_multiple_of(2);
            let a = (rng.next() % 6) as i64;
            let d = 1 + (rng.next() % 5) as i64;
            let b = a + d; // DAG: locally non-recursive instance class
            ops_log.push((insert, a, b));
            let u = if insert {
                live.insert((a, b));
                Update::insert(sym("e"), tuple2(a, b), i as u64)
            } else {
                live.remove(&(a, b));
                Update::delete(sym("e"), tuple2(a, b), i as u64)
            };
            inc.apply(u.clone()).unwrap();
            dred.apply(u).unwrap();
        }
        let engine = Engine::from_source(TC, BuiltinRegistry::standard()).unwrap();
        let mut edb = Database::new();
        for &(a, b) in &live {
            edb.insert(sym("e"), tuple2(a, b));
        }
        let expect = engine.run(&edb).unwrap();
        for db in [&inc.db, &dred.db] {
            assert_eq!(
                db.sorted(sym("t")),
                expect.sorted(sym("t")),
                "seed {seed} ops {ops_log:?}"
            );
        }
        for &(a, b) in &live {
            let u = Update::delete(sym("e"), tuple2(a, b), n_ops as u64);
            inc.apply(u.clone()).unwrap();
            dred.apply(u).unwrap();
        }
        assert_drained(&inc, &format!("seed {seed} ops {ops_log:?}"));
        assert_eq!(dred.db.total_tuples(), 0, "seed {seed} ops {ops_log:?}");
    }
}

/// After every base fact is retracted: no tuple, no ledger key, no entry.
fn assert_drained<K: LedgerKey>(inc: &IncrementalEngine<K>, case: &str) {
    assert_eq!(inc.db.total_tuples(), 0, "{case}");
    assert_eq!(
        (inc.ledger_keys(), inc.derivation_count()),
        (0, 0),
        "ledger not drained: {case}"
    );
}

#[test]
fn stress_incremental_negation() {
    const PROG: &str = r#"
        cov(V, K)   :- sight(V, K), supp(S, K).
        alert(V, K) :- not cov(V, K), sight(V, K).
    "#;
    for seed in SEEDS {
        let mut rng = R(seed.wrapping_mul(0x2545F4914F6CDD1D) | 1);
        let n_ops = 1 + (rng.next() % 35) as usize;
        let mut inc = IncrementalEngine::from_source(PROG, BuiltinRegistry::standard()).unwrap();
        let mut dred = RederiveEngine::from_source(PROG, BuiltinRegistry::standard()).unwrap();
        let mut live: BTreeSet<(bool, i64, i64)> = BTreeSet::new();
        let mut ops_log = Vec::new();
        for i in 0..n_ops {
            let insert = rng.next().is_multiple_of(2);
            let is_supp = rng.next().is_multiple_of(2);
            let v = (rng.next() % 5) as i64;
            let k = (rng.next() % 3) as i64;
            ops_log.push((insert, is_supp, v, k));
            let pred = if is_supp { sym("supp") } else { sym("sight") };
            let u = if insert {
                live.insert((is_supp, v, k));
                Update::insert(pred, tuple2(v, k), i as u64)
            } else {
                live.remove(&(is_supp, v, k));
                Update::delete(pred, tuple2(v, k), i as u64)
            };
            inc.apply(u.clone()).unwrap();
            dred.apply(u).unwrap();
        }
        let engine = Engine::from_source(PROG, BuiltinRegistry::standard()).unwrap();
        let mut edb = Database::new();
        for &(is_supp, v, k) in &live {
            let pred = if is_supp { sym("supp") } else { sym("sight") };
            edb.insert(pred, tuple2(v, k));
        }
        let expect = engine.run(&edb).unwrap();
        for db in [&inc.db, &dred.db] {
            for out in ["alert", "cov"] {
                assert_eq!(
                    db.sorted(sym(out)),
                    expect.sorted(sym(out)),
                    "seed {seed} ops {ops_log:?}"
                );
            }
        }
        for &(is_supp, v, k) in &live {
            let pred = if is_supp { sym("supp") } else { sym("sight") };
            let u = Update::delete(pred, tuple2(v, k), n_ops as u64);
            inc.apply(u.clone()).unwrap();
            dred.apply(u).unwrap();
        }
        assert_drained(&inc, &format!("seed {seed} ops {ops_log:?}"));
        assert_eq!(dred.db.total_tuples(), 0, "seed {seed} ops {ops_log:?}");
    }
}

#[test]
fn stress_counting_engine() {
    // Non-recursive join + negation program against the batch reference,
    // maintained by the counting projection of the incremental engine.
    const PROG: &str = r#"
        q(X, Y) :- a(X, Z), b(Z, Y).
        p(X, Y) :- a(X, Y), not b(X, Y).
    "#;
    let reg = BuiltinRegistry::standard();
    let analysis = analyze(&parse_program(PROG).unwrap(), &reg).unwrap();
    for seed in SEEDS {
        let mut rng = R(seed.wrapping_mul(0xDA942042E4DD58B5) | 1);
        let n_ops = 1 + (rng.next() % 30) as usize;
        let mut cnt = IncrementalEngine::counting(analysis.clone(), reg.clone()).unwrap();
        let mut live: BTreeSet<(bool, i64, i64)> = BTreeSet::new();
        let mut ops_log = Vec::new();
        for i in 0..n_ops {
            let insert = rng.next().is_multiple_of(2);
            let is_a = rng.next().is_multiple_of(2);
            let x = (rng.next() % 4) as i64;
            let y = (rng.next() % 4) as i64;
            ops_log.push((insert, is_a, x, y));
            let pred = if is_a { sym("a") } else { sym("b") };
            let u = if insert {
                live.insert((is_a, x, y));
                Update::insert(pred, tuple2(x, y), i as u64)
            } else {
                live.remove(&(is_a, x, y));
                Update::delete(pred, tuple2(x, y), i as u64)
            };
            cnt.apply(u).unwrap();
        }
        let engine = Engine::from_source(PROG, BuiltinRegistry::standard()).unwrap();
        let mut edb = Database::new();
        for &(is_a, x, y) in &live {
            let pred = if is_a { sym("a") } else { sym("b") };
            edb.insert(pred, tuple2(x, y));
        }
        let expect = engine.run(&edb).unwrap();
        assert_eq!(
            cnt.db.sorted(sym("q")),
            expect.sorted(sym("q")),
            "seed {seed} ops {ops_log:?}"
        );
        assert_eq!(
            cnt.db.sorted(sym("p")),
            expect.sorted(sym("p")),
            "seed {seed} ops {ops_log:?}"
        );
        for &(is_a, x, y) in &live {
            let pred = if is_a { sym("a") } else { sym("b") };
            cnt.apply(Update::delete(pred, tuple2(x, y), n_ops as u64))
                .unwrap();
        }
        assert_drained(&cnt, &format!("seed {seed} ops {ops_log:?}"));
    }
}
