//! Property-based tests over the core data structures and engine
//! invariants (proptest).

use proptest::prelude::*;
use proptest::strategy::Strategy;
use sensorlog::prelude::*;
use std::collections::BTreeSet;

fn sym(s: &str) -> Symbol {
    Symbol::intern(s)
}

// ---------------------------------------------------------------------
// Term generation
// ---------------------------------------------------------------------

/// Ground terms up to depth 3.
fn ground_term() -> impl Strategy<Value = Term> {
    let leaf = prop_oneof![
        (-1000i64..1000).prop_map(Term::Int),
        (-100.0f64..100.0).prop_map(Term::float),
        "[a-z][a-z0-9_]{0,6}".prop_map(|s| Term::atom(&s)),
        "[a-zA-Z0-9 _]{0,8}".prop_map(|s| Term::str(&s)),
    ];
    leaf.prop_recursive(3, 16, 4, |inner| {
        prop_oneof![
            (
                "[a-z][a-z0-9_]{0,4}",
                prop::collection::vec(inner.clone(), 1..4)
            )
                .prop_map(|(f, args)| Term::app(&f, args)),
            prop::collection::vec(inner, 0..4).prop_map(|items| Term::list(items, None)),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Display → parse is the identity on ground terms.
    #[test]
    fn term_display_parse_roundtrip(t in ground_term()) {
        let printed = t.to_string();
        let reparsed = sensorlog::logic::parse_term(&printed)
            .unwrap_or_else(|e| panic!("reparse of `{printed}` failed: {e}"));
        prop_assert_eq!(reparsed, t);
    }

    /// Ground facts survive the fact-parser roundtrip.
    #[test]
    fn fact_roundtrip(args in prop::collection::vec(ground_term(), 1..4)) {
        let tuple = Tuple::new(args);
        let printed = format!("p{tuple}.");
        let (p, parsed) = parse_fact(&printed).unwrap();
        prop_assert_eq!(p, sym("p"));
        prop_assert_eq!(Tuple::new(parsed), tuple);
    }

    /// flat_match_args(pattern, the interned apply(pattern, σ)) succeeds
    /// for any ground σ and binds σ back. The registry interprets no
    /// function symbol, so a generated `add(…)` is a constructor here.
    #[test]
    fn match_after_apply(x in ground_term(), y in ground_term()) {
        use sensorlog::logic::flat::{flat_match_args, FlatSubst};
        use sensorlog::logic::intern;
        use sensorlog::logic::unify::Subst;
        let pattern = Term::app("f", vec![Term::var("X"), Term::var("Y"), Term::var("X")]);
        let mut s = Subst::new();
        s.bind(sym("X"), x.clone());
        s.bind(sym("Y"), y);
        let value = intern::intern_term(&s.apply(&pattern)).unwrap();
        let mut s2 = FlatSubst::new();
        let reg = BuiltinRegistry::default();
        prop_assert!(flat_match_args(&reg, &[pattern], &[value], &mut s2));
        prop_assert_eq!(s2.get(sym("X")), intern::intern_term(&x));
    }
}

// ---------------------------------------------------------------------
// Transitive closure: batch == reference closure == incremental
// ---------------------------------------------------------------------

fn reference_closure(edges: &[(i64, i64)]) -> BTreeSet<(i64, i64)> {
    let mut closure: BTreeSet<(i64, i64)> = edges.iter().copied().collect();
    loop {
        let mut added = false;
        let snapshot: Vec<_> = closure.iter().copied().collect();
        for &(a, b) in &snapshot {
            for &(c, d) in &snapshot {
                if b == c && closure.insert((a, d)) {
                    added = true;
                }
            }
        }
        if !added {
            return closure;
        }
    }
}

const TC: &str = r#"
    t(X, Y) :- e(X, Y).
    t(X, Y) :- t(X, Z), e(Z, Y).
"#;

fn tuple2(a: i64, b: i64) -> Tuple {
    Tuple::new(vec![Term::Int(a), Term::Int(b)])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Semi-naive TC equals the quadratic reference closure.
    #[test]
    fn batch_tc_equals_reference(
        edges in prop::collection::btree_set((0i64..8, 0i64..8), 0..20)
    ) {
        let edges: Vec<(i64, i64)> = edges.into_iter().collect();
        let engine = Engine::from_source(TC, BuiltinRegistry::standard()).unwrap();
        let mut edb = Database::new();
        for &(a, b) in &edges {
            edb.insert(sym("e"), tuple2(a, b));
        }
        let out = engine.run(&edb).unwrap();
        let got: BTreeSet<(i64, i64)> = out
            .sorted(sym("t"))
            .iter()
            .map(|t| (t.get(0).as_i64().unwrap(), t.get(1).as_i64().unwrap()))
            .collect();
        prop_assert_eq!(got, reference_closure(&edges));
    }

    /// Incremental TC under arbitrary insert/delete interleavings equals
    /// the batch engine on the surviving EDB. Edges are constrained to
    /// a DAG (a < b): the set-of-derivations approach is only exact for
    /// *locally non-recursive* instances (Sec. IV-C) — see
    /// `sod_limitation_on_cyclic_graphs` for the documented failure mode
    /// and the rederivation engine that covers it.
    #[test]
    fn incremental_tc_equals_batch(
        ops in prop::collection::vec((any::<bool>(), 0i64..6, 1i64..6), 1..25)
    ) {
        let mut inc = IncrementalEngine::from_source(TC, BuiltinRegistry::standard()).unwrap();
        let mut live: BTreeSet<(i64, i64)> = BTreeSet::new();
        for (i, &(insert, a, d)) in ops.iter().enumerate() {
            let b = a + d; // DAG: edges always ascend
            let u = if insert {
                live.insert((a, b));
                Update::insert(sym("e"), tuple2(a, b), i as u64)
            } else {
                live.remove(&(a, b));
                Update::delete(sym("e"), tuple2(a, b), i as u64)
            };
            inc.apply(u).unwrap();
        }
        let engine = Engine::from_source(TC, BuiltinRegistry::standard()).unwrap();
        let mut edb = Database::new();
        for &(a, b) in &live {
            edb.insert(sym("e"), tuple2(a, b));
        }
        let expect = engine.run(&edb).unwrap();
        prop_assert_eq!(inc.db.sorted(sym("t")), expect.sorted(sym("t")));
    }

    /// Incremental maintenance with negation equals batch for arbitrary
    /// insert/delete interleavings (the Theorem 3 claim, centralized).
    #[test]
    fn incremental_negation_equals_batch(
        ops in prop::collection::vec((any::<bool>(), any::<bool>(), 0i64..5, 0i64..3), 1..30)
    ) {
        const PROG: &str = r#"
            cov(V, K)   :- sight(V, K), supp(S, K).
            alert(V, K) :- not cov(V, K), sight(V, K).
        "#;
        let mut inc = IncrementalEngine::from_source(PROG, BuiltinRegistry::standard()).unwrap();
        let mut live: BTreeSet<(bool, i64, i64)> = BTreeSet::new();
        for (i, &(insert, is_supp, v, k)) in ops.iter().enumerate() {
            let pred = if is_supp { sym("supp") } else { sym("sight") };
            let u = if insert {
                live.insert((is_supp, v, k));
                Update::insert(pred, tuple2(v, k), i as u64)
            } else {
                live.remove(&(is_supp, v, k));
                Update::delete(pred, tuple2(v, k), i as u64)
            };
            inc.apply(u).unwrap();
        }
        let engine = Engine::from_source(PROG, BuiltinRegistry::standard()).unwrap();
        let mut edb = Database::new();
        for &(is_supp, v, k) in &live {
            let pred = if is_supp { sym("supp") } else { sym("sight") };
            edb.insert(pred, tuple2(v, k));
        }
        let expect = engine.run(&edb).unwrap();
        prop_assert_eq!(inc.db.sorted(sym("alert")), expect.sorted(sym("alert")));
        prop_assert_eq!(inc.db.sorted(sym("cov")), expect.sorted(sym("cov")));
    }

    /// Relation index lookups agree with linear scans under arbitrary
    /// insert/remove interleavings.
    #[test]
    fn relation_index_consistent(
        ops in prop::collection::vec((any::<bool>(), 0i64..5, 0i64..5), 1..40),
        probe in 0i64..5
    ) {
        use sensorlog::eval::{Database as Db};
        let mut db = Db::new();
        let p = sym("rel_prop");
        let mut inserted = false;
        for &(insert, a, b) in &ops {
            if insert {
                db.insert(p, tuple2(a, b));
            } else {
                db.remove(p, &tuple2(a, b));
            }
            inserted |= insert;
            // Interleave lookups so the index is built mid-sequence. Only
            // an insert makes the relation: a remove before one creates
            // nothing.
            let Some(rel) = db.relation(p) else {
                prop_assert!(!inserted);
                continue;
            };
            let mut via_index = Vec::new();
            rel.select(&[0], &[sensorlog::logic::intern::intern_int(probe)], &mut via_index);
            let mut via_scan: Vec<Tuple> = rel
                .tuples()
                .filter(|t| t.get(0) == Term::Int(probe))
                .cloned()
                .collect();
            via_index.sort();
            via_scan.sort();
            prop_assert_eq!(via_index, via_scan);
        }
    }
}

// ---------------------------------------------------------------------
// Aggregates
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// min ≤ avg ≤ max and count matches distinct values.
    #[test]
    fn aggregate_bounds(values in prop::collection::btree_set(-100i64..100, 1..12)) {
        let engine = Engine::from_source(
            r#"
            lo(min<V>) :- m(V).
            hi(max<V>) :- m(V).
            mean(avg<V>) :- m(V).
            n(count<V>) :- m(V).
            "#,
            BuiltinRegistry::standard(),
        )
        .unwrap();
        let mut edb = Database::new();
        for &v in &values {
            edb.insert(sym("m"), Tuple::new(vec![Term::Int(v)]));
        }
        let out = engine.run(&edb).unwrap();
        let get1 = |p: &str| out.sorted(sym(p))[0].get(0).as_f64().unwrap();
        let (lo, hi, mean, n) = (get1("lo"), get1("hi"), get1("mean"), get1("n"));
        prop_assert!(lo <= mean && mean <= hi);
        prop_assert_eq!(n as usize, values.len());
        prop_assert_eq!(lo as i64, *values.iter().min().unwrap());
        prop_assert_eq!(hi as i64, *values.iter().max().unwrap());
    }
}

// ---------------------------------------------------------------------
// Stratification / analysis properties
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A linear chain of negations q0 ← ¬q1 ← ¬q2 … stratifies with
    /// strictly increasing levels.
    #[test]
    fn negation_chain_strata(depth in 1usize..8) {
        let mut src = String::from("q0(X) :- base(X).\n");
        for i in 1..=depth {
            src.push_str(&format!("q{i}(X) :- base(X), not q{}(X).\n", i - 1));
        }
        let prog = parse_program(&src).unwrap();
        let a = analyze(&prog, &BuiltinRegistry::standard()).unwrap();
        for i in 1..=depth {
            let lo = a.strat.level_of(sym(&format!("q{}", i - 1)));
            let hi = a.strat.level_of(sym(&format!("q{i}")));
            prop_assert!(hi > lo, "level(q{i})={hi} !> level(q{})={lo}", i - 1);
        }
    }
}

// ---------------------------------------------------------------------
// Named proptest regressions
// ---------------------------------------------------------------------

/// Permanent form of the proptest-minimized `incremental_tc_equals_batch`
/// regression (`properties.proptest-regressions`):
/// `ops = [(true, 3, 1), (true, 5, 3), (true, 1, 1), (false, 5, 3)]`,
/// i.e. insert e(3,4), e(5,8), e(1,2), then delete e(5,8). The *property*
/// never failed for this input — the distributed harness built on the same
/// relation type flaked across processes, and this minimized case was the
/// entry point for root-causing it: `Relation` iterated its tuples in
/// `HashMap` order, which differs per process (random SipHash keys) and
/// leaked into join-probe emission order. `Relation.tuples` is a `BTreeMap`
/// now; this pins the minimal scenario and its iteration-order guarantee.
#[test]
fn tc_regression_minimized_insert_delete_sequence() {
    let ops = [
        (true, 3i64, 1i64),
        (true, 5, 3),
        (true, 1, 1),
        (false, 5, 3),
    ];
    let mut inc = IncrementalEngine::from_source(TC, BuiltinRegistry::standard()).unwrap();
    let mut live: BTreeSet<(i64, i64)> = BTreeSet::new();
    for (i, &(insert, a, d)) in ops.iter().enumerate() {
        let b = a + d;
        let u = if insert {
            live.insert((a, b));
            Update::insert(sym("e"), tuple2(a, b), i as u64)
        } else {
            live.remove(&(a, b));
            Update::delete(sym("e"), tuple2(a, b), i as u64)
        };
        inc.apply(u).unwrap();
    }
    let engine = Engine::from_source(TC, BuiltinRegistry::standard()).unwrap();
    let mut edb = Database::new();
    for &(a, b) in &live {
        edb.insert(sym("e"), tuple2(a, b));
    }
    let expect = engine.run(&edb).unwrap();
    assert_eq!(inc.db.sorted(sym("t")), expect.sorted(sym("t")));
    // The determinism guarantee the fix rests on: enumeration order of the
    // surviving tuples is canonical (sorted), not hash order.
    let e_tuples = inc.db.sorted(sym("e"));
    let mut sorted = e_tuples.clone();
    sorted.sort();
    assert_eq!(e_tuples, sorted);
}

// ---------------------------------------------------------------------
// The documented locally-non-recursive limitation (Sec. IV-C)
// ---------------------------------------------------------------------

/// On cyclic graphs, set-of-derivations can leave zombie tuples after
/// deletions (mutually-supporting derivations — "a non-empty set of
/// derivations of a tuple may not imply existence of a valid proof tree").
/// The delete-rederive engine covers that class, exactly as the paper
/// prescribes.
#[test]
fn sod_limitation_on_cyclic_graphs_and_dred_fallback() {
    use sensorlog::eval::rederive::RederiveEngine;
    let edges = [(1i64, 2i64), (2, 1), (2, 3)];
    let mut dred = RederiveEngine::from_source(TC, BuiltinRegistry::standard()).unwrap();
    for (i, &(a, b)) in edges.iter().enumerate() {
        dred.apply(Update::insert(sym("e"), tuple2(a, b), i as u64))
            .unwrap();
    }
    assert!(dred.db.contains(sym("t"), &tuple2(1, 3)));
    // Cutting the 2->1 back edge must retract everything that depended on
    // the cycle — DRed gets it right.
    dred.apply(Update::delete(sym("e"), tuple2(2, 1), 10))
        .unwrap();
    let engine = Engine::from_source(TC, BuiltinRegistry::standard()).unwrap();
    let mut edb = Database::new();
    edb.insert(sym("e"), tuple2(1, 2));
    edb.insert(sym("e"), tuple2(2, 3));
    let expect = engine.run(&edb).unwrap();
    assert_eq!(dred.db.sorted(sym("t")), expect.sorted(sym("t")));
}
