//! Property tests: the flat interned representation is lossless and
//! order-faithful.
//!
//! `Term ⇄ Tuple` round-trips over arbitrary ground terms — nested `App`
//! lists, extreme integers, and the `F64` edge cases (`-0.0`, `NaN`) — and
//! the pool's sort keys reproduce boxed `Term` order exactly. These are the
//! invariants that let the evaluators keep only ids on the hot path and the
//! relations' ordered maps compare tuples by their columns' sort keys.

use proptest::prelude::*;
use sensorlog_logic::intern;
use sensorlog_logic::term::F64;
use sensorlog_logic::{Symbol, Term, Tuple};

/// Arbitrary *ground* terms, including nested applications and list sugar.
fn ground_term() -> impl Strategy<Value = Term> {
    let leaf = prop_oneof![
        any::<i64>().prop_map(Term::Int),
        prop_oneof![
            any::<f64>().prop_map(|v| Term::Float(F64::new(v))),
            Just(Term::Float(F64::new(-0.0))),
            Just(Term::Float(F64::new(0.0))),
            Just(Term::Float(F64::new(f64::NAN))),
            Just(Term::Float(F64::new(f64::NEG_INFINITY))),
        ],
        "[a-z][a-z0-9_]{0,6}".prop_map(|s| Term::Str(Symbol::intern(&s))),
        "[a-z][a-z0-9_]{0,6}".prop_map(|s| Term::Atom(Symbol::intern(&s))),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            (
                "[a-z][a-z0-9_]{0,4}",
                prop::collection::vec(inner.clone(), 0..4)
            )
                .prop_map(|(f, kids)| Term::App(Symbol::intern(&f), kids.into())),
            // List sugar: nested cons cells, the shape aggregate payloads use.
            prop::collection::vec(inner, 0..3).prop_map(|items| {
                items
                    .into_iter()
                    .rev()
                    .fold(Term::nil(), |tail, head| Term::cons(head, tail))
            }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Interning then resolving any ground term is the identity.
    #[test]
    fn intern_resolve_round_trip(t in ground_term()) {
        let id = intern::intern_term(&t).expect("ground terms intern");
        prop_assert_eq!(intern::resolve(id), t);
    }

    /// Tuples survive the flat representation: `Tuple::new` interns every
    /// argument, `terms()` resolves them back.
    #[test]
    fn tuple_term_round_trip(args in prop::collection::vec(ground_term(), 0..9)) {
        let tuple = Tuple::new(args.clone());
        prop_assert_eq!(tuple.arity(), args.len());
        prop_assert_eq!(tuple.terms(), args.clone());
        for (i, a) in args.iter().enumerate() {
            prop_assert_eq!(&tuple.get(i), a);
        }
        // Rebuilding from the raw ids is the same tuple.
        prop_assert_eq!(Tuple::from_ids(tuple.ids().to_vec()), tuple);
    }

    /// Interning is injective on distinct terms and idempotent on equal
    /// ones: id equality coincides with term equality.
    #[test]
    fn id_equality_is_term_equality(a in ground_term(), b in ground_term()) {
        let ia = intern::intern_term(&a).unwrap();
        let ib = intern::intern_term(&b).unwrap();
        prop_assert_eq!(ia == ib, a == b);
    }

    /// Pool order (memcmp over sort keys, what `Tuple`'s `Ord` compares)
    /// equals boxed `Term` order.
    #[test]
    fn sort_key_order_matches_term_order(a in ground_term(), b in ground_term()) {
        let ia = intern::intern_term(&a).unwrap();
        let ib = intern::intern_term(&b).unwrap();
        prop_assert_eq!(intern::cmp_ids(ia, ib), a.cmp(&b));
    }

    /// Variables never intern (flat tuples are ground by construction).
    #[test]
    fn non_ground_terms_do_not_intern(v in "[A-Z][a-z0-9]{0,4}") {
        let open = Term::app("p", vec![Term::var(&v), Term::Int(1)]);
        prop_assert_eq!(intern::intern_term(&open), None);
    }
}
