//! Property test: the flat matcher agrees with the boxed semantic matcher.
//!
//! `flat_match_args` is the only pattern matcher the evaluators, the
//! in-network join and the provenance walk use. The boxed `sem_match` it
//! replaced survives here, as the oracle: on random patterns (variables,
//! integers, `add` / `sub` stage terms, nested uninterpreted applications)
//! against random ground values, under a random seed substitution, both
//! must agree on success and, when they succeed, on every binding.

use proptest::collection::vec;
use proptest::prelude::*;
use sensorlog_logic::builtin::BuiltinRegistry;
use sensorlog_logic::flat::{flat_eval, flat_match_args, FlatSubst};
use sensorlog_logic::intern;
use sensorlog_logic::unify::Subst;
use sensorlog_logic::{Symbol, Term, Tuple};

/// A ground term evaluated and resolved: the kernel under no bindings, as
/// the boxed matcher's evaluator was.
fn eval_ground(reg: &BuiltinRegistry, t: &Term) -> Option<Term> {
    intern::boundary(|| flat_eval(reg, t, &FlatSubst::new()).map(intern::resolve)).ok()
}

/// The boxed matcher as it stood in `eval_body`: ground patterns are
/// evaluated and compared, an unbound variable binds, 2-ary `add` / `sub`
/// against an integer solve linearly, uninterpreted applications descend.
fn sem_match(reg: &BuiltinRegistry, pat: &Term, val: &Term, s: &mut Subst) -> bool {
    let p = s.apply(pat);
    if p.is_ground() {
        return eval_ground(reg, &p).is_some_and(|v| &v == val);
    }
    match (&p, val) {
        (Term::Var(v), _) => {
            s.bind(*v, val.clone());
            true
        }
        (Term::App(f, args), Term::Int(n)) if args.len() == 2 => {
            let solved = match (f.as_str(), &args[0], &args[1]) {
                ("add", Term::Var(v), Term::Int(k)) | ("add", Term::Int(k), Term::Var(v)) => {
                    n.checked_sub(*k).map(|x| (*v, x))
                }
                ("sub", Term::Var(v), Term::Int(k)) => n.checked_add(*k).map(|x| (*v, x)),
                _ => None,
            };
            solved.is_some_and(|(v, x)| {
                s.bind(v, Term::Int(x));
                true
            })
        }
        (Term::App(f, pargs), Term::App(g, vargs))
            if f == g && pargs.len() == vargs.len() && !reg.is_func(*f) =>
        {
            pargs
                .iter()
                .zip(vargs.iter())
                .all(|(pp, vv)| sem_match(reg, pp, vv, s))
        }
        _ => false,
    }
}

fn sem_match_args(reg: &BuiltinRegistry, pats: &[Term], vals: &[Term], s: &mut Subst) -> bool {
    pats.len() == vals.len()
        && pats
            .iter()
            .zip(vals.iter())
            .all(|(p, v)| sem_match(reg, p, v, s))
}

fn var() -> impl Strategy<Value = Term> {
    prop_oneof![Just("X"), Just("Y"), Just("Z")].prop_map(Term::var)
}

fn small_int() -> impl Strategy<Value = Term> {
    prop_oneof![-3i64..6, Just(i64::MAX), Just(i64::MIN)].prop_map(Term::Int)
}

/// Ground values: integers, atoms, nested constructors, and the odd raw
/// interpreted application (a fact may store `add(1, 2)` unevaluated).
fn value() -> impl Strategy<Value = Term> {
    let leaf = prop_oneof![
        small_int(),
        small_int(),
        prop_oneof![Just("a"), Just("b")].prop_map(Term::atom),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (
                prop_oneof![Just("loc"), Just("pos"), Just("loc")],
                vec(inner.clone(), 1..3)
            )
                .prop_map(|(f, kids)| Term::app(f, kids)),
            (inner.clone(), inner).prop_map(|(a, b)| Term::app("add", vec![a, b])),
        ]
    })
}

fn pattern() -> impl Strategy<Value = Term> {
    let leaf = prop_oneof![var(), var(), small_int(), Just(Term::atom("a"))];
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (
                prop_oneof![Just("add"), Just("sub")],
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(f, a, b)| Term::app(f, vec![a, b])),
            (prop_oneof![Just("loc"), Just("pos")], vec(inner, 1..3))
                .prop_map(|(f, kids)| Term::app(f, kids)),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn flat_match_agrees_with_boxed_sem_match(
        pats in vec(pattern(), 1..4),
        vals in vec(value(), 1..4),
        seed in vec((var(), value()), 0..2),
    ) {
        let reg = BuiltinRegistry::standard();
        let mut boxed = Subst::new();
        let mut flat = FlatSubst::new();
        for (v, t) in &seed {
            let Term::Var(v) = v else { unreachable!() };
            boxed.bind(*v, t.clone());
            flat.bind(*v, intern::intern_term(t).expect("values are ground"));
        }
        let tuple = Tuple::new(vals.clone());
        let boxed_ok = sem_match_args(&reg, &pats, &vals, &mut boxed);
        let flat_ok = flat_match_args(&reg, &pats, tuple.ids(), &mut flat);
        prop_assert_eq!(flat_ok, boxed_ok, "pats {:?} vals {:?} seed {:?}", pats, vals, seed);
        if boxed_ok {
            let mut want: Vec<(Symbol, Term)> = boxed.iter().map(|(v, t)| (*v, t.clone())).collect();
            let mut got: Vec<(Symbol, Term)> =
                flat.iter().map(|(v, id)| (v, intern::resolve(id))).collect();
            want.sort();
            got.sort();
            prop_assert_eq!(got, want, "pats {:?} vals {:?} seed {:?}", pats, vals, seed);
        }
    }
}
