//! Head aggregates.
//!
//! Aggregates are expressed "using Prolog's all-solutions predicate"
//! (Sec. IV-C): the aggregate rule's body is evaluated to completion, the
//! solutions are grouped by the non-aggregate head arguments, and the
//! aggregate folds the *distinct* values of the aggregate term per group.

use crate::error::EvalError;
use sensorlog_logic::ast::{AggFunc, Rule};
use sensorlog_logic::builtin::BuiltinRegistry;
use sensorlog_logic::flat::FlatSubst;
use sensorlog_logic::intern;
use sensorlog_logic::unify::Subst;
use sensorlog_logic::{Term, Tuple};
use std::collections::{BTreeMap, BTreeSet};

/// Group the body solutions of an aggregate rule and fold each group.
/// Returns the head tuples (group key with the aggregate value spliced in at
/// the aggregate position).
pub fn aggregate_rule(
    rule: &Rule,
    solutions: &[FlatSubst],
    reg: &BuiltinRegistry,
) -> Result<Vec<Tuple>, EvalError> {
    let agg = rule
        .agg
        .as_ref()
        .expect("aggregate_rule requires an aggregate head");
    let mut groups: BTreeMap<Vec<Term>, BTreeSet<Term>> = BTreeMap::new();
    for sol in solutions {
        // Aggregates work on boxed terms, off the fixpoint hot path: a flat
        // solution is resolved once.
        let subst = intern::boundary(|| sol.to_subst());
        let key = key_of(rule, &subst, reg)?;
        let value = evaluated(rule, &subst, &agg.term, reg)?;
        groups.entry(key).or_default().insert(value);
    }
    let mut out = Vec::with_capacity(groups.len());
    for (key, values) in groups {
        let v = fold(agg.func, &values)?;
        let mut args = key;
        args.insert(agg.pos.min(args.len()), v);
        out.push(Tuple::new(args));
    }
    Ok(out)
}

/// The group a solution of an aggregate rule falls in: its head's group-by
/// arguments, evaluated.
pub fn group_key(
    rule: &Rule,
    sol: &FlatSubst,
    reg: &BuiltinRegistry,
) -> Result<Vec<Term>, EvalError> {
    key_of(rule, &intern::boundary(|| sol.to_subst()), reg)
}

fn key_of(rule: &Rule, subst: &Subst, reg: &BuiltinRegistry) -> Result<Vec<Term>, EvalError> {
    (rule.head.args.iter())
        .map(|a| evaluated(rule, subst, a, reg))
        .collect()
}

/// `t` of `rule` under `subst`, evaluated.
fn evaluated(
    rule: &Rule,
    subst: &Subst,
    t: &Term,
    reg: &BuiltinRegistry,
) -> Result<Term, EvalError> {
    let g = subst.apply(t);
    if !g.is_ground() {
        return Err(EvalError::Internal(format!(
            "`{t}` unbound in rule #{}",
            rule.id
        )));
    }
    Ok(reg.eval_term(&g)?)
}

/// Fold distinct values with the aggregate function.
pub fn fold(func: AggFunc, values: &BTreeSet<Term>) -> Result<Term, EvalError> {
    debug_assert!(!values.is_empty(), "aggregate over empty group");
    match func {
        AggFunc::Count => Ok(Term::Int(values.len() as i64)),
        AggFunc::Min => Ok(min_numeric(values)),
        AggFunc::Max => Ok(max_numeric(values)),
        AggFunc::Sum => sum(values),
        AggFunc::Avg => {
            let total = sum(values)?;
            let n = values.len() as f64;
            let t = total
                .as_f64()
                .ok_or_else(|| EvalError::Internal("avg over non-numeric values".into()))?;
            Ok(Term::float(t / n))
        }
    }
}

fn min_numeric(values: &BTreeSet<Term>) -> Term {
    // Numeric comparison where possible (1 < 1.5 < 2), term order otherwise.
    values
        .iter()
        .cloned()
        .min_by(|a, b| match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) => x.partial_cmp(&y).unwrap_or(std::cmp::Ordering::Equal),
            _ => a.cmp(b),
        })
        .expect("nonempty")
}

fn max_numeric(values: &BTreeSet<Term>) -> Term {
    values
        .iter()
        .cloned()
        .max_by(|a, b| match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) => x.partial_cmp(&y).unwrap_or(std::cmp::Ordering::Equal),
            _ => a.cmp(b),
        })
        .expect("nonempty")
}

fn sum(values: &BTreeSet<Term>) -> Result<Term, EvalError> {
    let all_int = values.iter().all(|v| matches!(v, Term::Int(_)));
    if all_int {
        let mut acc: i64 = 0;
        for v in values {
            if let Term::Int(i) = v {
                acc = acc.checked_add(*i).ok_or(EvalError::LimitExceeded {
                    what: "sum overflow",
                    limit: i64::MAX as usize,
                })?;
            }
        }
        Ok(Term::Int(acc))
    } else {
        let mut acc = 0.0f64;
        for v in values {
            acc += v
                .as_f64()
                .ok_or_else(|| EvalError::Internal(format!("sum over non-numeric value {v}")))?;
        }
        Ok(Term::float(acc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval_body::BodyEval;
    use crate::relation::Database;
    use sensorlog_logic::parser::{parse_fact, parse_rule};

    fn run(rule_src: &str, facts: &[&str]) -> Vec<Tuple> {
        let rule = parse_rule(rule_src).unwrap();
        let mut db = Database::new();
        for f in facts {
            let (p, args) = parse_fact(f).unwrap();
            db.insert(p, Tuple::new(args));
        }
        let reg = BuiltinRegistry::standard();
        let ev = BodyEval::new(&db, &reg);
        let sols = ev.solutions(&rule.body, FlatSubst::new(), None).unwrap();
        let mut out = aggregate_rule(&rule, &sols, &reg).unwrap();
        out.sort();
        out
    }

    fn tup(src: &str) -> Tuple {
        let (_, args) = parse_fact(&format!("x({src})")).unwrap();
        Tuple::new(args)
    }

    #[test]
    fn min_per_group() {
        let out = run(
            "short(Y, min<D>) :- path(Y, D).",
            &["path(1, 5)", "path(1, 3)", "path(2, 7)"],
        );
        assert_eq!(out, vec![tup("1, 3"), tup("2, 7")]);
    }

    #[test]
    fn count_distinct() {
        let out = run(
            "deg(X, count<Y>) :- e(X, Y).",
            &["e(1, 2)", "e(1, 3)", "e(1, 3)", "e(2, 9)"],
        );
        assert_eq!(out, vec![tup("1, 2"), tup("2, 1")]);
    }

    #[test]
    fn sum_and_avg() {
        let out = run("total(sum<V>) :- m(V).", &["m(1)", "m(2)", "m(4)"]);
        assert_eq!(out, vec![tup("7")]);
        let out = run("mean(avg<V>) :- m(V).", &["m(1)", "m(2)", "m(3)"]);
        assert_eq!(out, vec![tup("2.0")]);
    }

    #[test]
    fn max_mixed_numeric() {
        let out = run("best(max<V>) :- m(V).", &["m(1)", "m(2.5)", "m(2)"]);
        assert_eq!(out, vec![tup("2.5")]);
    }

    #[test]
    fn agg_in_first_position() {
        let out = run("q(count<Y>, X) :- e(X, Y).", &["e(1, 2)", "e(1, 3)"]);
        assert_eq!(out, vec![tup("2, 1")]);
    }

    #[test]
    fn empty_body_yields_no_groups() {
        let out = run("total(sum<V>) :- m(V).", &[]);
        assert!(out.is_empty());
    }
}
