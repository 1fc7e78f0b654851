//! Head aggregates.
//!
//! Aggregates are expressed "using Prolog's all-solutions predicate"
//! (Sec. IV-C): the aggregate rule's body is evaluated to completion, the
//! solutions are grouped by the non-aggregate head arguments, and the
//! aggregate folds the *distinct* values of the aggregate term per group.
//! Both run on the kernel's interned ids: a group key is the group-by
//! arguments under `flat_eval` (a [`Tuple`], like any head), a value the id
//! `flat_eval` gives the aggregate term, and min / max / sum / avg read
//! their numbers from the pool entries.

use crate::error::EvalError;
use crate::eval_body::ground_atom;
use sensorlog_logic::ast::{AggFunc, Rule};
use sensorlog_logic::builtin::BuiltinRegistry;
use sensorlog_logic::flat::{flat_eval, FlatSubst};
use sensorlog_logic::intern::{self, ConstId, Val};
use sensorlog_logic::term::F64;
use sensorlog_logic::Tuple;
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// Group the body solutions of an aggregate rule and fold each group.
/// Returns the head tuples (group key with the aggregate value spliced in at
/// the aggregate position), in group-key order.
pub fn aggregate_rule(
    rule: &Rule,
    solutions: &[FlatSubst],
    reg: &BuiltinRegistry,
) -> Result<Vec<Tuple>, EvalError> {
    let agg = rule
        .agg
        .as_ref()
        .expect("aggregate_rule requires an aggregate head");
    let mut groups: BTreeMap<Tuple, Vec<ConstId>> = BTreeMap::new();
    for sol in solutions {
        let key = group_key(rule, sol, reg)?;
        let value = flat_eval(reg, &agg.term, sol)?;
        groups.entry(key).or_default().push(value);
    }
    let mut out = Vec::with_capacity(groups.len());
    for (key, mut values) in groups {
        // Distinct values in value order: the order min / max break ties
        // in and sum adds floats in.
        values.sort_unstable_by(|&a, &b| intern::cmp_ids(a, b));
        values.dedup();
        let mut ids = key.ids().to_vec();
        ids.insert(agg.pos.min(ids.len()), fold(agg.func, &values)?);
        out.push(Tuple::from_ids(ids));
    }
    Ok(out)
}

/// The group a solution of an aggregate rule falls in: its head's group-by
/// arguments, evaluated.
pub(crate) fn group_key(
    rule: &Rule,
    sol: &FlatSubst,
    reg: &BuiltinRegistry,
) -> Result<Tuple, EvalError> {
    ground_atom(reg, &rule.head, sol)?
        .ok_or_else(|| EvalError::Internal(format!("group key of rule #{} is unbound", rule.id)))
}

/// Fold a group's distinct values, in value order, with the aggregate
/// function.
fn fold(func: AggFunc, values: &[ConstId]) -> Result<ConstId, EvalError> {
    debug_assert!(!values.is_empty(), "aggregate over empty group");
    let vals = || values.iter().copied();
    Ok(match func {
        AggFunc::Count => intern::intern_int(values.len() as i64),
        AggFunc::Min => vals()
            .min_by(|&a, &b| numeric_order(a, b))
            .expect("nonempty"),
        AggFunc::Max => vals()
            .max_by(|&a, &b| numeric_order(a, b))
            .expect("nonempty"),
        AggFunc::Sum => intern::intern_val(sum(values)?),
        AggFunc::Avg => {
            let total = (sum(values)?.as_f64())
                .ok_or_else(|| EvalError::Internal("avg over non-numeric values".into()))?;
            intern::intern_float(F64::new(total / values.len() as f64))
        }
    })
}

/// Numeric comparison where possible (1 < 1.5 < 2), value order otherwise.
fn numeric_order(a: ConstId, b: ConstId) -> Ordering {
    match (intern::entry(a).val.as_f64(), intern::entry(b).val.as_f64()) {
        (Some(x), Some(y)) => x.partial_cmp(&y).unwrap_or(Ordering::Equal),
        _ => intern::cmp_ids(a, b),
    }
}

/// An integer sum while every value is an integer, a float sum otherwise.
fn sum(values: &[ConstId]) -> Result<Val, EvalError> {
    let vals = || values.iter().map(|&v| &intern::entry(v).val);
    if vals().all(|v| matches!(v, Val::Int(_))) {
        let mut acc: i64 = 0;
        for v in vals().filter_map(Val::as_i64) {
            acc = acc.checked_add(v).ok_or(EvalError::LimitExceeded {
                what: "sum overflow",
                limit: i64::MAX as usize,
            })?;
        }
        return Ok(Val::Int(acc));
    }
    let mut acc = 0.0f64;
    for v in vals() {
        acc += v.as_f64().ok_or_else(|| {
            EvalError::Internal(format!(
                "sum over non-numeric values {}",
                Tuple::from_slice(values)
            ))
        })?;
    }
    Ok(Val::Float(F64::new(acc)))
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
