//! Rule-body evaluation: the local join machinery.
//!
//! Evaluates a rule body left-to-right over a [`Database`], producing the
//! satisfying substitutions together with the positive subgoal matches that
//! produced them (the inputs of a *derivation*, Definition 2, which the
//! streaming walk lends its sink). Supports:
//!
//! * **pinning** one literal to a single delta tuple (semi-naive and
//!   incremental evaluation seed there);
//! * a **tuple filter** excluding one tuple at chosen literal positions —
//!   the "old state for occurrences after the updated one" staircase that
//!   makes self-join deltas exact.
//!
//! The walk is streaming: candidates are visited where the relation stores
//! them and each solution is handed to a sink as it completes
//! ([`BodyEval::for_each`], which takes its literal order as an argument —
//! the maintenance engines pass one compiled with the program, see
//! `planner::DeltaPlans`). [`BodyEval::solutions`] collects the
//! substitutions of that same walk, for the callers that need every
//! solution at once: the batch engine, aggregates, rederivation checks.
//!
//! The per-literal steps — [`bound_key`], [`eval_check`], [`ground_atom`],
//! and `logic::flat::flat_match_args` for positive atoms — are the one
//! body-literal kernel: the in-network join (`core::partial`) and the
//! provenance `why_not` walk call the same functions and add only their own
//! traversal policy.

use crate::error::EvalError;
use crate::relation::Database;
use sensorlog_logic::ast::{Atom, CmpOp, Literal, Program, Rule};
use sensorlog_logic::boundness::order_literals;
use sensorlog_logic::builtin::BuiltinRegistry;
use sensorlog_logic::flat::{flat_compare, flat_eval, flat_is_ground, flat_match_args, FlatSubst};
use sensorlog_logic::intern::{self, ConstId};
use sensorlog_logic::{Symbol, Term, Tuple};
use std::borrow::Cow;

/// Excludes `tuple` from matching `pred` at the given body literal indexes.
#[derive(Clone, Copy, Debug)]
pub struct TupleFilter<'a> {
    pub pred: Symbol,
    pub tuple: &'a Tuple,
    pub literal_indexes: &'a [usize],
}

impl TupleFilter<'_> {
    fn excludes_at(&self, pred: Symbol, lit_idx: usize) -> bool {
        self.pred == pred && self.literal_indexes.contains(&lit_idx)
    }
}

/// A probe key: the columns of an atom that are ground under a
/// substitution, ascending, with their ids. Held on the stack for atoms of
/// arity ≤ [`Tuple::INLINE`] — one is built per candidate lookup in every
/// engine and in the in-network join.
pub struct BoundKey {
    len: usize,
    cols: [usize; Tuple::INLINE],
    ids: [ConstId; Tuple::INLINE],
    /// The whole key of an atom wider than [`Tuple::INLINE`] (`len` stays 0).
    spill: (Vec<usize>, Vec<ConstId>),
}

impl BoundKey {
    /// The bound columns, ascending.
    pub fn cols(&self) -> &[usize] {
        if self.spill.0.is_empty() {
            &self.cols[..self.len]
        } else {
            &self.spill.0
        }
    }

    /// The id at each bound column, parallel to [`BoundKey::cols`].
    pub fn ids(&self) -> &[ConstId] {
        if self.spill.1.is_empty() {
            &self.ids[..self.len]
        } else {
            &self.spill.1
        }
    }
}

/// Columns of `atom` that are ground under `subst`, with their id key.
/// Interpreted functions are evaluated so `D + 1` keys on the stored
/// integer; a column whose evaluation errors is left unkeyed (the match
/// step rejects it).
pub fn bound_key(reg: &BuiltinRegistry, atom: &Atom, subst: &FlatSubst) -> BoundKey {
    let mut key = BoundKey {
        len: 0,
        cols: [0; Tuple::INLINE],
        ids: [0; Tuple::INLINE],
        spill: (Vec::new(), Vec::new()),
    };
    let wide = atom.args.len() > Tuple::INLINE;
    for (i, a) in atom.args.iter().enumerate() {
        if flat_is_ground(a, subst) {
            if let Ok(v) = flat_eval(reg, a, subst) {
                if wide {
                    key.spill.0.push(i);
                    key.spill.1.push(v);
                } else {
                    key.cols[key.len] = i;
                    key.ids[key.len] = v;
                    key.len += 1;
                }
            }
        }
    }
    key
}

/// Outcome of [`eval_check`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Check {
    Holds,
    Fails,
    /// Some variable the check needs is still unbound.
    Unbound,
}

/// Evaluate a `Cmp` or `Builtin` literal under `subst`. `==` with exactly
/// one side an unbound variable is an assignment and binds it.
pub fn eval_check(
    reg: &BuiltinRegistry,
    lit: &Literal,
    subst: &mut FlatSubst,
) -> Result<Check, EvalError> {
    let holds = match lit {
        Literal::Cmp(op, l, r) => match (flat_is_ground(l, subst), flat_is_ground(r, subst)) {
            (true, true) => flat_compare(reg, *op, l, r, subst)?,
            (l_ground, r_ground) if *op == CmpOp::Eq && (l_ground || r_ground) => {
                // A non-ground side that is a `Var` is necessarily unbound
                // (flat bindings are ground).
                let (var, val) = if r_ground { (l, r) } else { (r, l) };
                let Term::Var(v) = var else {
                    return Ok(Check::Unbound);
                };
                let id = flat_eval(reg, val, subst)?;
                subst.bind(*v, id);
                true
            }
            _ => return Ok(Check::Unbound),
        },
        Literal::Builtin(atom) => {
            let mut ids = vec![0; atom.args.len()];
            if !ground_args(reg, atom, subst, &mut ids)? {
                return Ok(Check::Unbound);
            }
            // The procedural-builtin boundary: cross it once with resolved
            // terms.
            let args: Vec<Term> = intern::boundary(|| intern::resolve_slice(&ids));
            reg.call_pred(atom.pred, &args)?
        }
        Literal::Pos(_) | Literal::Neg(_) => {
            return Err(EvalError::Internal(format!("`{lit}` is not a check")))
        }
    };
    Ok(if holds { Check::Holds } else { Check::Fails })
}

/// Fill `ids` with `atom`'s arguments evaluated under `subst`; `false`
/// while any argument still has an unbound variable.
fn ground_args(
    reg: &BuiltinRegistry,
    atom: &Atom,
    subst: &FlatSubst,
    ids: &mut [ConstId],
) -> Result<bool, EvalError> {
    for (slot, a) in ids.iter_mut().zip(atom.args.iter()) {
        if !flat_is_ground(a, subst) {
            return Ok(false);
        }
        *slot = flat_eval(reg, a, subst)?;
    }
    Ok(true)
}

/// Instantiate `atom` (a negated subgoal, a rule head) under `subst`,
/// evaluating interpreted functions; `None` while any argument still has an
/// unbound variable. Up to [`Tuple::INLINE`] arguments are evaluated on the
/// stack, with no allocation.
pub fn ground_atom(
    reg: &BuiltinRegistry,
    atom: &Atom,
    subst: &FlatSubst,
) -> Result<Option<Tuple>, EvalError> {
    let n = atom.args.len();
    if n <= Tuple::INLINE {
        let mut ids = [0; Tuple::INLINE];
        let ground = ground_args(reg, atom, subst, &mut ids[..n])?;
        Ok(ground.then(|| Tuple::from_slice(&ids[..n])))
    } else {
        let mut ids = vec![0; n];
        let ground = ground_args(reg, atom, subst, &mut ids)?;
        Ok(ground.then(|| Tuple::from_ids(ids)))
    }
}

/// The program's ground empty-body rules (`h(0, 0, 0).`) as `(rule index,
/// predicate, tuple)`. They hold before any update is applied and no update
/// ever pins them, so every maintenance engine asserts them when it is
/// built. Aggregate rules and heads that keep a variable are not facts.
pub fn ground_facts(
    program: &Program,
    reg: &BuiltinRegistry,
) -> Result<Vec<(usize, Symbol, Tuple)>, EvalError> {
    let mut facts = Vec::new();
    for (i, r) in program.rules.iter().enumerate() {
        if r.body.is_empty() && r.agg.is_none() {
            if let Some(t) = ground_atom(reg, &r.head, &FlatSubst::new())? {
                facts.push((i, r.head.pred, t));
            }
        }
    }
    Ok(facts)
}

/// The positive subgoal matches of one solution as the walk hands them to
/// its sink: `(literal index, tuple)` ascending by literal index — body
/// order, whichever literal was pinned. The walk holds each match by value
/// (two words at arity ≤ [`Tuple::INLINE`]): a key set's entry is rebuilt
/// as it is visited, so there is no stored tuple to borrow.
pub type Inputs<'s> = &'s [(usize, Tuple)];

/// Body evaluator over a database snapshot.
pub struct BodyEval<'a> {
    pub db: &'a Database,
    pub reg: &'a BuiltinRegistry,
    pub filter: Option<TupleFilter<'a>>,
}

impl<'a> BodyEval<'a> {
    pub fn new(db: &'a Database, reg: &'a BuiltinRegistry) -> BodyEval<'a> {
        BodyEval {
            db,
            reg,
            filter: None,
        }
    }

    /// The substitution of every solution of `body`, optionally pinning
    /// literal `pinned.0` to tuple `pinned.1`: [`BodyEval::for_each`]
    /// collected, with the literals in [`order_literals`] order planned
    /// from the variables `seed` binds — a seeded rule opens at a literal
    /// the seed keys.
    pub fn solutions(
        &self,
        body: &[Literal],
        seed: FlatSubst,
        pinned: Option<(usize, &'a Tuple)>,
    ) -> Result<Vec<FlatSubst>, EvalError> {
        let bound: Vec<Symbol> = seed.iter().map(|(v, _)| v).collect();
        let order = order_literals(body, pinned.map(|(i, _)| i), &bound);
        let mut out = Vec::new();
        self.for_each(body, &order, seed, pinned, &mut |subst, _| {
            out.push(subst);
            Ok(())
        })?;
        Ok(out)
    }

    /// Hand every solution of `body`, its literals evaluated in `order`, to
    /// `sink` as it completes. `pinned` fixes literal `pinned.0` to tuple
    /// `pinned.1` (works for positive *and* negated literals — a pinned
    /// negated literal is matched positively and skipped as a check, which
    /// is exactly the `T_s1` construction of Sec. IV-B); `order` must have
    /// been planned for that pin and for the variables `seed` binds.
    pub fn for_each(
        &self,
        body: &[Literal],
        order: &[usize],
        seed: FlatSubst,
        pinned: Option<(usize, &'a Tuple)>,
        sink: &mut impl FnMut(FlatSubst, Inputs<'_>) -> Result<(), EvalError>,
    ) -> Result<(), EvalError> {
        self.walk(body, order, seed, pinned, &mut Vec::new(), sink)
    }

    /// One step of the walk: `order[0]` under `subst`, then the rest.
    fn walk(
        &self,
        body: &[Literal],
        order: &[usize],
        subst: FlatSubst,
        pinned: Option<(usize, &'a Tuple)>,
        inputs: &mut Vec<(usize, Tuple)>,
        sink: &mut impl FnMut(FlatSubst, Inputs<'_>) -> Result<(), EvalError>,
    ) -> Result<(), EvalError> {
        let Some((&idx, rest)) = order.split_first() else {
            return sink(subst, inputs);
        };
        let lit = &body[idx];
        let pin = pinned.and_then(|(pi, pt)| (pi == idx).then_some(pt));
        match lit {
            Literal::Pos(atom) => {
                // Inputs stay sorted by literal index, so derivations
                // compare equal regardless of which literal was pinned.
                let at = inputs.partition_point(|&(i, _)| i < idx);
                let mut extend = |t: Cow<Tuple>, mut s: FlatSubst| {
                    if !flat_match_args(self.reg, &atom.args, t.ids(), &mut s) {
                        return Ok(());
                    }
                    inputs.insert(at, (idx, t.into_owned()));
                    let walked = self.walk(body, rest, s, pinned, inputs, sink);
                    inputs.remove(at);
                    walked
                };
                if let Some(pt) = pin {
                    return extend(Cow::Borrowed(pt), subst);
                }
                let Some(rel) = self.db.relation(atom.pred) else {
                    return Ok(());
                };
                let excluded = self
                    .filter
                    .filter(|f| f.excludes_at(atom.pred, idx))
                    .map(|f| f.tuple);
                let key = bound_key(self.reg, atom, &subst);
                // The visit cannot stop the lookup: after an error the
                // remaining candidates are skipped.
                let mut walked = Ok(());
                rel.lookup(key.cols(), key.ids(), |found| {
                    if walked.is_ok() && excluded != Some(found.tuple()) {
                        walked = extend(found.into_cow(), subst.clone());
                    }
                });
                walked
            }
            Literal::Neg(atom) => {
                let mut s = subst;
                let holds = match pin {
                    // Pinned negated literal: match positively, skip the
                    // negation check for this occurrence (Sec. IV-B).
                    Some(pt) => flat_match_args(self.reg, &atom.args, pt.ids(), &mut s),
                    None => self.neg_holds(atom, &s, idx)?,
                };
                if holds {
                    self.walk(body, rest, s, pinned, inputs, sink)?;
                }
                Ok(())
            }
            Literal::Cmp(..) | Literal::Builtin(_) => {
                let mut s = subst;
                match eval_check(self.reg, lit, &mut s)? {
                    Check::Holds => self.walk(body, rest, s, pinned, inputs, sink),
                    Check::Fails => Ok(()),
                    Check::Unbound => Err(EvalError::Internal(format!(
                        "`{lit}` reached with unbound variables"
                    ))),
                }
            }
        }
    }

    /// `true` when no stored tuple matches the (fully ground) negated atom.
    fn neg_holds(&self, atom: &Atom, subst: &FlatSubst, lit_idx: usize) -> Result<bool, EvalError> {
        let Some(t) = ground_atom(self.reg, atom, subst)? else {
            return Err(EvalError::Internal(format!(
                "negated subgoal `{atom}` reached with unbound variables"
            )));
        };
        if let Some(f) = self.filter {
            if f.excludes_at(atom.pred, lit_idx) && t == *f.tuple {
                return Ok(true); // excluded from the check
            }
        }
        Ok(!self.db.contains(atom.pred, &t))
    }
}

/// Instantiate a (non-aggregate) rule head under a solution substitution,
/// evaluating interpreted functions.
pub fn instantiate_head(
    rule: &Rule,
    subst: &FlatSubst,
    reg: &BuiltinRegistry,
) -> Result<Tuple, EvalError> {
    debug_assert!(rule.agg.is_none(), "aggregate heads use aggregate_rule");
    ground_atom(reg, &rule.head, subst)?.ok_or_else(|| {
        EvalError::Internal(format!("head of rule #{} has unbound variables", rule.id))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensorlog_logic::parser::{parse_fact, parse_rule};

    fn db_with(facts: &[&str]) -> Database {
        let mut db = Database::new();
        for f in facts {
            let (p, args) = parse_fact(f).unwrap();
            db.insert(p, Tuple::new(args));
        }
        db
    }

    fn solutions_of(rule_src: &str, facts: &[&str]) -> Vec<Tuple> {
        let rule = parse_rule(rule_src).unwrap();
        let db = db_with(facts);
        let reg = BuiltinRegistry::standard();
        let ev = BodyEval::new(&db, &reg);
        let sols = ev.solutions(&rule.body, FlatSubst::new(), None).unwrap();
        let mut out: Vec<Tuple> = sols
            .iter()
            .map(|s| instantiate_head(&rule, s, &reg).unwrap())
            .collect();
        out.sort();
        out.dedup();
        out
    }

    fn tup(src: &str) -> Tuple {
        let (_, args) = parse_fact(&format!("x({src})")).unwrap();
        Tuple::new(args)
    }

    /// The inputs `for_each` lends its sink, per solution, owned.
    fn inputs_of(
        ev: &BodyEval,
        body: &[Literal],
        pinned: Option<(usize, &Tuple)>,
    ) -> Vec<Vec<(usize, Tuple)>> {
        let order = order_literals(body, pinned.map(|(i, _)| i), &[]);
        let mut out = Vec::new();
        ev.for_each(body, &order, FlatSubst::new(), pinned, &mut |_, inputs| {
            out.push(inputs.to_vec());
            Ok(())
        })
        .unwrap();
        out
    }

    #[test]
    fn simple_join() {
        let out = solutions_of(
            "q(X, Z) :- e(X, Y), e(Y, Z).",
            &["e(1, 2)", "e(2, 3)", "e(2, 4)"],
        );
        assert_eq!(out, vec![tup("1, 3"), tup("1, 4")]);
    }

    #[test]
    fn comparison_filters() {
        let out = solutions_of("q(X) :- p(X), X > 2.", &["p(1)", "p(2)", "p(3)", "p(4)"]);
        assert_eq!(out, vec![tup("3"), tup("4")]);
    }

    #[test]
    fn negation_before_positives_is_reordered() {
        // Paper's Example 1 ordering: negation written first.
        let out = solutions_of(
            "uncov(L) :- not cov(L), veh(L).",
            &["veh(1)", "veh(2)", "cov(1)"],
        );
        assert_eq!(out, vec![tup("2")]);
    }

    #[test]
    fn arithmetic_in_head() {
        let out = solutions_of("q(X + 1) :- p(X).", &["p(1)", "p(2)"]);
        assert_eq!(out, vec![tup("2"), tup("3")]);
    }

    #[test]
    fn assignment_binds() {
        let out = solutions_of("q(Y) :- p(X), Y == X * 10.", &["p(1)", "p(2)"]);
        assert_eq!(out, vec![tup("10"), tup("20")]);
    }

    #[test]
    fn function_symbol_matching() {
        let out = solutions_of(
            "q(X, Y) :- p(loc(X, Y)).",
            &["p(loc(1, 2))", "p(loc(3, 4))", "p(other(9))"],
        );
        assert_eq!(out, vec![tup("1, 2"), tup("3, 4")]);
    }

    #[test]
    fn index_key_evaluates_functions() {
        // The pattern arg `X + 1` must be evaluated before index lookup.
        let out = solutions_of("q(X) :- p(X), r(X + 1).", &["p(1)", "p(5)", "r(2)"]);
        assert_eq!(out, vec![tup("1")]);
    }

    #[test]
    fn wide_atom_keys_past_the_inline_columns() {
        // Nine columns: the key of `w` lives in `BoundKey`'s spill.
        let out = solutions_of(
            "q(A) :- r(K), w(A, 1, 2, 3, 4, 5, 6, 7, K).",
            &[
                "r(8)",
                "w(10, 1, 2, 3, 4, 5, 6, 7, 8)",
                "w(11, 1, 2, 3, 4, 5, 6, 7, 9)",
                "w(12, 1, 2, 3, 4, 5, 6, 0, 8)",
            ],
        );
        assert_eq!(out, vec![tup("10")]);
        let reg = BuiltinRegistry::standard();
        let rule = parse_rule("q(A) :- w(A, 1, 2, 3, 4, 5, 6, 7, K).").unwrap();
        let key = bound_key(&reg, rule.body[0].atom().unwrap(), &FlatSubst::new());
        assert_eq!(key.cols(), [1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(key.ids().len(), 7);
    }

    #[test]
    fn pinned_positive_literal() {
        let rule = parse_rule("q(X, Z) :- e(X, Y), e(Y, Z).").unwrap();
        let db = db_with(&["e(1, 2)", "e(2, 3)"]);
        let reg = BuiltinRegistry::standard();
        let ev = BodyEval::new(&db, &reg);
        // Pin the second literal to (2, 3): only X=1,Z=3 solution remains.
        let pin = tup("2, 3");
        let sols = ev
            .solutions(&rule.body, FlatSubst::new(), Some((1, &pin)))
            .unwrap();
        assert_eq!(sols.len(), 1);
        let head = instantiate_head(&rule, &sols[0], &reg).unwrap();
        assert_eq!(head, tup("1, 3"));
        // Derivation inputs contain both e-tuples with their literal index.
        let inputs = inputs_of(&ev, &rule.body, Some((1, &pin)));
        assert_eq!(inputs, [vec![(0, tup("1, 2")), (1, pin.clone())]]);
    }

    #[test]
    fn pinned_negated_literal() {
        // T_s construction: pin `not cov(L)` to cov(2) and match positively.
        let rule = parse_rule("uncov(L) :- veh(L), not cov(L).").unwrap();
        let db = db_with(&["veh(1)", "veh(2)"]);
        let reg = BuiltinRegistry::standard();
        let ev = BodyEval::new(&db, &reg);
        let pin = tup("2");
        let sols = ev
            .solutions(&rule.body, FlatSubst::new(), Some((1, &pin)))
            .unwrap();
        assert_eq!(sols.len(), 1);
        let head = instantiate_head(&rule, &sols[0], &reg).unwrap();
        assert_eq!(head, tup("2"));
        // The negated match is NOT part of the derivation inputs.
        let inputs = inputs_of(&ev, &rule.body, Some((1, &pin)));
        assert_eq!(inputs, [vec![(0, tup("2"))]]);
    }

    #[test]
    fn tuple_filter_excludes_specific_occurrence() {
        let rule = parse_rule("q(X, Z) :- e(X, Y), e(Y, Z).").unwrap();
        let db = db_with(&["e(1, 1)"]);
        let reg = BuiltinRegistry::standard();
        let pin = tup("1, 1");
        let filter = TupleFilter {
            pred: Symbol::intern("e"),
            tuple: &pin,
            literal_indexes: &[1],
        };
        let ev = BodyEval {
            db: &db,
            reg: &reg,
            filter: Some(filter),
        };
        // e(1,1) join e(1,1) exists, but occurrence 1 excludes the tuple.
        let sols = ev.solutions(&rule.body, FlatSubst::new(), None).unwrap();
        assert!(sols.is_empty());
        // A pin overrides the filter at its own occurrence: pinning
        // occurrence 1 to the filtered tuple still yields the solution
        // via occurrence 0 (where the filter does not apply).
        let sols = ev
            .solutions(&rule.body, FlatSubst::new(), Some((1, &pin)))
            .unwrap();
        assert_eq!(sols.len(), 1);
        // Filtering occurrence 0 instead kills it: the delta staircase
        // (old state before the updated occurrence).
        let ev0 = BodyEval {
            filter: Some(TupleFilter {
                literal_indexes: &[0],
                ..filter
            }),
            ..ev
        };
        let sols = ev0
            .solutions(&rule.body, FlatSubst::new(), Some((1, &pin)))
            .unwrap();
        assert!(sols.is_empty());
    }

    #[test]
    fn seeded_solutions_probe_instead_of_scanning() {
        // Written order opens at `e`; with S seeded the plan opens at
        // `p(S, X)` keyed on S, and no literal runs without a bound column.
        let rule = parse_rule("q(X, Y) :- e(X, Y), p(S, X).").unwrap();
        let db = db_with(&["e(1, 2)", "e(3, 4)", "p(7, 1)", "p(8, 3)"]);
        let reg = BuiltinRegistry::standard();
        let ev = BodyEval::new(&db, &reg);
        let mut seed = FlatSubst::new();
        seed.bind(Symbol::intern("S"), intern::intern_int(7));
        let sols = ev.solutions(&rule.body, seed, None).unwrap();
        assert_eq!(sols.len(), 1);
        assert_eq!(
            instantiate_head(&rule, &sols[0], &reg).unwrap(),
            tup("1, 2")
        );
        assert_eq!(db.index_stats().full_scans, 0);
        ev.solutions(&rule.body, FlatSubst::new(), None).unwrap();
        assert_eq!(db.index_stats().full_scans, 1);
    }

    #[test]
    fn builtin_pred_in_body() {
        use std::sync::Arc;
        let mut reg = BuiltinRegistry::standard();
        reg.register_pred(
            "even",
            Arc::new(|args: &[Term]| Ok(matches!(args, [Term::Int(i)] if i % 2 == 0))),
        );
        let rule = parse_rule("q(X) :- p(X), even(X).").unwrap();
        let rule = sensorlog_logic::safety::resolve_builtins(&rule, &reg);
        let db = db_with(&["p(1)", "p(2)", "p(3)", "p(4)"]);
        let ev = BodyEval::new(&db, &reg);
        let sols = ev.solutions(&rule.body, FlatSubst::new(), None).unwrap();
        assert_eq!(sols.len(), 2);
    }
}
