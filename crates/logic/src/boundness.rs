//! Shared boundness analysis: which variables are bound where.
//!
//! Three consumers historically replayed the same reasoning independently:
//!
//! * [`crate::safety`] — is every head/negated/comparison variable bound by
//!   a positive relational subgoal (plus equality assignments)?
//! * `eval::eval_body::BodyEval::solutions` — greedy literal-ordering that
//!   prefers fully-bound checks and positive subgoals sharing a bound
//!   variable, starting from the variables its seed substitution binds;
//! * `eval::planner` — replaying that order statically to derive per-literal
//!   bound-column index signatures.
//!
//! This module is the single source of truth. The invariant tying the
//! callers together: for a *safe* rule, the dynamic ground-column set
//! computed per substitution during evaluation is exactly the static bound
//! set derived here (matching a positive atom binds all of its variables;
//! seeds and pins bind theirs).

use crate::ast::{CmpOp, Literal, Rule};
use crate::symbol::Symbol;
use crate::term::Term;
use crate::xy::XyInfo;
use std::collections::BTreeSet;

/// Evaluation order of body literals, starting from the variables in
/// `bound` (the evaluator's seed substitution; `&[]` when nothing is
/// seeded): the pinned literal (if any) first, then greedily — fully-bound
/// checks and assignments as early as possible, positive subgoals
/// preferring those with at least one bound argument. Mirrors the static
/// boundness reasoning of the safety check, so safe rules always order
/// successfully.
pub fn order_literals(body: &[Literal], pinned: Option<usize>, bound: &[Symbol]) -> Vec<usize> {
    let n = body.len();
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut used = vec![false; n];
    let mut bound: Vec<Symbol> = bound.to_vec();

    let bind_lit = |lit: &Literal, bound: &mut Vec<Symbol>| {
        if let Literal::Pos(a) = lit {
            a.collect_vars(bound);
        }
    };

    if let Some(p) = pinned {
        used[p] = true;
        order.push(p);
        // A pinned literal (positive or negated) binds its variables.
        if let Some(a) = body[p].atom() {
            a.collect_vars(&mut bound);
        }
    }

    while order.len() < n {
        let is_bound = |t: &Term, bound: &[Symbol]| t.vars().iter().all(|v| bound.contains(v));
        let mut pick: Option<usize> = None;
        // 1. fully bound non-positive literal (cheap filter)
        for i in 0..n {
            if used[i] {
                continue;
            }
            match &body[i] {
                Literal::Neg(a) | Literal::Builtin(a)
                    if a.args.iter().all(|t| is_bound(t, &bound)) =>
                {
                    pick = Some(i);
                    break;
                }
                Literal::Cmp(_, l, r) if is_bound(l, &bound) && is_bound(r, &bound) => {
                    pick = Some(i);
                    break;
                }
                _ => {}
            }
        }
        // 2. assignment: Eq with exactly one side a bindable variable
        if pick.is_none() {
            for i in 0..n {
                if used[i] {
                    continue;
                }
                if let Literal::Cmp(CmpOp::Eq, l, r) = &body[i] {
                    let lb = is_bound(l, &bound);
                    let rb = is_bound(r, &bound);
                    if (lb && matches!(r, Term::Var(_))) || (rb && matches!(l, Term::Var(_))) {
                        pick = Some(i);
                        break;
                    }
                }
            }
        }
        // 3. positive subgoal sharing a bound variable
        if pick.is_none() {
            for i in 0..n {
                if used[i] {
                    continue;
                }
                if let Literal::Pos(a) = &body[i] {
                    if a.vars().iter().any(|v| bound.contains(v)) {
                        pick = Some(i);
                        break;
                    }
                }
            }
        }
        // 4. any positive subgoal
        if pick.is_none() {
            for i in 0..n {
                if used[i] {
                    continue;
                }
                if matches!(body[i], Literal::Pos(_)) {
                    pick = Some(i);
                    break;
                }
            }
        }
        // 5. anything left (unsafe rules only — evaluation will error)
        if pick.is_none() {
            pick = (0..n).find(|&i| !used[i]);
        }
        let i = pick.expect("order_literals: no literal left");
        used[i] = true;
        order.push(i);
        bind_lit(&body[i], &mut bound);
        // Assignments bind their variable side.
        if let Literal::Cmp(CmpOp::Eq, l, r) = &body[i] {
            if let Term::Var(v) = l {
                if !bound.contains(v) {
                    bound.push(*v);
                }
            }
            if let Term::Var(v) = r {
                if !bound.contains(v) {
                    bound.push(*v);
                }
            }
        }
    }
    order
}

/// Argument positions of `args` whose variables are all in `bound`
/// (constants qualify vacuously), sorted ascending.
pub fn bound_cols(args: &[Term], bound: &[Symbol]) -> Vec<usize> {
    args.iter()
        .enumerate()
        .filter(|(_, t)| t.vars().iter().all(|v| bound.contains(v)))
        .map(|(i, _)| i)
        .collect()
}

/// Per-literal probe signatures for one evaluation order that started from
/// the variables in `bound`. `plan[i]` is the sorted bound-column set
/// literal `i` probes with; empty means full scan (or a literal that is
/// never probed: pinned, negated, comparison, builtin).
pub fn probe_plan(
    body: &[Literal],
    order: &[usize],
    pinned: Option<usize>,
    bound: &[Symbol],
) -> Vec<Vec<usize>> {
    let mut bound: Vec<Symbol> = bound.to_vec();
    let mut plan: Vec<Vec<usize>> = vec![Vec::new(); body.len()];
    for &idx in order {
        let is_pinned = pinned == Some(idx);
        match &body[idx] {
            Literal::Pos(a) => {
                if !is_pinned {
                    plan[idx] = bound_cols(&a.args, &bound);
                }
                a.collect_vars(&mut bound);
            }
            Literal::Neg(a) => {
                // Negated literals check one exact tuple (no index probe),
                // but a *pinned* negated literal matches positively and
                // binds its variables — mirror order_literals.
                if is_pinned {
                    a.collect_vars(&mut bound);
                }
            }
            Literal::Cmp(CmpOp::Eq, l, r) => {
                // Assignments bind their variable side (order_literals).
                for t in [l, r] {
                    if let Term::Var(v) = t {
                        if !bound.contains(v) {
                            bound.push(*v);
                        }
                    }
                }
            }
            Literal::Cmp(..) | Literal::Builtin(_) => {}
        }
    }
    plan
}

/// Variables bound by the positive relational subgoals plus equality
/// assignments, computed to fixpoint. This is the safety check's notion of
/// boundness (order-independent, unlike [`order_literals`]'s greedy pass,
/// but they agree on safe rules).
pub fn rule_bound_vars(rule: &Rule) -> BTreeSet<Symbol> {
    let mut bound: BTreeSet<Symbol> = BTreeSet::new();
    for atom in rule.positive_atoms() {
        let mut vs = Vec::new();
        atom.collect_vars(&mut vs);
        bound.extend(vs);
    }
    // Equality assignments may cascade, so iterate to fixpoint.
    loop {
        let mut changed = false;
        for lit in &rule.body {
            if let Literal::Cmp(CmpOp::Eq, l, r) = lit {
                let l_vars = l.vars();
                let r_vars = r.vars();
                let l_bound = l_vars.iter().all(|v| bound.contains(v));
                let r_bound = r_vars.iter().all(|v| bound.contains(v));
                if r_bound && !l_bound {
                    if let Term::Var(v) = l {
                        changed |= bound.insert(*v);
                    }
                }
                if l_bound && !r_bound {
                    if let Term::Var(v) = r {
                        changed |= bound.insert(*v);
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    bound
}

/// The boundness **signature** of a rule under one pin and one seed: the
/// evaluation order plus the per-literal probe columns. This is the exact
/// object the planner registers indexes from and the `check` lints inspect,
/// exposed as one struct so regression tests can assert the two consumers
/// agree.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RuleSignature {
    pub pinned: Option<usize>,
    /// Variables bound before the first literal runs.
    pub seed: Vec<Symbol>,
    pub order: Vec<usize>,
    pub plan: Vec<Vec<usize>>,
}

impl RuleSignature {
    pub fn new(rule: &Rule, pinned: Option<usize>, seed: Vec<Symbol>) -> RuleSignature {
        let order = order_literals(&rule.body, pinned, &seed);
        let plan = probe_plan(&rule.body, &order, pinned, &seed);
        RuleSignature {
            pinned,
            seed,
            order,
            plan,
        }
    }
}

/// Signatures of a rule for every way the engines evaluate it: the unpinned
/// order, one pinned variant per relational (positive or negated) literal
/// (semi-naive pins positive SCC occurrences; the incremental engine pins
/// positive *and* negated ones), and — for a staged rule of an XY component
/// in `xy` — the unpinned order seeded with the head's stage variable,
/// which is how the batch engine's stage loop runs it.
pub fn rule_signatures(rule: &Rule, xy: &[XyInfo]) -> Vec<RuleSignature> {
    let mut sigs = vec![RuleSignature::new(rule, None, Vec::new())];
    for (i, lit) in rule.body.iter().enumerate() {
        if matches!(lit, Literal::Pos(_) | Literal::Neg(_)) {
            sigs.push(RuleSignature::new(rule, Some(i), Vec::new()));
        }
    }
    if let Some(v) = xy.iter().find_map(|info| info.stage_seed(rule)) {
        sigs.push(RuleSignature::new(rule, None, vec![v]));
    }
    sigs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_program, parse_rule};

    #[test]
    fn order_prefers_bound_joins() {
        let r = parse_rule("q(X, Z) :- e(X, Y), e(Y, Z).").unwrap();
        let order = order_literals(&r.body, None, &[]);
        assert_eq!(order, vec![0, 1]);
        let plan = probe_plan(&r.body, &order, None, &[]);
        assert_eq!(plan[0], Vec::<usize>::new());
        assert_eq!(plan[1], vec![0]);
    }

    #[test]
    fn pinned_binds_without_probing() {
        let r = parse_rule("q(X, Z) :- e(X, Y), e(Y, Z).").unwrap();
        let order = order_literals(&r.body, Some(1), &[]);
        assert_eq!(order[0], 1);
        let plan = probe_plan(&r.body, &order, Some(1), &[]);
        assert!(plan[1].is_empty());
        assert_eq!(plan[0], vec![1]);
    }

    #[test]
    fn checks_are_ordered_after_binders() {
        let r = parse_rule("q(L) :- not cov(L), veh(L), dist(L, L) <= 5.").unwrap();
        let order = order_literals(&r.body, None, &[]);
        // veh (idx 1) first, then the bound check/negation in some order.
        assert_eq!(order[0], 1);
        assert!(order.contains(&0) && order.contains(&2));
    }

    #[test]
    fn constants_and_assignments_count_as_bound() {
        let r = parse_rule("q(X) :- Y == 3, p(7, Y, X).").unwrap();
        let order = order_literals(&r.body, None, &[]);
        let plan = probe_plan(&r.body, &order, None, &[]);
        assert_eq!(plan[1], vec![0, 1], "constant col 0 + assigned col 1");
    }

    #[test]
    fn seed_variables_are_bound() {
        let r = parse_rule("q(X) :- p(S, X).").unwrap();
        let seed = [Symbol::intern("S")];
        let order = order_literals(&r.body, None, &seed);
        assert_eq!(probe_plan(&r.body, &order, None, &seed)[0], vec![0]);
    }

    const LOGIC_H: &str = r#"
        h(0, 0, 0).
        h(0, X, 1) :- g(0, X).
        hp(Y, D + 1) :- h(_, Y, D'), (D + 1) > D', h(_, X, D), g(X, Y).
        h(X, Y, D + 1) :- g(X, Y), h(_, X, D), not hp(Y, D + 1).
    "#;

    /// With the stage variable seeded, logicH's rules open at the literal
    /// keyed by it and never scan; unseeded orders are what they always
    /// were (the pinned journals depend on them).
    #[test]
    fn stage_seed_opens_at_the_stage_keyed_literal() {
        let prog = parse_program(LOGIC_H).unwrap();
        let (hp, h) = (&prog.rules[2], &prog.rules[3]);
        let d = [Symbol::intern("D")];

        // h(_, X, D), g(X, Y), h(_, Y, D'), (D + 1) > D'
        let order = order_literals(&hp.body, None, &d);
        assert_eq!(order, vec![2, 3, 0, 1]);
        let plan = probe_plan(&hp.body, &order, None, &d);
        assert_eq!(plan[2], vec![2]);
        assert_eq!(plan[3], vec![0]);
        assert_eq!(plan[0], vec![1]);

        // h(_, X, D), g(X, Y), not hp(Y, D + 1)
        let order = order_literals(&h.body, None, &d);
        assert_eq!(order, vec![1, 0, 2]);
        let plan = probe_plan(&h.body, &order, None, &d);
        assert_eq!(plan[1], vec![2]);
        assert_eq!(plan[0], vec![0]);

        assert_eq!(order_literals(&hp.body, None, &[]), vec![0, 3, 2, 1]);
        assert_eq!(order_literals(&hp.body, Some(2), &[]), vec![2, 3, 0, 1]);
        assert_eq!(order_literals(&h.body, None, &[]), vec![0, 1, 2]);
        assert_eq!(order_literals(&h.body, Some(2), &[]), vec![2, 0, 1]);
    }

    #[test]
    fn bound_vars_fixpoint_cascades() {
        let r = parse_rule("q(U) :- p(X), U == T * 2, T == X + 1.").unwrap();
        let b = rule_bound_vars(&r);
        for v in ["X", "T", "U"] {
            assert!(b.contains(&Symbol::intern(v)), "{v} should be bound");
        }
    }

    #[test]
    fn signatures_enumerate_pins_and_the_stage_seed() {
        let r = parse_rule("t(X, Y) :- t(X, Z), e(Z, Y).").unwrap();
        let sigs = rule_signatures(&r, &[]);
        assert_eq!(sigs.len(), 3); // unpinned + pin 0 + pin 1
        assert_eq!(sigs[0].pinned, None);
        assert_eq!(sigs[1].pinned, Some(0));
        assert_eq!(sigs[2].pinned, Some(1));
        assert!(sigs.iter().all(|s| s.seed.is_empty()));

        let prog = parse_program(LOGIC_H).unwrap();
        let xy = crate::xy::check_program(&prog).unwrap();
        let d = Symbol::intern("D");
        // Import rules (no SCC subgoal) are not staged: no seeded variant.
        assert!(rule_signatures(&prog.rules[1], &xy)
            .iter()
            .all(|s| s.seed.is_empty()));
        for rule in &prog.rules[2..] {
            let sigs = rule_signatures(rule, &xy);
            let seeded = sigs.last().unwrap();
            assert_eq!((seeded.pinned, &seeded.seed), (None, &vec![d]));
            assert_eq!(sigs.iter().filter(|s| !s.seed.is_empty()).count(), 1);
        }
    }
}
