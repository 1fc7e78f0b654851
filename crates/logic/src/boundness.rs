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

use crate::ast::{Atom, CmpOp, Literal, Rule};
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
        let mut pick: Option<usize> = None;
        // 1. fully bound non-positive literal (cheap filter)
        for i in 0..n {
            if used[i] {
                continue;
            }
            match &body[i] {
                Literal::Neg(a) | Literal::Builtin(a)
                    if a.args.iter().all(|t| grounded(t, &bound)) =>
                {
                    pick = Some(i);
                    break;
                }
                Literal::Cmp(_, l, r) if grounded(l, &bound) && grounded(r, &bound) => {
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
                    let lb = grounded(l, &bound);
                    let rb = grounded(r, &bound);
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
        .filter(|(_, t)| grounded(t, bound))
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

/// Are all of `t`'s variables in `bound`?
fn grounded(t: &Term, bound: &[Symbol]) -> bool {
    match t {
        Term::Var(v) => bound.contains(v),
        Term::App(_, args) => args.iter().all(|a| grounded(a, bound)),
        _ => true,
    }
}

/// Bind the variable side of every equality assignment whose other side
/// `bound` grounds, to fixpoint (the checks a node probe evaluates as soon
/// as they can).
fn close_assignments(body: &[Literal], bound: &mut Vec<Symbol>) {
    loop {
        let before = bound.len();
        for lit in body {
            if let Literal::Cmp(CmpOp::Eq, l, r) = lit {
                for (side, other) in [(l, r), (r, l)] {
                    if let Term::Var(v) = side {
                        if !bound.contains(v) && grounded(other, bound) {
                            bound.push(*v);
                        }
                    }
                }
            }
        }
        if bound.len() == before {
            return;
        }
    }
}

/// The passes of a node probe pinned at relational literal `pinned` (Sec.
/// III-A, footnote 2): the positive literals other than the pin, layered so
/// that each pass holds the literals that open with at least one bound
/// column given the pin and the earlier passes. A literal nothing can key —
/// no column bound even with the pin and every other literal joined — goes
/// in the current pass rather than wait for nothing; so does the lowest
/// literal of a set that can only key each other. Keyed rules get one
/// pass; a rule with no positive literal besides the pin gets none.
pub fn pass_plan(body: &[Literal], pinned: usize) -> Vec<Vec<usize>> {
    let atom = |i: usize| body[i].atom().expect("a relational literal");
    let opens = |i: usize, bound: &[Symbol]| atom(i).args.iter().any(|t| grounded(t, bound));
    let positives: Vec<usize> = (0..body.len())
        .filter(|&i| i != pinned && matches!(body[i], Literal::Pos(_)))
        .collect();
    // Opens keyed once the pin and every other literal have joined.
    let keyable = |i: usize| {
        let mut best = Vec::new();
        for j in std::iter::once(pinned).chain(positives.iter().copied()) {
            if j != i {
                atom(j).collect_vars(&mut best);
            }
        }
        close_assignments(body, &mut best);
        opens(i, &best)
    };
    let mut bound: Vec<Symbol> = Vec::new();
    atom(pinned).collect_vars(&mut bound);
    let mut left = positives.clone();
    let mut passes = Vec::new();
    while !left.is_empty() {
        close_assignments(body, &mut bound);
        let mut pass: Vec<usize> = (left.iter().copied())
            .filter(|&i| opens(i, &bound) || !keyable(i))
            .collect();
        if pass.is_empty() {
            pass.push(left[0]);
        }
        for &i in &pass {
            atom(i).collect_vars(&mut bound);
        }
        left.retain(|i| !pass.contains(i));
        passes.push(pass);
    }
    passes
}

/// What a node probe pinned at relational literal `pinned` does for the
/// negated literals besides its pin.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum Negations {
    /// There are none: a partial is emitted where it completes.
    #[default]
    None,
    /// The pin grounds each one: a complete partial is held to the end of
    /// the walk, and every node it visits checks them.
    Held,
    /// Some become ground only mid-walk, after the walk may have passed the
    /// node holding their tuple: held, and on a walk of more than one node
    /// walked once more past the last pass, which only checks.
    Repass,
}

/// Classify the negated literals of `body` besides `body[pinned]` by what
/// the pin grounds.
pub fn negations(body: &[Literal], pinned: usize) -> Negations {
    let pin = body[pinned].atom().map_or_else(Vec::new, Atom::vars);
    let mut negated = (body.iter().enumerate())
        .filter_map(|(i, l)| match l {
            Literal::Neg(a) if i != pinned => Some(a),
            _ => None,
        })
        .peekable();
    if negated.peek().is_none() {
        Negations::None
    } else if negated.all(|a| a.vars().iter().all(|v| pin.contains(v))) {
        Negations::Held
    } else {
        Negations::Repass
    }
}

/// The passes a node probe pinned at relational literal `pinned` walks
/// over a region of more than one node: [`pass_plan`]'s, at least one, and
/// one more under [`Negations::Repass`].
pub fn pin_passes(body: &[Literal], pinned: usize) -> usize {
    let repass = negations(body, pinned) == Negations::Repass;
    pass_plan(body, pinned).len().max(1) + usize::from(repass)
}

/// Variables bound by the positive relational subgoals plus equality
/// assignments, computed to fixpoint. This is the safety check's notion of
/// boundness (order-independent, unlike [`order_literals`]'s greedy pass,
/// but they agree on safe rules).
pub fn rule_bound_vars(rule: &Rule) -> BTreeSet<Symbol> {
    let mut bound: Vec<Symbol> = Vec::new();
    for atom in rule.positive_atoms() {
        atom.collect_vars(&mut bound);
    }
    // Equality assignments may cascade: `close_assignments` runs to fixpoint.
    close_assignments(&rule.body, &mut bound);
    bound.into_iter().collect()
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

    /// `pass_plan` as a table: rule, pin, passes. Every case also holds the
    /// plan to its contract — each positive literal but the pin in exactly
    /// one pass, and every pass after the first keyed by what came before.
    #[test]
    fn pass_plans_open_every_literal_keyed() {
        let logic_j = "jp(Y, D + 1) :- j(Y, D'), (D + 1) > D', j(X, D), g(X, Y).";
        let stream = |n: usize| {
            let body: Vec<String> = (1..=n).map(|i| format!("r{i}(N{i}, X{i}, K)")).collect();
            let head: Vec<String> = (1..=n).map(|i| format!("X{i}")).collect();
            format!("q({}) :- {}.", head.join(", "), body.join(", "))
        };
        let (s2, s3, s4) = (stream(2), stream(3), stream(4));
        let cases: &[(&str, usize, &[&[usize]])] = &[
            // logicH: either `h` pin opens `g` first, the other `h` after it.
            (
                "hp(Y, D + 1) :- h(_, Y, D'), (D + 1) > D', h(_, X, D), g(X, Y).",
                0,
                &[&[3], &[2]],
            ),
            (
                "hp(Y, D + 1) :- h(_, Y, D'), (D + 1) > D', h(_, X, D), g(X, Y).",
                2,
                &[&[3], &[0]],
            ),
            (
                "hp(Y, D + 1) :- h(_, Y, D'), (D + 1) > D', h(_, X, D), g(X, Y).",
                3,
                &[&[0, 2]],
            ),
            (
                "h(X, Y, D + 1) :- g(X, Y), h(_, X, D), not hp(Y, D + 1).",
                0,
                &[&[1]],
            ),
            (
                "h(X, Y, D + 1) :- g(X, Y), h(_, X, D), not hp(Y, D + 1).",
                2,
                &[&[0, 1]],
            ),
            (logic_j, 0, &[&[3], &[2]]),
            (logic_j, 2, &[&[3], &[0]]),
            (logic_j, 3, &[&[0, 2]]),
            (
                "j(Y, D + 1) :- g(X, Y), j(X, D), not jp(Y, D + 1).",
                1,
                &[&[0]],
            ),
            ("q(X, Y) :- r1(N1, X, K), r2(N2, Y, K).", 0, &[&[1]]),
            ("q(X, Y) :- r1(N1, X, K), r2(N2, Y, K).", 1, &[&[0]]),
            (
                "cov(L, T) :- veh(\"enemy\", L, T), veh(\"friendly\", F, T), dist(L, F) <= 8.",
                0,
                &[&[1]],
            ),
            (
                "cov(L, T) :- veh(\"enemy\", L, T), veh(\"friendly\", F, T), dist(L, F) <= 8.",
                1,
                &[&[0]],
            ),
            (
                "uncov(L, T) :- not cov(L, T), veh(\"enemy\", L, T).",
                0,
                &[&[1]],
            ),
            (
                "uncov(L, T) :- not cov(L, T), veh(\"enemy\", L, T).",
                1,
                &[],
            ),
            (&s2, 1, &[&[0]]),
            (&s3, 0, &[&[1, 2]]),
            (&s3, 2, &[&[0, 1]]),
            (&s4, 1, &[&[0, 2, 3]]),
            // Nothing can key `s`: it waits for nothing.
            ("q(X, Y) :- r(X), s(Y).", 0, &[&[1]]),
            // `r` and `s` can only key each other: the lower one opens.
            ("q(A, Z) :- p(A), r(X, Y), s(Y, Z).", 0, &[&[1], &[2]]),
            // An assignment the pin grounds keys `s` in the first pass.
            ("q(Y) :- p(X), Y == X + 1, r(Z), s(Y, Z).", 0, &[&[3], &[2]]),
        ];
        for &(src, pin, want) in cases {
            let rule = parse_rule(src).unwrap();
            let got = pass_plan(&rule.body, pin);
            let want: Vec<Vec<usize>> = want.iter().map(|p| p.to_vec()).collect();
            assert_eq!(got, want, "{src} pinned at {pin}");
            let mut seen: Vec<usize> = got.concat();
            seen.sort_unstable();
            let positives: Vec<usize> = (0..rule.body.len())
                .filter(|&i| i != pin && matches!(rule.body[i], Literal::Pos(_)))
                .collect();
            assert_eq!(
                seen, positives,
                "{src} pinned at {pin}: a literal twice or never"
            );
        }
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
