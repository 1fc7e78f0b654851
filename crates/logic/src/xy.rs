//! XY-stratification (Sec. IV-C).
//!
//! A program with recursion through negation can still be evaluated
//! bottom-up when its derived tables partition into *sub-tables* (by the
//! value of a distinguished **stage argument**) such that the dependency
//! graph over sub-tables is acyclic — the paper's (slightly generalized)
//! notion of XY-stratified programs \[43\].
//!
//! For each recursive SCC with internal negation we search for a stage
//! position per predicate such that in every rule with head in the SCC:
//!
//! * an SCC body literal whose stage is syntactically `head_stage − k`
//!   (k > 0) references a **lower** stage (a *Y*-relationship, always fine);
//! * an SCC body literal at the **same** stage (*X*-relationship)
//!   contributes an edge to the stage-local dependency graph, which must be
//!   acyclic;
//! * an SCC body literal whose stage variable is only *constrained* below
//!   the head stage by a comparison (`(D+1) > D'`, as in the paper's logicH
//!   program) also counts as a lower stage — this is the paper's
//!   generalization over the original definition;
//! * anything else (stage above head, un-analyzable stage) is rejected.
//!
//! The certified evaluation order within a stage is the topological order of
//! the stage-local graph — e.g. `(H'_d, H_d)` for logicH, matching the
//! paper's `H0, H'1, H1, H'2, …` schedule.

use crate::ast::{CmpOp, Literal, Program, Rule};
use crate::depgraph::DepGraph;
use crate::span::Span;
use crate::symbol::Symbol;
use crate::term::Term;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Normalized stage expression: a constant or `var + offset`.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum StageExpr {
    Const(i64),
    Linear(Symbol, i64),
}

/// Extract a stage expression from a term, if it has the supported shape.
pub fn stage_expr(t: &Term) -> Option<StageExpr> {
    match t {
        Term::Int(c) => Some(StageExpr::Const(*c)),
        Term::Var(v) => Some(StageExpr::Linear(*v, 0)),
        Term::App(f, args) if args.len() == 2 => {
            let fname = f.as_str();
            match (&args[0], &args[1], fname) {
                (Term::Var(v), Term::Int(k), "add") => Some(StageExpr::Linear(*v, *k)),
                (Term::Int(k), Term::Var(v), "add") => Some(StageExpr::Linear(*v, *k)),
                (Term::Var(v), Term::Int(k), "sub") => Some(StageExpr::Linear(*v, -k)),
                _ => None,
            }
        }
        _ => None,
    }
}

/// How a body literal's stage relates to its rule's head stage.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum StageRel {
    /// Body stage strictly below head stage.
    Lower,
    /// Body stage equals head stage.
    Same,
}

/// Like [`StageRel`], but distinguishing *how* a lower stage was proved —
/// the distinction the frontier-width analysis (`crate::absint`) rests on.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum StageRelDetail {
    /// Body stage equals head stage.
    Same,
    /// Body stage is syntactically `head − k` (k > 0): the rule reads
    /// exactly one fixed earlier sub-table per head stage.
    LowerOffset(i64),
    /// Body stage is only *constrained* below the head stage by a
    /// comparison (`(D+1) > D'`): the body ranges over **all** earlier
    /// stages — a cumulative read, as in logicH's `hp` marker.
    LowerCmp,
}

impl StageRelDetail {
    pub fn coarse(self) -> StageRel {
        match self {
            StageRelDetail::Same => StageRel::Same,
            _ => StageRel::Lower,
        }
    }
}

/// Relation of a body stage expression to the head stage expression under
/// `rule`'s comparison constraints. `None` = indeterminate.
pub fn relate_detail(head: StageExpr, body: StageExpr, rule: &Rule) -> Option<StageRelDetail> {
    match (head, body) {
        (StageExpr::Linear(hv, ho), StageExpr::Linear(bv, bo)) if hv == bv => match ho - bo {
            d if d > 0 => Some(StageRelDetail::LowerOffset(d)),
            0 => Some(StageRelDetail::Same),
            _ => None,
        },
        (StageExpr::Const(hc), StageExpr::Const(bc)) => match hc - bc {
            d if d > 0 => Some(StageRelDetail::LowerOffset(d)),
            0 => Some(StageRelDetail::Same),
            _ => None,
        },
        _ => {
            // Look for a comparison proving body < head, e.g. `(D+1) > D'`.
            for lit in &rule.body {
                if let Literal::Cmp(op, l, r) = lit {
                    let (le, re) = (stage_expr(l), stage_expr(r));
                    let proves = match op {
                        CmpOp::Gt => le == Some(head) && re == Some(body),
                        CmpOp::Lt => le == Some(body) && re == Some(head),
                        _ => false,
                    };
                    if proves {
                        return Some(StageRelDetail::LowerCmp);
                    }
                }
            }
            None
        }
    }
}

/// Certified XY-stratification of one SCC.
#[derive(Clone, Debug)]
pub struct XyInfo {
    /// The SCC's predicates.
    pub scc: Vec<Symbol>,
    /// Stage argument position per predicate.
    pub stage_pos: BTreeMap<Symbol, usize>,
    /// Evaluation order of the SCC predicates *within* a stage
    /// (topological order of the stage-local dependency graph).
    pub stage_order: Vec<Symbol>,
}

impl XyInfo {
    /// Head stage expression of a *staged* rule of this component: head in
    /// the SCC and at least one SCC subgoal in the body. `None` for import
    /// rules (no SCC subgoal — they run once, before the stage loop) and for
    /// rules of other components.
    pub fn staged_head(&self, rule: &Rule) -> Option<StageExpr> {
        let pos = *self.stage_pos.get(&rule.head.pred)?;
        let staged = rule
            .body
            .iter()
            .any(|l| matches!(l, Literal::Pos(a) | Literal::Neg(a) if self.scc.contains(&a.pred)));
        if !staged {
            return None;
        }
        stage_expr(rule.head.args.get(pos)?)
    }

    /// The variable the stage loop binds before it evaluates `rule`: the
    /// head's stage variable. `None` when the rule is not staged, or its
    /// head stage is a constant (it runs at that one stage, unseeded).
    pub fn stage_seed(&self, rule: &Rule) -> Option<Symbol> {
        match self.staged_head(rule)? {
            StageExpr::Linear(v, _) => Some(v),
            StageExpr::Const(_) => None,
        }
    }
}

/// Why the XY check failed.
#[derive(Clone, Debug, PartialEq)]
pub enum XyError {
    /// Aggregates inside a recursive-with-negation SCC are unsupported.
    AggregateInScc { rule_id: usize, span: Span },
    /// No assignment of stage positions satisfies the discipline.
    NoStageAssignment { scc: Vec<Symbol>, detail: String },
    /// The candidate search space exceeded the brute-force cap and no
    /// `.stage` hints were provided.
    TooManyCandidates { scc: Vec<Symbol> },
}

impl fmt::Display for XyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XyError::AggregateInScc { rule_id, span } => write!(
                f,
                "rule #{rule_id} at {span}: aggregates are not allowed in a recursive component with negation"
            ),
            XyError::NoStageAssignment { scc, detail } => write!(
                f,
                "component {{{}}} is not XY-stratified: {detail}",
                scc.iter()
                    .map(|s| s.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            XyError::TooManyCandidates { scc } => {
                write!(
                f,
                "component {{{}}} too large for stage-position search; add `.stage pred N.` hints",
                scc.iter().map(|s| s.as_str()).collect::<Vec<_>>().join(", ")
            )
            }
        }
    }
}

impl std::error::Error for XyError {}

const SEARCH_CAP: usize = 4096;

/// Check XY-stratification of the SCC `scc` of `prog`, searching for stage
/// positions (honoring `.stage` hints).
pub fn check_scc(prog: &Program, scc: &[Symbol]) -> Result<XyInfo, XyError> {
    let scc_set: BTreeSet<Symbol> = scc.iter().copied().collect();
    let rules: Vec<&Rule> = prog
        .rules
        .iter()
        .filter(|r| scc_set.contains(&r.head.pred))
        .collect();
    for r in &rules {
        if r.agg.is_some()
            && r.body.iter().any(
                |l| matches!(l, Literal::Pos(a) | Literal::Neg(a) if scc_set.contains(&a.pred)),
            )
        {
            return Err(XyError::AggregateInScc {
                rule_id: r.id,
                span: r.spans.rule,
            });
        }
    }

    // Candidate stage positions per predicate (hint pins it; otherwise all
    // positions, tried right-to-left since stages conventionally come last).
    let mut candidates: Vec<(Symbol, Vec<usize>)> = Vec::new();
    for &p in scc {
        if let Some(&h) = prog.stage_hints.get(&p) {
            candidates.push((p, vec![h]));
            continue;
        }
        let arity = prog.arity_of(p).unwrap_or(0);
        if arity == 0 {
            return Err(XyError::NoStageAssignment {
                scc: scc.to_vec(),
                detail: format!("predicate {p} has arity 0 and cannot carry a stage argument"),
            });
        }
        candidates.push((p, (0..arity).rev().collect()));
    }
    let space: usize = candidates
        .iter()
        .map(|(_, v)| v.len())
        .try_fold(1usize, |a, b| a.checked_mul(b))
        .unwrap_or(usize::MAX);
    if space > SEARCH_CAP {
        return Err(XyError::TooManyCandidates { scc: scc.to_vec() });
    }

    let mut last_detail = String::from("no candidate stage positions");
    let mut assignment: BTreeMap<Symbol, usize> = BTreeMap::new();
    if try_assignments(
        &candidates,
        0,
        &mut assignment,
        &rules,
        &scc_set,
        &mut last_detail,
    ) {
        let stage_pos = assignment;
        let stage_order = stage_local_order(&rules, &scc_set, &stage_pos)
            .expect("acyclicity was verified during the search");
        return Ok(XyInfo {
            scc: scc.to_vec(),
            stage_pos,
            stage_order,
        });
    }
    Err(XyError::NoStageAssignment {
        scc: scc.to_vec(),
        detail: last_detail,
    })
}

fn try_assignments(
    candidates: &[(Symbol, Vec<usize>)],
    i: usize,
    assignment: &mut BTreeMap<Symbol, usize>,
    rules: &[&Rule],
    scc_set: &BTreeSet<Symbol>,
    last_detail: &mut String,
) -> bool {
    if i == candidates.len() {
        return match verify_assignment(rules, scc_set, assignment) {
            Ok(()) => true,
            Err(detail) => {
                *last_detail = detail;
                false
            }
        };
    }
    let (pred, ref positions) = candidates[i];
    for &pos in positions {
        assignment.insert(pred, pos);
        if try_assignments(candidates, i + 1, assignment, rules, scc_set, last_detail) {
            return true;
        }
    }
    assignment.remove(&pred);
    false
}

/// Relation of an SCC body literal's stage to the head stage, given the
/// rule's comparison constraints. `None` = indeterminate (reject).
fn relate(
    head: StageExpr,
    body: StageExpr,
    rule: &Rule,
    pos: &BTreeMap<Symbol, usize>,
) -> Option<StageRel> {
    let _ = pos;
    relate_detail(head, body, rule).map(StageRelDetail::coarse)
}

fn head_stage(rule: &Rule, pos: &BTreeMap<Symbol, usize>) -> Result<StageExpr, String> {
    let p = rule.head.pred;
    let idx = pos[&p];
    let arg = rule
        .head
        .args
        .get(idx)
        .ok_or_else(|| format!("rule #{}: head of {p} lacks argument {idx}", rule.id))?;
    stage_expr(arg).ok_or_else(|| {
        format!(
            "rule #{}: head stage argument `{arg}` of {p} is not a stage expression",
            rule.id
        )
    })
}

fn verify_assignment(
    rules: &[&Rule],
    scc_set: &BTreeSet<Symbol>,
    pos: &BTreeMap<Symbol, usize>,
) -> Result<(), String> {
    for rule in rules {
        let hstage = head_stage(rule, pos)?;
        for lit in &rule.body {
            let (atom, negated) = match lit {
                Literal::Pos(a) => (a, false),
                Literal::Neg(a) => (a, true),
                _ => continue,
            };
            if !scc_set.contains(&atom.pred) {
                continue;
            }
            let idx = pos[&atom.pred];
            let arg = atom.args.get(idx).ok_or_else(|| {
                format!(
                    "rule #{}: subgoal {} lacks argument {idx}",
                    rule.id, atom.pred
                )
            })?;
            let bstage = stage_expr(arg).ok_or_else(|| {
                format!(
                    "rule #{}: stage argument `{arg}` of subgoal {} is not a stage expression",
                    rule.id, atom.pred
                )
            })?;
            match relate(hstage, bstage, rule, pos) {
                Some(StageRel::Lower) => {}
                Some(StageRel::Same) => {
                    // Recorded by stage_local_order; nothing else to check
                    // here except that negation at the same stage is only
                    // legal if the local graph is acyclic (checked below).
                    let _ = negated;
                }
                None => {
                    return Err(format!(
                        "rule #{}: stage of subgoal {} is not provably ≤ the head stage",
                        rule.id, atom.pred
                    ));
                }
            }
        }
    }
    // Stage-local dependency graph must be acyclic.
    stage_local_order(rules, scc_set, pos).map(|_| ())
}

/// Topological order of the SCC predicates under same-stage (X) edges;
/// errors with a description if the stage-local graph has a cycle.
fn stage_local_order(
    rules: &[&Rule],
    scc_set: &BTreeSet<Symbol>,
    pos: &BTreeMap<Symbol, usize>,
) -> Result<Vec<Symbol>, String> {
    // edge head -> body for every Same-stage literal
    let mut edges: BTreeMap<Symbol, BTreeSet<Symbol>> = BTreeMap::new();
    for &p in scc_set {
        edges.entry(p).or_default();
    }
    for rule in rules {
        let hstage = head_stage(rule, pos).expect("already verified");
        for lit in &rule.body {
            let atom = match lit {
                Literal::Pos(a) | Literal::Neg(a) => a,
                _ => continue,
            };
            if !scc_set.contains(&atom.pred) {
                continue;
            }
            let bstage = stage_expr(&atom.args[pos[&atom.pred]]).expect("verified");
            if relate(hstage, bstage, rule, pos) == Some(StageRel::Same) {
                edges.entry(rule.head.pred).or_default().insert(atom.pred);
            }
        }
    }
    // Kahn's algorithm; order = dependencies (bodies) first.
    let mut indeg: BTreeMap<Symbol, usize> = edges.keys().map(|&p| (p, 0)).collect();
    for deps in edges.values() {
        for &d in deps {
            *indeg.entry(d).or_insert(0) += 1;
        }
    }
    // Nodes with indegree 0 are "depended on by nobody at the same stage";
    // we emit dependencies first, so process reversed edges.
    let mut order: Vec<Symbol> = Vec::new();
    let mut ready: Vec<Symbol> = indeg
        .iter()
        .filter(|(p, _)| edges[*p].is_empty())
        .map(|(&p, _)| p)
        .collect();
    let mut remaining: BTreeMap<Symbol, usize> =
        edges.iter().map(|(&p, deps)| (p, deps.len())).collect();
    // reverse adjacency: dep -> heads that depend on it
    let mut rev: BTreeMap<Symbol, Vec<Symbol>> = BTreeMap::new();
    for (&h, deps) in &edges {
        for &d in deps {
            rev.entry(d).or_default().push(h);
        }
    }
    while let Some(p) = ready.pop() {
        order.push(p);
        for &h in rev.get(&p).into_iter().flatten() {
            let c = remaining.get_mut(&h).expect("known node");
            *c -= 1;
            if *c == 0 {
                ready.push(h);
            }
        }
    }
    if order.len() != edges.len() {
        return Err("stage-local dependency graph has a cycle".into());
    }
    Ok(order)
}

/// Convenience: run the XY check over every SCC of `prog` that has internal
/// negative edges; returns the certified infos, or the first failure.
pub fn check_program(prog: &Program) -> Result<Vec<XyInfo>, XyError> {
    let g = DepGraph::build(prog);
    let mut out = Vec::new();
    for scc in g.sccs() {
        if !g.internal_negative_edges(&scc).is_empty() {
            out.push(check_scc(prog, &scc)?);
        }
    }
    Ok(out)
}

/// Owner placement for the neighbour plane (ROADMAP item 11(a); Grumbach,
/// Wang & Wu's evaluation of recursive queries where each node holds the
/// facts about itself): for each XY component of `xy` whose rules join
/// exactly one binary base relation `E` positively, each of its predicates
/// is placed at the lowest column that — in every rule deriving it — is an
/// integer constant or the variable a positive `E` literal ends at (its
/// second column). Over the link relation of a deployment that column
/// names the node the rule's step arrives at: `h(parent, node, depth)` is
/// about `node`, `hp(node, depth)` too. Predicates with no such column,
/// and every predicate outside those components, are absent.
pub fn placement(prog: &Program, xy: &[XyInfo]) -> BTreeMap<Symbol, usize> {
    let idb = prog.idb_preds();
    let mut out = BTreeMap::new();
    for info in xy {
        let rules: Vec<&Rule> = (prog.rules.iter())
            .filter(|r| info.scc.contains(&r.head.pred))
            .collect();
        let base: BTreeSet<(Symbol, usize)> = (rules.iter())
            .flat_map(|r| r.positive_atoms())
            .filter(|a| !idb.contains(&a.pred))
            .map(|a| (a.pred, a.args.len()))
            .collect();
        let mut base = base.into_iter();
        let (Some((e, 2)), None) = (base.next(), base.next()) else {
            continue;
        };
        let located = |rule: &Rule, col: usize| match rule.head.args.get(col) {
            Some(Term::Int(_)) => true,
            Some(Term::Var(v)) => {
                (rule.positive_atoms()).any(|a| a.pred == e && a.args[1] == Term::Var(*v))
            }
            _ => false,
        };
        for &p in &info.scc {
            let arity = prog.arity_of(p).unwrap_or(0);
            let deriving: Vec<&&Rule> = rules.iter().filter(|r| r.head.pred == p).collect();
            if let Some(col) = (0..arity).find(|&c| deriving.iter().all(|r| located(r, c))) {
                out.insert(p, col);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_program, parse_term};

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    const LOGICH: &str = r#"
        h(a, a, 0).
        h(a, X, 1) :- g(a, X).
        hp(Y, D + 1) :- h(_, Y, D'), (D + 1) > D', h(_, X, D), g(X, Y).
        h(X, Y, D + 1) :- g(X, Y), h(_, X, D), not hp(Y, D + 1).
    "#;

    #[test]
    fn stage_expr_shapes() {
        assert_eq!(
            stage_expr(&parse_term("5").unwrap()),
            Some(StageExpr::Const(5))
        );
        assert_eq!(
            stage_expr(&parse_term("D").unwrap()),
            Some(StageExpr::Linear(sym("D"), 0))
        );
        assert_eq!(
            stage_expr(&parse_term("D + 1").unwrap()),
            Some(StageExpr::Linear(sym("D"), 1))
        );
        assert_eq!(
            stage_expr(&parse_term("D - 2").unwrap()),
            Some(StageExpr::Linear(sym("D"), -2))
        );
        assert_eq!(stage_expr(&parse_term("D * 2").unwrap()), None);
        assert_eq!(stage_expr(&parse_term("f(D)").unwrap()), None);
    }

    /// The owner column is the lowest one that every deriving rule fills
    /// with an integer or the end of a link; a component joining two base
    /// relations, or a non-binary one, places nothing.
    #[test]
    fn placement_picks_the_lowest_link_column() {
        let placed = |src: &str| {
            let p = parse_program(src).unwrap();
            let got = placement(&p, &check_program(&p).unwrap());
            got.into_iter()
                .map(|(p, c)| (p.as_str().to_string(), c))
                .collect::<Vec<_>>()
        };
        let at = |v: &[(&str, usize)]| {
            v.iter()
                .map(|&(p, c)| (p.to_string(), c))
                .collect::<Vec<_>>()
        };
        // `h(a, a, 0)` fills columns 0 and 1 with an atom, and the
        // recursive rule column 2 with `D + 1`: `h` stays hashed.
        assert_eq!(placed(LOGICH), at(&[("hp", 0)]));
        // With integers, `h(X, Y, D + 1) :- g(X, Y), …` starts its link at
        // column 0 and ends it at column 1.
        let ints = LOGICH.replace("h(a, a, 0)", "h(0, 0, 0)");
        assert_eq!(
            placed(&ints.replace("h(a, X, 1) :- g(a, X)", "h(0, X, 1) :- g(0, X)")),
            at(&[("h", 1), ("hp", 0)])
        );
        let two_bases = ints.replace("h(_, X, D), g(X, Y).", "h(_, X, D), e(X, Y).");
        assert_ne!(two_bases, ints);
        assert_eq!(placed(&two_bases), at(&[]));
        let ternary = r#"
            j(0, 0).
            jp(Y, D + 1) :- j(Y, D'), (D + 1) > D', j(X, D), g(X, Y, 1).
            j(Y, D + 1) :- g(X, Y, 1), j(X, D), not jp(Y, D + 1).
        "#;
        assert_eq!(placed(ternary), at(&[]));
    }

    #[test]
    fn logich_is_xy_stratified() {
        let p = parse_program(LOGICH).unwrap();
        let infos = check_program(&p).unwrap();
        assert_eq!(infos.len(), 1);
        let info = &infos[0];
        assert_eq!(info.stage_pos[&sym("h")], 2);
        assert_eq!(info.stage_pos[&sym("hp")], 1);
        // Within a stage, hp must be evaluated before h (h negates hp).
        let ih = info
            .stage_order
            .iter()
            .position(|&p| p == sym("h"))
            .unwrap();
        let ihp = info
            .stage_order
            .iter()
            .position(|&p| p == sym("hp"))
            .unwrap();
        assert!(ihp < ih);
    }

    #[test]
    fn logich_with_hints() {
        let src = format!(".stage h 2.\n.stage hp 1.\n{LOGICH}");
        let p = parse_program(&src).unwrap();
        assert!(check_program(&p).is_ok());
    }

    #[test]
    fn wrong_hint_fails() {
        let src = format!(".stage h 0.\n.stage hp 0.\n{LOGICH}");
        let p = parse_program(&src).unwrap();
        assert!(check_program(&p).is_err());
    }

    #[test]
    fn win_move_is_not_xy() {
        // The classic non-stratifiable win/move program has no stage
        // argument: must be rejected.
        let p = parse_program("win(X) :- move(X, Y), not win(Y).").unwrap();
        assert!(check_program(&p).is_err());
    }

    #[test]
    fn same_stage_negative_cycle_rejected() {
        // p and q negate each other at the same stage: stage-local cycle.
        let p = parse_program(
            r#"
            p(X, S + 1) :- base(X, S), not q(X, S + 1).
            q(X, S + 1) :- base(X, S), not p(X, S + 1).
            p(X, S) :- q(X, S), base(X, S).
            "#,
        )
        .unwrap();
        let err = check_program(&p).unwrap_err();
        assert!(matches!(err, XyError::NoStageAssignment { .. }));
    }

    #[test]
    fn pure_y_recursion_passes() {
        // Counting-up recursion with negation against the previous stage.
        let p = parse_program(
            r#"
            s(X, 0) :- init(X).
            s(X, T + 1) :- s(X, T), not stop(X, T).
            stop(X, T) :- s(X, T), limit(X, T).
            "#,
        )
        .unwrap();
        // stop is not in the same SCC as s?  stop depends on s, s negates
        // stop: they form one SCC with a negative edge.
        let infos = check_program(&p).unwrap();
        assert_eq!(infos.len(), 1);
        let info = &infos[0];
        assert_eq!(info.stage_pos[&sym("s")], 1);
        assert_eq!(info.stage_pos[&sym("stop")], 1);
    }

    #[test]
    fn positive_only_sccs_not_checked() {
        let p = parse_program(
            r#"
            t(X, Y) :- e(X, Y).
            t(X, Y) :- t(X, Z), e(Z, Y).
            "#,
        )
        .unwrap();
        assert!(check_program(&p).unwrap().is_empty());
    }

    #[test]
    fn trajectory_program_is_xy_by_length() {
        // Example 2 shape: traj staged by path length.
        let p = parse_program(
            r#"
            traj(R, 1) :- report(R), not notstart(R).
            traj(cons(X, R), L + 1) :- traj(R, L), report(X), not used(X, L + 1).
            used(X, L + 1) :- traj(R, L), report(X), pick(R, X).
            "#,
        )
        .unwrap();
        assert!(check_program(&p).is_ok());
    }

    #[test]
    fn zero_arity_in_scc_errors() {
        let p = parse_program(
            r#"
            flag :- base(X), not other.
            other :- base(X), not flag.
            "#,
        )
        .unwrap();
        let err = check_program(&p).unwrap_err();
        assert!(matches!(err, XyError::NoStageAssignment { .. }));
    }
}
