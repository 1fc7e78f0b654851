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

use crate::ast::{Atom, CmpOp, Literal, Program, Rule};
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

    /// Each predicate of [`XyInfo::stage_order`] with its step in that
    /// order. A stage's retractors come at earlier steps than the tuples
    /// they block, so an owner holds a predicate one retraction chain longer
    /// per step; `core::plan` prices the chain per deployment.
    pub fn steps(&self) -> impl Iterator<Item = (Symbol, u64)> + '_ {
        (self.stage_order.iter().enumerate()).map(|(i, &p)| (p, i as u64))
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

/// The one binary base relation `rules` join positively, if there is
/// exactly one: an XY component's link relation `E`.
fn link_relation(prog: &Program, rules: &[&Rule]) -> Option<Symbol> {
    let idb = prog.idb_preds();
    let base: BTreeSet<(Symbol, usize)> = (rules.iter())
        .flat_map(|r| r.positive_atoms())
        .filter(|a| !idb.contains(&a.pred))
        .map(|a| (a.pred, a.args.len()))
        .collect();
    let mut base = base.into_iter();
    match (base.next(), base.next()) {
        (Some((e, 2)), None) => Some(e),
        _ => None,
    }
}

/// Where a neighbourhood-plane tuple is stored besides the node it is
/// about: the nodes a join reading it can run at. Ordered by reach, so the
/// union over a predicate's readers is the greatest.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Store {
    /// Nowhere else: every rule reading it joins at that node.
    Home,
    /// At the node its column 1 names, when that is a radio neighbour: a
    /// link fact read at its source and at the end it names.
    LinkEnd,
    /// At every radio neighbour.
    Neighbours,
}

/// A predicate of the neighbourhood plane: its component's link relation,
/// the column naming the node a tuple is about, and where its tuples are
/// stored.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct OnPlane {
    pub link: Symbol,
    pub col: usize,
    pub store: Store,
}

/// A base predicate whose regions its rules' spatial join constraints
/// truncate (Sec. III-A, "Function Symbols and Spatial Constraints").
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Radius {
    /// The column holding a tuple's location, a `loc(x, y)` point.
    pub col: usize,
    /// The widest `dist` bound over the rules reading the predicate.
    pub r: f64,
    /// The rule that bound is from (`Rule::id`).
    pub rule: usize,
}

/// Where a predicate's tuples live, as [`locate`] infers it from the
/// program; each part is absent where it does not apply.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct Place {
    /// Whether some rule reads another relational literal beside it
    /// (negated ones too): one no rule joins needs to be stored nowhere.
    pub joined: bool,
    /// The column naming the node that owns a derived tuple (Sec. III-B).
    pub owner: Option<usize>,
    /// Its place on the neighbourhood plane.
    pub plane: Option<OnPlane>,
    /// Its spatial radius.
    pub radius: Option<Radius>,
}

/// One rule's body as [`locate`] reads it.
struct Body<'a> {
    rule: &'a Rule,
    /// Its relational literals, negated ones too.
    lits: Vec<&'a Atom>,
    /// `(A, B, r)` for each `dist(A, B) <= r` or `< r` literal.
    bounds: Vec<(Symbol, Symbol, f64)>,
}

/// Where each predicate's tuples live: whether a rule joins it, its owner
/// column, its place on the neighbourhood plane and its spatial radius.
/// Predicates with none are absent.
///
/// **Owner** (Grumbach, Wang & Wu's evaluation of recursive queries where
/// each node holds the facts about itself): for each XY component of `xy`
/// whose rules join exactly one binary base relation `E` positively, each
/// of its predicates is owned at the lowest column that — in every rule
/// deriving it — is an integer constant or the variable a positive `E`
/// literal ends at (its second column). Over the link relation of a
/// deployment that column names the node the rule's step arrives at:
/// `h(parent, node, depth)` is about `node`, `hp(node, depth)` too.
///
/// **Plane** and **radius** are each the greatest set of *located*
/// predicates — each with a location column — such that every rule
/// reading one of them reads only members (negated literals too), and
/// relates each literal's location term to each other literal's; each
/// member's need is the widest over its reading literals. Only the
/// candidates and the relation differ:
///
/// * The plane's candidates are each such component's `E`, at column 0 (a
///   link fact is sensed at its source), and its owned predicates, at their
///   owner column. Two terms are related when they are equal (`Home`) or
///   the two columns of one positive `E` literal of the rule: then all its
///   literals lie at one node or at the two ends of one link, and a node
///   holding its neighbours' tuples holds every literal a join there needs.
///   A join runs where its update is about, so a literal is stored at the
///   end its partner is at: the end an `E` literal's column 1 names when
///   the literal is that `E` atom (Grumbach, Wang & Wu's edge fact, known
///   to both of its endpoints; `LinkEnd`), any neighbour otherwise
///   (`Neighbours`). Exact when each tuple starts at the node its location
///   names and every `E` fact links radio neighbours; the runtime sends a
///   tuple sensed elsewhere to that node, and counts a link between
///   non-neighbours.
/// * The radius's candidates are base predicates, located at the lowest
///   column whose variable a `dist(A, B) <= r` or `< r` literal (`r` a
///   numeric constant) names in every rule reading it. Two terms are
///   related when they are one variable (bound 0) or the tightest such
///   bound over the two; a literal with no partner has no radius. A
///   literal with no bound can meet the predicate's walk anywhere. A
///   partner needs a radius of its own because the cut measures from the
///   node that holds a tuple, which is the tuple's location only where the
///   deployment checks that it is (`Deployment::schedule`, which stops
///   cutting at an event that fails, e.g. a plain number where `dist`
///   measures `|a - b|`). A derived predicate, whose tuples start at their
///   owners, has none, so neither do its partners.
pub fn locate(prog: &Program, xy: &[XyInfo]) -> BTreeMap<Symbol, Place> {
    let idb = prog.idb_preds();
    let dist = Symbol::intern("dist");
    let bodies: Vec<Body> = (prog.rules.iter())
        .map(|rule| {
            let (mut lits, mut bounds) = (Vec::new(), Vec::new());
            for l in &rule.body {
                match l {
                    Literal::Pos(a) | Literal::Neg(a) => lits.push(a),
                    Literal::Cmp(CmpOp::Le | CmpOp::Lt, Term::App(f, args), r) if *f == dist => {
                        if let ([Term::Var(a), Term::Var(b)], Some(r)) = (&**args, r.as_f64()) {
                            bounds.push((*a, *b, r));
                        }
                    }
                    _ => {}
                }
            }
            Body { rule, lits, bounds }
        })
        .collect();

    let mut places: BTreeMap<Symbol, Place> = BTreeMap::new();
    for body in bodies.iter().filter(|b| b.lits.len() > 1) {
        for a in &body.lits {
            places.entry(a.pred).or_default().joined = true;
        }
    }
    // The plane's candidates, each with its link relation.
    let mut link_of: BTreeMap<Symbol, Symbol> = BTreeMap::new();
    for info in xy {
        let rules: Vec<&Rule> = (prog.rules.iter())
            .filter(|r| info.scc.contains(&r.head.pred))
            .collect();
        let Some(e) = link_relation(prog, &rules) else {
            continue;
        };
        link_of.insert(e, e);
        let owned = |rule: &Rule, col: usize| match rule.head.args.get(col) {
            Some(Term::Int(_)) => true,
            Some(Term::Var(v)) => {
                (rule.positive_atoms()).any(|a| a.pred == e && a.args[1] == Term::Var(*v))
            }
            _ => false,
        };
        for &p in &info.scc {
            let arity = prog.arity_of(p).unwrap_or(0);
            let deriving: Vec<&&Rule> = rules.iter().filter(|r| r.head.pred == p).collect();
            if let Some(col) = (0..arity).find(|&c| deriving.iter().all(|r| owned(r, c))) {
                places.entry(p).or_default().owner = Some(col);
                link_of.insert(p, e);
            }
        }
    }
    let plane_at = (link_of.keys())
        .map(|&p| (p, places.get(&p).and_then(|pl| pl.owner).unwrap_or(0)))
        .collect();
    let linked = |body: &Body, s: &Term, t: &Term| {
        (body.rule.positive_atoms()).any(|a| {
            link_of.get(&a.pred) == Some(&a.pred)
                && a.args.len() == 2
                && ((&a.args[0], &a.args[1]) == (s, t) || (&a.args[0], &a.args[1]) == (t, s))
        })
    };
    let plane = greatest(&bodies, plane_at, Some(Store::Home), |body, a, t, u| {
        if t == u {
            Some(Store::Home)
        } else if !linked(body, t, u) {
            None
        } else if link_of.get(&a.pred) == Some(&a.pred) && a.args.get(1) == Some(u) {
            Some(Store::LinkEnd)
        } else {
            Some(Store::Neighbours)
        }
    });
    for (p, (col, need)) in plane {
        places.entry(p).or_default().plane = Some(OnPlane {
            link: link_of[&p],
            col,
            store: need.map_or(Store::Home, |(store, _)| store),
        });
    }

    let mut cols: BTreeMap<Symbol, BTreeSet<usize>> = BTreeMap::new();
    for body in &bodies {
        let named: BTreeSet<Symbol> = (body.bounds.iter()).flat_map(|&(a, b, _)| [a, b]).collect();
        for a in body.lits.iter().filter(|a| !idb.contains(&a.pred)) {
            let here: BTreeSet<usize> = (0..a.args.len())
                .filter(|&c| matches!(a.args[c], Term::Var(v) if named.contains(&v)))
                .collect();
            (cols.entry(a.pred))
                .and_modify(|s| s.retain(|c| here.contains(c)))
                .or_insert(here);
        }
    }
    let radius_at = (cols.into_iter())
        .filter_map(|(p, s)| Some((p, s.first().copied()?)))
        .collect();
    let radius = greatest(&bodies, radius_at, None, |body, _, t, u| match (t, u) {
        (Term::Var(v), Term::Var(w)) if v == w => Some(0.0),
        (Term::Var(v), Term::Var(w)) => (body.bounds.iter())
            .filter(|&&(x, y, _)| (x, y) == (*v, *w) || (y, x) == (*v, *w))
            .map(|&(_, _, r)| r)
            .reduce(f64::min),
        _ => None,
    });
    for (p, (col, need)) in radius {
        if let Some((r, rule)) = need {
            places.entry(p).or_default().radius = Some(Radius { col, r, rule });
        }
    }
    places
}

/// The greatest subset of `located` (predicate → location column) such
/// that every rule reading a member reads only members, and `near` relates
/// each of its literals' location terms to every other's: `near(body, a,
/// t, u)` is what literal `a` at `t` needs to meet a partner at `u`, `None`
/// when they cannot meet. A literal needs the widest of that over its
/// partners, or `alone` without one (`None`: it cannot stand alone). Each
/// member comes with its location column and the widest need over its
/// reading literals, with the first rule that sets it; `None` when no rule
/// reads it.
fn greatest<N: Copy + PartialOrd>(
    bodies: &[Body],
    mut located: BTreeMap<Symbol, usize>,
    alone: Option<N>,
    near: impl Fn(&Body, &Atom, &Term, &Term) -> Option<N>,
) -> BTreeMap<Symbol, (usize, Option<(N, usize)>)> {
    let wider = |m: Option<N>, n: N| Some(m.filter(|&m| m >= n).unwrap_or(n));
    // A rule whose literals do not all meet takes everything it reads out;
    // so does a rule reading something already out. Repeat until nothing
    // moves.
    loop {
        let mut need: BTreeMap<Symbol, (N, usize)> = BTreeMap::new();
        let mut out: BTreeSet<Symbol> = BTreeSet::new();
        for body in bodies {
            let at: Option<Vec<(&Atom, &Term)>> = (body.lits.iter())
                .map(|&a| Some((a, a.args.get(*located.get(&a.pred)?)?)))
                .collect();
            let needs: Option<Vec<N>> = at.as_ref().and_then(|at| {
                (at.iter().enumerate())
                    .map(|(i, &(a, t))| {
                        (at.iter().enumerate())
                            .filter(|&(j, _)| j != i)
                            .try_fold(alone, |m, (_, &(_, u))| {
                                Some(wider(m, near(body, a, t, u)?))
                            })
                            .flatten()
                    })
                    .collect()
            });
            match at.zip(needs) {
                Some((at, needs)) => {
                    for ((a, _), n) in at.into_iter().zip(needs) {
                        let e = need.entry(a.pred).or_insert((n, body.rule.id));
                        if n > e.0 {
                            *e = (n, body.rule.id);
                        }
                    }
                }
                None => out.extend(body.lits.iter().map(|a| a.pred)),
            }
        }
        out.retain(|p| located.contains_key(p));
        if out.is_empty() {
            return (located.into_iter())
                .map(|(p, col)| (p, (col, need.get(&p).copied())))
                .collect();
        }
        located.retain(|p, _| !out.contains(p));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_program, parse_term};

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    /// One part of [`locate`]'s answer for `src`, by predicate name.
    fn located<T>(src: &str, part: impl Fn(Place) -> Option<T>) -> Vec<(String, T)> {
        let p = parse_program(src).unwrap();
        (locate(&p, &check_program(&p).unwrap()).into_iter())
            .filter_map(|(p, place)| Some((p.as_str().to_string(), part(place)?)))
            .collect()
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
        let placed = |src: &str| located(src, |place| place.owner);
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

    /// The plane of each program the repo runs: the tree programs put their
    /// link relation and both predicates on it; nothing else qualifies.
    #[test]
    fn neighbourhood_plane_by_program() {
        let plane = |src: &str| {
            let got = located(src, |place| place.plane);
            for (_, on) in &got {
                assert_eq!(on.link, sym("g"));
            }
            (got.into_iter().map(|(p, _)| p)).collect::<Vec<_>>()
        };
        let ints = LOGICH
            .replace("h(a, a, 0)", "h(0, 0, 0)")
            .replace("h(a, X, 1) :- g(a, X)", "h(0, X, 1) :- g(0, X)");
        let logicj = include_str!("../../../examples/programs/logicj.dl");
        let sptree = include_str!("../../../examples/programs/sptree.dl");
        assert_eq!(plane(&ints), ["g", "h", "hp"]);
        assert_eq!(plane(sptree), ["g", "h", "hp"]);
        assert_eq!(plane(logicj), ["g", "j", "jp"]);
        let none: [&str; 0] = [];
        // `h(a, a, 0)` leaves `h` unplaced, so no rule reading it is local.
        assert_eq!(plane(LOGICH), none);
        for src in [
            include_str!("../../../examples/programs/battlefield.dl"),
            include_str!("../../../examples/programs/join.dl"),
            include_str!("../../../examples/programs/mirror.dl"),
            include_str!("../../../examples/programs/aggregate.dl"),
            include_str!("../../../examples/explain/reach.dl"),
        ] {
            assert_eq!(plane(src), none, "{src}");
        }
        // A ternary link places nothing.
        let ternary = sptree
            .replace("g(0, X)", "g(0, X, _)")
            .replace("g(X, Y)", "g(X, Y, _)");
        assert_eq!(plane(&ternary), none);
        // A rule whose ends are two links apart is not neighbour-local, and
        // takes everything it reads off the plane.
        let far = format!("{logicj}\nfar(X, Z) :- j(X, D), g(X, Y), g(Y, Z), j(Z, D).");
        assert_eq!(plane(&far), none);
        // One link apart, it is.
        let near = format!("{logicj}\nnear(X, Y) :- j(X, D), g(X, Y), j(Y, D).");
        assert_eq!(plane(&near), ["g", "j", "jp"]);
    }

    /// Where each plane predicate is stored, by program: a link fact at the
    /// end its column 1 names, a stage predicate at every neighbour.
    #[test]
    fn plane_stores_by_program() {
        let stores = |src: &str| located(src, |place| place.plane.map(|on| on.store));
        let at = |v: &[(&str, Store)]| {
            v.iter()
                .map(|&(p, s)| (p.to_string(), s))
                .collect::<Vec<_>>()
        };
        use Store::{Home, LinkEnd, Neighbours};
        let ints = LOGICH
            .replace("h(a, a, 0)", "h(0, 0, 0)")
            .replace("h(a, X, 1) :- g(a, X)", "h(0, X, 1) :- g(0, X)");
        let logicj = include_str!("../../../examples/programs/logicj.dl");
        let sptree = include_str!("../../../examples/programs/sptree.dl");
        let tree = at(&[("g", LinkEnd), ("h", Neighbours), ("hp", Neighbours)]);
        assert_eq!(stores(&ints), tree);
        assert_eq!(stores(sptree), tree);
        assert_eq!(
            stores(logicj),
            at(&[("g", LinkEnd), ("j", Neighbours), ("jp", Neighbours)])
        );
        // Every literal of every reading rule at one node: no store message.
        let home = r#"
            c(0, 0).
            cp(Y, D + 1) :- g(X, Y), c(X, D).
            c(Y, D + 1) :- g(X, Y), c(X, D), not cp(X, D + 1).
        "#;
        assert_eq!(stores(home), at(&[("c", Home), ("cp", Home), ("g", Home)]));
        // A join at `Z` reads every link out of its neighbour `X`, not only
        // the one naming `Z`: the link goes to every neighbour.
        let both = format!("{logicj}\nfan(X, Z) :- g(X, Y), g(X, Z), j(Z, D).");
        assert_eq!(
            stores(&both),
            at(&[("g", Neighbours), ("j", Neighbours), ("jp", Neighbours)])
        );
    }

    /// Each base predicate's radius: the widest `dist` bound over the rules
    /// reading it, when every one of them bounds every partner.
    #[test]
    fn radius_by_program() {
        let radii = |src: &str| {
            (located(src, |place| place.radius).into_iter())
                .map(|(p, r)| (p, r.col, r.r, r.rule))
                .collect::<Vec<_>>()
        };
        let at = |v: &[(&str, usize, f64, usize)]| {
            v.iter()
                .map(|&(p, c, r, rule)| (p.to_string(), c, r, rule))
                .collect::<Vec<_>>()
        };
        let none: Vec<(String, usize, f64, usize)> = Vec::new();
        // Fig. 7's binary rule, with `<=` or `<`.
        let fig7 = "q(L1, L2, T) :- s1(L1, T), s2(L2, T), dist(L1, L2) <= 4.";
        let both = at(&[("s1", 0, 4.0, 0), ("s2", 0, 4.0, 0)]);
        assert_eq!(radii(fig7), both);
        assert_eq!(radii(&fig7.replace("<=", "<")), both);
        // A ternary rule: one unbounded literal leaves every literal
        // without a radius; bounded pairwise, each takes its widest bound.
        let ternary = "q(L1, L2, L3) :- s1(L1, T), s2(L2, T), s3(L3, T), dist(L1, L2) <= 4";
        assert_eq!(radii(&format!("{ternary}.")), none);
        assert_eq!(
            radii(&format!("{ternary}, dist(L1, L3) <= 2, dist(L3, L2) <= 3.")),
            at(&[("s1", 0, 4.0, 0), ("s2", 0, 4.0, 0), ("s3", 0, 3.0, 0)])
        );
        // A negated partner must be bounded too; sharing a location is a
        // bound of 0.
        let neg = "q(L1, L2) :- s1(L1, T), s2(L2, T), dist(L1, L2) <= 3, not s3(L2, T).";
        assert_eq!(
            radii(neg),
            at(&[("s1", 0, 3.0, 0), ("s2", 0, 3.0, 0), ("s3", 0, 3.0, 0)])
        );
        assert_eq!(radii(&neg.replace("s3(L2, T)", "s3(T)")), none);
        // Example 1: `uncov` reads `veh` beside the derived `cov`, unbounded.
        assert_eq!(
            radii(include_str!("../../../examples/programs/battlefield.dl")),
            none
        );
        // Two reading rules: the wider bound, from the rule that sets it.
        let wider = format!("{fig7}\np(L1, L2) :- s1(L1, T), s2(L2, T), dist(L1, L2) < 5.");
        assert_eq!(radii(&wider), at(&[("s1", 0, 5.0, 1), ("s2", 0, 5.0, 1)]));
        // Two reading rules bounding different columns: no one location.
        let cols = "q(L1, L2) :- s1(L1, M, T), s2(L2, T), dist(L1, L2) <= 2.\n\
                    p(M, L2) :- s1(L1, M, T), s2(L2, T), dist(M, L2) <= 2.";
        assert_eq!(radii(cols), none);
        // A derived predicate starts at its owner: none for it or its partner.
        let derived = "d(L, T) :- s1(L, T).\n\
                       q(L1, L2) :- d(L1, T), s2(L2, T), dist(L1, L2) <= 2.";
        assert_eq!(radii(derived), none);
    }

    /// One program holding logicJ's plane component and Fig. 7's spatial
    /// join: each predicate's owner column, plane store set and radius are
    /// what it gets in its own program.
    #[test]
    fn plane_and_radius_do_not_meet_in_one_program() {
        let fig7 = "q(L1, L2, T) :- s1(L1, T), s2(L2, T), dist(L1, L2) <= 4.";
        let logicj = include_str!("../../../examples/programs/logicj.dl");
        let whole = |src: &str| located(src, Some);
        let mut apart = whole(fig7);
        apart.extend(whole(logicj));
        apart.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(whole(&format!("{fig7}\n{logicj}")), apart);
        let parts = |place: &Place| (place.owner, place.plane.map(|on| on.store), place.radius);
        let got: Vec<_> = apart
            .iter()
            .map(|(p, place)| (p.as_str(), parts(place)))
            .collect();
        let r4 = Some(Radius {
            col: 0,
            r: 4.0,
            rule: 0,
        });
        use Store::{LinkEnd, Neighbours};
        assert_eq!(
            got,
            [
                ("g", (None, Some(LinkEnd), None)),
                ("j", (Some(0), Some(Neighbours), None)),
                ("jp", (Some(0), Some(Neighbours), None)),
                ("s1", (None, None, r4)),
                ("s2", (None, None, r4)),
            ]
        );
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
