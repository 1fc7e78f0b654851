//! Frontier-width abstract interpretation (tightened Sec. V bounds).
//!
//! The paper's memory-requirements analysis (Sec. V) multiplies the XY
//! stage count `S` by the per-stage derivation bound `Σ`, which is loose by
//! roughly the stage count itself (~100× on grid topologies): a node's
//! *frontier* — the set of tuples a stage can actually add — is governed by
//! the anchoring base tuples, not by how many stages the computation runs.
//! This module recovers that frontier width statically, per predicate:
//!
//! * **First-entry guards.** A recursive XY rule of the shape
//!   `h(…,V…, D+1) :- …, not hp(V…, D+1)` where `hp` is a *cumulative entry
//!   marker* (derivable at every later stage from any earlier `h` tuple
//!   carrying the same `V…` columns, proved by a stage comparison such as
//!   `(D+1) > D'`) fires at most **once** per grounding of its anchor
//!   atoms: after the first stage at which `V…` enters `h`, the marker
//!   blocks every later stage. Such a rule contributes `A(r)` (the product
//!   of its out-of-SCC positive bounds) instead of `S·A(r)`.
//! * **Stage multiplicity.** When every variable-stage rule of `q` is
//!   guarded, a fixed grounding of `q`'s guard columns gains tuples at no
//!   more than `μ(q) = #const-stage rules + #distinct markers` stages —
//!   or `max(#const stages, #distinct markers)` when every constant stage
//!   lies within one guarded step of the lowest, so that a first entry
//!   lands on a constant stage if the grounding has one. A consumer that
//!   binds all guard columns of a `q` atom through its own anchors
//!   therefore sees the stage variable range over ≤ `μ(q)` values and
//!   contributes `μ(q)·A(r)` — this is how `hp`/`jp` get `2·E(g)`.
//! * **Windowed Herbrand column dataflow.** For non-XY recursion over
//!   base-only bodies, a per-column abstract domain (constructor depth,
//!   leaf count, contributing base streams) replaces the whole-universe
//!   `D^arity` bound, and gives *finite* bounds to bounded-depth value
//!   invention (e.g. pair-swapping over a windowed stream) that the paper's
//!   bound reports as `Unbounded`. Divergent depth (counters, growing
//!   lists) still widens to top and stays `Unbounded`.
//! * **Message envelopes.** [`comm_envelopes`] scales the same bounds into
//!   one row per predicate — its `store`, `probe` and `result` messages —
//!   whose sums are the per-kind envelopes the run-time check holds the
//!   simulator's tx counters to; a probe is charged the passes
//!   `boundness::pin_passes` counts for its pin, negated pins included.
//!
//! The same SCC walk also keeps the paper's own bound, [`Frontier::paper`]:
//! Σ of anchor products for a non-recursive predicate, `S ×` Σ of the
//! out-of-SCC anchor products for an XY SCC, and `D^arity` (unbounded when
//! the SCC invents values) for other recursion. Unless a rule is *proved*
//! tighter, every case falls back to exactly that contribution, so the
//! frontier bound is never looser than the paper's `S·Σ` bound.
//!
//! The abstract leaf-counting inherits the paper's modelling
//! assumption that each base-stream argument position carries one constant
//! per event; deep subterm extraction from base tuples is bounded by the
//! same `arity(p)·E(p)` leaf pool.

use crate::analyze::Analysis;
use crate::ast::{Atom, Literal, Program, Rule};
use crate::boundness::pin_passes;
use crate::depgraph::DepGraph;
use crate::diag::{BoundExpr, BoundParams};
use crate::symbol::Symbol;
use crate::term::Term;
use crate::unify::Subst;
use crate::xy::{relate_detail, stage_expr, OnPlane, StageExpr, StageRelDetail, Store, XyInfo};
use std::collections::{BTreeMap, BTreeSet};

/// Constructor-nesting depth at which the Herbrand column dataflow widens
/// to top (the value set is then treated as unbounded for inventing SCCs).
pub const DEPTH_CAP: u32 = 4;
/// Maximum abstract leaf count per column; doubles as the exponent cap of
/// the per-column width so formulas stay evaluable.
pub const LEAF_CAP: u32 = 12;

/// Whole-run message envelopes per observable message kind, comparable to
/// the simulator's `tx_by_kind()` counters.
#[derive(Clone, Debug)]
pub struct CommEnvelopes {
    /// Replica placement walks (`store` kind: StoreWalk / FloodStore).
    pub store: BoundExpr,
    /// Band probes triggered by stored replicas (`probe` kind).
    pub probe: BoundExpr,
    /// Derivation deltas routed between evaluation sites (`result` kind).
    pub result: BoundExpr,
    /// Base readings routed to a collection point (`centroid` kind).
    pub centroid: BoundExpr,
    /// One row per predicate, base predicates first: `store`, `probe` and
    /// `result` are the sums of their rows' fields.
    pub rows: Vec<(Symbol, CommRow)>,
}

/// One predicate's share of the [`CommEnvelopes`]. A declared base
/// predicate that rules also derive is charged as a stream and as a
/// derived predicate, so its `store` and `probe` hold both terms.
#[derive(Clone, Debug)]
pub struct CommRow {
    /// Placement walks of its tuple transitions.
    pub store: BoundExpr,
    /// Column walks of the probes its positive occurrences pin (`None`
    /// when no rule reads it).
    pub probe: Option<BoundExpr>,
    /// Deltas of its firings (`None` for a predicate no rule derives).
    pub result: Option<BoundExpr>,
}

/// Result of the frontier-width pass.
#[derive(Clone, Debug, Default)]
pub struct Frontier {
    /// Whole-network distinct-tuple bound per predicate (tight where
    /// provable, the paper's otherwise).
    pub bounds: BTreeMap<Symbol, BoundExpr>,
    /// The paper's Sec. V bound per predicate, read off the same walk from
    /// the paper bounds of its dependencies: the reference `bounds` never
    /// exceeds.
    pub paper: BTreeMap<Symbol, BoundExpr>,
    /// Rule ids proved to fire at most once per anchor grounding.
    pub guarded_rules: BTreeSet<usize>,
    /// `μ(p)`: number of stages at which a fixed guard-column grounding of
    /// `p` can gain tuples (present only when every variable-stage rule of
    /// `p` is guarded).
    pub stage_multiplicity: BTreeMap<Symbol, u64>,
    /// Guard column positions `G(p)` backing `stage_multiplicity`.
    pub guard_cols: BTreeMap<Symbol, BTreeSet<usize>>,
    /// Base streams feeding each Herbrand-analyzed predicate.
    pub herbrand_sources: BTreeMap<Symbol, BTreeSet<Symbol>>,
}

/// Variables bound by a rule's out-of-SCC positive atoms — the groundings
/// the frontier argument counts. Mirrors the anchor notion used by the
/// evaluator's boundness pass (every anchor var is planner-bound).
pub fn anchor_vars(rule: &Rule, scc: &BTreeSet<Symbol>) -> BTreeSet<Symbol> {
    rule.positive_atoms()
        .filter(|a| !scc.contains(&a.pred))
        .flat_map(|a| a.vars())
        .collect()
}

fn sum_expr(mut terms: Vec<BoundExpr>) -> BoundExpr {
    if terms.iter().any(|t| matches!(t, BoundExpr::Unbounded)) {
        return BoundExpr::Unbounded;
    }
    match terms.len() {
        0 => BoundExpr::Const(0),
        1 => terms.pop().expect("one term"),
        _ => BoundExpr::Sum(terms),
    }
}

fn prod_expr(terms: Vec<BoundExpr>) -> BoundExpr {
    if terms.iter().any(|t| matches!(t, BoundExpr::Unbounded)) {
        return BoundExpr::Unbounded;
    }
    let mut out: Vec<BoundExpr> = terms
        .into_iter()
        .filter(|t| !matches!(t, BoundExpr::Const(1)))
        .collect();
    match out.len() {
        0 => BoundExpr::Const(1),
        1 => out.pop().expect("one factor"),
        _ => BoundExpr::Prod(out),
    }
}

/// The paper's whole-domain size `D`: constants carried by base tuples.
fn herbrand_domain(prog: &Program, edb: &BTreeSet<Symbol>) -> BoundExpr {
    let parts: Vec<BoundExpr> = edb
        .iter()
        .map(|&p| {
            let arity = prog.arity_of(p).unwrap_or(1).max(1) as u64;
            prod_expr(vec![BoundExpr::Const(arity), BoundExpr::Events(p)])
        })
        .collect();
    if parts.is_empty() {
        BoundExpr::Const(1)
    } else {
        sum_expr(parts)
    }
}

/// Π of out-of-SCC positive-subgoal bounds of `rule` (the anchor product).
fn anchor_product(
    rule: &Rule,
    skip_scc: Option<&BTreeSet<Symbol>>,
    bounds: &BTreeMap<Symbol, BoundExpr>,
) -> BoundExpr {
    let mut factors: Vec<BoundExpr> = Vec::new();
    for a in rule.positive_atoms() {
        if let Some(scc) = skip_scc {
            if scc.contains(&a.pred) {
                continue;
            }
        }
        match bounds.get(&a.pred) {
            Some(BoundExpr::Unbounded) | None => return BoundExpr::Unbounded,
            Some(b) => factors.push(b.clone()),
        }
    }
    prod_expr(factors)
}

/// A fact, or a rule joining at least one out-of-SCC tuple: its anchor
/// product counts the groundings a stage can derive. A rule joining only
/// in-SCC tuples has no anchor and leaves its SCC unbounded.
fn anchored(rule: &Rule, scc: &BTreeSet<Symbol>) -> bool {
    rule.body.is_empty() || rule.positive_atoms().any(|a| !scc.contains(&a.pred))
}

/// The paper's bound on a member of a non-XY recursive SCC: `D^arity`, or
/// unbounded when the SCC invents values.
fn herbrand_bound(prog: &Program, edb: &BTreeSet<Symbol>, p: Symbol, invents: bool) -> BoundExpr {
    if invents {
        return BoundExpr::Unbounded;
    }
    let arity = prog.arity_of(p).unwrap_or(0) as u32;
    BoundExpr::Pow(Box::new(herbrand_domain(prog, edb)), arity)
}

/// Run the frontier-width pass over an analyzed program.
pub fn frontier(analysis: &Analysis) -> Frontier {
    let prog = &analysis.program;
    let g = DepGraph::build(prog);
    let edb = prog.edb_preds();
    let idb = prog.idb_preds();
    let mut fr = Frontier::default();
    let mut bounds: BTreeMap<Symbol, BoundExpr> = BTreeMap::new();
    for &p in &edb {
        bounds.insert(p, BoundExpr::Events(p));
    }
    fr.paper = bounds.clone();

    for scc in g.sccs() {
        // reverse topological: dependencies first
        let members: Vec<Symbol> = scc.iter().filter(|p| idb.contains(p)).copied().collect();
        if members.is_empty() {
            continue;
        }
        let scc_set: BTreeSet<Symbol> = scc.iter().copied().collect();
        let recursive = scc.len() > 1
            || scc
                .iter()
                .any(|&p| g.succ(p).any(|(q, _, _)| scc_set.contains(q)));
        if !recursive {
            let p = members[0];
            bounds.insert(p, firing_bound(prog, p, &bounds));
            fr.paper.insert(p, firing_bound(prog, p, &fr.paper));
            continue;
        }
        let xy_info = analysis
            .xy
            .iter()
            .find(|info| members.iter().all(|p| info.scc.contains(p)));
        if let Some(info) = xy_info {
            xy_scc_bounds(prog, info, &scc_set, &members, &mut bounds, &mut fr);
        } else {
            herbrand_scc_bounds(prog, &scc_set, &members, &edb, &mut bounds, &mut fr);
        }
    }

    fr.bounds = bounds;
    fr
}

/// The per-node ceiling on stored tuples of a neighbourhood-plane predicate
/// `on` (`xy::Place::plane`) whose whole-network bound is `bound`, on a
/// network whose nodes have at most `degree` radio neighbours. The frontier
/// bound counts tuples per anchoring link, and one node is the end of at
/// most `degree` radio links, so `b = bound[E(link) ↦ degree]` bounds the
/// tuples about one node, and a node owns only those about itself. It
/// stores replicas by `on.store`:
/// - `Home`: only its own, so `2 · b` (replica plus owned copy);
/// - `LinkEnd`: its own and the links naming it at column 1 — at most
///   `degree ≤ b` of them — so `4 · b`;
/// - `Neighbours`: those about any node of its closed neighbourhood (≤
///   `degree + 1` of them), so `2 · (degree + 1) · b`.
///
/// `None` when `bound` is unbounded.
pub fn neighbourhood_cap(
    bound: &BoundExpr,
    on: OnPlane,
    params: &BoundParams,
    degree: u64,
) -> Option<u64> {
    let mut one_node = params.clone();
    one_node.events.insert(on.link, degree);
    let about_one = bound.eval(&one_node)?;
    let nodes = match on.store {
        Store::Home => 1,
        Store::LinkEnd => 2,
        Store::Neighbours => degree.saturating_add(1),
    };
    Some(about_one.saturating_mul(nodes).saturating_mul(2))
}

// ---------------------------------------------------------------------------
// XY SCCs: first-entry guards and stage multiplicity
// ---------------------------------------------------------------------------

fn xy_scc_bounds(
    prog: &Program,
    info: &XyInfo,
    scc_set: &BTreeSet<Symbol>,
    members: &[Symbol],
    bounds: &mut BTreeMap<Symbol, BoundExpr>,
    fr: &mut Frontier,
) {
    // Pass 1: per-rule guards, then μ(p) / G(p) for fully guarded preds.
    let mut guards: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
    let mut mu: BTreeMap<Symbol, u64> = BTreeMap::new();
    let mut gcols: BTreeMap<Symbol, BTreeSet<usize>> = BTreeMap::new();
    for &p in members {
        let Some(&ppos) = info.stage_pos.get(&p) else {
            continue;
        };
        let mut all_guarded = true;
        let mut const_rules = 0u64;
        let mut consts: BTreeSet<i64> = BTreeSet::new();
        // Per guarded rule, the step its head stage takes past a stage of
        // `p` itself (`None`: its stage comes from elsewhere).
        let mut steps: Vec<Option<i64>> = Vec::new();
        let mut markers: BTreeSet<Symbol> = BTreeSet::new();
        let mut cols_union: BTreeSet<usize> = BTreeSet::new();
        for r in prog.rules_for(p) {
            match r.head.args.get(ppos).and_then(stage_expr) {
                Some(StageExpr::Const(c)) => {
                    const_rules += 1;
                    consts.insert(c);
                }
                Some(StageExpr::Linear(hv, k)) => {
                    if let Some((cols, marker)) = first_entry_guard(prog, info, scc_set, r) {
                        cols_union.extend(cols.iter().copied());
                        markers.insert(marker);
                        guards.insert(r.id, cols);
                        let own = Some(StageExpr::Linear(hv, 0));
                        let from_p = (r.positive_atoms())
                            .any(|a| a.pred == p && a.args.get(ppos).and_then(stage_expr) == own);
                        steps.push(from_p.then_some(k));
                    } else {
                        all_guarded = false;
                    }
                }
                None => all_guarded = false,
            }
        }
        if all_guarded {
            // Every stage of `p` is at least the lowest constant one when
            // each guarded rule steps up from a stage of `p` itself, so a
            // guarded rule fires no lower than `min + step`. A grounding with
            // a constant-stage tuple at `c` gets a guarded tuple only at a
            // stage ≤ `c` (first entry); when every constant lies within one
            // step of the lowest, that stage is `c` itself and adds nothing:
            // a grounding's stages are its constant ones or its first entry,
            // never both (logicH's `h`: 0, 1, and `D + 1` from `h` — 2).
            let (lo, hi) = (consts.first(), consts.last());
            let step = steps.iter().copied().min().flatten();
            let collapses = matches!((lo, hi, step), (Some(&lo), Some(&hi), Some(k)) if k >= 1 && hi <= lo.saturating_add(k));
            let m = if collapses {
                (consts.len() as u64).max(markers.len() as u64)
            } else {
                const_rules + markers.len() as u64
            };
            let m = m.max(1);
            mu.insert(p, m);
            gcols.insert(p, cols_union);
        }
    }

    // Pass 2: per-rule contributions, beside the paper's `S ×` Σ of the
    // anchor products.
    for &p in members {
        let per_stage = prog.rules_for(p).map(|r| {
            if anchored(r, scc_set) {
                anchor_product(r, Some(scc_set), &fr.paper)
            } else {
                BoundExpr::Unbounded
            }
        });
        let paper = prod_expr(vec![BoundExpr::Stages, sum_expr(per_stage.collect())]);
        fr.paper.insert(p, paper);
        let Some(&ppos) = info.stage_pos.get(&p) else {
            bounds.insert(p, BoundExpr::Unbounded);
            continue;
        };
        let mut contributions: Vec<BoundExpr> = Vec::new();
        let mut unbounded = false;
        for r in prog.rules_for(p) {
            if !anchored(r, scc_set) {
                unbounded = true;
                break;
            }
            let a = anchor_product(r, Some(scc_set), bounds);
            let avars = anchor_vars(r, scc_set);
            let head_anchor_bound = r
                .head
                .args
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != ppos)
                .all(|(_, t)| t.vars().iter().all(|v| avars.contains(v)));
            let contribution = match r.head.args.get(ppos).and_then(stage_expr) {
                Some(StageExpr::Const(_)) if head_anchor_bound => a,
                Some(StageExpr::Linear(hv, _)) if head_anchor_bound => {
                    if guards.contains_key(&r.id) {
                        fr.guarded_rules.insert(r.id);
                        a
                    } else if let Some(m) =
                        stage_mult_via(r, hv, &avars, &mu, &gcols, scc_set, info)
                    {
                        prod_expr(vec![BoundExpr::Const(m), a])
                    } else {
                        prod_expr(vec![BoundExpr::Stages, a])
                    }
                }
                _ => prod_expr(vec![BoundExpr::Stages, a]),
            };
            contributions.push(contribution);
        }
        let b = if unbounded {
            BoundExpr::Unbounded
        } else {
            sum_expr(contributions)
        };
        bounds.insert(p, b);
    }
    for (p, m) in mu {
        fr.stage_multiplicity.insert(p, m);
    }
    for (p, g) in gcols {
        fr.guard_cols.insert(p, g);
    }
}

/// If `r` consumes an SCC atom whose stage argument determines `r`'s head
/// stage variable `hv` and whose guard columns are all anchor-bound, the
/// head stage ranges over at most `μ` values; return that μ.
fn stage_mult_via(
    r: &Rule,
    hv: Symbol,
    avars: &BTreeSet<Symbol>,
    mu: &BTreeMap<Symbol, u64>,
    gcols: &BTreeMap<Symbol, BTreeSet<usize>>,
    scc_set: &BTreeSet<Symbol>,
    info: &XyInfo,
) -> Option<u64> {
    for b in r.positive_atoms() {
        if !scc_set.contains(&b.pred) {
            continue;
        }
        let Some(&qpos) = info.stage_pos.get(&b.pred) else {
            continue;
        };
        let Some(StageExpr::Linear(v, _)) = b.args.get(qpos).and_then(stage_expr) else {
            continue;
        };
        if v != hv {
            continue;
        }
        let Some(&m) = mu.get(&b.pred) else {
            continue;
        };
        let Some(g) = gcols.get(&b.pred) else {
            continue;
        };
        let cols_anchor_bound = g.iter().all(|&j| {
            b.args
                .get(j)
                .is_some_and(|t| t.vars().iter().all(|v| avars.contains(v)))
        });
        if cols_anchor_bound {
            return Some(m);
        }
    }
    None
}

/// Check whether rule `r` (variable-stage, head pred `p`) carries a valid
/// first-entry guard: a same-stage negated SCC atom `not q(…)` whose
/// predicate is a cumulative entry marker for `p`. Returns the guarded head
/// column positions and the marker predicate.
fn first_entry_guard(
    prog: &Program,
    info: &XyInfo,
    scc_set: &BTreeSet<Symbol>,
    r: &Rule,
) -> Option<(BTreeSet<usize>, Symbol)> {
    let p = r.head.pred;
    let &ppos = info.stage_pos.get(&p)?;
    let head_stage = r.head.args.get(ppos).and_then(stage_expr)?;
    for lit in &r.body {
        let Literal::Neg(gatom) = lit else {
            continue;
        };
        let q = gatom.pred;
        if !scc_set.contains(&q) || q == p {
            continue;
        }
        let Some(&qpos) = info.stage_pos.get(&q) else {
            continue;
        };
        let Some(gstage) = gatom.args.get(qpos).and_then(stage_expr) else {
            continue;
        };
        // The guard must test the *current* stage of the marker…
        if relate_detail(head_stage, gstage, r) != Some(StageRelDetail::Same) {
            continue;
        }
        // …and the marker must be computed before `p` within a stage.
        let iq = info.stage_order.iter().position(|&x| x == q);
        let ip = info.stage_order.iter().position(|&x| x == p);
        match (iq, ip) {
            (Some(iq), Some(ip)) if iq < ip => {}
            _ => continue,
        }
        // One marker rule with the entry property suffices: additional
        // rules only derive the marker more often, i.e. block more.
        for rq in prog.rules_for(q) {
            if let Some(cols) = marker_rule_cols(info, r, rq, gatom, ppos) {
                if !cols.is_empty() {
                    return Some((cols, q));
                }
            }
        }
    }
    None
}

/// Check that marker rule `rq` (for guard atom `gatom` of rule `r`) derives
/// the marker at every stage after a head-column grounding first enters
/// `r`'s head predicate. On success returns the guarded column positions.
///
/// Requirements, with `rq` renamed apart and its head matched against the
/// guard atom under θ:
/// * `rq` has a positive body atom `b` on `r`'s head predicate whose stage
///   is only *comparison*-constrained below the marker stage (cumulative —
///   an offset like `D` vs `D+1` only witnesses the immediately preceding
///   stage and is rejected);
/// * every non-stage argument of `b` is either θ-equal to the corresponding
///   head argument of `r` (a guarded column) or a variable local to `b`;
/// * the rest of `rq`'s body (minus the stage-comparison proofs) embeds
///   into `r`'s body under θ, so the marker premise holds whenever `r`
///   fires.
fn marker_rule_cols(
    info: &XyInfo,
    r: &Rule,
    rq: &Rule,
    gatom: &Atom,
    ppos: usize,
) -> Option<BTreeSet<usize>> {
    if rq.agg.is_some() {
        return None;
    }
    let p = r.head.pred;
    let q = rq.head.pred;
    let &qpos = info.stage_pos.get(&q)?;

    // α-rename rq apart from r.
    let mut ren = Subst::new();
    let mut rqvars: Vec<Symbol> = Vec::new();
    rq.head.collect_vars(&mut rqvars);
    for l in &rq.body {
        l.collect_vars(&mut rqvars);
    }
    for &v in &rqvars {
        if !ren.is_bound(v) {
            let fresh = Symbol::intern(&format!("{}#mk", v.as_str()));
            ren.bind(v, Term::Var(fresh));
        }
    }
    let apply_atom = |a: &Atom| Atom {
        pred: a.pred,
        args: a.args.iter().map(|t| ren.apply(t)).collect(),
    };
    let rh = apply_atom(&rq.head);
    let rbody: Vec<Literal> = rq
        .body
        .iter()
        .map(|l| match l {
            Literal::Pos(a) => Literal::Pos(apply_atom(a)),
            Literal::Neg(a) => Literal::Neg(apply_atom(a)),
            Literal::Builtin(a) => Literal::Builtin(apply_atom(a)),
            Literal::Cmp(op, a, b) => Literal::Cmp(*op, ren.apply(a), ren.apply(b)),
        })
        .collect();
    let mut fresh: BTreeSet<Symbol> = BTreeSet::new();
    let mut fv: Vec<Symbol> = Vec::new();
    rh.collect_vars(&mut fv);
    for l in &rbody {
        l.collect_vars(&mut fv);
    }
    fresh.extend(fv);

    // θ: marker head ⇒ guard atom (only renamed vars bindable).
    if rh.args.len() != gatom.args.len() {
        return None;
    }
    let mut theta = Subst::new();
    for (pat, val) in rh.args.iter().zip(&gatom.args) {
        if !pat_match(pat, val, &fresh, &mut theta) {
            return None;
        }
    }
    let rq_head_stage = rh.args.get(qpos).and_then(stage_expr)?;

    'cand: for (bi, lit) in rbody.iter().enumerate() {
        let Literal::Pos(b) = lit else {
            continue;
        };
        if b.pred != p {
            continue;
        }
        let bstage_t = match b.args.get(ppos) {
            Some(t) => t,
            None => continue,
        };
        let Some(bstage) = stage_expr(bstage_t) else {
            continue;
        };
        // Reject syntactic offsets — they witness only one earlier stage.
        match (rq_head_stage, bstage) {
            (StageExpr::Linear(hv, _), StageExpr::Linear(bv, _)) if hv == bv => continue,
            (StageExpr::Const(_), StageExpr::Const(_)) => continue,
            _ => {}
        }
        let StageExpr::Linear(bv, _) = bstage else {
            continue;
        };
        if theta.is_bound(bv) {
            continue;
        }
        // The marker stage must dominate b's stage via explicit comparisons
        // satisfiable at *every* earlier entry stage.
        let mut proof_idx: Vec<usize> = Vec::new();
        for (ci, cl) in rbody.iter().enumerate() {
            if let Literal::Cmp(op, l, rr) = cl {
                use crate::ast::CmpOp;
                let (le, re) = (stage_expr(l), stage_expr(rr));
                let proves = match op {
                    CmpOp::Gt | CmpOp::Ge => le == Some(rq_head_stage) && re == Some(bstage),
                    CmpOp::Lt | CmpOp::Le => le == Some(bstage) && re == Some(rq_head_stage),
                    _ => false,
                };
                if proves {
                    proof_idx.push(ci);
                }
            }
        }
        if proof_idx.is_empty() {
            continue;
        }
        // Classify b's non-stage columns.
        let mut cols: BTreeSet<usize> = BTreeSet::new();
        let mut locals: BTreeSet<Symbol> = BTreeSet::new();
        for (j, arg) in b.args.iter().enumerate() {
            if j == ppos {
                continue;
            }
            let img = theta.apply(arg);
            let img_has_fresh = img.vars().iter().any(|v| fresh.contains(v));
            if !img_has_fresh && Some(&img) == r.head.args.get(j) {
                cols.insert(j);
            } else if let Term::Var(v) = arg {
                if !theta.is_bound(*v) {
                    locals.insert(*v);
                } else {
                    continue 'cand;
                }
            } else {
                continue 'cand;
            }
        }
        if cols.is_empty() {
            continue;
        }
        // Remaining literals may not constrain b's stage or local vars, and
        // must be implied by r's own body.
        let mut remainder: Vec<&Literal> = Vec::new();
        for (ci, cl) in rbody.iter().enumerate() {
            if ci == bi || proof_idx.contains(&ci) {
                continue;
            }
            let mut vs: Vec<Symbol> = Vec::new();
            cl.collect_vars(&mut vs);
            if vs.contains(&bv) || vs.iter().any(|v| locals.contains(v)) {
                continue 'cand;
            }
            remainder.push(cl);
        }
        if embed(&remainder, &r.body, &theta, &fresh) {
            return Some(cols);
        }
    }
    None
}

/// One-way match: `pat` (whose `bindable` vars may be bound/extended in
/// `s`) against `val`, whose variables are treated as constants.
fn pat_match(pat: &Term, val: &Term, bindable: &BTreeSet<Symbol>, s: &mut Subst) -> bool {
    match pat {
        Term::Var(v) if bindable.contains(v) => match s.get(*v) {
            Some(b) => b.clone() == *val,
            None => {
                s.bind(*v, val.clone());
                true
            }
        },
        Term::App(f, args) => match val {
            Term::App(g, vargs) if f == g && args.len() == vargs.len() => args
                .iter()
                .zip(vargs.iter())
                .all(|(a, b)| pat_match(a, b, bindable, s)),
            _ => false,
        },
        _ => pat == val,
    }
}

fn lit_match(pat: &Literal, val: &Literal, bindable: &BTreeSet<Symbol>, s: &mut Subst) -> bool {
    let atoms = |a: &Atom, b: &Atom, s: &mut Subst| {
        a.pred == b.pred
            && a.args.len() == b.args.len()
            && a.args
                .iter()
                .zip(&b.args)
                .all(|(x, y)| pat_match(x, y, bindable, s))
    };
    match (pat, val) {
        (Literal::Pos(a), Literal::Pos(b))
        | (Literal::Neg(a), Literal::Neg(b))
        | (Literal::Builtin(a), Literal::Builtin(b)) => atoms(a, b, s),
        (Literal::Cmp(o1, l1, r1), Literal::Cmp(o2, l2, r2)) => {
            o1 == o2 && pat_match(l1, l2, bindable, s) && pat_match(r1, r2, bindable, s)
        }
        _ => false,
    }
}

/// Does every literal of `rem` match some literal of `body` under a common
/// extension of θ? (Backtracking; premise implication by syntactic
/// embedding.)
fn embed(rem: &[&Literal], body: &[Literal], theta: &Subst, bindable: &BTreeSet<Symbol>) -> bool {
    let Some((first, rest)) = rem.split_first() else {
        return true;
    };
    for target in body {
        let mut th = theta.clone();
        if lit_match(first, target, bindable, &mut th) && embed(rest, body, &th, bindable) {
            return true;
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Non-XY recursion: windowed Herbrand column dataflow
// ---------------------------------------------------------------------------

/// Abstract value set of one predicate column.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
struct ColAbs {
    /// Unknown shape (divergent depth, builtin-bound, over-cap).
    top: bool,
    /// Max constructor-nesting depth of any value.
    depth: u32,
    /// Max number of leaf constants in any value (0 = no value seen yet).
    leaves: u32,
    /// Base streams whose tuple arguments contribute leaves.
    srcs: BTreeSet<Symbol>,
    /// Program-text constants contributing leaves.
    consts: BTreeSet<Term>,
}

impl ColAbs {
    fn top() -> ColAbs {
        ColAbs {
            top: true,
            ..ColAbs::default()
        }
    }

    fn base(pred: Symbol) -> ColAbs {
        ColAbs {
            depth: 0,
            leaves: 1,
            srcs: [pred].into_iter().collect(),
            ..ColAbs::default()
        }
    }

    fn constant(t: &Term) -> ColAbs {
        ColAbs {
            depth: 0,
            leaves: 1,
            consts: [t.clone()].into_iter().collect(),
            ..ColAbs::default()
        }
    }

    fn join(&mut self, o: &ColAbs) -> bool {
        let before = self.clone();
        self.top |= o.top;
        self.depth = self.depth.max(o.depth);
        self.leaves = self.leaves.max(o.leaves);
        self.srcs.extend(o.srcs.iter().copied());
        self.consts.extend(o.consts.iter().cloned());
        *self != before
    }

    /// Abstract value of an immediate subterm: one level shallower; a
    /// depth-0 subterm is a single leaf.
    fn child(&self) -> ColAbs {
        let depth = self.depth.saturating_sub(1);
        let leaves = if self.top {
            self.leaves
        } else if depth == 0 {
            1
        } else {
            self.leaves.saturating_sub(1).max(1)
        };
        ColAbs {
            top: self.top,
            depth,
            leaves,
            srcs: self.srcs.clone(),
            consts: self.consts.clone(),
        }
    }

    fn app(children: Vec<ColAbs>) -> ColAbs {
        let mut out = ColAbs {
            depth: 1 + children.iter().map(|c| c.depth).max().unwrap_or(0),
            leaves: children
                .iter()
                .fold(0u32, |acc, c| acc.saturating_add(c.leaves.max(1))),
            ..ColAbs::default()
        };
        for c in children {
            out.top |= c.top;
            out.srcs.extend(c.srcs);
            out.consts.extend(c.consts);
        }
        if out.depth > DEPTH_CAP || out.leaves > LEAF_CAP {
            out.top = true;
        }
        out
    }
}

fn herbrand_scc_bounds(
    prog: &Program,
    scc_set: &BTreeSet<Symbol>,
    members: &[Symbol],
    edb: &BTreeSet<Symbol>,
    bounds: &mut BTreeMap<Symbol, BoundExpr>,
    fr: &mut Frontier,
) {
    let scc_rules: Vec<&Rule> = prog
        .rules
        .iter()
        .filter(|r| scc_set.contains(&r.head.pred))
        .collect();
    let invents = scc_rules
        .iter()
        .any(|r| r.head.args.iter().any(|t| matches!(t, Term::App(..))));
    // The column dataflow only models base-fed recursion; anything joining
    // external IDB predicates or aggregating keeps the paper's bound.
    let tractable = !scc_rules.iter().any(|r| {
        r.agg.is_some()
            || r.positive_atoms()
                .any(|a| !scc_set.contains(&a.pred) && !edb.contains(&a.pred))
    });
    for &p in members {
        fr.paper.insert(p, herbrand_bound(prog, edb, p, invents));
    }
    if !tractable {
        bounds.extend(members.iter().map(|p| (*p, fr.paper[p].clone())));
        return;
    }

    // Fixpoint over per-column abstractions.
    let mut cur: BTreeMap<(Symbol, usize), ColAbs> = BTreeMap::new();
    for &p in members {
        for j in 0..prog.arity_of(p).unwrap_or(0) {
            cur.insert((p, j), ColAbs::default());
        }
    }
    let max_iters = 8 + (DEPTH_CAP + LEAF_CAP) as usize * cur.len().max(1);
    for _ in 0..max_iters {
        let mut changed = false;
        for r in &scc_rules {
            let binds = rule_bindings(r, scc_set, edb, &cur);
            for (j, t) in r.head.args.iter().enumerate() {
                let abs = eval_term_abs(t, &binds).unwrap_or_else(ColAbs::top);
                if let Some(slot) = cur.get_mut(&(r.head.pred, j)) {
                    changed |= slot.join(&abs);
                }
            }
        }
        if !changed {
            break;
        }
    }

    for &p in members {
        let arity = prog.arity_of(p).unwrap_or(0);
        let mut widths: Vec<BoundExpr> = Vec::new();
        let mut srcs_all: BTreeSet<Symbol> = BTreeSet::new();
        let mut any_top = false;
        for j in 0..arity {
            let abs = cur.get(&(p, j)).cloned().unwrap_or_else(ColAbs::top);
            srcs_all.extend(abs.srcs.iter().copied());
            if abs.top {
                any_top = true;
                widths.push(herbrand_domain(prog, edb));
                continue;
            }
            widths.push(col_width(prog, &abs, scc_rules.len() as u64));
        }
        let b = if any_top && invents {
            BoundExpr::Unbounded
        } else {
            prod_expr(widths)
        };
        fr.herbrand_sources.insert(p, srcs_all);
        bounds.insert(p, b);
    }
}

/// Abstract bindings of one rule's variables, from its base and SCC atoms
/// plus `Eq` assignments; variables seen only in builtins go to top.
fn rule_bindings(
    r: &Rule,
    scc_set: &BTreeSet<Symbol>,
    edb: &BTreeSet<Symbol>,
    cur: &BTreeMap<(Symbol, usize), ColAbs>,
) -> BTreeMap<Symbol, ColAbs> {
    let mut binds: BTreeMap<Symbol, ColAbs> = BTreeMap::new();
    // A few passes settle `Eq` chains regardless of body order.
    for pass in 0..3 {
        for lit in &r.body {
            match lit {
                Literal::Pos(a) if edb.contains(&a.pred) => {
                    for t in &a.args {
                        bind_pattern(t, &ColAbs::base(a.pred), &mut binds);
                    }
                }
                Literal::Pos(a) if scc_set.contains(&a.pred) => {
                    for (j, t) in a.args.iter().enumerate() {
                        let abs = cur.get(&(a.pred, j)).cloned().unwrap_or_else(ColAbs::top);
                        bind_pattern(t, &abs, &mut binds);
                    }
                }
                Literal::Cmp(crate::ast::CmpOp::Eq, l, rr) => {
                    if let (Term::Var(v), Some(abs)) = (l, eval_term_abs(rr, &binds)) {
                        binds.entry(*v).or_default().join(&abs);
                    } else if let (Some(abs), Term::Var(v)) = (eval_term_abs(l, &binds), rr) {
                        binds.entry(*v).or_default().join(&abs);
                    }
                }
                Literal::Builtin(a) if pass == 2 => {
                    // Builtins may bind their arguments procedurally.
                    for v in a.vars() {
                        binds.entry(v).or_default().join(&ColAbs::top());
                    }
                }
                _ => {}
            }
        }
    }
    binds
}

fn bind_pattern(t: &Term, abs: &ColAbs, binds: &mut BTreeMap<Symbol, ColAbs>) {
    match t {
        Term::Var(v) => {
            binds.entry(*v).or_default().join(abs);
        }
        Term::App(_, args) => {
            let c = abs.child();
            for a in args.iter() {
                bind_pattern(a, &c, binds);
            }
        }
        _ => {}
    }
}

/// Abstract value of a head/assignment term; `None` if a variable is
/// unbound (caller decides whether that widens to top).
fn eval_term_abs(t: &Term, binds: &BTreeMap<Symbol, ColAbs>) -> Option<ColAbs> {
    match t {
        Term::Var(v) => binds.get(v).cloned(),
        Term::App(_, args) => {
            let children: Option<Vec<ColAbs>> =
                args.iter().map(|a| eval_term_abs(a, binds)).collect();
            Some(ColAbs::app(children?))
        }
        _ => Some(ColAbs::constant(t)),
    }
}

/// Width of one converged column: (#tree shapes) × (#leaf choices)^(#leaf
/// slots). Leaf choices come from the contributing base streams' argument
/// positions plus the program constants that flow into the column.
fn col_width(prog: &Program, abs: &ColAbs, scc_rule_count: u64) -> BoundExpr {
    let mut parts: Vec<BoundExpr> = abs
        .srcs
        .iter()
        .map(|&s| {
            let arity = prog.arity_of(s).unwrap_or(1).max(1) as u64;
            prod_expr(vec![BoundExpr::Const(arity), BoundExpr::Events(s)])
        })
        .collect();
    if !abs.consts.is_empty() {
        parts.push(BoundExpr::Const(abs.consts.len() as u64));
    }
    let d_col = if parts.is_empty() {
        BoundExpr::Const(1)
    } else {
        sum_expr(parts)
    };
    let exp = abs.leaves.clamp(1, LEAF_CAP);
    let pow = if exp == 1 {
        d_col
    } else {
        BoundExpr::Pow(Box::new(d_col), exp)
    };
    let shapes = if abs.depth == 0 {
        1
    } else {
        (scc_rule_count + 1).saturating_pow(abs.depth)
    };
    prod_expr(vec![BoundExpr::Const(shapes), pow])
}

// ---------------------------------------------------------------------------
// Message envelopes
// ---------------------------------------------------------------------------

/// Column walks per predicate's probes: each occurrence, negated ones
/// included, charged the passes a node probe pinned there walks
/// ([`pin_passes`]).
fn probe_passes(prog: &Program) -> BTreeMap<Symbol, u64> {
    let mut passes: BTreeMap<Symbol, u64> = BTreeMap::new();
    for r in &prog.rules {
        for (i, lit) in r.body.iter().enumerate() {
            if let Literal::Pos(a) | Literal::Neg(a) = lit {
                let walks = pin_passes(&r.body, i) as u64;
                *passes.entry(a.pred).or_insert(0) += walks;
            }
        }
    }
    passes
}

/// Derivation (firing) bound per IDB predicate: Σ over rules of Π over all
/// positive-subgoal bounds — each body solution fires at most once.
fn firing_bound(prog: &Program, p: Symbol, bounds: &BTreeMap<Symbol, BoundExpr>) -> BoundExpr {
    let terms: Vec<BoundExpr> = prog
        .rules_for(p)
        .map(|r| anchor_product(r, None, bounds))
        .collect();
    sum_expr(terms)
}

/// Whole-run per-kind message envelopes for the simulator cross-check,
/// summed from one [`CommRow`] per predicate.
pub fn comm_envelopes(analysis: &Analysis, bounds: &BTreeMap<Symbol, BoundExpr>) -> CommEnvelopes {
    let prog = &analysis.program;
    let edb = prog.edb_preds();
    let idb = prog.idb_preds();
    let passes = probe_passes(prog);
    // Tuple-transition driver: insertion events for base streams, firings
    // for derived predicates (DRed churn re-walks per derivation).
    let driver = |p: Symbol| -> BoundExpr {
        if edb.contains(&p) {
            bounds.get(&p).cloned().unwrap_or(BoundExpr::Unbounded)
        } else {
            firing_bound(prog, p, bounds)
        }
    };
    let per_node = |k: u64, e: BoundExpr| prod_expr(vec![BoundExpr::Const(k), e, BoundExpr::Nodes]);
    let rows: Vec<(Symbol, CommRow)> = (edb.iter().chain(idb.difference(&edb)))
        .map(|&p| {
            let walks = passes.get(&p).copied().unwrap_or(0);
            let roles = 1 + usize::from(edb.contains(&p) && idb.contains(&p));
            let share = |k: u64| sum_expr(vec![per_node(k, driver(p)); roles]);
            let row = CommRow {
                store: share(4),
                probe: (walks > 0).then(|| share(4 * walks)),
                result: idb
                    .contains(&p)
                    .then(|| per_node(8, firing_bound(prog, p, bounds))),
            };
            (p, row)
        })
        .collect();
    CommEnvelopes {
        store: sum_expr(rows.iter().map(|(_, r)| r.store.clone()).collect()),
        probe: sum_expr(rows.iter().filter_map(|(_, r)| r.probe.clone()).collect()),
        result: sum_expr(rows.iter().filter_map(|(_, r)| r.result.clone()).collect()),
        centroid: sum_expr(
            edb.iter()
                .map(|&p| per_node(2, BoundExpr::Events(p)))
                .collect(),
        ),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use crate::builtin::BuiltinRegistry;
    use crate::diag::BoundParams;
    use crate::parser::parse_program;

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    fn fr(src: &str) -> Frontier {
        let prog = parse_program(src).unwrap();
        let analysis = analyze(&prog, &BuiltinRegistry::standard()).unwrap();
        frontier(&analysis)
    }

    fn params(nodes: u64, e: u64) -> BoundParams {
        BoundParams {
            nodes,
            default_events: e,
            events: BTreeMap::new(),
        }
    }

    const LOGIC_H: &str = r#"
        .base g.
        .output h.
        h(a, a, 0).
        h(a, X, 1) :- g(a, X).
        hp(Y, D + 1) :- h(_, Y, D'), (D + 1) > D', h(_, X, D), g(X, Y).
        h(X, Y, D + 1) :- g(X, Y), h(_, X, D), not hp(Y, D + 1).
    "#;

    const LOGIC_J: &str = r#"
        .base g.
        .output j.
        j(0, 0).
        j(X, 1) :- g(0, X).
        jp(Y, D + 1) :- j(Y, D'), (D + 1) > D', j(X, D), g(X, Y).
        j(Y, D + 1) :- g(X, Y), j(X, D), not jp(Y, D + 1).
    "#;

    #[test]
    fn logich_frontier_is_stage_free() {
        let f = fr(LOGIC_H);
        let p = params(200, 740);
        // h: 1 + E(g) + E(g) — no S factor; hp: μ(h)·E(g) = 2·E(g), the
        // constant stages 0 and 1 leaving the first entry nothing new.
        assert_eq!(f.bounds[&sym("h")].eval(&p), Some(1 + 740 + 740));
        assert_eq!(f.bounds[&sym("hp")].eval(&p), Some(2 * 740));
        assert_eq!(f.stage_multiplicity[&sym("h")], 2);
        assert_eq!(
            f.guard_cols[&sym("h")],
            [1usize].into_iter().collect::<BTreeSet<_>>()
        );
        assert_eq!(f.guarded_rules.len(), 1);
    }

    #[test]
    fn logicj_frontier_matches_logich_shape() {
        let f = fr(LOGIC_J);
        let p = params(100, 500);
        assert_eq!(f.bounds[&sym("j")].eval(&p), Some(1 + 2 * 500));
        assert_eq!(f.bounds[&sym("jp")].eval(&p), Some(2 * 500));
        assert_eq!(
            f.guard_cols[&sym("j")],
            [0usize].into_iter().collect::<BTreeSet<_>>()
        );
    }

    /// A first entry collapses onto a constant stage only when every
    /// constant lies within one step of the lowest: with `j(X, 5)` a node
    /// can enter at 1 and hold 5 besides, so `μ(j)` stays 3.
    #[test]
    fn far_constant_stages_keep_the_first_entry() {
        let far = LOGIC_J.replace("j(X, 1) :- g(0, X).", "j(X, 5) :- g(0, X).");
        let f = fr(&far);
        assert_eq!(f.stage_multiplicity[&sym("j")], 3);
        assert_eq!(f.bounds[&sym("jp")].eval(&params(100, 500)), Some(3 * 500));
    }

    /// The paper's `S·Σ` bound, read off the frontier walk: logicH's `h`
    /// and `hp` carry the full stage factor `S = nodes + 1`.
    #[test]
    fn paper_bounds_are_stage_scaled() {
        let f = fr(LOGIC_H);
        let p = params(200, 740);
        // h: S * (1 + E(g) + E(g)); hp: S * E(g); S = 201.
        assert_eq!(f.paper[&sym("h")].eval(&p), Some(201 * (1 + 740 + 740)));
        assert_eq!(f.paper[&sym("hp")].eval(&p), Some(201 * 740));
    }

    #[test]
    fn paper_nonrecursive_bound_is_body_product() {
        let f = fr(".base e.\nq(X, Z) :- e(X, Y), e(Y, Z).");
        assert_eq!(f.paper[&sym("q")].eval(&params(1, 10)), Some(100));
    }

    #[test]
    fn paper_value_invention_is_unbounded() {
        let f = fr(".base e.\nn(s(X)) :- n(X), e(X).\nn(X) :- e(X).");
        assert_eq!(f.paper[&sym("n")], BoundExpr::Unbounded);
    }

    /// Every example program and logicH / logicJ, at nodes ∈ {1, 2, 8, 64}:
    /// wherever the paper's bound is finite, the frontier bound is finite
    /// too and no larger.
    #[test]
    fn frontier_is_never_looser_than_legacy_on_examples() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/programs");
        let mut srcs = vec![LOGIC_H.to_string(), LOGIC_J.to_string()];
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|x| x == "dl") {
                srcs.push(std::fs::read_to_string(path).unwrap());
            }
        }
        assert!(srcs.len() >= 8, "examples/programs went missing");
        for src in &srcs {
            let prog = parse_program(src).unwrap();
            let analysis = analyze(&prog, &BuiltinRegistry::standard()).unwrap();
            let f = frontier(&analysis);
            assert_eq!(
                f.paper.keys().collect::<Vec<_>>(),
                f.bounds.keys().collect::<Vec<_>>()
            );
            for nodes in [1, 2, 8, 64] {
                let p = params(nodes, 100);
                for (pred, b) in &f.paper {
                    let Some(old) = b.eval(&p) else {
                        continue;
                    };
                    let new = f.bounds[pred].eval(&p);
                    assert!(
                        new.is_some_and(|new| new <= old),
                        "{pred} at {nodes} nodes: frontier {new:?} > paper {old}"
                    );
                }
            }
        }
    }

    #[test]
    fn guard_rejected_when_marker_column_mismatches() {
        // Marker tracks column X (the *source*), not the head's Y column:
        // it does not witness Y's entry, so the bound must keep the S factor.
        let f = fr(r#"
            .base g.
            .output j.
            j(0, 0).
            jp(X, D + 1) :- j(X, D'), (D + 1) > D', j(X, D), g(X, Y).
            j(Y, D + 1) :- g(X, Y), j(X, D), not jp(X, D + 1).
        "#);
        let p = params(50, 10);
        let s = 51u64;
        assert_eq!(f.bounds[&sym("j")].eval(&p), Some(1 + s * 10));
        assert!(f.guarded_rules.is_empty());
    }

    #[test]
    fn offset_marker_is_not_cumulative() {
        // hp derivable only from the immediately preceding stage (offset,
        // no comparison) — a value re-entering two stages later is missed,
        // so no first-entry credit.
        let f = fr(r#"
            .base g.
            .output j.
            j(0, 0).
            jp(Y, D + 1) :- j(Y, D), g(X, Y).
            j(Y, D + 1) :- g(X, Y), j(X, D), not jp(Y, D + 1).
        "#);
        let p = params(50, 10);
        let s = 51u64;
        assert_eq!(f.bounds[&sym("j")].eval(&p), Some(1 + s * 10));
        assert!(f.guarded_rules.is_empty());
    }

    #[test]
    fn guard_rejected_when_marker_premise_not_implied() {
        // Marker needs an extra atom `h(Y)` that the guarded rule's body
        // does not imply — the marker may never fire, so no credit.
        let f = fr(r#"
            .base g.
            .base h.
            .output j.
            j(0, 0).
            jp(Y, D + 1) :- j(Y, D'), (D + 1) > D', h(Y), j(X, D), g(X, Y).
            j(Y, D + 1) :- g(X, Y), j(X, D), not jp(Y, D + 1).
        "#);
        let p = params(50, 10);
        let s = 51u64;
        assert_eq!(f.bounds[&sym("j")].eval(&p), Some(1 + s * 10));
        assert!(f.guarded_rules.is_empty());
    }

    #[test]
    fn windowed_swap_recursion_gets_finite_bound() {
        // Value invention with non-growing depth: the paper says Unbounded,
        // the column dataflow converges at depth 1 / two leaves.
        let src = r#"
            .base s.
            .window s 60000.
            .output m.
            m(pair(A, B)) :- s(A, B).
            m(pair(B, A)) :- m(pair(A, B)).
        "#;
        let f = fr(src);
        assert_eq!(f.paper[&sym("m")], BoundExpr::Unbounded);
        let p = params(1, 10);
        // shapes·(2·E(s))² = 3·400 with 2 SCC rules.
        assert_eq!(f.bounds[&sym("m")].eval(&p), Some(3 * 400));
        assert!(f.herbrand_sources[&sym("m")].contains(&sym("s")));
    }

    #[test]
    fn counter_recursion_stays_unbounded() {
        let f = fr(r#"
            .base e.
            .output n.
            n(zero) :- e(X).
            n(s(X)) :- n(X), e(Y).
        "#);
        assert_eq!(f.bounds[&sym("n")], BoundExpr::Unbounded);
    }

    #[test]
    fn transitive_closure_value_matches_legacy() {
        let src = r#"
            .base e.
            t(X, Y) :- e(X, Y).
            t(X, Y) :- t(X, Z), e(Z, Y).
        "#;
        let f = fr(src);
        let p = params(1, 10);
        // Per-column (2·E)·(2·E) = the paper's D² = 400, D = 2·E(e).
        assert_eq!(f.bounds[&sym("t")].eval(&p), Some(400));
        assert_eq!(f.paper[&sym("t")].eval(&p), Some(400));
    }

    /// Each per-kind envelope is the sum of its predicate rows, one row per
    /// predicate, and every row grows with the network: on logicH, logicJ,
    /// battlefield, a two-level join and a declared base predicate that a
    /// rule also derives, at 4 and 100 nodes.
    #[test]
    fn envelope_rows_sum_to_the_totals_and_grow_with_nodes() {
        let battlefield = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../examples/programs/battlefield.dl"
        );
        let battlefield = std::fs::read_to_string(battlefield).unwrap();
        let two_level = ".base a. .base b. .base c.\n.output big.\n\
                         mid(X, Y) :- a(X, K), b(K, Y).\nbig(X, Z) :- mid(X, Y), c(Y, Z).";
        let base_and_derived = ".base h.\n.output q.\nh(X) :- e(X).\nq(X) :- h(X), e(X).";
        for src in [LOGIC_H, LOGIC_J, &battlefield, two_level, base_and_derived] {
            let analysis = analyze(&parse_program(src).unwrap(), &BuiltinRegistry::standard());
            let analysis = analysis.unwrap();
            let env = comm_envelopes(&analysis, &frontier(&analysis).bounds);
            let preds: Vec<Symbol> = env.rows.iter().map(|(p, _)| *p).collect();
            let all: BTreeSet<Symbol> = preds.iter().copied().collect();
            assert_eq!(
                preds.len(),
                all.len(),
                "a predicate has two rows: {preds:?}"
            );
            assert_eq!(all, analysis.program.all_preds());
            fn fields(r: &CommRow) -> [Option<&BoundExpr>; 3] {
                [Some(&r.store), r.probe.as_ref(), r.result.as_ref()]
            }
            for nodes in [4, 100] {
                let p = params(nodes, 50);
                for (k, total) in [&env.store, &env.probe, &env.result]
                    .into_iter()
                    .enumerate()
                {
                    let terms = env.rows.iter().filter_map(|(_, r)| fields(r)[k]);
                    let sum = terms.map(|e| e.eval(&p).unwrap()).sum::<u64>();
                    assert_eq!(Some(sum), total.eval(&p), "{total}");
                }
            }
            for (pred, row) in &env.rows {
                for e in fields(row).into_iter().flatten() {
                    let (small, big) = (e.eval(&params(4, 50)), e.eval(&params(100, 50)));
                    assert!(
                        big > small,
                        "{pred}: {e} = {small:?} at 4 nodes, {big:?} at 100"
                    );
                }
            }
        }
    }

    #[test]
    fn comm_envelopes_are_finite_for_xy_examples() {
        let prog = parse_program(LOGIC_H).unwrap();
        let analysis = analyze(&prog, &BuiltinRegistry::standard()).unwrap();
        let f = frontier(&analysis);
        let env = comm_envelopes(&analysis, &f.bounds);
        let p = params(25, 50);
        for (name, e) in [
            ("store", &env.store),
            ("probe", &env.probe),
            ("result", &env.result),
            ("centroid", &env.centroid),
        ] {
            assert!(e.eval(&p).is_some(), "{name} envelope should be finite");
        }
    }

    /// A probe is charged a column walk per pass of its plan. `b` shares
    /// no variable with `a`, so a probe pinned on either opens `c` first
    /// and the other on a second pass: five walks against three for the
    /// rule whose literals all share `X`. The bounds are the same product
    /// either way, so nothing else moves.
    #[test]
    fn a_two_pass_rule_raises_the_probe_envelope() {
        let envelopes = |body: &str| {
            let src = format!(".base a. .base b. .base c.\n.output q.\nq(X, Z) :- {body}.");
            let analysis = analyze(&parse_program(&src).unwrap(), &BuiltinRegistry::standard());
            let analysis = analysis.unwrap();
            comm_envelopes(&analysis, &frontier(&analysis).bounds)
        };
        let two = envelopes("a(X), b(Y, Z), c(X, Y)");
        let one = envelopes("a(X), b(X, Z), c(X, Y)");
        let p = params(25, 50);
        assert_eq!(one.probe.eval(&p), Some(4 * 3 * 50 * 25));
        assert_eq!(two.probe.eval(&p), Some(4 * 5 * 50 * 25));
        for (a, b) in [
            (&two.store, &one.store),
            (&two.result, &one.result),
            (&two.centroid, &one.centroid),
        ] {
            assert_eq!(a.eval(&p), b.eval(&p));
        }
        // logicH: each of `hp`'s two `h` pins walks two passes, and the
        // last rule's `h` pin, which leaves `not hp(Y, D + 1)`'s `Y`
        // unbound, walks one more to check it. `hp`, read only under `not`,
        // is probed from its own pin.
        let prog = parse_program(LOGIC_H).unwrap();
        assert_eq!(probe_passes(&prog)[&sym("h")], 6);
        assert_eq!(probe_passes(&prog)[&sym("hp")], 1);
    }

    #[test]
    fn anchor_vars_are_out_of_scc_only() {
        let prog = parse_program(LOGIC_J).unwrap();
        let scc: BTreeSet<Symbol> = [sym("j"), sym("jp")].into_iter().collect();
        let r = prog
            .rules
            .iter()
            .find(|r| r.head.pred == sym("jp"))
            .unwrap();
        let av = anchor_vars(r, &scc);
        assert!(av.contains(&sym("X")) && av.contains(&sym("Y")));
        assert!(!av.contains(&sym("D")));
    }
}
