//! Program compilation for the distributed runtime (Sec. V: "the user
//! specified logic-program is … translated into appropriate code which
//! represents distributed bottom-up incremental evaluation").
//!
//! The compiled [`DistProgram`] is downloaded into every node: rules with
//! occurrence tables, effective sliding windows, the output set, and the
//! per-predicate finalize-holddown (Sec. IV-C: "we need to wait for an
//! appropriate time before actually finalizing a derived fact (since it may
//! be retracted/deleted later)"). XY components get staggered holddowns
//! following the certified stage-local order, so retractions (`hp`) settle
//! before the tuples they block (`h`) propagate.
//!
//! Two more decisions are the program's, made here once: the passes a
//! probe pinned at each relational literal walks ([`PassPlan`]), and where
//! each predicate's tuples live ([`DistProgram::places`]) — whether a rule
//! joins it at all, which node owns a derived tuple
//! ([`DistProgram::owner_of`]), which predicates join where they stand,
//! stored only at the neighbours their rules read them at
//! ([`store_targets`]), and how far a base tuple's join partners can be.
//! A deployment turns that into one [`Reach`] per predicate
//! (`DistProgram::with_reach`): where its updates go under its strategy.

use crate::partial::MAX_BODY_LITERALS;
use crate::strategy::{PassMode, Strategy};
use sensorlog_eval::eval_body::ground_facts;
use sensorlog_eval::EvalError;
use sensorlog_logic::analyze::Analysis;
use sensorlog_logic::ast::{Atom, Literal};
use sensorlog_logic::boundness::pass_plan;
use sensorlog_logic::builtin::BuiltinRegistry;
use sensorlog_logic::intern::{self, Val};
use sensorlog_logic::span::Span;
use sensorlog_logic::xy::{self, OnPlane, Place, Radius, Store};
use sensorlog_logic::{Symbol, Tuple};
use sensorlog_netsim::{NodeId, Topology};
use sensorlog_netstack::ght;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};

/// A body-literal occurrence of some predicate.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct OccRef {
    pub rule_idx: usize,
    pub lit_idx: usize,
    pub negated: bool,
}

/// Distributed-compilation error.
#[derive(Clone, Debug)]
pub enum CompileError {
    /// Head aggregates are not compiled in-network in this runtime; the
    /// paper routes them to specialized distributed techniques (TAG \[32\],
    /// synopsis diffusion \[23\]) — see `sensorlog_netstack::tag`.
    AggregatesUnsupported {
        rule_id: usize,
    },
    /// A probe tracks which body literals a partial result has joined in
    /// one `u64` (`partial::Partial::bound`). `span` is the first literal
    /// past the limit.
    BodyTooLong {
        rule_id: usize,
        literals: usize,
        span: Span,
    },
    /// A rule no update starts ([`sensorlog_logic::ast::Rule::is_unseeded`]):
    /// the network would never derive its head. `span` is the rule.
    Unseeded {
        rule_id: usize,
        span: Span,
    },
    /// The Centroid center's engine cannot be built: evaluating the
    /// program's ground facts failed.
    CenterEngine(EvalError),
    Analyze(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::AggregatesUnsupported { rule_id } => write!(
                f,
                "rule #{rule_id}: aggregates are evaluated via the TAG substrate, not the GPA runtime"
            ),
            CompileError::BodyTooLong {
                rule_id,
                literals,
                span,
            } => write!(
                f,
                "rule #{rule_id} at {span}: {literals} body literals; the GPA runtime joins at most {MAX_BODY_LITERALS} per rule"
            ),
            CompileError::Unseeded { rule_id, span } => write!(
                f,
                "rule #{rule_id} at {span}: no positive subgoal, so no update starts it and the network never derives its head"
            ),
            CompileError::CenterEngine(e) => write!(f, "the Centroid center's engine: {e}"),
            CompileError::Analyze(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// The compiled program every node runs.
#[derive(Debug)]
pub struct DistProgram {
    pub analysis: Analysis,
    pub reg: BuiltinRegistry,
    /// Effective sliding windows per predicate (ms); absent = unbounded.
    pub windows: BTreeMap<Symbol, u64>,
    /// pred → body occurrences across all rules.
    pub occurrences: HashMap<Symbol, Vec<OccRef>>,
    /// Derived predicates.
    pub idb: BTreeSet<Symbol>,
    /// Query predicates (`.output`); defaults to all IDB preds if empty.
    pub outputs: Vec<Symbol>,
    /// Per-predicate finalize holddown (ms) applied by owner nodes before
    /// propagating a liveness transition.
    pub holddown: BTreeMap<Symbol, u64>,
    /// Ground facts from empty-body rules, injected at owners at t = 0.
    pub static_facts: Vec<(Symbol, sensorlog_logic::Tuple)>,
    /// Per rule, per body literal: the passes of a probe pinned there
    /// (default for literals that are never pinned; [`Self::pass_plan`]).
    plans: Vec<Vec<PassPlan>>,
    /// Where each predicate's tuples live, as the program says
    /// (`logic::xy::locate`): whether a rule joins it, its owner column
    /// ([`DistProgram::owner_of`]), its place on the neighbourhood plane and
    /// its spatial radius. Read through [`DistProgram::place`].
    pub places: BTreeMap<Symbol, Place>,
    /// Where an update of each predicate goes on this deployment
    /// (`DistProgram::with_reach`): `rest` for a predicate absent here.
    reach: BTreeMap<Symbol, Reach>,
    rest: Reach,
    /// Whether regions are cut to their radius. The cut measures from the
    /// node holding a tuple, so `Deployment` clears this at the first event
    /// of a radius predicate whose location column is not its node's
    /// position.
    cut: AtomicBool,
}

/// Where an update of one predicate goes besides the node holding it: the
/// GPA instances (Sec. III-A) differ only in where a tuple is stored and
/// where its join walks. Decided once per deployment and predicate
/// (`DistProgram::with_reach`), the earlier cases first.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Reach {
    /// To Centroid's central server, which runs the centralized engine.
    Center,
    /// On the neighbourhood plane: the update starts at the node it is
    /// about ([`plane_node`]), is stored there and at the radio neighbours
    /// its rules read it at ([`store_targets`]), and joins there.
    Plane(OnPlane),
    /// Nowhere: no rule joins it with a partner, so no probe looks for it;
    /// it joins where it stands at once. Its results "will anyway be hashed
    /// appropriately for further use" at their owners (Sec. III-A).
    Nowhere,
    /// Flooded to every node, joined where it stands (NaiveBroadcast).
    Flood,
    /// Along the strategy's storage and join regions (PA, LocalStorage),
    /// cut to its spatial radius while the deployment cuts.
    Regions(Option<Radius>),
}

/// The passes a probe pinned at one relational literal walks over its join
/// region, as [`crate::partial::Partial::bound`] masks: pass `k` extends
/// its partials only with the literals of `passes[k]`, and a partial still
/// lacking one of passes `0..=k` cannot complete on a later pass and is
/// dropped at the end of this one. Keyed rules have one pass (Fig. 1's
/// one-pass walk); `boundness::pass_plan` defers a literal that would open
/// unkeyed to the pass after the one that binds it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PassPlan {
    passes: Vec<u64>,
    negations: Negations,
}

/// What a probe's walk does for the negated literals besides its pin.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
enum Negations {
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

impl PassPlan {
    /// The plan of a probe pinned at `body[pin]` that walks `passes`, as
    /// literal indexes (no passes: one that extends nothing — the walk
    /// still checks negations).
    fn new(body: &[Literal], pin: usize, passes: &[Vec<usize>]) -> PassPlan {
        let mask = |pass: &Vec<usize>| pass.iter().fold(0u64, |m, &i| m | 1 << i);
        let mut passes: Vec<u64> = passes.iter().map(mask).collect();
        if passes.is_empty() {
            passes.push(0);
        }
        let pinned = body[pin].atom().map_or_else(Vec::new, Atom::vars);
        let negated: Vec<&Atom> = (body.iter().enumerate())
            .filter_map(|(i, l)| match l {
                Literal::Neg(a) if i != pin => Some(a),
                _ => None,
            })
            .collect();
        let grounded = |a: &&Atom| a.vars().iter().all(|v| pinned.contains(v));
        let negations = if negated.is_empty() {
            Negations::None
        } else if negated.iter().all(grounded) {
            Negations::Held
        } else {
            Negations::Repass
        };
        PassPlan { passes, negations }
    }

    /// Passes a probe walks over a walk of `nodes` nodes (≥ 1): one more
    /// than planned for `Negations::Repass` when the walk leaves its node.
    pub fn passes(&self, nodes: usize) -> usize {
        self.passes.len() + usize::from(self.negations == Negations::Repass && nodes > 1)
    }

    /// Whether a complete partial waits for the end of the walk, checked
    /// against the negated literals besides the pin at every node on the
    /// way.
    pub fn holds_complete(&self) -> bool {
        self.negations != Negations::None
    }

    /// Literals pass `pass` extends with (none past the last pass).
    pub fn extends(&self, pass: usize) -> u64 {
        self.passes.get(pass).copied().unwrap_or(0)
    }

    /// Literals a partial must have joined by the end of pass `pass` to
    /// still complete.
    pub fn joined(&self, pass: usize) -> u64 {
        self.passes.iter().take(pass + 1).fold(0, |m, p| m | p)
    }
}

impl DistProgram {
    /// The passes of a probe pinned at body literal `lit` of rule `rule`.
    pub fn pass_plan(&self, rule: usize, lit: usize) -> &PassPlan {
        &self.plans[rule][lit]
    }

    /// Plan every probe under `mode`: the planner's passes for
    /// [`PassMode::OnePass`], Sec. III-A's multiple-pass scheme — one
    /// positive literal per pass, ascending — for [`PassMode::MultiPass`].
    pub fn with_pass_mode(mut self, mode: PassMode) -> DistProgram {
        if mode == PassMode::MultiPass {
            for (rule, plans) in self.analysis.program.rules.iter().zip(&mut self.plans) {
                for (pin, plan) in plans.iter_mut().enumerate() {
                    if rule.body[pin].atom().is_some() {
                        let one_each: Vec<Vec<usize>> = (rule.body.iter().enumerate())
                            .filter(|&(i, l)| i != pin && matches!(l, Literal::Pos(_)))
                            .map(|(i, _)| vec![i])
                            .collect();
                        *plan = PassPlan::new(&rule.body, pin, &one_each);
                    }
                }
            }
        }
        self
    }

    /// Where `pred`'s tuples live; every part absent for a predicate the
    /// program does not place.
    pub fn place(&self, pred: Symbol) -> Place {
        self.places.get(&pred).copied().unwrap_or_default()
    }

    /// The node that owns `tuple` of `pred` (Sec. III-B): for a placed
    /// predicate, the node its owner column names when that value is a node
    /// id of `topo`; otherwise the geographic hash's home node. Either way a
    /// function of the tuple, so identical derived tuples still meet at one
    /// owner.
    pub fn owner_of(&self, topo: &Topology, pred: Symbol, tuple: &Tuple) -> NodeId {
        let placed = (self.place(pred).owner).and_then(|col| node_named(topo, tuple, col));
        placed.unwrap_or_else(|| ght::owner_of(topo, pred, tuple))
    }

    /// Decide where an update of each predicate goes on a deployment
    /// running `strategy` ([`Reach`]); `plane` and `cut` say whether it may
    /// keep the neighbourhood plane and cut regions to a radius at all.
    pub(crate) fn with_reach(mut self, strategy: Strategy, plane: bool, cut: bool) -> DistProgram {
        if strategy == Strategy::Centroid {
            self.rest = Reach::Center;
            return self;
        }
        let travels = |place: &Place| match place.plane.filter(|_| plane) {
            Some(on) => Some(Reach::Plane(on)),
            None if !place.joined => None,
            None if strategy == Strategy::NaiveBroadcast => Some(Reach::Flood),
            None => Some(Reach::Regions(place.radius.filter(|_| cut))),
        };
        self.reach = (self.places.iter())
            .filter_map(|(&p, place)| Some((p, travels(place)?)))
            .collect();
        self
    }

    /// Where an update of `pred` goes: no radius once the deployment stops
    /// cutting.
    pub fn reach(&self, pred: Symbol) -> Reach {
        match self.reach.get(&pred).copied().unwrap_or(self.rest) {
            Reach::Regions(Some(_)) if !self.cut.load(Ordering::Relaxed) => Reach::Regions(None),
            reach => reach,
        }
    }

    /// `pred`'s spatial radius on this deployment, cutting or not.
    pub(crate) fn radius(&self, pred: Symbol) -> Option<Radius> {
        match self.reach.get(&pred) {
            Some(&Reach::Regions(radius)) => radius,
            _ => None,
        }
    }

    /// The radius an update of `pred` has its storage and join regions cut
    /// to ([`DistProgram::reach`]).
    pub fn cut_radius(&self, pred: Symbol) -> Option<f64> {
        (self.radius(pred))
            .filter(|_| self.cut.load(Ordering::Relaxed))
            .map(|rad| rad.r)
    }

    /// Whether the deployment still cuts some predicate's regions.
    pub(crate) fn cuts(&self) -> bool {
        self.cut.load(Ordering::Relaxed)
            && (self.reach.values()).any(|r| matches!(r, Reach::Regions(Some(_))))
    }

    /// Cut no region from now on (`Deployment`, which decides where the
    /// cut is sound).
    pub(crate) fn stop_cutting(&self) {
        self.cut.store(false, Ordering::Relaxed);
    }
}

/// The node a neighbourhood-plane tuple is about: the one its location
/// column names, if that value is a node of `topo`.
pub(crate) fn plane_node(topo: &Topology, on: OnPlane, tuple: &Tuple) -> Option<NodeId> {
    node_named(topo, tuple, on.col)
}

/// Whether a neighbourhood-plane tuple of `pred` breaks the plane's
/// precondition wherever it starts: it is about no node of `topo`, or it is
/// a link fact whose ends (columns 0 and 1) are not radio neighbours.
pub(crate) fn breaks_plane(topo: &Topology, on: OnPlane, pred: Symbol, tuple: &Tuple) -> bool {
    match plane_node(topo, on, tuple) {
        None => true,
        Some(at) => {
            pred == on.link
                && !node_named(topo, tuple, 1).is_some_and(|n| topo.are_neighbors(at, n))
        }
    }
}

/// Where a neighbourhood-plane tuple about node `at` is stored besides `at`
/// itself, by its store set (`logic::xy::Store`): nowhere, at the radio
/// neighbour its column 1 names (nowhere when that node is not a
/// neighbour), or at every radio neighbour of `at`.
pub(crate) fn store_targets<'t>(
    topo: &'t Topology,
    at: NodeId,
    on: OnPlane,
    tuple: &Tuple,
) -> &'t [NodeId] {
    let neighbours = topo.neighbors(at);
    match on.store {
        Store::Neighbours => neighbours,
        Store::LinkEnd => {
            let end = node_named(topo, tuple, 1);
            match neighbours.iter().position(|&n| Some(n) == end) {
                Some(i) => &neighbours[i..=i],
                None => &[],
            }
        }
        Store::Home => &[],
    }
}

/// The node of `topo` column `col` of `tuple` names, if its value is one.
/// Read off the interned entry, never resolved.
fn node_named(topo: &Topology, tuple: &Tuple, col: usize) -> Option<NodeId> {
    let id = *tuple.ids().get(col)?;
    match intern::entry(id).val {
        Val::Int(n) => u32::try_from(n)
            .ok()
            .filter(|&n| (n as usize) < topo.len())
            .map(NodeId),
        _ => None,
    }
}

/// Timing inputs for holddown staggering.
#[derive(Copy, Clone, Debug)]
pub struct PlanTiming {
    /// Base holddown for every derived predicate (ms).
    pub holddown_base: u64,
    /// Additional stagger per stage-local-order step for XY predicates:
    /// roughly τs + τc + τj (one full update round trip).
    pub xy_stagger: u64,
}

impl Default for PlanTiming {
    fn default() -> Self {
        PlanTiming {
            holddown_base: xy::DEFAULT_HOLDDOWN_BASE_MS,
            xy_stagger: xy::DEFAULT_XY_STAGGER_MS,
        }
    }
}

/// Compile an analyzed program for distributed execution.
pub fn compile(
    analysis: Analysis,
    reg: BuiltinRegistry,
    timing: PlanTiming,
) -> Result<DistProgram, CompileError> {
    let prog = &analysis.program;
    for r in &prog.rules {
        if r.agg.is_some() {
            return Err(CompileError::AggregatesUnsupported { rule_id: r.id });
        }
        if r.body.len() > MAX_BODY_LITERALS {
            return Err(CompileError::BodyTooLong {
                rule_id: r.id,
                literals: r.body.len(),
                span: r.spans.lit(MAX_BODY_LITERALS),
            });
        }
        if r.is_unseeded() {
            return Err(CompileError::Unseeded {
                rule_id: r.id,
                span: r.spans.rule,
            });
        }
    }

    let static_facts = (ground_facts(prog, &reg))
        .map_err(|e| CompileError::Analyze(e.to_string()))?
        .into_iter()
        .map(|(_, pred, tuple)| (pred, tuple))
        .collect();
    let mut occurrences: HashMap<Symbol, Vec<OccRef>> = HashMap::new();
    for (rule_idx, r) in prog.rules.iter().enumerate() {
        for (lit_idx, lit) in r.body.iter().enumerate() {
            if let Literal::Pos(a) | Literal::Neg(a) = lit {
                let negated = matches!(lit, Literal::Neg(_));
                let occ = OccRef {
                    rule_idx,
                    lit_idx,
                    negated,
                };
                occurrences.entry(a.pred).or_default().push(occ);
            }
        }
    }

    let windows = sensorlog_eval::effective_windows(&analysis);
    let idb = prog.idb_preds();
    let outputs = if prog.outputs.is_empty() {
        idb.iter().copied().collect()
    } else {
        prog.outputs.clone()
    };

    // Holddowns: base for every derived pred; XY components staggered by
    // stage-local order (later = waits longer, so its retractors land
    // first). Every `idb_preds()` member gets an entry, and that is every
    // predicate an owner books (each is some rule's head, empty-body facts
    // included), so `runtime::arm_holddown` reads the map without a fallback.
    let mut holddown: BTreeMap<Symbol, u64> = BTreeMap::new();
    for &p in &idb {
        holddown.insert(p, timing.holddown_base);
    }
    for info in &analysis.xy {
        holddown.extend(info.holddowns(timing.holddown_base, timing.xy_stagger));
    }
    // `.holddown` declarations override the computed defaults.
    for (&p, &ms) in &analysis.program.holddowns {
        if idb.contains(&p) {
            holddown.insert(p, ms);
        }
    }

    let plans = (prog.rules.iter())
        .map(|r| {
            let plan = |(pin, lit): (usize, &Literal)| match lit {
                Literal::Pos(_) | Literal::Neg(_) => {
                    PassPlan::new(&r.body, pin, &pass_plan(&r.body, pin))
                }
                _ => PassPlan::default(),
            };
            r.body.iter().enumerate().map(plan).collect()
        })
        .collect();
    let places = xy::locate(prog, &analysis.xy);

    Ok(DistProgram {
        analysis,
        reg,
        windows,
        occurrences,
        idb,
        outputs,
        holddown,
        static_facts,
        plans,
        places,
        reach: BTreeMap::new(),
        rest: Reach::Nowhere,
        cut: AtomicBool::new(true),
    })
}

/// Parse + analyze + compile from source.
pub fn compile_source(
    src: &str,
    reg: BuiltinRegistry,
    timing: PlanTiming,
) -> Result<DistProgram, CompileError> {
    let prog =
        sensorlog_logic::parse_program(src).map_err(|e| CompileError::Analyze(e.to_string()))?;
    let analysis =
        sensorlog_logic::analyze(&prog, &reg).map_err(|e| CompileError::Analyze(e.to_string()))?;
    compile(analysis, reg, timing)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    const UNCOV: &str = r#"
        .window veh 60000.
        .output uncov.
        cov(L, T) :- veh("enemy", L, T), veh("friendly", F, T), dist(L, F) <= 5.
        uncov(L, T) :- not cov(L, T), veh("enemy", L, T).
    "#;

    #[test]
    fn compiles_uncov() {
        let p = compile_source(UNCOV, BuiltinRegistry::standard(), PlanTiming::default()).unwrap();
        assert_eq!(p.outputs, vec![sym("uncov")]);
        assert_eq!(p.occurrences[&sym("veh")].len(), 3);
        assert_eq!(p.occurrences[&sym("cov")].len(), 1);
        assert!(p.occurrences[&sym("cov")][0].negated);
        assert_eq!(p.windows[&sym("veh")], 60_000);
        assert_eq!(p.windows[&sym("cov")], 60_000); // inherited
        assert!(p.holddown.contains_key(&sym("cov")));
        assert!(p.static_facts.is_empty());
    }

    #[test]
    fn xy_holddowns_staggered() {
        let src = r#"
            h(0, 0, 0).
            h(0, X, 1) :- g(0, X).
            hp(Y, D + 1) :- h(_, Y, D'), (D + 1) > D', h(_, X, D), g(X, Y).
            h(X, Y, D + 1) :- g(X, Y), h(_, X, D), not hp(Y, D + 1).
        "#;
        let p = compile_source(src, BuiltinRegistry::standard(), PlanTiming::default()).unwrap();
        // h must wait longer than hp (its retractor).
        assert!(p.holddown[&sym("h")] > p.holddown[&sym("hp")]);
        // Static fact h(0,0,0) extracted.
        assert_eq!(p.static_facts.len(), 1);
        assert_eq!(p.static_facts[0].0, sym("h"));
    }

    #[test]
    fn declared_holddown_overrides_default() {
        let src = r#"
            .holddown h 2100.
            h(0, 0, 0).
            h(0, X, 1) :- g(0, X).
            hp(Y, D + 1) :- h(_, Y, D'), (D + 1) > D', h(_, X, D), g(X, Y).
            h(X, Y, D + 1) :- g(X, Y), h(_, X, D), not hp(Y, D + 1).
        "#;
        let p = compile_source(src, BuiltinRegistry::standard(), PlanTiming::default()).unwrap();
        // Declared value wins for h; hp keeps its computed stagger.
        assert_eq!(p.holddown[&sym("h")], 2_100);
        assert_eq!(p.holddown[&sym("hp")], 100);
        // A declaration matching the defaults is behavior-neutral.
        let undeclared = compile_source(
            &src.replace(".holddown h 2100.\n", ""),
            BuiltinRegistry::standard(),
            PlanTiming::default(),
        )
        .unwrap();
        assert_eq!(p.holddown, undeclared.holddown);
    }

    #[test]
    fn rejects_aggregates() {
        let src = "best(min<V>) :- m(V).";
        assert!(matches!(
            compile_source(src, BuiltinRegistry::standard(), PlanTiming::default()),
            Err(CompileError::AggregatesUnsupported { .. })
        ));
    }

    const LOGIC_H: &str = r#"
        h(0, 0, 0).
        h(0, X, 1) :- g(0, X).
        hp(Y, D + 1) :- h(_, Y, D'), (D + 1) > D', h(_, X, D), g(X, Y).
        h(X, Y, D + 1) :- g(X, Y), h(_, X, D), not hp(Y, D + 1).
    "#;

    fn logic_h() -> DistProgram {
        compile_source(LOGIC_H, BuiltinRegistry::standard(), PlanTiming::default()).unwrap()
    }

    fn ints(v: &[i64]) -> Tuple {
        Tuple::new(v.iter().map(|&i| sensorlog_logic::Term::Int(i)).collect())
    }

    /// One plan per (rule, relational literal): `hp` pinned on either `h`
    /// walks `g` then the other `h`; every other pin walks one pass, and a
    /// comparison has no plan. `MultiPass` is the plan of one literal per
    /// pass through the same table.
    #[test]
    fn compile_stores_a_plan_per_pin() {
        let p = logic_h();
        let passes = |p: &DistProgram, rule: usize, lit: usize| {
            let plan = p.pass_plan(rule, lit);
            (0..plan.passes(1))
                .map(|k| plan.extends(k))
                .collect::<Vec<u64>>()
        };
        assert_eq!(passes(&p, 2, 0), vec![1 << 3, 1 << 2]);
        assert_eq!(passes(&p, 2, 2), vec![1 << 3, 1 << 0]);
        assert_eq!(passes(&p, 2, 3), vec![1 << 0 | 1 << 2]);
        assert_eq!(passes(&p, 3, 2), vec![1 << 0 | 1 << 1]);
        assert_eq!(passes(&p, 1, 0), vec![0], "nothing to join: one pass");
        assert_eq!(p.pass_plan(2, 1), &PassPlan::default());
        // The end of pass 0 keeps what joined `g`; the last pass, all.
        let plan = p.pass_plan(2, 0);
        assert_eq!((plan.joined(0), plan.joined(1)), (1 << 3, 1 << 3 | 1 << 2));

        let multi = logic_h().with_pass_mode(PassMode::MultiPass);
        assert_eq!(passes(&multi, 2, 3), vec![1 << 0, 1 << 2]);
        assert_eq!(passes(&multi, 2, 0), vec![1 << 2, 1 << 3]);
        assert_eq!(passes(&multi, 3, 2), vec![1 << 0, 1 << 1]);
        assert_eq!(passes(&multi, 3, 0), passes(&p, 3, 0));
    }

    /// A pin that leaves a negated literal's variable unbound walks once
    /// more past its last pass, on a walk of more than one node; a pin that
    /// grounds every negated literal holds its complete partials without
    /// one; a rule with no other negated literal emits where it completes.
    #[test]
    fn a_pin_that_leaves_a_negation_unbound_adds_a_check_pass() {
        let p = logic_h();
        let h = &p.analysis.program.rules[3];
        assert!(matches!(h.body[2], Literal::Neg(_)), "{h}");
        for pin in [0, 1] {
            let plan = p.pass_plan(3, pin);
            assert_eq!(plan.negations, Negations::Repass, "pinned at {pin}");
            assert_eq!((plan.passes(1), plan.passes(5)), (1, 2));
            assert!(plan.holds_complete());
        }
        // Pinned on its own negated literal, the rule has no other.
        assert_eq!(p.pass_plan(3, 2).negations, Negations::None);
        assert_eq!(p.pass_plan(2, 0).negations, Negations::None);
        let multi = logic_h().with_pass_mode(PassMode::MultiPass);
        assert_eq!(multi.pass_plan(3, 0).negations, Negations::Repass);
        assert_eq!(multi.pass_plan(3, 0).passes(5), 2);

        let alert = compile_source(
            ".output alert. alert(V, K) :- sight(V, K), near(K), not cov(V, K).",
            BuiltinRegistry::standard(),
            PlanTiming::default(),
        )
        .unwrap();
        let plan = alert.pass_plan(0, 0);
        assert_eq!(plan.negations, Negations::Held, "sight grounds cov");
        assert_eq!(plan.passes(5), 1);
        assert!(plan.holds_complete());
        assert_eq!(alert.pass_plan(0, 1).negations, Negations::Repass);
    }

    /// A placed predicate's owner is the node its owner column names.
    #[test]
    fn a_placed_owner_is_the_columns_node() {
        let p = logic_h();
        let owners: BTreeMap<Symbol, usize> = (p.places.iter())
            .filter_map(|(&pred, place)| Some((pred, place.owner?)))
            .collect();
        assert_eq!(owners, BTreeMap::from([(sym("h"), 1), (sym("hp"), 0)]));
        let topo = Topology::grid(10, 5);
        assert_eq!(p.owner_of(&topo, sym("h"), &ints(&[3, 13, 2])), NodeId(13));
        assert_eq!(p.owner_of(&topo, sym("hp"), &ints(&[49, 7])), NodeId(49));
        assert_eq!(p.owner_of(&topo, sym("hp"), &ints(&[0, 7])), NodeId(0));
    }

    /// A value that names no node — not an integer, negative, or past the
    /// last node — leaves the tuple to the geographic hash.
    #[test]
    fn unplaceable_values_fall_back_to_the_hash() {
        let p = logic_h();
        let topo = Topology::grid(10, 5);
        let hashed = |pred: &str, t: &Tuple| {
            assert_eq!(
                p.owner_of(&topo, sym(pred), t),
                ght::owner_of(&topo, sym(pred), t),
                "{pred}{t:?}"
            );
        };
        hashed("hp", &ints(&[50, 7]));
        hashed("hp", &ints(&[-1, 7]));
        hashed("hp", &ints(&[1 << 40, 7]));
        hashed("h", &ints(&[3, 4_096, 2]));
        let atom = sensorlog_logic::Term::Atom(sym("a"));
        hashed(
            "hp",
            &Tuple::new(vec![atom.clone(), sensorlog_logic::Term::Int(7)]),
        );
        hashed("h", &Tuple::new(vec![sensorlog_logic::Term::Int(1), atom]));
        // No such column: a tuple shorter than the program's arity.
        hashed("h", &ints(&[3]));
    }

    /// A program with nothing placed owns every tuple where the parent's
    /// geographic hash did.
    #[test]
    fn unplaced_owners_are_the_hash() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let p = compile_source(UNCOV, BuiltinRegistry::standard(), PlanTiming::default()).unwrap();
        assert!(p.places.values().all(|place| place.owner.is_none()));
        let mut rng = StdRng::seed_from_u64(0x0_64E5);
        for topo in [Topology::grid(10, 5), Topology::square_grid(7)] {
            for _ in 0..500 {
                let pred = sym(["cov", "uncov", "veh"][rng.gen_range(0..3)]);
                let t = ints(&[rng.gen_range(-5..80), rng.gen_range(0..1_000)]);
                assert_eq!(p.owner_of(&topo, pred, &t), ght::owner_of(&topo, pred, &t));
            }
        }
    }

    /// One `Reach` per predicate and deployment. Under Centroid everything
    /// goes to the center. Otherwise a plane predicate stays on the plane
    /// unless the links are too lossy for it; a predicate no rule joins
    /// goes nowhere, whether a one-literal rule reads it (`r3`) or none
    /// does; and one read alone and joined (`r1`) keeps the strategy's
    /// flood or regions.
    #[test]
    fn each_predicate_reaches_one_way_per_deployment() {
        let src = format!(
            "{LOGIC_H}a(X, K) :- r1(X, K).\nq(X, Y) :- r1(X, K), r2(Y, K).\n\
             s(X) :- r3(X), X > 2.\n"
        );
        let reg = BuiltinRegistry::standard();
        let p = || compile_source(&src, reg.clone(), PlanTiming::default()).unwrap();
        let names = ["g", "h", "r1", "r2", "r3", "a", "q", "s", "unnamed"];
        let reach = |p: DistProgram| names.map(|n| p.reach(sym(n)));
        let on = |pred| Reach::Plane(p().place(sym(pred)).plane.unwrap());
        use Reach::{Center, Flood, Nowhere, Regions};
        let [x, w] = [Nowhere, Regions(None)];
        let pa = Strategy::Perpendicular { band_width: 1.0 };
        for (strategy, plane, want) in [
            (Strategy::Centroid, true, [Center; 9]),
            (pa, true, [on("g"), on("h"), w, w, x, x, x, x, x]),
            (pa, false, [w, w, w, w, x, x, x, x, x]),
            (
                Strategy::LocalStorage,
                true,
                [on("g"), on("h"), w, w, x, x, x, x, x],
            ),
            (
                Strategy::NaiveBroadcast,
                true,
                [on("g"), on("h"), Flood, Flood, x, x, x, x, x],
            ),
        ] {
            let got = reach(p().with_reach(strategy, plane, true));
            assert_eq!(got, want, "{} plane {plane}", strategy.name());
        }
    }

    /// A rule whose body has no positive subgoal is refused with its id
    /// and span: no update would ever start it, so the network would never
    /// derive what a centralized evaluation does. A fact is not such a rule.
    #[test]
    fn a_rule_no_update_starts_is_refused() {
        for rule in ["t :- not r0(1).", "t(7) :- not r0(1).", "t :- 1 < 2."] {
            let src = format!(".output t.\nh(0, 0, 0).\nq(X) :- r0(X).\n{rule}\n");
            let reg = BuiltinRegistry::standard();
            let err = compile_source(&src, reg, PlanTiming::default()).unwrap_err();
            let CompileError::Unseeded { rule_id, span } = err else {
                panic!("{rule}: unexpected {err}");
            };
            assert_eq!(rule_id, 2, "{rule}");
            assert_eq!(&src[span.start as usize..span.end as usize], rule);
            assert_eq!(span.line, 4);
        }
    }

    #[test]
    fn outputs_default_to_idb() {
        let p = compile_source(
            "q(X) :- p(X).",
            BuiltinRegistry::standard(),
            PlanTiming::default(),
        )
        .unwrap();
        assert_eq!(p.outputs, vec![sym("q")]);
    }

    /// `runtime::arm_holddown` reads the planned holddown with no fallback:
    /// every predicate an owner books is some rule's head, and `compile`
    /// plans one for each. Checked on every example program it accepts.
    #[test]
    fn every_rule_head_has_a_planned_holddown() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/programs");
        let mut compiled = 0;
        for entry in std::fs::read_dir(dir).expect("examples/programs is readable") {
            let path = entry.expect("directory entry").path();
            if path.extension().is_none_or(|e| e != "dl") {
                continue;
            }
            let src = std::fs::read_to_string(&path).expect("example is readable");
            let reg = BuiltinRegistry::standard();
            let Ok(p) = compile_source(&src, reg, PlanTiming::default()) else {
                continue;
            };
            compiled += 1;
            for r in &p.analysis.program.rules {
                let head = r.head.pred;
                let where_ = path.display();
                assert!(
                    p.holddown.contains_key(&head),
                    "{where_}: no holddown for `{head}`"
                );
            }
        }
        assert!(compiled >= 4, "only {compiled} example programs compiled");
    }

    /// `diag`'s `cost.holddown-implicit` suggests the value the planner
    /// would apply: both read `xy::DEFAULT_*`, so neither can go stale.
    #[test]
    fn implicit_holddown_suggestions_equal_the_planned_defaults() {
        use sensorlog_logic::diag::{check_source, BoundParams};
        let logic_j = r#"
            j(0, 0).
            j(X, 1) :- g(0, X).
            jp(Y, D + 1) :- j(Y, D'), (D + 1) > D', j(X, D), g(X, Y).
            j(Y, D + 1) :- g(X, Y), j(X, D), not jp(Y, D + 1).
        "#;
        let params = BoundParams {
            nodes: 16,
            default_events: 0,
            events: BTreeMap::new(),
        };
        for src in [LOGIC_H, logic_j] {
            let reg = BuiltinRegistry::standard();
            let planned = compile_source(src, reg.clone(), PlanTiming::default()).unwrap();
            let report = check_source(src, &reg, &params);
            let implicit: Vec<_> = (report.diags.iter())
                .filter(|d| d.code == "cost.holddown-implicit")
                .collect();
            assert_eq!(implicit.len(), 2, "one suggestion per XY predicate");
            for d in implicit {
                let p = d.pred.expect("the suggestion names its predicate");
                let want = format!(".holddown {p} {}.\n", planned.holddown[&p]);
                assert_eq!(d.suggestions[0].replacement, want);
            }
        }
    }
}
