//! Program compilation for the distributed runtime (Sec. V: "the user
//! specified logic-program is … translated into appropriate code which
//! represents distributed bottom-up incremental evaluation").
//!
//! The compiled [`DistProgram`] is downloaded into every node: rules with
//! occurrence tables, effective sliding windows and the output set.
//!
//! Two more decisions are the program's, made here once: the passes a
//! probe pinned at each relational literal walks ([`PassPlan`]), and where
//! each predicate's tuples live ([`DistProgram::places`]) — whether a rule
//! joins it at all, which node owns a derived tuple
//! ([`DistProgram::owner_of`]), which predicates join where they stand,
//! stored only at the neighbours their rules read them at
//! (`store_targets`), and how far a base tuple's join partners can be.
//! A deployment turns that into one [`Reach`] per predicate
//! (`DistProgram::with_reach`): where its updates go under its strategy.
//!
//! From the reaches and the topology the same call derives every wait of
//! the runtime as a [`Delay`], in hops and clock skews that the network
//! prices (`runtime::NetInfo::wait`): how long an update waits for its
//! storage leg before it joins (τs + τc, Sec. IV-A), how long a windowed
//! replica is kept (Sec. IV-B), and how long an owner holds a liveness
//! transition before it finalizes it (Sec. IV-C: "we need to wait for an
//! appropriate time before actually finalizing a derived fact (since it may
//! be retracted/deleted later)"). Theorems 1–3 assume those delays are
//! bounded; these are the bounds, priced on every topology by the walks
//! the deployment keeps, the ones its runtime sends every storage walk and
//! probe along (`Walks`, `DistProgram::walks_of`). An XY component's
//! holddowns are staggered along its certified stage-local order, one
//! retraction chain per step, so retractions (`hp`) settle before the
//! tuples they block (`h`) propagate. A `.holddown` declaration overrides
//! its predicate's.

use crate::partial::MAX_BODY_LITERALS;
use crate::strategy::{PassMode, Strategy};
use sensorlog_eval::eval_body::ground_facts;
use sensorlog_eval::EvalError;
use sensorlog_logic::analyze::Analysis;
use sensorlog_logic::ast::{Atom, Literal};
use sensorlog_logic::boundness::{negations, pass_plan, Negations};
use sensorlog_logic::builtin::BuiltinRegistry;
use sensorlog_logic::intern::{self, Val};
use sensorlog_logic::span::Span;
use sensorlog_logic::xy::{self, OnPlane, Place, Radius, Store};
use sensorlog_logic::{Symbol, Tuple};
use sensorlog_netsim::{NodeId, Topology};
use sensorlog_netstack::regions::Walk;
use sensorlog_netstack::{ght, RouteHops};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

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
    /// PA's band width is negative or NaN: off the grid no band would hold
    /// even its own node.
    BandWidth(f64),
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
            CompileError::BandWidth(w) => write!(f, "PA band width {w}: must be a number >= 0"),
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
    /// What an update of each predicate waits for on this deployment
    /// (`DistProgram::with_reach`), its regions cut to its radius; `uncut`,
    /// for a deployment that cuts some, the same once it stops. One pass
    /// prices both, but a deployment stops cutting mid-run, so each stays
    /// a table: [`DistProgram::waits`] reads one entry per update.
    waits: BTreeMap<Symbol, Waits>,
    uncut: BTreeMap<Symbol, Waits>,
    /// How long an owner holds a liveness transition of each derived
    /// predicate on this deployment before propagating it (Sec. IV-C).
    holddowns: BTreeMap<Symbol, Delay>,
    /// The walks this deployment's updates take, and their hops.
    walks: Walks,
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
    /// about (`plane_node`), is stored there and at the radio neighbours
    /// its rules read it at (`store_targets`), and joins there.
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

/// A bound on one of the runtime's waits, in the units a deployment prices
/// it by (`runtime::NetInfo::wait`): fixed milliseconds (a window, a
/// `.holddown` declaration), hops at the most one hop's delivery takes, and
/// clock skews (τc, Theorem 3).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Delay {
    pub ms: u64,
    pub hops: u64,
    pub skews: u64,
}

/// What an update of one predicate waits for on one deployment.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Waits {
    /// τs + τc (Sec. IV-A): from the update's start to its join's — its
    /// storage leg and one clock skew.
    pub store: Delay,
    /// τj: its join leg, every pass of its longest walk.
    pub join: Delay,
    /// For a windowed predicate, how long a replica is kept past its
    /// generation (Sec. IV-B): every probe that may join it has started and
    /// walked by then — the longest τs + τc + τj of a predicate its rules
    /// join it with, its window, and one clock skew more.
    pub retain: Option<Delay>,
}

/// A deployment's walks: each region the runtime walks listed once
/// (`Strategy::walks`) and shared by every message on it, and the hops they
/// take, a route (`netstack::RouteHops`) from each member to the next.
#[derive(Debug, Default)]
struct Walks {
    /// The most hops a route takes: a flood's leg, a hashed owner's result.
    route: u64,
    /// The storage walks' and the join walks' longest parts, uncut (`None`)
    /// and cut to each radius some predicate's regions are.
    by_cut: Vec<(Option<f64>, [Spans; 2])>,
    /// Each node's storage walk and join walk, and its position on each:
    /// none for an update stored where it stands (LocalStorage), and no
    /// entry at all on a deployment whose updates walk no region.
    on: Vec<[Option<Start>; 2]>,
}

/// Where a node's updates start one of their walks: the deployment's walk,
/// shared, and the node's position on it.
pub(crate) type Start = (Arc<Walk>, usize);

/// The longest parts of one kind of walk, in hops: a side from its node (a
/// storage walk goes both ways, `initiate_update`), the route from a node to
/// its first member, and all of it (a join pass, `start_join`). Off the grid
/// the last two may fall on different nodes.
#[derive(Clone, Copy, Debug, Default)]
struct Spans {
    side: u64,
    to_first: u64,
    length: u64,
}

impl Walks {
    /// Price `strategy`'s regions on `topo` at each cut `reaches` walk them
    /// at, and uncut, as they are walked once a deployment stops cutting.
    fn of(topo: &Topology, strategy: Strategy, reaches: &BTreeMap<Symbol, Reach>) -> Walks {
        let hops = RouteHops::new(topo);
        let mut by_cut: Vec<(Option<f64>, [Spans; 2])> = Vec::new();
        for reach in reaches.values() {
            let &Reach::Regions(radius) = reach else {
                continue;
            };
            for cut in [None, radius.map(|rad| rad.r)] {
                if !by_cut.iter().any(|(c, _)| *c == cut) {
                    by_cut.push((cut, Default::default()));
                }
            }
        }
        // No predicate walks a region: list none.
        let listed = (!by_cut.is_empty()).then(|| strategy.walks(topo));
        let mut on = vec![[None, None]; if listed.is_some() { topo.len() } else { 0 }];
        for (kind, walks) in listed.into_iter().flatten().enumerate() {
            for walk in walks {
                let walk = Arc::new(walk);
                let along = hops.along(&walk.path);
                for i in walk.starts.clone() {
                    on[walk.path[i].index()][kind] = Some((Arc::clone(&walk), i));
                    for (cut, spans) in &mut by_cut {
                        // Priced between the first and last members the cut
                        // keeps: a route is no longer than the routes through
                        // the members it skips. A node whose cut keeps nothing
                        // walks alone.
                        let mut kept = walk.kept(topo, i, *cut, 0..walk.path.len());
                        let Some(a) = kept.next() else {
                            continue;
                        };
                        let b = kept.next_back().unwrap_or(a);
                        let s = &mut spans[kind];
                        s.side = (s.side.max(along[i] - along[a])).max(along[b] - along[i]);
                        s.to_first = s.to_first.max(hops.between(walk.path[i], walk.path[a]));
                        s.length = s.length.max(along[b] - along[a]);
                    }
                }
            }
        }
        Walks {
            route: hops.most(),
            by_cut,
            on,
        }
    }

    /// The storage and join legs (hops) of an update under `reach` whose
    /// probe walks `passes` passes: from the node it starts at to the
    /// farthest node that stores it, and from the start of its join to the
    /// end of its walk's last pass.
    fn legs(&self, reach: Reach, passes: u64) -> (u64, u64) {
        match reach {
            Reach::Center | Reach::Nowhere => (0, 0),
            Reach::Plane(_) => (1, 0),
            Reach::Flood => (self.route, 0),
            Reach::Regions(radius) => {
                let cut = radius.map(|rad| rad.r);
                let spans = self.by_cut.iter().find(|(c, _)| *c == cut);
                spans.map_or((0, 0), |(_, [store, join])| {
                    (store.side, join.to_first + passes * join.length)
                })
            }
        }
    }
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
        PassPlan {
            passes,
            negations: negations(body, pin),
        }
    }

    /// Passes a probe walks: one more than planned for
    /// `Negations::Repass` when its walk `leaves` its node (keeps more than
    /// one member).
    pub fn passes(&self, leaves: bool) -> usize {
        self.passes.len() + usize::from(self.negations == Negations::Repass && leaves)
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

    /// Decide where an update of each predicate goes on a deployment of
    /// `topo` running `strategy` ([`Reach`]), and derive what each waits for
    /// there ([`Waits`], [`DistProgram::holddown`]); `plane` and `cut` say
    /// whether it may keep the neighbourhood plane and cut regions to a
    /// radius at all. Under Centroid the center runs every update and no
    /// node waits for anything.
    pub(crate) fn with_reach(
        mut self,
        strategy: Strategy,
        plane: bool,
        cut: bool,
        topo: &Topology,
    ) -> DistProgram {
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
        self.walks = Walks::of(topo, strategy, &self.reach);
        let legs = self.legs(true);
        self.waits = self.waits_of(&legs);
        if (self.reach.values()).any(|r| matches!(r, Reach::Regions(Some(_)))) {
            self.uncut = self.waits_of(&self.legs(false));
            // The cut moves a windowed predicate's retention only where that
            // predicate has a radius itself (`xy::locate`: a rule reading one
            // reads only such predicates), so `Deployment::schedule_all`,
            // which refuses to stop cutting once one is stored, keeps every
            // stored replica at the retention its expiry was queued for.
            debug_assert!((self.uncut.iter()).all(|(&p, uncut)| {
                uncut.retain == self.waits[&p].retain || self.radius(p).is_some()
            }));
        }
        self.holddowns = self.holddowns_of(&legs);
        self
    }

    /// `node`'s storage walk and join walk on this deployment, each shared
    /// by every message that takes it, with `node`'s position there: no
    /// storage walk for an update stored where it stands (LocalStorage).
    /// Asked only on a deployment whose updates walk regions
    /// (`Reach::Regions`).
    pub(crate) fn walks_of(&self, node: NodeId) -> &[Option<Start>; 2] {
        &self.walks.on[node.index()]
    }

    /// The storage and join legs (hops) of each predicate that travels,
    /// its regions cut to its radius or not.
    fn legs(&self, cut: bool) -> BTreeMap<Symbol, (u64, u64)> {
        let passes = |pred: Symbol| {
            let occs = self.occurrences.get(&pred).into_iter().flatten();
            occs.map(|o| self.pass_plan(o.rule_idx, o.lit_idx).passes(true) as u64)
                .max()
                .unwrap_or(1)
        };
        (self.reach.iter())
            .map(|(&p, &reach)| {
                let reach = match reach {
                    Reach::Regions(Some(_)) if !cut => Reach::Regions(None),
                    reach => reach,
                };
                (p, self.walks.legs(reach, passes(p)))
            })
            .collect()
    }

    /// Each travelling predicate's waits, from every predicate's `legs`.
    fn waits_of(&self, legs: &BTreeMap<Symbol, (u64, u64)>) -> BTreeMap<Symbol, Waits> {
        let leg = |p: &Symbol| legs.get(p).copied().unwrap_or_default();
        let rules = &self.analysis.program.rules;
        (legs.keys())
            .map(|&p| {
                let (store, join) = leg(&p);
                let retain = self.windows.get(&p).map(|&w| {
                    // Every predicate a rule reading `p` joins it with.
                    let occs = self.occurrences.get(&p).into_iter().flatten();
                    let partners = occs
                        .flat_map(|o| rules[o.rule_idx].body.iter().filter_map(Literal::atom))
                        .map(|a| leg(&a.pred).0 + leg(&a.pred).1);
                    let probe = partners.max().unwrap_or(0);
                    Delay {
                        ms: w,
                        hops: probe,
                        skews: 2,
                    }
                });
                let waits = Waits {
                    store: Delay {
                        hops: store,
                        skews: 1,
                        ..Delay::default()
                    },
                    join: Delay {
                        hops: join,
                        ..Delay::default()
                    },
                    retain,
                };
                (p, waits)
            })
            .collect()
    }

    /// Each derived predicate's holddown: its result leg — one hop to an
    /// owner its rules' joins on the neighbourhood plane name, a route across
    /// the network to any other — plus, at step `i` of an XY component's
    /// stage order, `i` of the component's retraction chains: an update
    /// stored, joined, its result sent to its owner and that owner's update
    /// stored, at the component's longest. A `.holddown` declaration
    /// overrides it.
    fn holddowns_of(&self, legs: &BTreeMap<Symbol, (u64, u64)>) -> BTreeMap<Symbol, Delay> {
        let rules = &self.analysis.program.rules;
        let result = |h: Symbol| {
            let on_plane = |a: &Atom| matches!(self.reach.get(&a.pred), Some(Reach::Plane(_)));
            let placed = self.place(h).owner.is_some()
                && (rules.iter().filter(|r| r.head.pred == h))
                    .all(|r| r.body.iter().filter_map(Literal::atom).all(on_plane));
            if placed {
                1
            } else {
                self.walks.route
            }
        };
        // Hops of each chain; τs adds one clock skew to each.
        let chain = |info: &xy::XyInfo| {
            let hops = |p: Symbol| {
                let (store, join) = legs.get(&p).copied().unwrap_or_default();
                store + join + result(p) + store
            };
            info.stage_order.iter().map(|&p| hops(p)).max().unwrap_or(0)
        };
        let mut steps: BTreeMap<Symbol, (u64, u64)> = BTreeMap::new();
        for info in &self.analysis.xy {
            let chain = chain(info);
            steps.extend(info.steps().map(|(p, step)| (p, (step, chain))));
        }
        (self.idb.iter())
            .map(|&h| {
                let (step, chain) = steps.get(&h).copied().unwrap_or_default();
                let holddown = match self.analysis.program.holddowns.get(&h) {
                    Some(&ms) => Delay {
                        ms,
                        ..Delay::default()
                    },
                    None => Delay {
                        hops: result(h) + step * chain,
                        skews: step,
                        ..Delay::default()
                    },
                };
                (h, holddown)
            })
            .collect()
    }

    /// What an update of `pred` waits for on this deployment: the longest
    /// storage and join walks its regions take, cut to its radius while the
    /// deployment cuts and uncut once it stops.
    pub fn waits(&self, pred: Symbol) -> Waits {
        let uncut = (!self.cut.load(Ordering::Relaxed))
            .then(|| self.uncut.get(&pred))
            .flatten();
        (uncut.or_else(|| self.waits.get(&pred)))
            .copied()
            .unwrap_or_default()
    }

    /// How long an owner of `pred`'s tuples holds a liveness transition
    /// before it propagates it: one for every derived predicate, and none
    /// under Centroid, where no owner holds one.
    pub fn holddown(&self, pred: Symbol) -> Delay {
        self.holddowns.get(&pred).copied().unwrap_or_default()
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

/// Nothing: every wait of the runtime is derived per deployment
/// (`DistProgram::with_reach`). [`compile_source`] takes one and reads
/// nothing of it.
#[derive(Copy, Clone, Debug, Default)]
pub struct PlanTiming;

/// Compile an analyzed program for distributed execution.
pub fn compile(analysis: Analysis, reg: BuiltinRegistry) -> Result<DistProgram, CompileError> {
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
        static_facts,
        plans,
        places,
        reach: BTreeMap::new(),
        rest: Reach::Nowhere,
        waits: BTreeMap::new(),
        uncut: BTreeMap::new(),
        holddowns: BTreeMap::new(),
        walks: Walks::default(),
        cut: AtomicBool::new(true),
    })
}

/// Parse + analyze + compile from source.
pub fn compile_source(
    src: &str,
    reg: BuiltinRegistry,
    _: PlanTiming,
) -> Result<DistProgram, CompileError> {
    let prog =
        sensorlog_logic::parse_program(src).map_err(|e| CompileError::Analyze(e.to_string()))?;
    let analysis =
        sensorlog_logic::analyze(&prog, &reg).map_err(|e| CompileError::Analyze(e.to_string()))?;
    compile(analysis, reg)
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
        let p = compile_source(UNCOV, BuiltinRegistry::standard(), PlanTiming).unwrap();
        assert_eq!(p.outputs, vec![sym("uncov")]);
        assert_eq!(p.occurrences[&sym("veh")].len(), 3);
        assert_eq!(p.occurrences[&sym("cov")].len(), 1);
        assert!(p.occurrences[&sym("cov")][0].negated);
        assert_eq!(p.windows[&sym("veh")], 60_000);
        assert_eq!(p.windows[&sym("cov")], 60_000); // inherited
        assert!(p.static_facts.is_empty());
    }

    /// `h` waits longer than `hp`, its retractor, on every deployment that
    /// holds them.
    #[test]
    fn xy_holddowns_staggered() {
        let topo = Topology::square_grid(5);
        for strategy in [PA, Strategy::LocalStorage, Strategy::NaiveBroadcast] {
            for plane in [true, false] {
                let p = logic_h().with_reach(strategy, plane, true, &topo);
                let (h, hp) = (p.holddown(sym("h")), p.holddown(sym("hp")));
                assert!(h.hops > hp.hops && h.skews > hp.skews, "{h:?} {hp:?}");
            }
        }
        // Static fact h(0,0,0) extracted.
        let p = logic_h();
        assert_eq!(p.static_facts.len(), 1);
        assert_eq!(p.static_facts[0].0, sym("h"));
    }

    /// logicH's waits on a 5×5 grid, each written as its formula. A hop
    /// costs `hop`: 30 ms (`hop_delay.1`), and 45 with two retries (their
    /// 5 + 10 ms backoff); τc is `tc`. The grid's rows and columns span
    /// `s` = 4 hops and a route at most `d` = 8; LocalStorage walks all 25
    /// nodes, 24 hops a pass. A join walk reaches its column's end, then
    /// walks it once per pass: two for `g` and `h` (the negation check pass
    /// of `h`'s rule; `hp`'s two-pass rule), one for `hp`. A holddown is the
    /// result leg — one hop to a plane owner, `d` to any other — plus one
    /// retraction chain (τs + τj + result + store, at `h`'s) for `h`, one
    /// stage-order step after `hp`.
    #[test]
    fn logic_h_on_5x5_waits_for_its_delay_bounds() {
        use crate::runtime::NetInfo;
        use sensorlog_netsim::SimConfig;
        let topo = Topology::square_grid(5);
        let (s, d, all): (u64, u64, u64) = (4, 8, 24);
        let lossy = SimConfig {
            retries: 2,
            clock_skew_max: 50,
            ..SimConfig::default()
        };
        let [g, h, hp] = ["g", "h", "hp"].map(sym);
        // [τs of every predicate, τj of g, h and hp, holddown of hp and h]
        let plane = |hop: u64, tc: u64| [hop + tc, 0, 0, 0, hop, hop + (hop + tc) + hop + hop];
        let pa = |hop: u64, tc: u64| {
            let chain = (s * hop + tc) + (s + 2 * s) * hop + d * hop + s * hop;
            let j = (s + 2 * s) * hop;
            [s * hop + tc, j, j, (s + s) * hop, d * hop, d * hop + chain]
        };
        let flood = |hop: u64, tc: u64| {
            [
                d * hop + tc,
                0,
                0,
                0,
                d * hop,
                d * hop + (d * hop + tc) + 2 * d * hop,
            ]
        };
        let local = |hop: u64, tc: u64| {
            let j = (d + 2 * all) * hop;
            [
                tc,
                j,
                j,
                (d + all) * hop,
                d * hop,
                d * hop + tc + j + d * hop,
            ]
        };
        let local_storage = Strategy::LocalStorage;
        for (label, strategy, on_plane, sim, want) in [
            ("plane", PA, true, SimConfig::default(), plane(30, 0)),
            ("PA", PA, false, SimConfig::default(), pa(30, 0)),
            (
                "flood",
                Strategy::NaiveBroadcast,
                false,
                SimConfig::default(),
                flood(30, 0),
            ),
            (
                "local",
                local_storage,
                false,
                SimConfig::default(),
                local(30, 0),
            ),
            (
                "PA, 2 retries, skew 50",
                PA,
                false,
                lossy.clone(),
                pa(45, 50),
            ),
            ("plane, 2 retries, skew 50", PA, true, lossy, plane(45, 50)),
        ] {
            let p = logic_h().with_reach(strategy, on_plane, true, &topo);
            let net = NetInfo::new(topo.clone()).with_delays(&sim);
            let ms = |delay: Delay| net.wait(delay);
            let stores = [g, h, hp].map(|pred| ms(p.waits(pred).store));
            assert!(
                stores.iter().all(|&w| w == stores[0]),
                "{label}: {stores:?}"
            );
            let got = [
                stores[0],
                ms(p.waits(g).join),
                ms(p.waits(h).join),
                ms(p.waits(hp).join),
                ms(p.holddown(hp)),
                ms(p.holddown(h)),
            ];
            assert_eq!(got, want, "{label}");
        }
    }

    /// Every wait bounds the walk it waits for: at every node, the priced
    /// storage leg covers both sides of the storage walk `initiate_update`
    /// sends, and the priced join leg covers the route to the join walk
    /// and each of its passes (each turning back at the walk's end), all
    /// counted hop by hop along the deployment router's routes over the
    /// walks the runtime reads from the deployment's table, stepped as the
    /// runtime steps them (`msg::OnWalk`). On grids (cut and uncut) and on
    /// Fig. 16's random geometric graphs, under PA and LocalStorage.
    #[test]
    fn priced_legs_cover_every_walk_the_runtime_takes() {
        use crate::msg::OnWalk;
        use sensorlog_netstack::Router;
        let geometric = |n, side| Topology::random_geometric(n, side, 1.7, 97).unwrap();
        let cases = [
            (Topology::grid(10, 5), 1.0, None),
            (Topology::square_grid(20), 1.0, None),
            (Topology::square_grid(20), 1.0, Some(8.0)),
            (geometric(25, 4.0), 1.7, None),
            (geometric(50, 5.5), 1.7, None),
            (geometric(100, 8.0), 1.7, None),
        ];
        for (topo, band_width, cut) in cases {
            let router = Router::new(&topo);
            let route = |mut at: NodeId, to: NodeId| {
                let mut hops = 0;
                while at != to {
                    at = router.next_hop(&topo, at, to).expect("connected");
                    hops += 1;
                }
                hops
            };
            // Hops of the rest of `on`'s pass, member by member.
            let pass = |on: &mut OnWalk| {
                let mut hops = 0;
                while let Some(pos) = on.next(&topo, cut, false) {
                    let at = on.at().unwrap();
                    on.pos = pos;
                    hops += route(at, on.at().unwrap());
                }
                hops
            };
            for strategy in [
                Strategy::Perpendicular { band_width },
                Strategy::LocalStorage,
            ] {
                let radius = cut.map(|r| Radius { col: 0, r, rule: 0 });
                let reach = BTreeMap::from([(sym("r"), Reach::Regions(radius))]);
                let walks = Walks::of(&topo, strategy, &reach);
                for node in topo.nodes() {
                    let [store, join] = &walks.on[node.index()];
                    let sides = store.iter().flat_map(|(walk, i)| {
                        [0, 1].map(|k| pass(&mut OnWalk::side(walk, *i, cut, k)))
                    });
                    let store_hops = sides.max().unwrap_or(0);
                    let (walk, i) = join.as_ref().expect("a join walk");
                    let probe = OnWalk::probe(&topo, walk, *i, cut);
                    for passes in 1..=3 {
                        let (priced_store, priced_join) =
                            walks.legs(Reach::Regions(radius), passes);
                        let mut on = probe.clone();
                        let mut join_hops = route(node, on.at().unwrap());
                        for k in 0..passes {
                            on.pass = k as u8;
                            join_hops += pass(&mut on);
                        }
                        let at = format!("{}, {:?} at {node}", strategy.name(), cut);
                        assert!(priced_store >= store_hops, "{at}: storage leg");
                        assert!(priced_join >= join_hops, "{at}, {passes} passes: join leg");
                    }
                }
            }
        }
    }

    /// A `.holddown` declaration is its predicate's holddown, in ms, on
    /// every deployment; the other predicates keep theirs.
    #[test]
    fn declared_holddown_overrides_the_derived_one() {
        let topo = Topology::square_grid(5);
        let src = format!(".holddown h 2100.\n{LOGIC_H}");
        let reg = BuiltinRegistry::standard();
        let declared = compile_source(&src, reg, PlanTiming).unwrap();
        let p = declared.with_reach(PA, true, true, &topo);
        let ms = |ms| Delay {
            ms,
            ..Delay::default()
        };
        assert_eq!(p.holddown(sym("h")), ms(2_100));
        let one_hop = Delay {
            hops: 1,
            ..Delay::default()
        };
        assert_eq!(p.holddown(sym("hp")), one_hop);
    }

    #[test]
    fn rejects_aggregates() {
        let src = "best(min<V>) :- m(V).";
        assert!(matches!(
            compile_source(src, BuiltinRegistry::standard(), PlanTiming),
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
        compile_source(LOGIC_H, BuiltinRegistry::standard(), PlanTiming).unwrap()
    }

    const PA: Strategy = Strategy::Perpendicular { band_width: 1.0 };

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
            (0..plan.passes(false))
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
            assert_eq!((plan.passes(false), plan.passes(true)), (1, 2));
            assert!(plan.holds_complete());
        }
        // Pinned on its own negated literal, the rule has no other.
        assert_eq!(p.pass_plan(3, 2).negations, Negations::None);
        assert_eq!(p.pass_plan(2, 0).negations, Negations::None);
        let multi = logic_h().with_pass_mode(PassMode::MultiPass);
        assert_eq!(multi.pass_plan(3, 0).negations, Negations::Repass);
        assert_eq!(multi.pass_plan(3, 0).passes(true), 2);

        let alert = compile_source(
            ".output alert. alert(V, K) :- sight(V, K), near(K), not cov(V, K).",
            BuiltinRegistry::standard(),
            PlanTiming,
        )
        .unwrap();
        let plan = alert.pass_plan(0, 0);
        assert_eq!(plan.negations, Negations::Held, "sight grounds cov");
        assert_eq!(plan.passes(true), 1);
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
        let p = compile_source(UNCOV, BuiltinRegistry::standard(), PlanTiming).unwrap();
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
        let p = || compile_source(&src, reg.clone(), PlanTiming).unwrap();
        let names = ["g", "h", "r1", "r2", "r3", "a", "q", "s", "unnamed"];
        let reach = |p: DistProgram| names.map(|n| p.reach(sym(n)));
        let on = |pred| Reach::Plane(p().place(sym(pred)).plane.unwrap());
        use Reach::{Center, Flood, Nowhere, Regions};
        let [x, w] = [Nowhere, Regions(None)];
        let pa = PA;
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
            let got = reach(p().with_reach(strategy, plane, true, &Topology::square_grid(5)));
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
            let err = compile_source(&src, reg, PlanTiming).unwrap_err();
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
        let p = compile_source("q(X) :- p(X).", BuiltinRegistry::standard(), PlanTiming).unwrap();
        assert_eq!(p.outputs, vec![sym("q")]);
    }

    /// Every derived predicate an owner books has a holddown on a
    /// deployment: every predicate an owner books is some rule's head.
    /// Checked on every example program it accepts.
    #[test]
    fn every_rule_head_has_a_derived_holddown() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/programs");
        let topo = Topology::square_grid(4);
        let mut compiled = 0;
        for entry in std::fs::read_dir(dir).expect("examples/programs is readable") {
            let path = entry.expect("directory entry").path();
            if path.extension().is_none_or(|e| e != "dl") {
                continue;
            }
            let src = std::fs::read_to_string(&path).expect("example is readable");
            let reg = BuiltinRegistry::standard();
            let Ok(p) = compile_source(&src, reg, PlanTiming) else {
                continue;
            };
            let p = p.with_reach(PA, true, true, &topo);
            compiled += 1;
            for r in &p.analysis.program.rules {
                let head = r.head.pred;
                let where_ = path.display();
                assert!(
                    p.holddowns.contains_key(&head),
                    "{where_}: no holddown for `{head}`"
                );
            }
        }
        assert!(compiled >= 4, "only {compiled} example programs compiled");
    }

    /// `diag`'s `cost.holddown-implicit` names the stage-order step the
    /// deployment prices: on the plane, a holddown is its one-hop result leg
    /// plus one retraction chain per step — τs + τc, no join walk, a result
    /// hop and the owner's one-hop store.
    #[test]
    fn the_implicit_holddown_lint_names_the_planned_step() {
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
        // Store, no join walk, result, the owner's store.
        let chain = 3;
        for src in [LOGIC_H, logic_j] {
            let reg = BuiltinRegistry::standard();
            let planned = (compile_source(src, reg.clone(), PlanTiming).unwrap()).with_reach(
                PA,
                true,
                true,
                &Topology::square_grid(4),
            );
            let report = check_source(src, &reg, &params);
            let implicit: Vec<_> = (report.diags.iter())
                .filter(|d| d.code == "cost.holddown-implicit")
                .collect();
            assert_eq!(implicit.len(), 2, "one per XY predicate");
            let mut steps = Vec::new();
            for d in implicit {
                let p = d.pred.expect("the lint names its predicate");
                assert!(d.suggestions.is_empty(), "{d}");
                let step: u64 = (d.message.rsplit(' ').next())
                    .and_then(|n| n.parse().ok())
                    .expect("the message ends with the step");
                let want = Delay {
                    ms: 0,
                    hops: 1 + step * chain,
                    skews: step,
                };
                assert_eq!(planned.holddown(p), want);
                steps.push(step);
            }
            steps.sort();
            assert_eq!(steps, [0, 1]);
        }
    }
}
