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
//! Two more decisions are the program's, made here once: the passes a probe
//! pinned at each relational literal walks ([`PassPlan`]), and which node
//! owns each derived tuple ([`DistProgram::owner_of`]).

use crate::partial::MAX_BODY_LITERALS;
use crate::strategy::PassMode;
use sensorlog_logic::analyze::Analysis;
use sensorlog_logic::ast::Literal;
use sensorlog_logic::boundness::pass_plan;
use sensorlog_logic::builtin::BuiltinRegistry;
use sensorlog_logic::intern::{self, Val};
use sensorlog_logic::span::Span;
use sensorlog_logic::{Symbol, Tuple};
use sensorlog_netsim::{NodeId, Topology};
use sensorlog_netstack::ght;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

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
    /// Derived predicates owned by the node one of their columns names
    /// (`logic::xy::placement`), by that column.
    pub placement: BTreeMap<Symbol, usize>,
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
}

impl PassPlan {
    /// The plan of `passes`, as literal indexes (no passes: one that
    /// extends nothing — the walk still checks negations).
    fn new(passes: &[Vec<usize>]) -> PassPlan {
        let mask = |pass: &Vec<usize>| pass.iter().fold(0u64, |m, &i| m | 1 << i);
        let mut passes: Vec<u64> = passes.iter().map(mask).collect();
        if passes.is_empty() {
            passes.push(0);
        }
        PassPlan { passes }
    }

    /// Passes the probe walks (≥ 1).
    pub fn passes(&self) -> usize {
        self.passes.len()
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
                        *plan = PassPlan::new(&one_each);
                    }
                }
            }
        }
        self
    }

    /// The node that owns `tuple` of `pred` (Sec. III-B): for a placed
    /// predicate, the node its owner column names when that value is a node
    /// id of `topo`; otherwise the geographic hash's home node. Either way a
    /// function of the tuple, so identical derived tuples still meet at one
    /// owner. The column is read off the interned entry, never resolved.
    pub fn owner_of(&self, topo: &Topology, pred: Symbol, tuple: &Tuple) -> NodeId {
        let placed = (self.placement.get(&pred))
            .and_then(|&col| tuple.ids().get(col))
            .and_then(|&id| match intern::entry(id).val {
                Val::Int(n) => u32::try_from(n).ok().filter(|&n| (n as usize) < topo.len()),
                _ => None,
            });
        match placed {
            Some(n) => NodeId(n),
            None => ght::owner_of(topo, pred, tuple),
        }
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
            holddown_base: 100,
            xy_stagger: 2_000,
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
    }

    let mut occurrences: HashMap<Symbol, Vec<OccRef>> = HashMap::new();
    let mut static_facts = Vec::new();
    for (rule_idx, r) in prog.rules.iter().enumerate() {
        if r.body.is_empty() {
            // Ground fact rule.
            let ground = r.head.args.iter().all(|t| t.is_ground());
            if ground {
                let terms: Vec<_> = r
                    .head
                    .args
                    .iter()
                    .map(|t| reg.eval_term(t))
                    .collect::<Result<_, _>>()
                    .map_err(|e| CompileError::Analyze(e.to_string()))?;
                static_facts.push((r.head.pred, sensorlog_logic::Tuple::new(terms)));
            }
            continue;
        }
        for (lit_idx, lit) in r.body.iter().enumerate() {
            match lit {
                Literal::Pos(a) => occurrences.entry(a.pred).or_default().push(OccRef {
                    rule_idx,
                    lit_idx,
                    negated: false,
                }),
                Literal::Neg(a) => occurrences.entry(a.pred).or_default().push(OccRef {
                    rule_idx,
                    lit_idx,
                    negated: true,
                }),
                _ => {}
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
    // first).
    let mut holddown: BTreeMap<Symbol, u64> = BTreeMap::new();
    for &p in &idb {
        holddown.insert(p, timing.holddown_base);
    }
    for info in &analysis.xy {
        for (i, &p) in info.stage_order.iter().enumerate() {
            holddown.insert(p, timing.holddown_base + i as u64 * timing.xy_stagger);
        }
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
                Literal::Pos(_) | Literal::Neg(_) => PassPlan::new(&pass_plan(&r.body, pin)),
                _ => PassPlan::default(),
            };
            r.body.iter().enumerate().map(plan).collect()
        })
        .collect();
    let placement = sensorlog_logic::xy::placement(prog, &analysis.xy);

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
        placement,
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
            (0..plan.passes())
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

    /// A placed predicate's owner is the node its owner column names.
    #[test]
    fn a_placed_owner_is_the_columns_node() {
        let p = logic_h();
        assert_eq!(p.placement, BTreeMap::from([(sym("h"), 1), (sym("hp"), 0)]));
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
        assert!(p.placement.is_empty());
        let mut rng = StdRng::seed_from_u64(0x0_64E5);
        for topo in [Topology::grid(10, 5), Topology::square_grid(7)] {
            for _ in 0..500 {
                let pred = sym(["cov", "uncov", "veh"][rng.gen_range(0..3)]);
                let t = ints(&[rng.gen_range(-5..80), rng.gen_range(0..1_000)]);
                assert_eq!(p.owner_of(&topo, pred, &t), ght::owner_of(&topo, pred, &t));
            }
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
}
