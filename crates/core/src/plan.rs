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

use crate::partial::MAX_BODY_LITERALS;
use sensorlog_logic::analyze::Analysis;
use sensorlog_logic::ast::Literal;
use sensorlog_logic::builtin::BuiltinRegistry;
use sensorlog_logic::span::Span;
use sensorlog_logic::Symbol;
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

    Ok(DistProgram {
        analysis,
        reg,
        windows,
        occurrences,
        idb,
        outputs,
        holddown,
        static_facts,
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
