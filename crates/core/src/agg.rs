//! In-network aggregate queries (Sec. IV-C): "We can use specialized
//! distributed techniques such as TAG \[32\] … for evaluation of incremental
//! aggregates."
//!
//! The GPA runtime deliberately rejects head aggregates
//! ([`crate::plan::CompileError::AggregatesUnsupported`]); this module is
//! the prescribed route: a *global aggregate query* — one rule whose head
//! aggregates a single base stream — compiles onto the TAG gathering-tree
//! substrate, with the centralized engine as the semantics oracle.
//!
//! Semantics note: TAG folds the reading *multiset*, while the declarative
//! head aggregate folds *distinct* values (all-solutions set semantics).
//! The two coincide whenever readings are distinct — which node-keyed
//! streams guarantee by construction.

use sensorlog_eval::{Database, Engine, EvalError};
use sensorlog_logic::analyze;
use sensorlog_logic::ast::{AggFunc, Literal, Program};
use sensorlog_logic::builtin::BuiltinRegistry;
use sensorlog_logic::{Symbol, Term, Tuple};
use sensorlog_netsim::{NodeId, SimConfig, Topology};
use sensorlog_netstack::tag::{run_epoch, TagOp};
use sensorlog_netstack::tree::GatherTree;
use std::fmt;

/// A recognized global aggregate query.
#[derive(Clone, Debug, PartialEq)]
pub struct AggQuery {
    pub head: Symbol,
    pub op: TagOp,
    /// The base stream the aggregate ranges over.
    pub source: Symbol,
    /// Which argument of the source holds the aggregated value.
    pub value_col: usize,
    /// Source arity.
    pub arity: usize,
}

/// Why a program is not a TAG-compilable aggregate query.
#[derive(Clone, Debug, PartialEq)]
pub enum AggCompileError {
    NotSingleRule,
    NoAggregate,
    GroupByUnsupported,
    BodyNotSingleStream,
    ValueNotAPlainVariable,
}

impl fmt::Display for AggCompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            AggCompileError::NotSingleRule => "expected exactly one rule",
            AggCompileError::NoAggregate => "the rule head carries no aggregate",
            AggCompileError::GroupByUnsupported => {
                "grouped aggregates are not TAG-compilable (group keys need GPA hashing)"
            }
            AggCompileError::BodyNotSingleStream => {
                "the body must be a single positive base-stream subgoal"
            }
            AggCompileError::ValueNotAPlainVariable => {
                "the aggregated term must be a variable of the source stream"
            }
        };
        f.write_str(msg)
    }
}

impl std::error::Error for AggCompileError {}

fn tag_op(f: AggFunc) -> TagOp {
    match f {
        AggFunc::Count => TagOp::Count,
        AggFunc::Sum => TagOp::Sum,
        AggFunc::Min => TagOp::Min,
        AggFunc::Max => TagOp::Max,
        AggFunc::Avg => TagOp::Avg,
    }
}

/// Recognize `q(op<V>) :- s(…, V, …).` — the global-aggregate shape.
pub fn compile_aggregate(prog: &Program) -> Result<AggQuery, AggCompileError> {
    if prog.rules.len() != 1 {
        return Err(AggCompileError::NotSingleRule);
    }
    let rule = &prog.rules[0];
    let agg = rule.agg.as_ref().ok_or(AggCompileError::NoAggregate)?;
    if !rule.head.args.is_empty() {
        return Err(AggCompileError::GroupByUnsupported);
    }
    let atoms: Vec<_> = rule
        .body
        .iter()
        .filter_map(|l| match l {
            Literal::Pos(a) => Some(a),
            _ => None,
        })
        .collect();
    if atoms.len() != 1 || rule.body.len() != 1 {
        return Err(AggCompileError::BodyNotSingleStream);
    }
    let atom = atoms[0];
    let Term::Var(v) = &agg.term else {
        return Err(AggCompileError::ValueNotAPlainVariable);
    };
    let value_col = atom
        .args
        .iter()
        .position(|a| matches!(a, Term::Var(u) if u == v))
        .ok_or(AggCompileError::ValueNotAPlainVariable)?;
    Ok(AggQuery {
        head: rule.head.pred,
        op: tag_op(agg.func),
        source: atom.pred,
        value_col,
        arity: atom.args.len(),
    })
}

/// Result of one aggregate epoch.
#[derive(Clone, Copy, Debug)]
pub struct AggRun {
    pub value: f64,
    pub messages: u64,
}

/// Run the query over per-node readings via TAG (one reading per node).
/// `None` when the epoch has no answer: TAG's child counting does not
/// survive a lost partial, so under `config.loss_prob > 0` the root may
/// never finish. Nodes `root` cannot reach are not aggregated.
pub fn run_tag(
    query: &AggQuery,
    topo: &Topology,
    root: NodeId,
    readings: &[f64],
    config: SimConfig,
) -> Option<AggRun> {
    let tree = GatherTree::bfs(topo, root);
    let (partial, messages) = run_epoch(topo, &tree, readings, config);
    Some(AggRun {
        value: partial?.finish(query.op),
        messages,
    })
}

/// The baseline: every reading travels to the root, which aggregates
/// centrally. Message count = Σ hop-distance(node, root).
pub fn run_central_collection(
    query: &AggQuery,
    topo: &Topology,
    root: NodeId,
    readings: &[f64],
) -> AggRun {
    let tree = GatherTree::bfs(topo, root);
    let messages: u64 = topo.nodes().map(|n| tree.depth[n.index()] as u64).sum();
    // Semantically identical; compute via the same fold.
    let mut acc = sensorlog_netstack::tag::Partial::of(readings[0]);
    for &r in &readings[1..] {
        acc = acc.merge(sensorlog_netstack::tag::Partial::of(r));
    }
    AggRun {
        value: acc.finish(query.op),
        messages,
    }
}

/// Oracle: evaluate the same program with the centralized deductive engine
/// over the readings as facts.
pub fn oracle_value(src: &str, query: &AggQuery, readings: &[f64]) -> Result<f64, EvalError> {
    let prog =
        sensorlog_logic::parse_program(src).map_err(|e| EvalError::Internal(e.to_string()))?;
    let reg = BuiltinRegistry::standard();
    let analysis = analyze(&prog, &reg)?;
    let engine = Engine::new(analysis, reg);
    let mut edb = Database::new();
    for (i, &r) in readings.iter().enumerate() {
        // Fill non-value columns with the node index.
        let args: Vec<Term> = (0..query.arity)
            .map(|c| {
                if c == query.value_col {
                    Term::float(r)
                } else {
                    Term::Int(i as i64)
                }
            })
            .collect();
        edb.insert(query.source, Tuple::new(args));
    }
    let out = engine.run(&edb)?;
    let rows = out.sorted(query.head);
    rows.first()
        .and_then(|t| t.get(0).as_f64())
        .ok_or_else(|| EvalError::Internal("aggregate produced no row".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensorlog_logic::parse_program;

    const AVG: &str = ".output mean.\nmean(avg<V>) :- reading(N, V).\n";

    #[test]
    fn recognizes_global_aggregates() {
        let q = compile_aggregate(&parse_program(AVG).unwrap()).unwrap();
        assert_eq!(q.op, TagOp::Avg);
        assert_eq!(q.source, Symbol::intern("reading"));
        assert_eq!(q.value_col, 1);
        assert_eq!(q.arity, 2);
    }

    #[test]
    fn rejects_non_aggregate_shapes() {
        let err = |src: &str| compile_aggregate(&parse_program(src).unwrap()).unwrap_err();
        assert_eq!(err("q(X) :- p(X)."), AggCompileError::NoAggregate);
        assert_eq!(
            err("q(G, min<V>) :- p(G, V)."),
            AggCompileError::GroupByUnsupported
        );
        assert_eq!(
            err("q(min<V>) :- p(V), r(V)."),
            AggCompileError::BodyNotSingleStream
        );
        assert_eq!(
            err("q(min<V>) :- p(V + 1)."),
            AggCompileError::ValueNotAPlainVariable
        );
    }

    #[test]
    fn tag_matches_oracle_and_central() {
        let q = compile_aggregate(&parse_program(AVG).unwrap()).unwrap();
        let topo = Topology::square_grid(5);
        // Distinct readings: the set/bag semantic gap (module doc) vanishes.
        let readings: Vec<f64> = (0..25).map(|i| i as f64).collect();
        let root = NodeId(0);
        let tag = run_tag(&q, &topo, root, &readings, SimConfig::default()).unwrap();
        let central = run_central_collection(&q, &topo, root, &readings);
        let oracle = oracle_value(AVG, &q, &readings).unwrap();
        assert!((tag.value - oracle).abs() < 1e-9);
        assert!((central.value - oracle).abs() < 1e-9);
        // TAG sends exactly n−1 partials; central pays the hop sum.
        assert_eq!(tag.messages, 24);
        assert!(central.messages > tag.messages);
    }

    #[test]
    fn all_five_ops() {
        let readings: Vec<f64> = vec![3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0];
        let topo = Topology::square_grid(3);
        for (src, expect) in [
            ("q(min<V>) :- r(N, V).", 1.0),
            ("q(max<V>) :- r(N, V).", 9.0),
            ("q(sum<V>) :- r(N, V).", 36.0),
            ("q(count<V>) :- r(N, V).", 9.0),
            ("q(avg<V>) :- r(N, V).", 4.0),
        ] {
            let q = compile_aggregate(&parse_program(src).unwrap()).unwrap();
            let run = run_tag(&q, &topo, NodeId(0), &readings, SimConfig::default()).unwrap();
            assert!(
                (run.value - expect).abs() < 1e-9,
                "{src}: got {} want {expect}",
                run.value
            );
        }
    }

    /// Regression: the caller's `SimConfig` reaches the epoch, and total
    /// loss used to panic inside `netstack::tag::run_epoch`.
    #[test]
    fn an_epoch_without_an_answer_is_none() {
        let q = compile_aggregate(&parse_program(AVG).unwrap()).unwrap();
        let lossy = SimConfig {
            loss_prob: 1.0,
            ..SimConfig::default()
        };
        let run = run_tag(&q, &Topology::square_grid(3), NodeId(0), &[1.0; 9], lossy);
        assert!(run.is_none());
        // Two components: the root answers for its own.
        let topo = Topology::from_positions(vec![(0.0, 0.0), (1.0, 0.0), (9.0, 0.0)], 1.5);
        let run = run_tag(
            &q,
            &topo,
            NodeId(0),
            &[2.0, 4.0, 100.0],
            SimConfig::default(),
        )
        .unwrap();
        assert_eq!((run.value, run.messages), (3.0, 1));
    }
}
