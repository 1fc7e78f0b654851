//! Magic-set transformation (Sec. V: "the user specified logic-program is
//! first optimized using magic-set transformations").
//!
//! Rewrites a program so that bottom-up evaluation only derives facts
//! relevant to a query with bound arguments, using the standard
//! adornment-based construction with a left-to-right sideways information
//! passing strategy. Applies to programs without negation or aggregation in
//! the rules reachable from the query; otherwise the original program is
//! returned unchanged (reported via [`MagicResult::applied`]).

use crate::ast::{Atom, Literal, Program, Rule};
use crate::depgraph::DepGraph;
use crate::span::RuleSpans;
use crate::symbol::Symbol;
use crate::term::Term;
use std::collections::{BTreeSet, VecDeque};
use std::fmt;

/// An adornment: one flag per argument, `true` = bound.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Adornment(pub Vec<bool>);

impl Adornment {
    pub fn bound_positions(&self) -> impl Iterator<Item = usize> + '_ {
        self.0
            .iter()
            .enumerate()
            .filter(|(_, b)| **b)
            .map(|(i, _)| i)
    }

    pub fn has_bound(&self) -> bool {
        self.0.iter().any(|&b| b)
    }
}

impl fmt::Display for Adornment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &b in &self.0 {
            write!(f, "{}", if b { 'b' } else { 'f' })?;
        }
        Ok(())
    }
}

/// A query: predicate + argument terms, where ground arguments become bound
/// positions of the adornment.
#[derive(Clone, Debug)]
pub struct Query {
    pub atom: Atom,
}

impl Query {
    pub fn adornment(&self) -> Adornment {
        Adornment(self.atom.args.iter().map(Term::is_ground).collect())
    }
}

/// Output of the transformation.
#[derive(Clone, Debug)]
pub struct MagicResult {
    /// The transformed (or original) program.
    pub program: Program,
    /// Whether the transformation was applied.
    pub applied: bool,
    /// Predicate holding the query answers in the transformed program.
    pub answer_pred: Symbol,
    /// Seed facts for the magic predicate (pred, tuple) — the query's bound
    /// constants.
    pub seeds: Vec<(Symbol, Vec<Term>)>,
}

fn adorned_name(pred: Symbol, a: &Adornment) -> Symbol {
    Symbol::intern(&format!("{}__{}", pred, a))
}

fn magic_name(pred: Symbol, a: &Adornment) -> Symbol {
    Symbol::intern(&format!("m_{}__{}", pred, a))
}

/// Apply the magic-set transformation for `query` against `prog`.
pub fn magic_transform(prog: &Program, query: &Query) -> MagicResult {
    let g = DepGraph::build(prog);
    let idb = prog.idb_preds();
    let reachable = g.reachable_from(&[query.atom.pred]);

    // Bail out (cleanly) on negation/aggregation in reachable rules, or a
    // query with no bound argument (nothing to gain).
    let blocked = prog.rules.iter().any(|r| {
        reachable.contains(&r.head.pred)
            && (r.agg.is_some() || r.body.iter().any(|l| matches!(l, Literal::Neg(_))))
    });
    let q_adorn = query.adornment();
    if blocked || !q_adorn.has_bound() || !idb.contains(&query.atom.pred) {
        return MagicResult {
            program: prog.clone(),
            applied: false,
            answer_pred: query.atom.pred,
            seeds: Vec::new(),
        };
    }

    let mut out = Program {
        rules: Vec::new(),
        windows: prog.windows.clone(),
        outputs: vec![adorned_name(query.atom.pred, &q_adorn)],
        declared_base: prog.declared_base.clone(),
        stage_hints: prog.stage_hints.clone(),
        holddowns: prog.holddowns.clone(),
    };

    let mut queue: VecDeque<(Symbol, Adornment)> = VecDeque::new();
    let mut seen: BTreeSet<(Symbol, String)> = BTreeSet::new();
    queue.push_back((query.atom.pred, q_adorn.clone()));
    seen.insert((query.atom.pred, q_adorn.to_string()));

    let mut next_id = 0usize;
    while let Some((pred, adorn)) = queue.pop_front() {
        for rule in prog.rules_for(pred) {
            // Bound head vars under this adornment.
            let mut bound: BTreeSet<Symbol> = BTreeSet::new();
            for i in adorn.bound_positions() {
                if let Some(arg) = rule.head.args.get(i) {
                    let mut vs = Vec::new();
                    arg.collect_vars(&mut vs);
                    bound.extend(vs);
                }
            }

            // The rewritten rule body starts with the magic guard.
            let magic_pred = magic_name(pred, &adorn);
            let magic_args: Vec<Term> = adorn
                .bound_positions()
                .map(|i| rule.head.args[i].clone())
                .collect();
            let mut new_body: Vec<Literal> = vec![Literal::Pos(Atom {
                pred: magic_pred,
                args: magic_args.clone(),
            })];

            // Walk body left-to-right; emit magic rules for IDB subgoals.
            let mut prefix: Vec<Literal> = new_body.clone();
            for lit in &rule.body {
                match lit {
                    Literal::Pos(a) if idb.contains(&a.pred) => {
                        // An argument is bound iff all its variables are
                        // (ground arguments trivially so).
                        let sub_adorn = Adornment(
                            a.args
                                .iter()
                                .map(|t| t.vars().iter().all(|v| bound.contains(v)))
                                .collect(),
                        );
                        let sub_name = adorned_name(a.pred, &sub_adorn);
                        // Magic rule: m_sub(bound args) :- prefix.
                        if sub_adorn.has_bound() {
                            let m_args: Vec<Term> = sub_adorn
                                .bound_positions()
                                .map(|i| a.args[i].clone())
                                .collect();
                            out.rules.push(Rule {
                                id: next_id,
                                head: Atom {
                                    pred: magic_name(a.pred, &sub_adorn),
                                    args: m_args,
                                },
                                body: prefix.clone(),
                                agg: None,
                                spans: RuleSpans::default(),
                            });
                            next_id += 1;
                        }
                        let key = (a.pred, sub_adorn.to_string());
                        if seen.insert(key) {
                            queue.push_back((a.pred, sub_adorn.clone()));
                        }
                        let adorned_lit = Literal::Pos(Atom {
                            pred: sub_name,
                            args: a.args.clone(),
                        });
                        new_body.push(adorned_lit.clone());
                        prefix.push(adorned_lit);
                        let mut vs = Vec::new();
                        a.collect_vars(&mut vs);
                        bound.extend(vs);
                    }
                    other => {
                        new_body.push(other.clone());
                        prefix.push(other.clone());
                        if let Literal::Pos(a) = other {
                            let mut vs = Vec::new();
                            a.collect_vars(&mut vs);
                            bound.extend(vs);
                        }
                    }
                }
            }

            out.rules.push(Rule {
                id: next_id,
                head: Atom {
                    pred: adorned_name(pred, &adorn),
                    args: rule.head.args.clone(),
                },
                body: new_body,
                agg: None,
                // Point back at the source rule; literal spans no longer
                // line up after the rewrite, so only the rule span is kept.
                spans: RuleSpans {
                    rule: rule.spans.rule,
                    head: rule.spans.head,
                    lits: Vec::new(),
                },
            });
            next_id += 1;
        }
    }

    // Seed: magic fact from the query's ground arguments.
    let seed_args: Vec<Term> = q_adorn
        .bound_positions()
        .map(|i| query.atom.args[i].clone())
        .collect();
    let seeds = vec![(magic_name(query.atom.pred, &q_adorn), seed_args)];
    // Magic predicates are base streams from the engine's point of view.
    for (p, _) in &seeds {
        out.declared_base.insert(*p);
    }

    MagicResult {
        program: out,
        applied: true,
        answer_pred: adorned_name(query.atom.pred, &q_adorn),
        seeds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    const TC: &str = r#"
        t(X, Y) :- e(X, Y).
        t(X, Y) :- e(X, Z), t(Z, Y).
    "#;

    #[test]
    fn adornment_display() {
        let a = Adornment(vec![true, false]);
        assert_eq!(a.to_string(), "bf");
        assert!(a.has_bound());
        assert_eq!(a.bound_positions().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn transforms_transitive_closure() {
        let prog = parse_program(TC).unwrap();
        let q = Query {
            atom: Atom::new("t", vec![Term::atom("a"), Term::var("Y")]),
        };
        let res = magic_transform(&prog, &q);
        assert!(res.applied);
        assert_eq!(res.answer_pred, sym("t__bf"));
        // One magic seed with the constant `a`.
        assert_eq!(res.seeds.len(), 1);
        assert_eq!(res.seeds[0].0, sym("m_t__bf"));
        assert_eq!(res.seeds[0].1, vec![Term::atom("a")]);
        // Rules: 2 adorned t rules + 1 magic rule (from recursive subgoal).
        let magic_rules: Vec<_> = res
            .program
            .rules
            .iter()
            .filter(|r| r.head.pred == sym("m_t__bf"))
            .collect();
        assert_eq!(magic_rules.len(), 1);
        // The magic rule passes bindings sideways through e.
        assert!(magic_rules[0]
            .body
            .iter()
            .any(|l| matches!(l, Literal::Pos(a) if a.pred == sym("e"))));
        // Every adorned t rule is guarded by the magic predicate.
        for r in res
            .program
            .rules
            .iter()
            .filter(|r| r.head.pred == sym("t__bf"))
        {
            assert!(matches!(&r.body[0], Literal::Pos(a) if a.pred == sym("m_t__bf")));
        }
    }

    #[test]
    fn free_query_not_transformed() {
        let prog = parse_program(TC).unwrap();
        let q = Query {
            atom: Atom::new("t", vec![Term::var("X"), Term::var("Y")]),
        };
        let res = magic_transform(&prog, &q);
        assert!(!res.applied);
        assert_eq!(res.program.rules.len(), prog.rules.len());
    }

    #[test]
    fn negation_blocks_transformation() {
        let prog = parse_program(
            r#"
            t(X, Y) :- e(X, Y), not blocked(X).
            "#,
        )
        .unwrap();
        let q = Query {
            atom: Atom::new("t", vec![Term::atom("a"), Term::var("Y")]),
        };
        let res = magic_transform(&prog, &q);
        assert!(!res.applied);
    }

    #[test]
    fn edb_query_untouched() {
        let prog = parse_program(TC).unwrap();
        let q = Query {
            atom: Atom::new("e", vec![Term::atom("a"), Term::var("Y")]),
        };
        assert!(!magic_transform(&prog, &q).applied);
    }

    #[test]
    fn second_argument_bound() {
        let prog = parse_program(TC).unwrap();
        let q = Query {
            atom: Atom::new("t", vec![Term::var("X"), Term::atom("z")]),
        };
        let res = magic_transform(&prog, &q);
        assert!(res.applied);
        assert_eq!(res.answer_pred, sym("t__fb"));
        // Left-to-right SIP: after e(X, Z) binds Z, the recursive call
        // t(Z, Y) has both arguments bound -> adornment bb.
        assert!(res
            .program
            .rules
            .iter()
            .any(|r| r.head.pred == sym("m_t__bb")));
    }
}
