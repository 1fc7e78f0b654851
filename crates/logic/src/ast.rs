//! Abstract syntax of deductive programs.
//!
//! A program is a set of rules `H :- G1, …, Gk.` where subgoals may be
//! positive atoms, negated atoms, comparisons over arithmetic terms, or
//! procedural built-in predicates (Sec. II-B). Heads may carry one aggregate
//! argument (`min<D>` etc.), the restricted aggregation form the paper
//! allows.

use crate::span::RuleSpans;
use crate::symbol::Symbol;
use crate::term::Term;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A predicate applied to argument terms.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Atom {
    pub pred: Symbol,
    pub args: Vec<Term>,
}

impl Atom {
    pub fn new(pred: &str, args: Vec<Term>) -> Atom {
        Atom {
            pred: Symbol::intern(pred),
            args,
        }
    }

    pub fn arity(&self) -> usize {
        self.args.len()
    }

    pub fn collect_vars(&self, out: &mut Vec<Symbol>) {
        for a in &self.args {
            a.collect_vars(out);
        }
    }

    pub fn vars(&self) -> Vec<Symbol> {
        let mut v = Vec::new();
        self.collect_vars(&mut v);
        v
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.pred)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")
    }
}

/// Comparison operators usable between arithmetic terms.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum CmpOp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

impl CmpOp {
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
        }
    }

    pub fn symbol_str(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
        }
    }
}

/// A body subgoal.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Literal {
    /// Positive relational subgoal.
    Pos(Atom),
    /// Negated relational subgoal (`not p(…)`).
    Neg(Atom),
    /// Comparison between two (possibly arithmetic) terms. `Eq` with one
    /// side an unbound variable acts as an assignment.
    Cmp(CmpOp, Term, Term),
    /// Procedural built-in predicate (e.g. `close(R1, R2)`), resolved
    /// against the builtin registry during validation.
    Builtin(Atom),
}

impl Literal {
    pub fn atom(&self) -> Option<&Atom> {
        match self {
            Literal::Pos(a) | Literal::Neg(a) | Literal::Builtin(a) => Some(a),
            Literal::Cmp(..) => None,
        }
    }

    pub fn collect_vars(&self, out: &mut Vec<Symbol>) {
        match self {
            Literal::Pos(a) | Literal::Neg(a) | Literal::Builtin(a) => a.collect_vars(out),
            Literal::Cmp(_, l, r) => {
                l.collect_vars(out);
                r.collect_vars(out);
            }
        }
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Pos(a) => write!(f, "{a}"),
            Literal::Neg(a) => write!(f, "not {a}"),
            Literal::Cmp(op, l, r) => write!(f, "{l} {} {r}", op.symbol_str()),
            Literal::Builtin(a) => write!(f, "{a}"),
        }
    }
}

/// Aggregate functions available in rule heads.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum AggFunc {
    Count,
    Sum,
    Min,
    Max,
    Avg,
}

impl AggFunc {
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
        }
    }

    pub fn from_name(s: &str) -> Option<AggFunc> {
        Some(match s {
            "count" => AggFunc::Count,
            "sum" => AggFunc::Sum,
            "min" => AggFunc::Min,
            "max" => AggFunc::Max,
            "avg" => AggFunc::Avg,
            _ => return None,
        })
    }
}

/// Head aggregate: head position `pos` carries `func<term>`; remaining head
/// arguments are the group-by key.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct AggSpec {
    pub func: AggFunc,
    pub pos: usize,
    pub term: Term,
}

/// A single deductive rule.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Rule {
    /// Stable id within the program; derivations record it (Definition 2:
    /// "we also include in the derivation the ID of the rule").
    pub id: usize,
    pub head: Atom,
    pub body: Vec<Literal>,
    pub agg: Option<AggSpec>,
    /// Source spans (metadata only — never part of equality; see
    /// [`crate::span`]). Default for synthetic rules.
    pub spans: RuleSpans,
}

impl Rule {
    /// Positive relational subgoals, in body order.
    pub fn positive_atoms(&self) -> impl Iterator<Item = &Atom> {
        self.body.iter().filter_map(|l| match l {
            Literal::Pos(a) => Some(a),
            _ => None,
        })
    }

    /// A non-empty body with no positive relational subgoal (`t :- not
    /// r(1).`, `t :- 1 < 2.`): no update starts an incremental evaluation
    /// of the rule, since one is pinned at a positive subgoal and an update
    /// of a negated one can only retract, so update-driven maintenance never
    /// derives its head although batch evaluation does. (An empty body is a
    /// fact, asserted when an engine is built.)
    pub fn is_unseeded(&self) -> bool {
        !self.body.is_empty() && self.positive_atoms().next().is_none()
    }

    /// Variables of the head, including the aggregate argument.
    pub fn head_vars(&self) -> Vec<Symbol> {
        let mut v = Vec::new();
        self.head.collect_vars(&mut v);
        if let Some(agg) = &self.agg {
            agg.term.collect_vars(&mut v);
        }
        v
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(agg) = &self.agg {
            write!(f, "{}(", self.head.pred)?;
            let mut idx = 0;
            let total = self.head.args.len() + 1;
            for pos in 0..total {
                if pos > 0 {
                    write!(f, ", ")?;
                }
                if pos == agg.pos {
                    write!(f, "{}<{}>", agg.func.name(), agg.term)?;
                } else {
                    write!(f, "{}", self.head.args[idx])?;
                    idx += 1;
                }
            }
            write!(f, ")")?;
        } else {
            write!(f, "{}", self.head)?;
        }
        if self.body.is_empty() {
            return write!(f, ".");
        }
        write!(f, " :- ")?;
        for (i, l) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{l}")?;
        }
        write!(f, ".")
    }
}

/// A parsed program plus its declarations.
#[derive(Clone, Debug, Default)]
pub struct Program {
    pub rules: Vec<Rule>,
    /// Sliding-window range per stream predicate, in simulated milliseconds
    /// (`.window pred N.` directive; Sec. II-B "Specification and
    /// Maintenance of Sliding Windows"). Absent ⇒ unbounded stream.
    pub windows: BTreeMap<Symbol, u64>,
    /// Query predicates of interest (`.output pred.`).
    pub outputs: Vec<Symbol>,
    /// Explicitly declared base (extensional) predicates (`.base pred.`).
    /// Predicates never appearing in a head are base implicitly.
    pub declared_base: BTreeSet<Symbol>,
    /// Optional hint for the XY stage argument (`.stage pred N.`,
    /// zero-indexed). Auto-detection searches all positions otherwise.
    pub stage_hints: BTreeMap<Symbol, usize>,
    /// Declared retraction hold-down per derived predicate in simulated
    /// milliseconds (`.holddown pred N.`); overrides the planner default.
    pub holddowns: BTreeMap<Symbol, u64>,
}

impl Program {
    /// Predicates appearing in some rule head (intensional predicates).
    pub fn idb_preds(&self) -> BTreeSet<Symbol> {
        self.rules.iter().map(|r| r.head.pred).collect()
    }

    /// Base predicates: declared base plus body predicates never derived.
    pub fn edb_preds(&self) -> BTreeSet<Symbol> {
        let idb = self.idb_preds();
        let mut edb = self.declared_base.clone();
        for r in &self.rules {
            for lit in &r.body {
                if let Literal::Pos(a) | Literal::Neg(a) = lit {
                    if !idb.contains(&a.pred) {
                        edb.insert(a.pred);
                    }
                }
            }
        }
        edb
    }

    /// All predicates mentioned anywhere.
    pub fn all_preds(&self) -> BTreeSet<Symbol> {
        let mut s = self.idb_preds();
        s.extend(self.edb_preds());
        s
    }

    /// Rules whose head is `pred`.
    pub fn rules_for(&self, pred: Symbol) -> impl Iterator<Item = &Rule> {
        self.rules.iter().filter(move |r| r.head.pred == pred)
    }

    /// Arity of a predicate as used in the program (first occurrence wins);
    /// `None` if the predicate never appears.
    pub fn arity_of(&self, pred: Symbol) -> Option<usize> {
        for r in &self.rules {
            if r.head.pred == pred {
                return Some(r.head.args.len() + usize::from(r.agg.is_some()));
            }
            for lit in &r.body {
                if let Some(a) = lit.atom() {
                    if a.pred == pred {
                        return Some(a.args.len());
                    }
                }
            }
        }
        None
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (p, w) in &self.windows {
            writeln!(f, ".window {p} {w}.")?;
        }
        for p in &self.outputs {
            writeln!(f, ".output {p}.")?;
        }
        for p in &self.declared_base {
            writeln!(f, ".base {p}.")?;
        }
        for (p, i) in &self.stage_hints {
            writeln!(f, ".stage {p} {i}.")?;
        }
        for (p, h) in &self.holddowns {
            writeln!(f, ".holddown {p} {h}.")?;
        }
        for r in &self.rules {
            writeln!(f, "{r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atom(p: &str, args: Vec<Term>) -> Atom {
        Atom::new(p, args)
    }

    #[test]
    fn rule_display_roundtrips_visually() {
        let r = Rule {
            id: 0,
            head: atom("cov", vec![Term::var("L"), Term::var("T")]),
            body: vec![
                Literal::Pos(atom(
                    "veh",
                    vec![Term::str("enemy"), Term::var("L"), Term::var("T")],
                )),
                Literal::Cmp(
                    CmpOp::Le,
                    Term::app("dist", vec![Term::var("L"), Term::var("L2")]),
                    Term::Int(50),
                ),
            ],
            agg: None,
            spans: RuleSpans::default(),
        };
        let s = r.to_string();
        assert!(s.contains("cov(L, T) :- "));
        assert!(s.contains("dist(L, L2) <= 50"));
    }

    #[test]
    fn agg_head_display() {
        let r = Rule {
            id: 0,
            head: atom("short", vec![Term::var("Y")]),
            body: vec![Literal::Pos(atom(
                "path",
                vec![Term::var("Y"), Term::var("D")],
            ))],
            agg: Some(AggSpec {
                func: AggFunc::Min,
                pos: 1,
                term: Term::var("D"),
            }),
            spans: RuleSpans::default(),
        };
        assert_eq!(r.to_string(), "short(Y, min<D>) :- path(Y, D).");
    }

    #[test]
    fn edb_idb_partition() {
        let mut p = Program::default();
        p.rules.push(Rule {
            id: 0,
            head: atom("cov", vec![Term::var("L")]),
            body: vec![Literal::Pos(atom("veh", vec![Term::var("L")]))],
            agg: None,
            spans: RuleSpans::default(),
        });
        assert!(p.idb_preds().contains(&Symbol::intern("cov")));
        assert!(p.edb_preds().contains(&Symbol::intern("veh")));
        assert!(!p.edb_preds().contains(&Symbol::intern("cov")));
        assert_eq!(p.arity_of(Symbol::intern("cov")), Some(1));
        assert_eq!(p.arity_of(Symbol::intern("missing")), None);
    }

    #[test]
    fn head_vars_include_agg_term() {
        let r = Rule {
            id: 0,
            head: atom("q", vec![Term::var("G")]),
            body: vec![],
            agg: Some(AggSpec {
                func: AggFunc::Sum,
                pos: 1,
                term: Term::var("V"),
            }),
            spans: RuleSpans::default(),
        };
        let vs = r.head_vars();
        assert!(vs.contains(&Symbol::intern("G")));
        assert!(vs.contains(&Symbol::intern("V")));
    }

    #[test]
    fn cmp_flip() {
        assert_eq!(CmpOp::Lt.flip(), CmpOp::Gt);
        assert_eq!(CmpOp::Eq.flip(), CmpOp::Eq);
    }
}
