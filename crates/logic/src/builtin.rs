//! Built-in predicates and functions.
//!
//! The paper allows "built-in predicates or functions … system defined or
//! defined by the user in procedural code" (Sec. II-B). Built-ins execute
//! locally at a node and never affect communication, which is why the
//! distributed evaluator can treat them uniformly (Sec. IV-C).
//!
//! *Functions* map ground argument terms to a ground term (arithmetic,
//! `dist`); unregistered function symbols are uninterpreted constructors
//! (lists, `loc(x, y)`, …). *Predicates* map ground argument terms to a
//! boolean (`close`, `is_parallel`). The system functions are [`Op`]s,
//! which the interned kernel ([`crate::flat`]) evaluates; procedural ones
//! are closures over resolved terms.

use crate::intern::IdHashMap;
use crate::symbol::Symbol;
use crate::term::Term;
use std::fmt;
use std::sync::Arc;

/// Error from evaluating a built-in (division by zero, type mismatch, …).
#[derive(Clone, Debug, PartialEq)]
pub struct BuiltinError {
    pub message: String,
}

impl BuiltinError {
    pub fn new(msg: impl Into<String>) -> BuiltinError {
        BuiltinError {
            message: msg.into(),
        }
    }
}

impl fmt::Display for BuiltinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "builtin error: {}", self.message)
    }
}

impl std::error::Error for BuiltinError {}

pub type FuncImpl = Arc<dyn Fn(&[Term]) -> Result<Term, BuiltinError> + Send + Sync>;
pub type PredImpl = Arc<dyn Fn(&[Term]) -> Result<bool, BuiltinError> + Send + Sync>;

/// A system function. Its one implementation is the kernel's
/// ([`crate::flat`]): integer operations are overflow-checked, and a mixed
/// pair of arguments is taken as floats.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Op {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Neg,
    Abs,
    Min2,
    Max2,
    /// Euclidean distance between two `loc(x, y)` points, or `|a - b|`
    /// between two numbers.
    Dist,
}

impl Op {
    /// Every system function, as [`BuiltinRegistry::standard`] registers it.
    const ALL: [Op; 10] = [
        Op::Add,
        Op::Sub,
        Op::Mul,
        Op::Div,
        Op::Mod,
        Op::Neg,
        Op::Abs,
        Op::Min2,
        Op::Max2,
        Op::Dist,
    ];

    /// The name a program calls it by.
    pub fn name(self) -> &'static str {
        match self {
            Op::Add => "add",
            Op::Sub => "sub",
            Op::Mul => "mul",
            Op::Div => "div",
            Op::Mod => "mod",
            Op::Neg => "neg",
            Op::Abs => "abs",
            Op::Min2 => "min2",
            Op::Max2 => "max2",
            Op::Dist => "dist",
        }
    }
}

/// What a registered function symbol evaluates by.
#[derive(Clone)]
pub enum Func {
    /// A system function, run by the kernel on interned values.
    Native(Op),
    /// Procedural code (user or [`stdlib`]), called on resolved terms at
    /// the boxed boundary.
    Boxed(FuncImpl),
}

/// Registry of built-ins. Cloning is cheap (shared `Arc`s).
#[derive(Clone, Default)]
pub struct BuiltinRegistry {
    funcs: IdHashMap<Symbol, Func>,
    preds: IdHashMap<Symbol, PredImpl>,
}

impl fmt::Debug for BuiltinRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BuiltinRegistry")
            .field("funcs", &self.funcs.keys().collect::<Vec<_>>())
            .field("preds", &self.preds.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl BuiltinRegistry {
    /// Registry with the system built-ins:
    ///
    /// functions — `add sub mul div mod neg abs min2 max2 dist` ([`Op`])
    /// predicates — (none; applications register their own, e.g. `close`).
    pub fn standard() -> BuiltinRegistry {
        let mut r = BuiltinRegistry::default();
        for op in Op::ALL {
            r.funcs.insert(Symbol::intern(op.name()), Func::Native(op));
        }
        r
    }

    /// Register procedural function `name`, replacing whatever `name` was.
    pub fn register_func(&mut self, name: &str, f: FuncImpl) {
        self.funcs.insert(Symbol::intern(name), Func::Boxed(f));
    }

    pub fn register_pred(&mut self, name: &str, p: PredImpl) {
        self.preds.insert(Symbol::intern(name), p);
    }

    /// What function symbol `s` evaluates by; `None` for a constructor.
    pub fn func(&self, s: Symbol) -> Option<&Func> {
        self.funcs.get(&s)
    }

    pub fn is_func(&self, s: Symbol) -> bool {
        self.funcs.contains_key(&s)
    }

    pub fn is_pred(&self, s: Symbol) -> bool {
        self.preds.contains_key(&s)
    }

    /// Evaluate a registered predicate on ground arguments.
    pub fn call_pred(&self, s: Symbol, args: &[Term]) -> Result<bool, BuiltinError> {
        match self.preds.get(&s) {
            Some(p) => p(args),
            None => Err(BuiltinError::new(format!("unknown builtin predicate {s}"))),
        }
    }
}

/// Application-level built-ins used by the paper's running examples
/// (Example 2: `close`, `is_parallel`). Reports are `r(x, y, t)` terms;
/// trajectories are lists of reports.
pub mod stdlib {
    use super::*;
    use crate::term::{cons_sym, Term};

    fn list_items(t: &Term) -> Option<Vec<Term>> {
        t.as_list().map(|v| v.into_iter().cloned().collect())
    }

    /// Register the list library:
    ///
    /// functions — `first(L)`, `last(L)`, `len(L)`, `reverse(L)`,
    /// `append(L1, L2)`, `nth(L, I)`;
    /// predicates — `member(X, L)`.
    pub fn register_lists(reg: &mut BuiltinRegistry) {
        reg.register_func(
            "first",
            Arc::new(|args: &[Term]| match args {
                [Term::App(f, parts)] if *f == cons_sym() && parts.len() == 2 => {
                    Ok(parts[0].clone())
                }
                _ => Err(BuiltinError::new("first expects a non-empty list")),
            }),
        );
        reg.register_func(
            "last",
            Arc::new(|args: &[Term]| {
                let items = args
                    .first()
                    .and_then(list_items)
                    .filter(|v| !v.is_empty())
                    .ok_or_else(|| BuiltinError::new("last expects a non-empty list"))?;
                Ok(items.last().expect("nonempty").clone())
            }),
        );
        reg.register_func(
            "len",
            Arc::new(|args: &[Term]| {
                let items = args
                    .first()
                    .and_then(list_items)
                    .ok_or_else(|| BuiltinError::new("len expects a list"))?;
                Ok(Term::Int(items.len() as i64))
            }),
        );
        reg.register_func(
            "reverse",
            Arc::new(|args: &[Term]| {
                let mut items = args
                    .first()
                    .and_then(list_items)
                    .ok_or_else(|| BuiltinError::new("reverse expects a list"))?;
                items.reverse();
                Ok(Term::list(items, None))
            }),
        );
        reg.register_func(
            "append",
            Arc::new(|args: &[Term]| {
                if args.len() != 2 {
                    return Err(BuiltinError::new("append expects two lists"));
                }
                let mut a = list_items(&args[0])
                    .ok_or_else(|| BuiltinError::new("append expects two lists"))?;
                let b = list_items(&args[1])
                    .ok_or_else(|| BuiltinError::new("append expects two lists"))?;
                a.extend(b);
                Ok(Term::list(a, None))
            }),
        );
        reg.register_func(
            "nth",
            Arc::new(|args: &[Term]| {
                let (list, idx) = match args {
                    [l, Term::Int(i)] => (l, *i),
                    _ => return Err(BuiltinError::new("nth expects (list, index)")),
                };
                let items =
                    list_items(list).ok_or_else(|| BuiltinError::new("nth expects a list"))?;
                usize::try_from(idx)
                    .ok()
                    .and_then(|i| items.get(i).cloned())
                    .ok_or_else(|| BuiltinError::new("nth index out of range"))
            }),
        );
        reg.register_pred(
            "member",
            Arc::new(|args: &[Term]| match args {
                [x, l] => {
                    let items = list_items(l)
                        .ok_or_else(|| BuiltinError::new("member expects (x, list)"))?;
                    Ok(items.contains(x))
                }
                _ => Err(BuiltinError::new("member expects (x, list)")),
            }),
        );
    }

    fn report_xyz(t: &Term) -> Option<(f64, f64, f64)> {
        if let Term::App(_, args) = t {
            if args.len() == 3 {
                if let (Some(x), Some(y), Some(tt)) =
                    (args[0].as_f64(), args[1].as_f64(), args[2].as_f64())
                {
                    return Some((x, y, tt));
                }
            }
        }
        None
    }

    /// Register `close(R1, R2, Dmax, Tmax)` and `is_parallel(L1, L2, Tol)`.
    pub fn register_tracking(reg: &mut BuiltinRegistry) {
        reg.register_pred(
            "close",
            Arc::new(|args: &[Term]| {
                if args.len() != 4 {
                    return Err(BuiltinError::new("close expects (R1, R2, Dmax, Tmax)"));
                }
                let (r1, r2) = (
                    report_xyz(&args[0]).ok_or_else(|| BuiltinError::new("bad report"))?,
                    report_xyz(&args[1]).ok_or_else(|| BuiltinError::new("bad report"))?,
                );
                let dmax = args[2]
                    .as_f64()
                    .ok_or_else(|| BuiltinError::new("bad Dmax"))?;
                let tmax = args[3]
                    .as_f64()
                    .ok_or_else(|| BuiltinError::new("bad Tmax"))?;
                let d = ((r1.0 - r2.0).powi(2) + (r1.1 - r2.1).powi(2)).sqrt();
                let dt = r2.2 - r1.2;
                Ok(d <= dmax && dt > 0.0 && dt <= tmax)
            }),
        );
        reg.register_pred(
            "is_parallel",
            Arc::new(|args: &[Term]| {
                if args.len() != 3 {
                    return Err(BuiltinError::new("is_parallel expects (L1, L2, Tol)"));
                }
                let tol = args[2]
                    .as_f64()
                    .ok_or_else(|| BuiltinError::new("bad Tol"))?;
                let dir = |l: &Term| -> Option<(f64, f64)> {
                    let items = l.as_list()?;
                    if items.len() < 2 {
                        return None;
                    }
                    let a = report_xyz(items.first()?)?;
                    let b = report_xyz(items.last()?)?;
                    let (dx, dy) = (b.0 - a.0, b.1 - a.1);
                    let n = (dx * dx + dy * dy).sqrt();
                    if n == 0.0 {
                        None
                    } else {
                        Some((dx / n, dy / n))
                    }
                };
                match (dir(&args[0]), dir(&args[1])) {
                    (Some((x1, y1)), Some((x2, y2))) => {
                        let cross = (x1 * y2 - y1 * x2).abs();
                        Ok(cross <= tol)
                    }
                    _ => Ok(false),
                }
            }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::{flat_eval, FlatSubst};
    use crate::intern;
    use crate::parser::parse_term;

    /// `src` evaluated by the kernel under no bindings, its value resolved.
    fn eval(r: &BuiltinRegistry, src: &str) -> Result<Term, BuiltinError> {
        let t = parse_term(src).unwrap();
        intern::boundary(|| flat_eval(r, &t, &FlatSubst::new()).map(intern::resolve))
    }

    #[test]
    fn arithmetic_int() {
        let r = BuiltinRegistry::standard();
        assert_eq!(eval(&r, "1 + 2 * 3").unwrap(), Term::Int(7));
        assert_eq!(eval(&r, "7 / 2").unwrap(), Term::Int(3));
        assert_eq!(eval(&r, "mod(7, 2)").unwrap(), Term::Int(1));
    }

    /// `min2` / `max2` keep integers integral and promote a mixed pair to
    /// floats, as `add` does; every two-argument built-in names itself in
    /// its arity and type errors, and an integer failure names its operands.
    #[test]
    fn two_argument_builtins_keep_their_types_and_errors() {
        let r = BuiltinRegistry::standard();
        assert_eq!(eval(&r, "min2(3, -2)").unwrap(), Term::Int(-2));
        assert_eq!(eval(&r, "max2(3, -2)").unwrap(), Term::Int(3));
        assert_eq!(eval(&r, "min2(3, 2.5)").unwrap(), Term::float(2.5));
        assert_eq!(eval(&r, "max2(1.5, 2)").unwrap(), Term::float(2.0));
        let err = |src: &str| eval(&r, src).unwrap_err().message;
        assert_eq!(err("max2(1)"), "max2 expects 2 arguments");
        assert_eq!(
            err("min2(a, 1)"),
            "min2 expects numeric arguments, got (a, 1)"
        );
        assert_eq!(err("mod(1, 2, 3)"), "mod expects 2 arguments");
        assert_eq!(err("div(7, 0)"), "div(7, 0) failed");
    }

    /// `i64::MIN` has no negation or absolute value in `i64`: both are
    /// errors, as `add`'s overflow is, not a panic or a negative `abs`. A
    /// rule reaches it through `sub(sub(0, 9223372036854775807), 1)`.
    #[test]
    fn neg_and_abs_of_the_least_int_error() {
        let r = BuiltinRegistry::standard();
        let min = "sub(sub(0, 9223372036854775807), 1)";
        assert_eq!(eval(&r, min).unwrap(), Term::Int(i64::MIN));
        for f in ["neg", "abs"] {
            let err = eval(&r, &format!("{f}({min})")).unwrap_err();
            assert_eq!(err.message, format!("{f}(-9223372036854775808) failed"));
        }
        let max = Term::Int(i64::MAX);
        assert_eq!(
            eval(&r, "neg(9223372036854775807)").unwrap(),
            Term::Int(-i64::MAX)
        );
        assert_eq!(eval(&r, "abs(neg(9223372036854775807))").unwrap(), max);
    }

    #[test]
    fn custom_predicate_roundtrip() {
        let mut r = BuiltinRegistry::standard();
        r.register_pred(
            "even",
            Arc::new(|args: &[Term]| match args {
                [Term::Int(i)] => Ok(i % 2 == 0),
                _ => Err(BuiltinError::new("even expects an int")),
            }),
        );
        assert!(r.is_pred(Symbol::intern("even")));
        assert!(r
            .call_pred(Symbol::intern("even"), &[Term::Int(4)])
            .unwrap());
        assert!(!r
            .call_pred(Symbol::intern("even"), &[Term::Int(3)])
            .unwrap());
    }

    #[test]
    fn list_builtins() {
        let mut r = BuiltinRegistry::standard();
        stdlib::register_lists(&mut r);
        let l = parse_term("[1, 2, 3]").unwrap();
        let ok = |src: &str| eval(&r, src).unwrap();
        assert_eq!(ok("first([1, 2, 3])"), Term::Int(1));
        assert_eq!(ok("last([1, 2, 3])"), Term::Int(3));
        assert_eq!(ok("len([1, 2, 3])"), Term::Int(3));
        assert_eq!(ok("len([])"), Term::Int(0));
        assert_eq!(ok("reverse([1, 2, 3])"), parse_term("[3, 2, 1]").unwrap());
        assert_eq!(ok("append([1], [2, 3])"), parse_term("[1, 2, 3]").unwrap());
        assert_eq!(ok("nth([1, 2, 3], 1)"), Term::Int(2));
        assert!(eval(&r, "nth([1], 5)").is_err());
        assert!(eval(&r, "first([])").is_err());
        let member = Symbol::intern("member");
        assert!(r.call_pred(member, &[Term::Int(2), l.clone()]).unwrap());
        assert!(!r.call_pred(member, &[Term::Int(9), l]).unwrap());
    }

    #[test]
    fn list_builtins_in_rules() {
        use crate::parser::parse_rule;
        let mut r = BuiltinRegistry::standard();
        stdlib::register_lists(&mut r);
        // `member` used as a body predicate resolves to a builtin.
        let rule = parse_rule("q(X) :- p(X, L), member(X, L).").unwrap();
        let resolved = crate::safety::resolve_builtins(&rule, &r);
        assert!(matches!(resolved.body[1], crate::ast::Literal::Builtin(_)));
    }

    #[test]
    fn tracking_builtins() {
        let mut r = BuiltinRegistry::standard();
        stdlib::register_tracking(&mut r);
        let r1 = parse_term("r(0, 0, 0)").unwrap();
        let r2 = parse_term("r(1, 0, 1)").unwrap();
        let far = parse_term("r(100, 0, 1)").unwrap();
        let close = Symbol::intern("close");
        assert!(r
            .call_pred(close, &[r1.clone(), r2, Term::Int(5), Term::Int(2)])
            .unwrap());
        assert!(!r
            .call_pred(close, &[r1, far, Term::Int(5), Term::Int(2)])
            .unwrap());

        let l1 = parse_term("[r(0,0,0), r(1,0,1)]").unwrap();
        let l2 = parse_term("[r(0,5,0), r(1,5,1)]").unwrap();
        let l3 = parse_term("[r(0,0,0), r(0,1,1)]").unwrap();
        let is_par = Symbol::intern("is_parallel");
        assert!(r
            .call_pred(is_par, &[l1.clone(), l2, Term::float(0.01)])
            .unwrap());
        assert!(!r.call_pred(is_par, &[l1, l3, Term::float(0.01)]).unwrap());
    }
}
