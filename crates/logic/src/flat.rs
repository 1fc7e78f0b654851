//! Flat evaluation kernel: substitutions, interpreted evaluation, semantic
//! matching and comparisons over interned [`ConstId`]s.
//!
//! This is the one matcher and evaluator of ground terms, and the one
//! implementation of the system functions ([`Op`]) and of comparison: every
//! engine, every node and every aggregate evaluate through it. It touches
//! only pool entries, so the fixpoint inner loop performs zero id → `Term`
//! resolves. Cold paths (user procedural functions, error-message
//! construction) resolve inside an [`intern::boundary`] scope.

use crate::ast::CmpOp;
use crate::builtin::{BuiltinError, BuiltinRegistry, Func, FuncImpl, Op};
use crate::intern::{self, ConstId, Val};
use crate::symbol::Symbol;
use crate::term::{Term, F64};
use crate::unify::Subst;
use std::cmp::Ordering;

/// Inline binding capacity: rule bodies rarely bind more than this many
/// variables, so the common-case clone is a plain memcpy with no heap
/// traffic at all — the per-candidate cost the boxed `HashMap` substitution
/// paid on every probe result.
const INLINE: usize = 8;

/// A binding of variables to interned constants — the hot-path substitution.
/// Backed by an inline association array of `INLINE` (8) slots with a spill
/// vector for pathological rules, so cloning per candidate never allocates
/// in the common case.
#[derive(Clone, PartialEq)]
pub struct FlatSubst {
    len: u32,
    inline: [(Symbol, ConstId); INLINE],
    spill: Vec<(Symbol, ConstId)>,
}

impl Default for FlatSubst {
    fn default() -> FlatSubst {
        FlatSubst {
            len: 0,
            inline: [(Symbol::from_raw(0), 0); INLINE],
            spill: Vec::new(),
        }
    }
}

impl std::fmt::Debug for FlatSubst {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl FlatSubst {
    pub fn new() -> FlatSubst {
        FlatSubst::default()
    }

    #[inline]
    fn filled(&self) -> usize {
        (self.len as usize).min(INLINE)
    }

    #[inline]
    pub fn get(&self, v: Symbol) -> Option<ConstId> {
        for &(s, id) in &self.inline[..self.filled()] {
            if s == v {
                return Some(id);
            }
        }
        self.spill.iter().find(|(s, _)| *s == v).map(|(_, id)| *id)
    }

    #[inline]
    pub fn is_bound(&self, v: Symbol) -> bool {
        self.get(v).is_some()
    }

    pub fn bind(&mut self, v: Symbol, id: ConstId) {
        let n = self.filled();
        for slot in &mut self.inline[..n] {
            if slot.0 == v {
                slot.1 = id;
                return;
            }
        }
        for slot in &mut self.spill {
            if slot.0 == v {
                slot.1 = id;
                return;
            }
        }
        if n < INLINE {
            self.inline[n] = (v, id);
        } else {
            self.spill.push((v, id));
        }
        self.len += 1;
    }

    pub fn len(&self) -> usize {
        self.len as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn iter(&self) -> impl Iterator<Item = (Symbol, ConstId)> + '_ {
        self.inline[..self.filled()]
            .iter()
            .copied()
            .chain(self.spill.iter().copied())
    }

    /// Materialize as a boxed [`Subst`] (counted resolves — boundary callers
    /// such as a why-not report's text should wrap in [`intern::boundary`]).
    pub fn to_subst(&self) -> Subst {
        let mut s = Subst::new();
        for (v, id) in self.iter() {
            s.bind(v, intern::resolve(id));
        }
        s
    }
}

/// True when every variable of `t` is bound — i.e. the boxed
/// `subst.apply(t).is_ground()`.
pub fn flat_is_ground(t: &Term, s: &FlatSubst) -> bool {
    match t {
        Term::Var(v) => s.is_bound(*v),
        Term::App(_, args) => args.iter().all(|a| flat_is_ground(a, s)),
        _ => true,
    }
}

/// What an interpreted application evaluates to, before it enters the
/// pool: a comparison reads a number out of it and drops it
/// ([`flat_compare`]), everyone else interns it ([`apply_func`]).
enum Applied {
    Int(i64),
    Float(f64),
    /// Any other value, interned.
    Id(ConstId),
}

impl Applied {
    fn intern(self) -> ConstId {
        match self {
            Applied::Int(i) => intern::intern_int(i),
            Applied::Float(x) => intern::intern_float(F64::new(x)),
            Applied::Id(id) => id,
        }
    }

    /// Numeric view, mirroring [`Val::as_f64`].
    fn as_f64(&self) -> Option<f64> {
        match self {
            Applied::Int(i) => Some(*i as f64),
            Applied::Float(x) => Some(*x),
            Applied::Id(id) => intern::entry(*id).val.as_f64(),
        }
    }
}

/// A procedural function: called on the resolved children at the boxed
/// boundary, its value interned unless it is a number.
fn call_boxed(f: &FuncImpl, kids: &[ConstId]) -> Result<Applied, BuiltinError> {
    let out = intern::boundary(|| f(&intern::resolve_slice(kids)))?;
    Ok(match out {
        Term::Int(i) => Applied::Int(i),
        Term::Float(x) => Applied::Float(x.get()),
        out => Applied::Id(
            intern::intern_term(&out).expect("builtin function returned non-ground term"),
        ),
    })
}

/// `{name} {what}, got (a, b)`: a type error naming its operands, which
/// are resolved at the boundary.
fn type_error(name: &str, what: &str, kids: &[ConstId]) -> BuiltinError {
    let args = intern::boundary(|| intern::resolve_slice(kids));
    let args: Vec<String> = args.iter().map(Term::to_string).collect();
    BuiltinError::new(format!("{name} {what}, got ({})", args.join(", ")))
}

/// A one-argument system function: `int` over an integer (`None`: it
/// overflowed), `float` over a float.
fn unary(
    name: &str,
    kids: &[ConstId],
    int: fn(i64) -> Option<i64>,
    float: fn(f64) -> f64,
) -> Result<Applied, BuiltinError> {
    let val = match *kids {
        [k] => Some(&intern::entry(k).val),
        _ => None,
    };
    match val {
        Some(Val::Int(i)) => (int(*i).map(Applied::Int))
            .ok_or_else(|| BuiltinError::new(format!("{name}({i}) failed"))),
        Some(Val::Float(x)) => Ok(Applied::Float(float(x.get()))),
        _ => Err(BuiltinError::new(format!(
            "{name} expects one numeric argument"
        ))),
    }
}

/// A two-argument system function: `int` over two integers (`None`: it
/// failed), `float` over floats once either argument is one.
fn binary(
    name: &str,
    kids: &[ConstId],
    int: fn(i64, i64) -> Option<i64>,
    float: fn(f64, f64) -> f64,
) -> Result<Applied, BuiltinError> {
    let &[a, b] = kids else {
        return Err(BuiltinError::new(format!("{name} expects 2 arguments")));
    };
    let (a, b) = (&intern::entry(a).val, &intern::entry(b).val);
    if let (Val::Int(x), Val::Int(y)) = (a, b) {
        return (int(*x, *y).map(Applied::Int))
            .ok_or_else(|| BuiltinError::new(format!("{name}({x}, {y}) failed")));
    }
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => Ok(Applied::Float(float(x, y))),
        _ => Err(type_error(name, "expects numeric arguments", kids)),
    }
}

/// `(x, y)` of a `loc(x, y)` point, or of any 2-ary numeric application.
fn point(v: &Val) -> Option<(f64, f64)> {
    match v {
        Val::App(_, kids) => match **kids {
            [x, y] => Some((
                intern::entry(x).val.as_f64()?,
                intern::entry(y).val.as_f64()?,
            )),
            _ => None,
        },
        _ => None,
    }
}

/// `dist`: between two points, or between two numbers.
fn dist(kids: &[ConstId]) -> Result<Applied, BuiltinError> {
    let &[a, b] = kids else {
        return Err(BuiltinError::new("dist expects 2 arguments"));
    };
    let (a, b) = (&intern::entry(a).val, &intern::entry(b).val);
    if let (Some((x1, y1)), Some((x2, y2))) = (point(a), point(b)) {
        return Ok(Applied::Float(
            ((x1 - x2).powi(2) + (y1 - y2).powi(2)).sqrt(),
        ));
    }
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => Ok(Applied::Float((x - y).abs())),
        _ => Err(type_error("dist", "expects points or numbers", kids)),
    }
}

/// Run the interpreted function `func` on evaluated children.
fn apply_interpreted(func: &Func, kids: &[ConstId]) -> Result<Applied, BuiltinError> {
    let op = match func {
        Func::Native(op) => *op,
        Func::Boxed(f) => return call_boxed(f, kids),
    };
    let name = op.name();
    match op {
        Op::Add => binary(name, kids, i64::checked_add, |a, b| a + b),
        Op::Sub => binary(name, kids, i64::checked_sub, |a, b| a - b),
        Op::Mul => binary(name, kids, i64::checked_mul, |a, b| a * b),
        Op::Div => binary(name, kids, i64::checked_div, |a, b| a / b),
        Op::Mod => binary(name, kids, i64::checked_rem, |a, b| a % b),
        Op::Min2 => binary(name, kids, |a, b| Some(a.min(b)), f64::min),
        Op::Max2 => binary(name, kids, |a, b| Some(a.max(b)), f64::max),
        Op::Neg => unary(name, kids, i64::checked_neg, |x| -x),
        Op::Abs => unary(name, kids, i64::checked_abs, f64::abs),
        Op::Dist => dist(kids),
    }
}

/// Apply function symbol `f` to evaluated children: interpreted functions
/// run, uninterpreted constructors intern as `App` values.
fn apply_func(
    reg: &BuiltinRegistry,
    f: Symbol,
    kids: Vec<ConstId>,
) -> Result<ConstId, BuiltinError> {
    match reg.func(f) {
        Some(func) => Ok(apply_interpreted(func, &kids)?.intern()),
        None => Ok(intern::intern_app(f, kids)),
    }
}

/// Re-evaluate an interned value bottom-up (stored EDB values may contain
/// interpreted applications inserted raw, e.g. a fact `p(add(1, 2))`; the
/// boxed path re-evaluates them on every substitution). Values without
/// interpreted symbols — the overwhelmingly common case — return their own
/// id without allocating.
pub fn eval_id(reg: &BuiltinRegistry, id: ConstId) -> Result<ConstId, BuiltinError> {
    match &intern::entry(id).val {
        Val::App(f, kids) => {
            let mut new_kids = Vec::with_capacity(kids.len());
            let mut changed = false;
            for &k in kids.iter() {
                let nk = eval_id(reg, k)?;
                changed |= nk != k;
                new_kids.push(nk);
            }
            match reg.func(*f) {
                Some(func) => Ok(apply_interpreted(func, &new_kids)?.intern()),
                None if !changed => Ok(id),
                None => Ok(intern::intern_app(*f, new_kids)),
            }
        }
        _ => Ok(id),
    }
}

/// Evaluate a pattern term under a flat substitution: `t` with its
/// variables replaced by their bindings, its interpreted applications run.
/// All variables must be bound.
pub fn flat_eval(reg: &BuiltinRegistry, t: &Term, s: &FlatSubst) -> Result<ConstId, BuiltinError> {
    match t {
        Term::Int(n) => Ok(intern::intern_int(*n)),
        Term::Float(f) => Ok(intern::intern_float(*f)),
        Term::Str(x) => Ok(intern::intern_str(*x)),
        Term::Atom(x) => Ok(intern::intern_atom(*x)),
        Term::Var(v) => match s.get(*v) {
            Some(id) => eval_id(reg, id),
            None => Err(BuiltinError::new(format!(
                "cannot evaluate unbound variable {v}"
            ))),
        },
        Term::App(f, args) => apply_func(reg, *f, eval_args(reg, args, s)?),
    }
}

fn eval_args(
    reg: &BuiltinRegistry,
    args: &[Term],
    s: &FlatSubst,
) -> Result<Vec<ConstId>, BuiltinError> {
    let mut kids = Vec::with_capacity(args.len());
    for a in args {
        kids.push(flat_eval(reg, a, s)?);
    }
    Ok(kids)
}

/// One side of a comparison: [`flat_eval`], except that what an interpreted
/// application at the top evaluates to — the `dist(L, F)` of
/// `dist(L, F) <= 8` — stays out of the pool. The pool is append-only, and
/// a join tests one such value per candidate pair.
fn flat_operand(reg: &BuiltinRegistry, t: &Term, s: &FlatSubst) -> Result<Applied, BuiltinError> {
    if let Term::App(f, args) = t {
        if let Some(func) = reg.func(*f) {
            return apply_interpreted(func, &eval_args(reg, args, s)?);
        }
    }
    flat_eval(reg, t, s).map(Applied::Id)
}

/// Evaluate a comparison between two pattern terms under a flat
/// substitution, the one comparison: numeric comparisons widen to floats;
/// everything else uses the value order (= boxed `Term` order, via
/// `intern::cmp_ids`).
pub fn flat_compare(
    reg: &BuiltinRegistry,
    op: CmpOp,
    l: &Term,
    r: &Term,
    s: &FlatSubst,
) -> Result<bool, BuiltinError> {
    let l = flat_operand(reg, l, s)?;
    let r = flat_operand(reg, r, s)?;
    let ord = match (l.as_f64(), r.as_f64()) {
        (Some(a), Some(b)) => a.partial_cmp(&b).unwrap_or(Ordering::Greater),
        _ => intern::cmp_ids(l.intern(), r.intern()),
    };
    Ok(match op {
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::Ne => ord != Ordering::Equal,
    })
}

enum ArgView {
    UnboundVar(Symbol),
    Lit(i64),
    Other,
}

fn arg_view(a: &Term, s: &FlatSubst) -> ArgView {
    match a {
        Term::Var(v) => match s.get(*v) {
            None => ArgView::UnboundVar(*v),
            Some(id) => match intern::entry(id).val {
                Val::Int(k) => ArgView::Lit(k),
                _ => ArgView::Other,
            },
        },
        Term::Int(k) => ArgView::Lit(*k),
        _ => ArgView::Other,
    }
}

/// Solve a 2-ary `add` / `sub` pattern against the integer `n`: its one
/// unbound variable binds when the other argument is an integer.
fn solve_linear(op: Op, n: i64, args: &[Term], s: &mut FlatSubst) -> bool {
    let [l, r] = args else {
        return false;
    };
    let (v, x) = match (op, arg_view(l, s), arg_view(r, s)) {
        (Op::Add, ArgView::UnboundVar(v), ArgView::Lit(k))
        | (Op::Add, ArgView::Lit(k), ArgView::UnboundVar(v)) => (v, n.checked_sub(k)),
        (Op::Sub, ArgView::UnboundVar(v), ArgView::Lit(k)) => (v, n.checked_add(k)),
        _ => return false,
    };
    x.is_some_and(|x| {
        s.bind(v, intern::intern_int(x));
        true
    })
}

/// Semantic pattern match against an interned value, the one matcher of
/// every body-literal walk: ground (under `s`) patterns are evaluated and
/// compared by id; an unbound variable binds; 2-ary patterns of the
/// system `add` / `sub` ([`Op::Add`], [`Op::Sub`]) against an integer
/// solve linearly; uninterpreted applications descend structurally.
pub fn flat_match(reg: &BuiltinRegistry, pat: &Term, vid: ConstId, s: &mut FlatSubst) -> bool {
    // Variable patterns — the overwhelmingly common case in rule bodies —
    // need one binding lookup, not the ground-walk + re-lookup below.
    if let Term::Var(v) = pat {
        return match s.get(*v) {
            Some(b) => match eval_id(reg, b) {
                Ok(id) => id == vid,
                Err(_) => false,
            },
            None => {
                s.bind(*v, vid);
                true
            }
        };
    }
    if flat_is_ground(pat, s) {
        return match flat_eval(reg, pat, s) {
            Ok(id) => id == vid,
            Err(_) => false,
        };
    }
    match pat {
        Term::Var(v) => {
            // Non-ground, so `v` is unbound.
            s.bind(*v, vid);
            true
        }
        Term::App(f, pargs) => match (&intern::entry(vid).val, reg.func(*f)) {
            (Val::Int(n), Some(Func::Native(op))) => solve_linear(*op, *n, pargs, s),
            (Val::App(g, vids), None) if f == g && pargs.len() == vids.len() => pargs
                .iter()
                .zip(vids.iter())
                .all(|(pp, &vv)| flat_match(reg, pp, vv, s)),
            _ => false,
        },
        // Scalar patterns are ground and were handled above.
        _ => false,
    }
}

/// [`flat_match`] over an argument list.
pub fn flat_match_args(
    reg: &BuiltinRegistry,
    pats: &[Term],
    vids: &[ConstId],
    s: &mut FlatSubst,
) -> bool {
    pats.len() == vids.len()
        && pats
            .iter()
            .zip(vids.iter())
            .all(|(p, &v)| flat_match(reg, p, v, s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_term;

    fn reg() -> BuiltinRegistry {
        BuiltinRegistry::standard()
    }

    fn id_of(t: &Term) -> ConstId {
        intern::intern_term(t).unwrap()
    }

    /// `X = 7`, `F = 2.5`.
    fn seven_and_a_half() -> FlatSubst {
        let mut s = FlatSubst::new();
        s.bind(Symbol::intern("X"), intern::intern_int(7));
        s.bind(Symbol::intern("F"), id_of(&Term::float(2.5)));
        s
    }

    #[test]
    fn flat_eval_pins_values() {
        let r = reg();
        let s = seven_and_a_half();
        for (src, want) in [
            ("X + 1", "8"),
            ("X * X", "49"),
            ("X - 10", "-3"),
            ("X / 2", "3"),
            ("mod(X, 3)", "1"),
            ("neg(X)", "-7"),
            ("neg(F)", "-2.5"),
            ("abs(0 - X)", "7"),
            ("min2(X, 3)", "3"),
            ("max2(X, F)", "7.0"),
            ("X + F", "9.5"),
            ("X / 2.0", "3.5"),
            ("loc(X + 1, 2)", "loc(8, 2)"),
            ("[X, 2]", "[7, 2]"),
            // `dist` over points, over ints, and over an int and a float.
            ("dist(loc(0, 0), loc(3, 4))", "5.0"),
            ("dist(loc(X, 0), loc(X, F))", "2.5"),
            ("dist(10, X)", "3.0"),
            ("dist(X, F)", "4.5"),
        ] {
            let got = flat_eval(&r, &parse_term(src).unwrap(), &s).unwrap();
            assert_eq!(intern::resolve(got), parse_term(want).unwrap(), "{src}");
        }
        // `dist` is bit-exact: the square root of the summed squares.
        let t = parse_term("dist(loc(0, 0), loc(1, 1))").unwrap();
        let got = intern::entry(flat_eval(&r, &t, &s).unwrap()).val.as_f64();
        assert_eq!(got.map(f64::to_bits), Some(2f64.sqrt().to_bits()));
    }

    #[test]
    fn flat_eval_pins_error_texts() {
        let r = reg();
        let s = seven_and_a_half();
        for (src, want) in [
            ("1 / 0", "div(1, 0) failed"),
            ("mod(2, 0)", "mod(2, 0) failed"),
            ("add(a, 1)", "add expects numeric arguments, got (a, 1)"),
            ("max2(1)", "max2 expects 2 arguments"),
            ("neg(a)", "neg expects one numeric argument"),
            ("abs(1, 2)", "abs expects one numeric argument"),
            ("Y + 1", "cannot evaluate unbound variable Y"),
            // `dist` of a point and a number, and of one argument.
            (
                "dist(loc(X, 0), F)",
                "dist expects points or numbers, got (loc(7, 0), 2.5)",
            ),
            ("dist(X)", "dist expects 2 arguments"),
            (
                "add(9223372036854775807, 1)",
                "add(9223372036854775807, 1) failed",
            ),
        ] {
            let err = flat_eval(&r, &parse_term(src).unwrap(), &s).unwrap_err();
            assert_eq!(err.message, want, "{src}");
        }
    }

    /// `i64::MIN` has no negation or absolute value in `i64`: the kernel
    /// returns the error every evaluation path reports, and does not panic.
    #[test]
    fn neg_and_abs_of_the_least_int_are_errors() {
        let r = reg();
        let mut s = FlatSubst::new();
        s.bind(Symbol::intern("X"), intern::intern_int(i64::MIN));
        for f in ["neg", "abs"] {
            let t = parse_term(&format!("{f}(X)")).unwrap();
            let err = flat_eval(&r, &t, &s).unwrap_err();
            assert_eq!(err.message, format!("{f}(-9223372036854775808) failed"));
            let le = flat_compare(&r, CmpOp::Le, &t, &Term::Int(0), &s);
            assert_eq!(le.unwrap_err(), err, "a comparison operand fails alike");
        }
        let t = parse_term("X / -1").unwrap();
        let err = flat_eval(&r, &t, &s).unwrap_err();
        assert_eq!(err.message, "div(-9223372036854775808, -1) failed");
    }

    /// A procedural `add` registered over the system one is what every
    /// evaluation runs, and a pattern of it is no longer solved as linear.
    #[test]
    fn a_reregistered_add_is_what_evaluation_uses() {
        let mut r = reg();
        r.register_func(
            "add",
            std::sync::Arc::new(|args: &[Term]| Ok(Term::app("sum", args.to_vec()))),
        );
        let s = seven_and_a_half();
        let got = flat_eval(&r, &parse_term("X + 1").unwrap(), &s).unwrap();
        assert_eq!(intern::resolve(got), parse_term("sum(7, 1)").unwrap());
        let ground = flat_eval(&r, &parse_term("add(1, 2)").unwrap(), &FlatSubst::new());
        assert_eq!(
            intern::resolve(ground.unwrap()),
            parse_term("sum(1, 2)").unwrap()
        );
        let raw = id_of(&Term::app("add", vec![Term::Int(1), Term::Int(2)]));
        assert_eq!(
            intern::resolve(eval_id(&r, raw).unwrap()),
            parse_term("sum(1, 2)").unwrap()
        );
        // `D + 1` against 3: the system `add` binds D = 2; this one does not.
        let pat = parse_term("D + 1").unwrap();
        assert!(flat_match(
            &reg(),
            &pat,
            intern::intern_int(3),
            &mut FlatSubst::new()
        ));
        let mut open = FlatSubst::new();
        assert!(!flat_match(&r, &pat, intern::intern_int(3), &mut open));
        assert!(open.is_empty());
        // Nor is it a constructor a stored `add(1, 2)` descends into.
        assert!(!flat_match(
            &r,
            &parse_term("add(A, 2)").unwrap(),
            raw,
            &mut open
        ));
    }

    #[test]
    fn stored_interpreted_values_reevaluate() {
        // A raw EDB value add(1, 2): the boxed path re-evaluates it after
        // substitution; eval_id must do the same.
        let r = reg();
        let raw = id_of(&Term::app("add", vec![Term::Int(1), Term::Int(2)]));
        assert_eq!(eval_id(&r, raw).unwrap(), intern::intern_int(3));
        // Constructor values are fixpoints and keep their id.
        let v = id_of(&Term::app("loc", vec![Term::Int(1), Term::Int(2)]));
        assert_eq!(eval_id(&r, v).unwrap(), v);
    }

    #[test]
    fn flat_compare_widens_and_falls_back_to_term_order() {
        let r = reg();
        let s = FlatSubst::new();
        let cases = [
            (CmpOp::Le, "1", "1.0", true),
            (CmpOp::Eq, "1", "1.0", true),
            (CmpOp::Lt, "1", "2", true),
            (CmpOp::Gt, "1", "2", false),
            (CmpOp::Ne, "a", "b", true),
            (CmpOp::Lt, "2 + 2", "5", true),
            // Uninterned results: numeric against numeric, and against a
            // value only the pool orders.
            (CmpOp::Ge, "2 + 2", "8 / 2.0", true),
            (CmpOp::Lt, "abs(1 - 4)", "3.5", true),
            (CmpOp::Ne, "2 + 2", "a", true),
            (CmpOp::Eq, "max2(1, 2)", "a", false),
        ];
        for (op, l, rr, want) in cases {
            let (lt, rt) = (parse_term(l).unwrap(), parse_term(rr).unwrap());
            assert_eq!(
                flat_compare(&r, op, &lt, &rt, &s).unwrap(),
                want,
                "{l} {op:?} {rr}"
            );
        }
    }

    #[test]
    fn flat_match_binds_solves_and_descends() {
        let r = reg();
        // Plain binding.
        let mut s = FlatSubst::new();
        assert!(flat_match(
            &r,
            &Term::var("X"),
            intern::intern_int(5),
            &mut s
        ));
        assert_eq!(s.get(Symbol::intern("X")), Some(intern::intern_int(5)));
        // Respect existing binding through the ground-eval branch.
        assert!(flat_match(
            &r,
            &Term::var("X"),
            intern::intern_int(5),
            &mut s
        ));
        assert!(!flat_match(
            &r,
            &Term::var("X"),
            intern::intern_int(6),
            &mut s
        ));
        // Linear solve: D + 1 against 3 binds D = 2.
        let mut s = FlatSubst::new();
        let pat = parse_term("D + 1").unwrap();
        assert!(flat_match(&r, &pat, intern::intern_int(3), &mut s));
        assert_eq!(s.get(Symbol::intern("D")), Some(intern::intern_int(2)));
        // Structural descent on constructors.
        let mut s = FlatSubst::new();
        let pat = parse_term("loc(X, 2)").unwrap();
        let v = id_of(&Term::app("loc", vec![Term::Int(9), Term::Int(2)]));
        assert!(flat_match(&r, &pat, v, &mut s));
        assert_eq!(s.get(Symbol::intern("X")), Some(intern::intern_int(9)));
        // Mismatched constructor.
        let w = id_of(&Term::app("pos", vec![Term::Int(9), Term::Int(2)]));
        let mut s = FlatSubst::new();
        assert!(!flat_match(&r, &pat, w, &mut s));
    }

    /// A repeated variable matches equal values only, and a value of
    /// another shape or constant does not match at all.
    #[test]
    fn flat_match_args_is_nonlinear_and_structural() {
        let r = reg();
        let pats = [parse_term("f(X, X)").unwrap(), Term::Int(1)];
        let at = |src: &str| [id_of(&parse_term(src).unwrap()), intern::intern_int(1)];
        let mut s = FlatSubst::new();
        assert!(flat_match_args(&r, &pats, &at("f(1, 1)"), &mut s));
        assert_eq!(s.get(Symbol::intern("X")), Some(intern::intern_int(1)));
        for miss in ["f(1, 2)", "g(1, 1)", "f(1)"] {
            assert!(
                !flat_match_args(&r, &pats, &at(miss), &mut FlatSubst::new()),
                "{miss}"
            );
        }
        let two = [
            id_of(&parse_term("f(1, 1)").unwrap()),
            intern::intern_int(2),
        ];
        assert!(!flat_match_args(&r, &pats, &two, &mut FlatSubst::new()));
        assert!(!flat_match_args(
            &r,
            &pats[..1],
            &two,
            &mut FlatSubst::new()
        ));
    }

    #[test]
    fn to_subst_resolves_every_binding() {
        let mut f = FlatSubst::new();
        f.bind(Symbol::intern("A"), intern::intern_int(1));
        let loc = Term::app("loc", vec![Term::Int(2), Term::Int(3)]);
        f.bind(Symbol::intern("B"), id_of(&loc));
        let boxed = intern::boundary(|| f.to_subst());
        assert_eq!(boxed.len(), 2);
        assert_eq!(boxed.get(Symbol::intern("A")), Some(&Term::Int(1)));
        assert_eq!(boxed.get(Symbol::intern("B")), Some(&loc));
    }
}
