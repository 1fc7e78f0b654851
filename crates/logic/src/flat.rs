//! Flat evaluation kernel: substitutions, interpreted evaluation, semantic
//! matching and comparisons over interned [`ConstId`]s.
//!
//! This is the id-space mirror of the boxed machinery ([`crate::unify`] +
//! [`BuiltinRegistry::eval_term`]; the boxed semantic matcher survives only
//! as the oracle of `eval/tests/match_parity.rs`): every function here
//! reproduces its boxed counterpart's semantics *exactly* —
//! same results, same error cases — while touching only pool entries, so
//! the fixpoint inner loop performs zero id → `Term` resolves. Cold paths
//! (non-arithmetic builtin functions, error-message construction) fall back
//! to the boxed implementations inside an [`intern::boundary`] scope, which
//! also guarantees error strings stay byte-identical.
//!
//! Caveat: the arithmetic fast path dispatches on the *names*
//! `add sub mul div mod neg abs min2 max2`; re-registering those standard
//! names with different semantics is unsupported (nothing in-tree does).

use crate::ast::CmpOp;
use crate::builtin::{BuiltinError, BuiltinRegistry};
use crate::intern::{self, ConstId, Val};
use crate::symbol::Symbol;
use crate::term::{Term, F64};
use crate::unify::Subst;
use std::cmp::Ordering;
use std::sync::OnceLock;

/// Inline binding capacity: rule bodies rarely bind more than this many
/// variables, so the common-case clone is a plain memcpy with no heap
/// traffic at all — the per-candidate cost the boxed `HashMap` substitution
/// paid on every probe result.
const INLINE: usize = 8;

/// A binding of variables to interned constants — the hot-path substitution.
/// Backed by an inline association array of [`INLINE`] slots with a spill
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
    /// such as lineage export should wrap in [`intern::boundary`]).
    pub fn to_subst(&self) -> Subst {
        let mut s = Subst::new();
        for (v, id) in self.iter() {
            s.bind(v, intern::resolve(id));
        }
        s
    }

    /// Intern a boxed substitution. Returns `None` if any binding is
    /// non-ground (flat bindings are ground by construction).
    pub fn from_subst(s: &Subst) -> Option<FlatSubst> {
        let mut out = FlatSubst::new();
        for (v, t) in s.iter() {
            out.bind(*v, intern::intern_term(t)?);
        }
        Some(out)
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

struct ArithSyms {
    add: Symbol,
    sub: Symbol,
    mul: Symbol,
    div: Symbol,
    modulo: Symbol,
    neg: Symbol,
    abs: Symbol,
    min2: Symbol,
    max2: Symbol,
}

fn arith_syms() -> &'static ArithSyms {
    static SYMS: OnceLock<ArithSyms> = OnceLock::new();
    SYMS.get_or_init(|| ArithSyms {
        add: Symbol::intern("add"),
        sub: Symbol::intern("sub"),
        mul: Symbol::intern("mul"),
        div: Symbol::intern("div"),
        modulo: Symbol::intern("mod"),
        neg: Symbol::intern("neg"),
        abs: Symbol::intern("abs"),
        min2: Symbol::intern("min2"),
        max2: Symbol::intern("max2"),
    })
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

/// Boxed fallback for interpreted functions outside the arithmetic fast
/// path (`dist`, list builtins, user functions) and for their error cases —
/// the procedural-builtin boundary.
fn call_boxed(reg: &BuiltinRegistry, f: Symbol, kids: &[ConstId]) -> Result<Applied, BuiltinError> {
    let out = intern::boundary(|| {
        let args: Vec<Term> = intern::resolve_slice(kids);
        reg.call_func(f, &args)
            .expect("call_boxed on unregistered function")
    })?;
    Ok(match out {
        Term::Int(i) => Applied::Int(i),
        Term::Float(x) => Applied::Float(x.get()),
        out => Applied::Id(
            intern::intern_term(&out).expect("builtin function returned non-ground term"),
        ),
    })
}

fn arith2(
    reg: &BuiltinRegistry,
    f: Symbol,
    name: &'static str,
    kids: &[ConstId],
    ff: fn(f64, f64) -> f64,
    gg: fn(i64, i64) -> Option<i64>,
) -> Result<Applied, BuiltinError> {
    if kids.len() != 2 {
        return call_boxed(reg, f, kids); // exact arity error message
    }
    let (a, b) = (&intern::entry(kids[0]).val, &intern::entry(kids[1]).val);
    if let (Val::Int(x), Val::Int(y)) = (a, b) {
        return match gg(*x, *y) {
            Some(v) => Ok(Applied::Int(v)),
            None => Err(BuiltinError::new(format!("{name}({x}, {y}) failed"))),
        };
    }
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => Ok(Applied::Float(ff(x, y))),
        _ => call_boxed(reg, f, kids), // exact type error message
    }
}

fn minmax2(
    reg: &BuiltinRegistry,
    f: Symbol,
    kids: &[ConstId],
    int_pick: fn(i64, i64) -> i64,
    float_pick: fn(f64, f64) -> f64,
) -> Result<Applied, BuiltinError> {
    if kids.len() != 2 {
        return call_boxed(reg, f, kids);
    }
    let (a, b) = (&intern::entry(kids[0]).val, &intern::entry(kids[1]).val);
    if let (Val::Int(x), Val::Int(y)) = (a, b) {
        return Ok(Applied::Int(int_pick(*x, *y)));
    }
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => Ok(Applied::Float(float_pick(x, y))),
        _ => call_boxed(reg, f, kids),
    }
}

/// Apply function symbol `f` to evaluated children: interpreted functions
/// run (arithmetic natively, others via the boxed boundary), uninterpreted
/// constructors intern as `App` values — exactly
/// [`BuiltinRegistry::eval_term`]'s application step.
fn apply_func(
    reg: &BuiltinRegistry,
    f: Symbol,
    kids: Vec<ConstId>,
) -> Result<ConstId, BuiltinError> {
    if !reg.is_func(f) {
        return Ok(intern::intern_app(f, kids));
    }
    Ok(apply_interpreted(reg, f, &kids)?.intern())
}

/// Run the interpreted function `f` on evaluated children.
fn apply_interpreted(
    reg: &BuiltinRegistry,
    f: Symbol,
    kids: &[ConstId],
) -> Result<Applied, BuiltinError> {
    let o = arith_syms();
    if f == o.add {
        arith2(reg, f, "add", kids, |a, b| a + b, |a, b| a.checked_add(b))
    } else if f == o.sub {
        arith2(reg, f, "sub", kids, |a, b| a - b, |a, b| a.checked_sub(b))
    } else if f == o.mul {
        arith2(reg, f, "mul", kids, |a, b| a * b, |a, b| a.checked_mul(b))
    } else if f == o.div {
        arith2(
            reg,
            f,
            "div",
            kids,
            |a, b| a / b,
            |a, b| if b == 0 { None } else { a.checked_div(b) },
        )
    } else if f == o.modulo {
        arith2(
            reg,
            f,
            "mod",
            kids,
            |a, b| a % b,
            |a, b| if b == 0 { None } else { a.checked_rem(b) },
        )
    } else if f == o.neg {
        match kids {
            [k] => match &intern::entry(*k).val {
                Val::Int(i) => Ok(Applied::Int(-i)),
                Val::Float(x) => Ok(Applied::Float(-x.get())),
                _ => call_boxed(reg, f, kids),
            },
            _ => call_boxed(reg, f, kids),
        }
    } else if f == o.abs {
        match kids {
            [k] => match &intern::entry(*k).val {
                Val::Int(i) => Ok(Applied::Int(i.abs())),
                Val::Float(x) => Ok(Applied::Float(x.get().abs())),
                _ => call_boxed(reg, f, kids),
            },
            _ => call_boxed(reg, f, kids),
        }
    } else if f == o.min2 {
        minmax2(reg, f, kids, i64::min, f64::min)
    } else if f == o.max2 {
        minmax2(reg, f, kids, i64::max, f64::max)
    } else {
        call_boxed(reg, f, kids)
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
            if reg.is_func(*f) {
                apply_func(reg, *f, new_kids)
            } else if !changed {
                Ok(id)
            } else {
                Ok(intern::intern_app(*f, new_kids))
            }
        }
        _ => Ok(id),
    }
}

/// Evaluate a pattern term under a flat substitution — the id-space mirror
/// of `reg.eval_term(&subst.apply(t))`. All variables must be bound.
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
    match t {
        Term::App(f, args) if reg.is_func(*f) => {
            apply_interpreted(reg, *f, &eval_args(reg, args, s)?)
        }
        _ => flat_eval(reg, t, s).map(Applied::Id),
    }
}

/// Evaluate a comparison between two pattern terms under a flat
/// substitution — mirror of `reg.compare(op, &subst.apply(l),
/// &subst.apply(r))`: numeric comparisons widen to floats; everything else
/// uses the value order (= boxed `Term` order, via pool sort keys).
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

/// Semantic pattern match against an interned value, the one matcher of
/// every body-literal walk: ground (under `s`) patterns are evaluated and
/// compared by id; an unbound variable binds; 2-ary `add`/
/// `sub` patterns against an integer solve linearly; uninterpreted
/// applications descend structurally.
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
        Term::App(f, args) if args.len() == 2 && matches!(intern::entry(vid).val, Val::Int(_)) => {
            let n = match intern::entry(vid).val {
                Val::Int(n) => n,
                _ => unreachable!(),
            };
            fn solve(s: &mut FlatSubst, v: Symbol, bound: Option<i64>) -> bool {
                match bound {
                    Some(x) => {
                        s.bind(v, intern::intern_int(x));
                        true
                    }
                    None => false,
                }
            }
            match (f.as_str(), arg_view(&args[0], s), arg_view(&args[1], s)) {
                ("add", ArgView::UnboundVar(v), ArgView::Lit(k)) => solve(s, v, n.checked_sub(k)),
                ("add", ArgView::Lit(k), ArgView::UnboundVar(v)) => solve(s, v, n.checked_sub(k)),
                ("sub", ArgView::UnboundVar(v), ArgView::Lit(k)) => solve(s, v, n.checked_add(k)),
                _ => false,
            }
        }
        Term::App(f, pargs) => match &intern::entry(vid).val {
            Val::App(g, vids) if f == g && pargs.len() == vids.len() && !reg.is_func(*f) => pargs
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

    /// Oracle: the boxed pipeline `eval_term(subst.apply(t))`.
    fn boxed_eval(reg: &BuiltinRegistry, t: &Term, s: &FlatSubst) -> Result<Term, BuiltinError> {
        let boxed = intern::boundary(|| s.to_subst());
        reg.eval_term(&boxed.apply(t))
    }

    #[test]
    fn flat_eval_matches_boxed_oracle() {
        let r = reg();
        let mut s = FlatSubst::new();
        s.bind(Symbol::intern("X"), intern::intern_int(7));
        s.bind(Symbol::intern("F"), id_of(&Term::float(2.5)));
        for src in [
            "X + 1",
            "X * X",
            "X - 10",
            "X / 2",
            "mod(X, 3)",
            "neg(X)",
            "abs(0 - X)",
            "min2(X, 3)",
            "max2(X, F)",
            "X + F",
            "dist(10, 7)",
            "loc(X + 1, 2)",
            "[X, 2]",
        ] {
            let t = parse_term(src).unwrap();
            let flat = flat_eval(&r, &t, &s).unwrap();
            let boxed = boxed_eval(&r, &t, &s).unwrap();
            assert_eq!(intern::resolve(flat), boxed, "divergence on {src}");
        }
    }

    #[test]
    fn flat_eval_error_cases_match_boxed() {
        let r = reg();
        let s = FlatSubst::new();
        for src in ["1 / 0", "mod(2, 0)", "add(a, 1)", "neg(a)"] {
            let t = parse_term(src).unwrap();
            let flat = flat_eval(&r, &t, &s);
            let boxed = boxed_eval(&r, &t, &s);
            assert!(flat.is_err() && boxed.is_err(), "both error on {src}");
            assert_eq!(
                flat.unwrap_err().message,
                boxed.unwrap_err().message,
                "error text diverges on {src}"
            );
        }
        // Overflow path.
        let t = Term::app("add", vec![Term::Int(i64::MAX), Term::Int(1)]);
        assert_eq!(
            flat_eval(&r, &t, &s).unwrap_err().message,
            boxed_eval(&r, &t, &s).unwrap_err().message
        );
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
            assert_eq!(r.compare(op, &lt, &rt).unwrap(), want);
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

    #[test]
    fn subst_round_trip() {
        let mut f = FlatSubst::new();
        f.bind(Symbol::intern("A"), intern::intern_int(1));
        f.bind(
            Symbol::intern("B"),
            id_of(&Term::app("loc", vec![Term::Int(2), Term::Int(3)])),
        );
        let boxed = intern::boundary(|| f.to_subst());
        let back = FlatSubst::from_subst(&boxed).unwrap();
        assert_eq!(back.get(Symbol::intern("A")), f.get(Symbol::intern("A")));
        assert_eq!(back.get(Symbol::intern("B")), f.get(Symbol::intern("B")));
        // Non-ground substitutions don't intern.
        let mut open = Subst::new();
        open.bind(Symbol::intern("C"), Term::var("D"));
        assert!(FlatSubst::from_subst(&open).is_none());
    }
}
