//! Substitutions, matching, and unification.
//!
//! The bottom-up engine mostly *matches* rule patterns against ground facts.
//! Full unification (with occurs check) is provided for the term-matching
//! operator the paper mentions for function symbols (Sec. IV-C) and for the
//! magic-set transformation.

use crate::symbol::Symbol;
use crate::term::Term;
use std::collections::HashMap;

/// A binding of variables to terms. Bindings produced by [`match_term`]
/// against ground facts are always ground; bindings produced by [`unify`]
/// may be non-ground and must be resolved via [`Subst::resolve`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Subst {
    map: HashMap<Symbol, Term>,
}

impl Subst {
    pub fn new() -> Subst {
        Subst::default()
    }

    pub fn get(&self, v: Symbol) -> Option<&Term> {
        self.map.get(&v)
    }

    pub fn bind(&mut self, v: Symbol, t: Term) {
        self.map.insert(v, t);
    }

    pub fn is_bound(&self, v: Symbol) -> bool {
        self.map.contains_key(&v)
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&Symbol, &Term)> {
        self.map.iter()
    }

    /// Substitute bound variables in `t`. Unbound variables are left as-is;
    /// chains through other bindings are followed.
    pub fn apply(&self, t: &Term) -> Term {
        match t {
            Term::Var(v) => match self.map.get(v) {
                // Follow chains: a var may be bound to another var by unify.
                Some(bound) => {
                    if let Term::Var(v2) = bound {
                        if self.map.contains_key(v2) && v2 != v {
                            return self.apply(bound);
                        }
                    }
                    if bound.is_ground() {
                        bound.clone()
                    } else {
                        self.apply_inner(bound)
                    }
                }
                None => t.clone(),
            },
            Term::App(f, args) => {
                if args.iter().all(Term::is_ground) {
                    t.clone()
                } else {
                    Term::App(*f, args.iter().map(|a| self.apply(a)).collect())
                }
            }
            _ => t.clone(),
        }
    }

    fn apply_inner(&self, t: &Term) -> Term {
        match t {
            Term::Var(_) => self.apply(t),
            Term::App(f, args) => Term::App(*f, args.iter().map(|a| self.apply(a)).collect()),
            _ => t.clone(),
        }
    }

    /// Fully resolve `t`, following binding chains (for unification results).
    pub fn resolve(&self, t: &Term) -> Term {
        self.apply(t)
    }
}

/// Match `pattern` (may contain variables) against ground `value`, extending
/// `subst`. Returns false (with `subst` possibly partially extended — callers
/// discard on failure) if they don't match.
pub fn match_term(pattern: &Term, value: &Term, subst: &mut Subst) -> bool {
    debug_assert!(value.is_ground(), "match_term target must be ground");
    match pattern {
        Term::Var(v) => match subst.get(*v) {
            Some(bound) => bound == value,
            None => {
                subst.bind(*v, value.clone());
                true
            }
        },
        Term::App(f, args) => match value {
            Term::App(g, vargs) if f == g && args.len() == vargs.len() => args
                .iter()
                .zip(vargs.iter())
                .all(|(p, v)| match_term(p, v, subst)),
            _ => false,
        },
        _ => pattern == value,
    }
}

fn occurs(v: Symbol, t: &Term, subst: &Subst) -> bool {
    match t {
        Term::Var(u) => {
            if *u == v {
                return true;
            }
            match subst.get(*u) {
                Some(bound) => occurs(v, &bound.clone(), subst),
                None => false,
            }
        }
        Term::App(_, args) => args.iter().any(|a| occurs(v, a, subst)),
        _ => false,
    }
}

fn walk(t: &Term, subst: &Subst) -> Term {
    match t {
        Term::Var(v) => match subst.get(*v) {
            Some(bound) => walk(&bound.clone(), subst),
            None => t.clone(),
        },
        _ => t.clone(),
    }
}

/// Full unification with occurs check. Both terms may contain variables.
pub fn unify(a: &Term, b: &Term, subst: &mut Subst) -> bool {
    let a = walk(a, subst);
    let b = walk(b, subst);
    match (&a, &b) {
        (Term::Var(v), Term::Var(u)) if v == u => true,
        (Term::Var(v), other) => {
            if occurs(*v, other, subst) {
                false
            } else {
                subst.bind(*v, other.clone());
                true
            }
        }
        (other, Term::Var(v)) => {
            if occurs(*v, other, subst) {
                false
            } else {
                subst.bind(*v, other.clone());
                true
            }
        }
        (Term::App(f, fargs), Term::App(g, gargs)) => {
            f == g
                && fargs.len() == gargs.len()
                && fargs
                    .iter()
                    .zip(gargs.iter())
                    .all(|(x, y)| unify(x, y, subst))
        }
        _ => a == b,
    }
}

/// Rename all variables of `t` by appending `suffix`, producing a variant
/// term with fresh variables (used by magic sets and rule variants).
pub fn rename_vars(t: &Term, suffix: &str) -> Term {
    match t {
        Term::Var(v) => Term::var(&format!("{}{}", v.as_str(), suffix)),
        Term::App(f, args) => Term::App(*f, args.iter().map(|a| rename_vars(a, suffix)).collect()),
        _ => t.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn match_binds_vars() {
        let mut s = Subst::new();
        let pat = Term::app("f", vec![Term::var("X"), Term::Int(2)]);
        let val = Term::app("f", vec![Term::Int(1), Term::Int(2)]);
        assert!(match_term(&pat, &val, &mut s));
        assert_eq!(s.get(Symbol::intern("X")), Some(&Term::Int(1)));
    }

    #[test]
    fn match_respects_existing_bindings() {
        let mut s = Subst::new();
        s.bind(Symbol::intern("X"), Term::Int(5));
        assert!(match_term(&Term::var("X"), &Term::Int(5), &mut s));
        assert!(!match_term(&Term::var("X"), &Term::Int(6), &mut s));
    }

    #[test]
    fn match_nonlinear_pattern() {
        // f(X, X) matches f(1, 1) but not f(1, 2).
        let pat = Term::app("f", vec![Term::var("X"), Term::var("X")]);
        let mut s = Subst::new();
        assert!(match_term(
            &pat,
            &Term::app("f", vec![Term::Int(1), Term::Int(1)]),
            &mut s
        ));
        let mut s = Subst::new();
        assert!(!match_term(
            &pat,
            &Term::app("f", vec![Term::Int(1), Term::Int(2)]),
            &mut s
        ));
    }

    #[test]
    fn match_structural_mismatch() {
        let mut s = Subst::new();
        assert!(!match_term(
            &Term::app("f", vec![Term::var("X")]),
            &Term::app("g", vec![Term::Int(1)]),
            &mut s
        ));
        assert!(!match_term(&Term::Int(1), &Term::Int(2), &mut s));
    }

    #[test]
    fn apply_substitutes_recursively() {
        let mut s = Subst::new();
        s.bind(Symbol::intern("X"), Term::Int(1));
        let t = Term::app("f", vec![Term::var("X"), Term::var("Y")]);
        assert_eq!(
            s.apply(&t),
            Term::app("f", vec![Term::Int(1), Term::var("Y")])
        );
    }

    #[test]
    fn unify_two_open_terms() {
        // f(X, g(Y)) ~ f(1, g(2))
        let mut s = Subst::new();
        let a = Term::app(
            "f",
            vec![Term::var("X"), Term::app("g", vec![Term::var("Y")])],
        );
        let b = Term::app("f", vec![Term::Int(1), Term::app("g", vec![Term::Int(2)])]);
        assert!(unify(&a, &b, &mut s));
        assert_eq!(s.resolve(&Term::var("X")), Term::Int(1));
        assert_eq!(s.resolve(&Term::var("Y")), Term::Int(2));
    }

    #[test]
    fn unify_var_to_var_chains() {
        let mut s = Subst::new();
        assert!(unify(&Term::var("X"), &Term::var("Y"), &mut s));
        assert!(unify(&Term::var("Y"), &Term::Int(3), &mut s));
        assert_eq!(s.resolve(&Term::var("X")), Term::Int(3));
    }

    #[test]
    fn occurs_check_rejects_cyclic() {
        let mut s = Subst::new();
        let x = Term::var("X");
        let fx = Term::app("f", vec![Term::var("X")]);
        assert!(!unify(&x, &fx, &mut s));
    }

    #[test]
    fn rename_vars_makes_variant() {
        let t = Term::app("f", vec![Term::var("X"), Term::Int(1)]);
        let r = rename_vars(&t, "_m");
        assert_eq!(r, Term::app("f", vec![Term::var("X_m"), Term::Int(1)]));
    }
}
