//! Boxed substitutions.
//!
//! Every engine and node matches and evaluates on interned ids
//! (`flat::FlatSubst`, `flat::flat_match_args`, `flat::flat_eval`): that is
//! the term-matching operator the paper mentions for function symbols
//! (Sec. IV-C). A [`Subst`] is kept for what only it can hold: bindings to
//! non-ground terms, as `absint` embeds one rule's pattern in another, and
//! the resolved text of a binding, as provenance prints a why-not witness
//! (`FlatSubst::to_subst`).

use crate::symbol::Symbol;
use crate::term::Term;
use std::collections::HashMap;

/// A binding of variables to terms. A binding may be non-ground, and
/// [`Subst::apply`] follows it.
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
                // Follow chains: a var may be bound to another var.
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
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
