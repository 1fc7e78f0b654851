//! First-order terms with function symbols.
//!
//! The paper's framework extends Datalog with function symbols (Sec. II-B):
//! a term is a constant, a variable, or `f(t1, …, tn)`. Lists are sugar over
//! the function symbols `$cons`/`$nil` (the parser accepts `[a, b | T]`).

use crate::intern::{self, ConstId};
use crate::symbol::Symbol;
use std::cmp::Ordering;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A 64-bit float with total ordering and stable hashing.
///
/// NaN compares greater than everything and equal to itself; `-0.0` is
/// canonicalized to `0.0` so that equal values hash equally.
#[derive(Copy, Clone, Debug)]
pub struct F64(f64);

impl F64 {
    pub fn new(v: f64) -> F64 {
        if v == 0.0 {
            F64(0.0)
        } else {
            F64(v)
        }
    }
    pub fn get(self) -> f64 {
        self.0
    }
    fn key(self) -> u64 {
        if self.0.is_nan() {
            u64::MAX
        } else {
            let bits = self.0.to_bits();
            if bits >> 63 == 0 {
                bits | (1 << 63)
            } else {
                !bits
            }
        }
    }
}

impl PartialEq for F64 {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for F64 {}
impl PartialOrd for F64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for F64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}
impl std::hash::Hash for F64 {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.key().hash(state);
    }
}

/// Function symbol used by the list sugar for cons cells. Cached: the list
/// helpers call this per cons cell, so it must not re-intern every time.
pub fn cons_sym() -> Symbol {
    static CONS: OnceLock<Symbol> = OnceLock::new();
    *CONS.get_or_init(|| Symbol::intern("$cons"))
}
/// Function symbol used by the list sugar for the empty list (cached).
pub fn nil_sym() -> Symbol {
    static NIL: OnceLock<Symbol> = OnceLock::new();
    *NIL.get_or_init(|| Symbol::intern("$nil"))
}

/// A first-order term.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Term {
    /// Integer constant. Timestamps and stage arguments are integers.
    Int(i64),
    /// Float constant (sensor readings, distances).
    Float(F64),
    /// String constant, written `"enemy"`.
    Str(Symbol),
    /// Symbolic constant, written lowercase: `enemy`.
    Atom(Symbol),
    /// Variable, written capitalized: `X`, `L1`. The anonymous variable `_`
    /// is expanded by the parser into fresh variables, so no `Var` ever
    /// holds `_` after parsing.
    Var(Symbol),
    /// Function application `f(t1, …, tn)`; also encodes lists and
    /// arithmetic (`add`, `sub`, `mul`, `div`, `mod`, `neg`).
    App(Symbol, Arc<[Term]>),
}

impl Term {
    pub fn float(v: f64) -> Term {
        Term::Float(F64::new(v))
    }
    pub fn str(s: &str) -> Term {
        Term::Str(Symbol::intern(s))
    }
    pub fn atom(s: &str) -> Term {
        Term::Atom(Symbol::intern(s))
    }
    pub fn var(s: &str) -> Term {
        Term::Var(Symbol::intern(s))
    }
    pub fn app(f: &str, args: Vec<Term>) -> Term {
        Term::App(Symbol::intern(f), args.into())
    }

    /// The empty list `[]`. Returns a clone of a cached static — the old
    /// implementation allocated a fresh `Arc<[Term]>` on every call.
    pub fn nil() -> Term {
        static NIL: OnceLock<Term> = OnceLock::new();
        NIL.get_or_init(|| Term::App(nil_sym(), Arc::from(Vec::new())))
            .clone()
    }

    /// A cons cell `[head | tail]`.
    pub fn cons(head: Term, tail: Term) -> Term {
        Term::App(cons_sym(), Arc::from(vec![head, tail]))
    }

    /// Build a proper list from `items`, optionally ending in `tail`
    /// (for `[a, b | T]` notation).
    pub fn list(items: Vec<Term>, tail: Option<Term>) -> Term {
        let mut acc = tail.unwrap_or_else(Term::nil);
        for item in items.into_iter().rev() {
            acc = Term::cons(item, acc);
        }
        acc
    }

    /// If this term is a proper list, return its elements.
    pub fn as_list(&self) -> Option<Vec<&Term>> {
        let mut out = Vec::new();
        let mut cur = self;
        loop {
            match cur {
                Term::App(f, args) if *f == nil_sym() && args.is_empty() => return Some(out),
                Term::App(f, args) if *f == cons_sym() && args.len() == 2 => {
                    out.push(&args[0]);
                    cur = &args[1];
                }
                _ => return None,
            }
        }
    }

    /// True if the term contains no variables.
    pub fn is_ground(&self) -> bool {
        match self {
            Term::Var(_) => false,
            Term::App(_, args) => args.iter().all(Term::is_ground),
            _ => true,
        }
    }

    /// Collect the variables occurring in this term into `out` (in order of
    /// first occurrence, duplicates skipped).
    pub fn collect_vars(&self, out: &mut Vec<Symbol>) {
        match self {
            Term::Var(v) if !out.contains(v) => {
                out.push(*v);
            }
            Term::App(_, args) => {
                for a in args.iter() {
                    a.collect_vars(out);
                }
            }
            _ => {}
        }
    }

    /// All variables of the term.
    pub fn vars(&self) -> Vec<Symbol> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }

    /// Structural size (number of nodes); used to bound recursion depth in
    /// diagnostics and as a crude cost metric for message sizing.
    pub fn size(&self) -> usize {
        match self {
            Term::App(_, args) => 1 + args.iter().map(Term::size).sum::<usize>(),
            _ => 1,
        }
    }

    /// Approximate serialized size in bytes, used by the simulator's
    /// message-cost accounting.
    pub fn byte_size(&self) -> usize {
        match self {
            Term::Int(_) | Term::Float(_) => 8,
            Term::Str(s) | Term::Atom(s) => 2 + s.as_str().len(),
            Term::Var(_) => 2,
            Term::App(f, args) => {
                2 + f.as_str().len() + args.iter().map(Term::byte_size).sum::<usize>()
            }
        }
    }

    /// Numeric view for comparisons: integers widen to floats when compared
    /// against floats.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Term::Int(i) => Some(*i as f64),
            Term::Float(f) => Some(f.get()),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Term::Int(i) => Some(*i),
            _ => None,
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Int(i) => write!(f, "{i}"),
            Term::Float(x) => write!(f, "{}", x.get()),
            Term::Str(s) => write!(f, "{:?}", s.as_str()),
            Term::Atom(s) => write!(f, "{s}"),
            Term::Var(v) => write!(f, "{v}"),
            Term::App(_, _) => {
                if let Some(items) = self.as_list() {
                    write!(f, "[")?;
                    for (i, t) in items.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{t}")?;
                    }
                    write!(f, "]")
                } else if let Term::App(sym, args) = self {
                    // Improper list `[h | t]`.
                    if *sym == cons_sym() && args.len() == 2 {
                        return write!(f, "[{} | {}]", args[0], args[1]);
                    }
                    write!(f, "{sym}(")?;
                    for (i, t) in args.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{t}")?;
                    }
                    write!(f, ")")
                } else {
                    unreachable!()
                }
            }
        }
    }
}

/// Arguments stored inline before spilling to the heap. Three ids keep a
/// tuple at two words (16 bytes); the shipped programs top out at arity 3.
const TUPLE_INLINE: usize = 3;

#[derive(Clone)]
enum TupleRepr {
    Inline {
        len: u8,
        ids: [ConstId; TUPLE_INLINE],
    },
    /// Wider tuples, behind one thin pointer (the `Box` holds the length)
    /// so that every tuple stays two words.
    Heap(Arc<Box<[ConstId]>>),
}

const _: () = assert!(std::mem::size_of::<Tuple>() == 16);

/// A ground tuple: the arguments of a fact, stored as a fixed-width array of
/// interned constant ids (flat representation). Cheap to clone, compare and
/// hash — id operations only; the boxed [`Term`] view is materialized on
/// demand via [`Tuple::terms`]/[`Tuple::get`] at the resolve boundary.
///
/// Ordering is by *value* (each column through `intern::cmp_ids`), reproducing the
/// old `Arc<[Term]>` derived order exactly, so canonical iteration order —
/// and with it every pinned trace journal — is unchanged.
pub struct Tuple(TupleRepr);

impl Clone for Tuple {
    fn clone(&self) -> Tuple {
        Tuple(self.0.clone())
    }
}

impl Tuple {
    /// Largest arity stored inline (no heap allocation).
    pub const INLINE: usize = TUPLE_INLINE;

    /// Construct from ground terms, interning each into the constant pool.
    /// Panics if any term is non-ground: facts are ground by construction
    /// everywhere upstream.
    pub fn new(terms: Vec<Term>) -> Tuple {
        debug_assert!(terms.iter().all(Term::is_ground), "non-ground fact");
        let mut ids = [0 as ConstId; TUPLE_INLINE];
        if terms.len() <= TUPLE_INLINE {
            for (slot, t) in ids.iter_mut().zip(terms.iter()) {
                *slot = intern::intern_term(t).expect("non-ground fact");
            }
            Tuple(TupleRepr::Inline {
                len: terms.len() as u8,
                ids,
            })
        } else {
            let v: Vec<ConstId> = terms
                .iter()
                .map(|t| intern::intern_term(t).expect("non-ground fact"))
                .collect();
            Tuple(TupleRepr::Heap(Arc::new(v.into_boxed_slice())))
        }
    }

    /// Construct directly from interned ids (the flat evaluation path).
    pub fn from_ids(ids: Vec<ConstId>) -> Tuple {
        if ids.len() <= TUPLE_INLINE {
            Tuple::from_slice(&ids)
        } else {
            Tuple(TupleRepr::Heap(Arc::new(ids.into_boxed_slice())))
        }
    }

    /// [`Tuple::from_ids`] for borrowed ids: up to [`Tuple::INLINE`] ids
    /// are copied inline with no allocation (range bounds, permuted keys).
    pub fn from_slice(ids: &[ConstId]) -> Tuple {
        if ids.len() <= TUPLE_INLINE {
            let mut inline = [0 as ConstId; TUPLE_INLINE];
            inline[..ids.len()].copy_from_slice(ids);
            Tuple(TupleRepr::Inline {
                len: ids.len() as u8,
                ids: inline,
            })
        } else {
            Tuple(TupleRepr::Heap(Arc::new(ids.into())))
        }
    }

    pub fn arity(&self) -> usize {
        self.ids().len()
    }

    /// The interned argument ids — the flat hot-path view.
    #[inline]
    pub fn ids(&self) -> &[ConstId] {
        match &self.0 {
            TupleRepr::Inline { len, ids } => &ids[..*len as usize],
            TupleRepr::Heap(v) => v,
        }
    }

    /// Interned id of argument `i`.
    #[inline]
    pub fn id(&self, i: usize) -> ConstId {
        self.ids()[i]
    }

    /// Materialize all arguments as boxed terms. Counted as one resolve op —
    /// boundary callers (display, wire encoding, lineage export) should wrap
    /// in [`intern::boundary`].
    pub fn terms(&self) -> Vec<Term> {
        intern::resolve_slice(self.ids())
    }

    /// Materialize argument `i` as a boxed term (counted resolve).
    pub fn get(&self, i: usize) -> Term {
        intern::resolve(self.id(i))
    }

    /// Sum of the argument byte sizes (message-cost accounting). Reads the
    /// pool's cached sizes; byte-identical to the old boxed computation.
    pub fn byte_size(&self) -> usize {
        self.ids()
            .iter()
            .map(|&id| intern::entry(id).byte_size as usize)
            .sum()
    }
}

impl PartialEq for Tuple {
    fn eq(&self, other: &Tuple) -> bool {
        self.ids() == other.ids()
    }
}
impl Eq for Tuple {}

impl std::hash::Hash for Tuple {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.ids().hash(state);
    }
}

impl PartialOrd for Tuple {
    #[inline]
    fn partial_cmp(&self, other: &Tuple) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tuple {
    /// Inlined into every ordered-map descent. The pool holds one id per
    /// value, so equal ids are equal values and are skipped without a call,
    /// and the first column whose ids differ decides.
    #[inline]
    fn cmp(&self, other: &Tuple) -> Ordering {
        let (a, b) = (self.ids(), other.ids());
        match a.iter().zip(b).find(|(x, y)| x != y) {
            Some((&x, &y)) => intern::cmp_ids(x, y),
            None => a.len().cmp(&b.len()),
        }
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        intern::boundary(|| {
            write!(f, "(")?;
            for (i, t) in self.terms().iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{t}")?;
            }
            write!(f, ")")
        })
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl From<Vec<Term>> for Tuple {
    fn from(v: Vec<Term>) -> Tuple {
        Tuple::new(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_roundtrip() {
        let l = Term::list(vec![Term::Int(1), Term::Int(2), Term::Int(3)], None);
        let items = l.as_list().expect("proper list");
        assert_eq!(items.len(), 3);
        assert_eq!(*items[1], Term::Int(2));
        assert_eq!(l.to_string(), "[1, 2, 3]");
    }

    #[test]
    fn improper_list_display() {
        let l = Term::cons(Term::Int(1), Term::var("T"));
        assert!(l.as_list().is_none());
        assert_eq!(l.to_string(), "[1 | T]");
    }

    #[test]
    fn groundness() {
        assert!(Term::Int(5).is_ground());
        assert!(!Term::var("X").is_ground());
        let t = Term::app("f", vec![Term::Int(1), Term::var("X")]);
        assert!(!t.is_ground());
        assert_eq!(t.vars(), vec![Symbol::intern("X")]);
    }

    #[test]
    fn var_collection_dedups_and_orders() {
        let t = Term::app(
            "f",
            vec![
                Term::var("X"),
                Term::app("g", vec![Term::var("Y"), Term::var("X")]),
            ],
        );
        assert_eq!(t.vars(), vec![Symbol::intern("X"), Symbol::intern("Y")]);
    }

    #[test]
    fn float_total_order() {
        let nan = F64::new(f64::NAN);
        assert_eq!(nan, nan);
        assert!(F64::new(1.0) < F64::new(2.0));
        assert!(F64::new(-1.0) < F64::new(0.0));
        assert!(F64::new(2.0) < nan);
        assert_eq!(F64::new(0.0), F64::new(-0.0));
    }

    #[test]
    fn float_hash_consistent_with_eq() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(Term::float(0.0));
        assert!(s.contains(&Term::float(-0.0)));
    }

    #[test]
    fn tuple_ordering_deterministic() {
        let a = Tuple::new(vec![Term::Int(1), Term::atom("a")]);
        let b = Tuple::new(vec![Term::Int(1), Term::atom("b")]);
        assert!(a < b);
        assert_eq!(a.to_string(), "(1, a)");
    }

    /// Inline (arity ≤ 3) and heap tuples are one type to every reader: the
    /// three constructors agree on ids, equality, hash and byte size, and
    /// value order is the order of the materialized terms at every arity —
    /// for small ints on both sides of the pool's boundary and for the ids
    /// it mints (strings, floats, negative and large ints).
    #[test]
    fn inline_and_heap_tuples_agree() {
        use std::hash::{BuildHasher, RandomState};
        let small = intern::SMALL_INTS;
        let vals = [
            Term::Int(0),
            Term::Int(7),
            Term::Int(small - 1),
            Term::Int(small),
            Term::Int(small * 25),
            Term::Int(-3),
            Term::float(2.5),
            Term::float(-0.5),
            Term::str("s"),
            Term::atom("a"),
        ];
        let hasher = RandomState::new();
        let mut tuples = Vec::new();
        for arity in 0..=9 {
            for shift in 0..vals.len() {
                let terms: Vec<Term> = (0..arity)
                    .map(|i| vals[(shift + 3 * i) % vals.len()].clone())
                    .collect();
                let t = Tuple::new(terms.clone());
                let ids = t.ids().to_vec();
                assert_eq!(ids.len(), arity);
                let bytes = terms.iter().map(Term::byte_size).sum::<usize>();
                assert_eq!(t.byte_size(), bytes, "{t}");
                for other in [Tuple::from_ids(ids.clone()), Tuple::from_slice(&ids)] {
                    assert_eq!(other.ids(), &ids[..]);
                    assert_eq!(other, t);
                    assert_eq!(other.cmp(&t), Ordering::Equal);
                    assert_eq!(hasher.hash_one(&other), hasher.hash_one(&t));
                    assert_eq!(other.byte_size(), bytes);
                }
                assert_eq!(intern::boundary(|| t.terms()), terms);
                tuples.push((t, terms));
            }
        }
        for (a, a_terms) in &tuples {
            for (b, b_terms) in &tuples {
                assert_eq!(a.cmp(b), a_terms.cmp(b_terms), "{a} vs {b}");
                assert_eq!(a == b, a_terms == b_terms, "{a} vs {b}");
            }
        }

        // A tuple sorts before its extensions, inline or not.
        let three = Tuple::new(vec![Term::Int(small), Term::str("s"), Term::Int(-3)]);
        let mut ids = three.ids().to_vec();
        ids.push(0);
        let four = Tuple::from_ids(ids);
        assert_eq!(three.cmp(&four), Ordering::Less);
        assert_eq!(four.cmp(&three), Ordering::Greater);
        assert_eq!(four.ids()[..3], three.ids()[..]);
    }

    #[test]
    fn term_size_and_bytes() {
        let t = Term::app("f", vec![Term::Int(1), Term::str("xy")]);
        assert_eq!(t.size(), 3);
        assert!(t.byte_size() > 8);
    }
}
