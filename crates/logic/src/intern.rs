//! Global constant pool: hash-consed ground values behind dense `u32` ids.
//!
//! Every ground constant the engines touch — integers, floats, strings,
//! atoms, and ground applications — is interned exactly once into a
//! process-wide [`ConstPool`] and referred to by a [`ConstId`] everywhere on
//! the evaluation hot path. Id equality is structural equality, so join
//! probes, substitution bindings and tuple comparisons reduce to `u32`
//! operations; the boxed [`Term`] representation survives only at the
//! parser / builtin / display boundary behind explicit [`resolve`] calls.
//!
//! **Reads take no lock.** `ConstId → &'static Entry` lives in the
//! append-only `pages::Pages` table this module shares with [`crate::symbol`]:
//! the miss path of [`intern_val`] publishes the entry under the pool's
//! write lock *before* the id is handed out, and [`entry`] / [`cmp_ids`] /
//! [`resolve`] read the slot with two acquire loads — from any thread, which
//! is what `bench`'s parallel case driver does: its worker threads run
//! deployments side by side over the one process-wide pool. The table
//! covers every `u32` id, so the pool has no size ceiling of its own. Only
//! value → id goes through the lock, a `std::sync::RwLock` whose poison is
//! ignored: a panic under it leaves the map and the table as they were.
//!
//! **Determinism.** Id assignment is first-touch order, which is
//! deterministic for a deterministic workload — but nothing observable
//! depends on it: every ordered structure (relation iteration, journal
//! content) orders by each entry's [`Entry::sort_key`], a byte encoding of
//! the *value* that reproduces the boxed `Term` ordering exactly. Two runs
//! that intern the same values in different orders therefore produce
//! byte-identical traces.
//!
//! **Sort keys.** `sort_key(a) < sort_key(b)` (memcmp) iff
//! `resolve(a) < resolve(b)` under `Term`'s derived `Ord` (variant order
//! `Int < Float < Str < Atom < App`, symbols by string content). `Tuple`'s
//! `Ord` compares column by column through [`cmp_ids`], so a relation's
//! ordered map answers every bound-column prefix probe as a range, in
//! canonical tuple order. The encoding:
//!
//! * `Int`  — tag `1`, then an order-preserving varint: a length byte with
//!   the sign folded in (`0x80 + k` for non-negative values spanning `k`
//!   minimal big-endian bytes, `0x7F - k` for negatives spanning `k`
//!   minimal two's-complement bytes), then the `k` payload bytes. Small
//!   magnitudes take 2–3 bytes total;
//! * `Float`— tag `2`, then the total-order bits of [`F64`] big-endian;
//! * `Str`  — tag `3`, then the bytes with `0x00` escaped to `0x00 0xFF`,
//!   then an unescaped `0x00` terminator;
//! * `Atom` — tag `4`, same string encoding;
//! * `App`  — tag `6`, the escaped function name + `0x00`, the children's
//!   keys concatenated, and a final `0x00`.
//!
//! Continuation bytes after a terminator are always tags `1..=6`, i.e.
//! strictly between `0x00` and `0xFF`, which makes the concatenation
//! order-correct and injective (see DESIGN.md "Tuple representation & ordered
//! indexes" for the argument).
//!
//! **Resolve accounting.** Each id → `Term` materialization is counted,
//! split into *boundary* resolves (inside a [`boundary`] scope: parse,
//! display, wire encoding, lineage export, procedural builtins) and *hot*
//! resolves (everything else). A clean fixpoint loop performs **zero** hot
//! resolves; `ci.sh` enforces this with the `intern.boundary.resolves`
//! gauge.

use crate::pages::Pages;
use crate::symbol::Symbol;
use crate::term::{Term, F64};
use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{OnceLock, PoisonError, RwLock};

/// Dense handle of an interned ground value.
pub type ConstId = u32;

/// FNV-1a, the hasher for maps keyed by fixed-width ids ([`ConstId`]s,
/// symbols, tuple ids, timer tags): a few words of key, where SipHash's
/// set-up costs more than the mixing. Ids are minted by this process, so
/// nobody can craft colliding keys; keep the default hasher for keys that
/// come from outside. The iteration order of such a map is a function of
/// the ids (first-touch order) — never expose it without sorting.
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl std::hash::Hasher for Fnv {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// `HashMap` / `HashSet` over [`Fnv`].
pub type IdHashMap<K, V> = HashMap<K, V, std::hash::BuildHasherDefault<Fnv>>;
pub type IdHashSet<K> = std::collections::HashSet<K, std::hash::BuildHasherDefault<Fnv>>;

/// An interned ground value. `App` children are themselves interned.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Val {
    Int(i64),
    Float(F64),
    Str(Symbol),
    Atom(Symbol),
    App(Symbol, Box<[ConstId]>),
}

impl Val {
    /// Numeric view, mirroring [`Term::as_f64`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Val::Int(i) => Some(*i as f64),
            Val::Float(f) => Some(f.get()),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Val::Int(i) => Some(*i),
            _ => None,
        }
    }
}

/// Pool entry: the value plus cached flat metadata so the hot path never
/// rebuilds a `Term` to answer size or ordering questions.
#[derive(Debug)]
pub struct Entry {
    pub val: Val,
    /// Serialized size in bytes, identical to [`Term::byte_size`] of the
    /// resolved term (message-cost accounting must not change).
    pub byte_size: u32,
    /// Order-preserving byte encoding (see module docs).
    pub sort_key: Box<[u8]>,
}

/// Value → id; the next id is its length. Guarded by the pool lock.
type Pool = HashMap<Val, ConstId>;

/// `ConstId → &Entry`: the table [`entry`] — and through it every id
/// comparison — reads without touching the pool lock.
static ENTRIES: Pages<Entry> = Pages::new();

/// Give `entry` the next id: publish it in [`ENTRIES`], *then* let the map
/// hand the id out. The caller holds the pool write lock (or is the pool's
/// initializer), so ids never race.
fn push(pool: &mut Pool, entry: Entry) -> ConstId {
    let id = ConstId::try_from(pool.len()).expect("const pool overflow");
    let entry: &'static Entry = Box::leak(Box::new(entry));
    ENTRIES.publish(id, entry);
    pool.insert(entry.val.clone(), id);
    id
}

/// Small non-negative integers are pre-seeded at pool init so stage
/// arithmetic interns without taking the lock: `intern_int(n) == n` for
/// `0 <= n < SMALL_INTS`.
const SMALL_INTS: i64 = 4096;

fn pool() -> &'static RwLock<Pool> {
    static POOL: OnceLock<RwLock<Pool>> = OnceLock::new();
    POOL.get_or_init(|| {
        let mut p = Pool::new();
        for n in 0..SMALL_INTS {
            push(&mut p, build_entry(Val::Int(n)));
        }
        RwLock::new(p)
    })
}

fn int_sort_key(n: i64) -> Box<[u8]> {
    // Order-preserving varint (see module docs): the length byte carries
    // the sign, payload is minimal big-endian. memcmp order == i64 order:
    // negatives (< 0x80) sort below non-negatives (>= 0x80); within each
    // sign, longer encodings are further from zero and equal lengths
    // compare by payload (two's-complement bytes for negatives).
    let (len_byte, k) = if n >= 0 {
        let k = (8 - (n.leading_zeros() / 8) as usize).min(8);
        (0x80 + k as u8, k)
    } else {
        let bits = 65 - (!n).leading_zeros() as usize; // sign bit included
        let k = bits.div_ceil(8);
        (0x7F - k as u8, k)
    };
    let mut out = Vec::with_capacity(2 + k);
    out.push(1u8);
    out.push(len_byte);
    out.extend_from_slice(&(n as u64).to_be_bytes()[8 - k..]);
    out.into_boxed_slice()
}

fn float_sort_key(f: F64) -> Box<[u8]> {
    let mut k = Vec::with_capacity(9);
    k.push(2u8);
    k.extend_from_slice(&f.sort_bits().to_be_bytes());
    k.into_boxed_slice()
}

/// Append `s` with `0x00` escaped to `0x00 0xFF`, then a `0x00` terminator.
fn push_escaped(out: &mut Vec<u8>, s: &str) {
    for &b in s.as_bytes() {
        out.push(b);
        if b == 0 {
            out.push(0xFF);
        }
    }
    out.push(0);
}

/// Build the entry (byte size + sort key) for `val`, reading child entries
/// from the pool. Children must already be interned; no locks are held by
/// the caller.
fn build_entry(val: Val) -> Entry {
    let (byte_size, sort_key) = match &val {
        Val::Int(n) => (8, int_sort_key(*n)),
        Val::Float(f) => (8, float_sort_key(*f)),
        Val::Str(s) => {
            let mut k = Vec::with_capacity(2 + s.as_str().len());
            k.push(3u8);
            push_escaped(&mut k, s.as_str());
            (2 + s.as_str().len() as u32, k.into_boxed_slice())
        }
        Val::Atom(s) => {
            let mut k = Vec::with_capacity(2 + s.as_str().len());
            k.push(4u8);
            push_escaped(&mut k, s.as_str());
            (2 + s.as_str().len() as u32, k.into_boxed_slice())
        }
        Val::App(f, kids) => {
            let mut size = 2 + f.as_str().len() as u32;
            let mut k = Vec::with_capacity(3 + f.as_str().len());
            k.push(6u8);
            push_escaped(&mut k, f.as_str());
            for &kid in kids.iter() {
                let e = entry(kid);
                size += e.byte_size;
                k.extend_from_slice(&e.sort_key);
            }
            k.push(0);
            (size, k.into_boxed_slice())
        }
    };
    Entry {
        val,
        byte_size,
        sort_key,
    }
}

/// Intern a ground value (children of `App` must already be interned).
pub fn intern_val(val: Val) -> ConstId {
    {
        let guard = pool().read().unwrap_or_else(PoisonError::into_inner);
        if let Some(&id) = guard.get(&val) {
            return id;
        }
    }
    // Build the entry outside the write lock: it reads child entries.
    let entry = build_entry(val);
    let mut guard = pool().write().unwrap_or_else(PoisonError::into_inner);
    if let Some(&id) = guard.get(&entry.val) {
        return id;
    }
    push(&mut guard, entry)
}

/// Intern an integer. Lock-free for small non-negative values.
#[inline]
pub fn intern_int(n: i64) -> ConstId {
    if (0..SMALL_INTS).contains(&n) {
        return n as ConstId;
    }
    intern_val(Val::Int(n))
}

pub fn intern_float(f: F64) -> ConstId {
    intern_val(Val::Float(f))
}

pub fn intern_atom(s: Symbol) -> ConstId {
    intern_val(Val::Atom(s))
}

pub fn intern_str(s: Symbol) -> ConstId {
    intern_val(Val::Str(s))
}

pub fn intern_app(f: Symbol, kids: Vec<ConstId>) -> ConstId {
    intern_val(Val::App(f, kids.into_boxed_slice()))
}

/// Intern a ground term. Returns `None` if the term contains a variable.
pub fn intern_term(t: &Term) -> Option<ConstId> {
    Some(match t {
        Term::Int(n) => intern_int(*n),
        Term::Float(f) => intern_float(*f),
        Term::Str(s) => intern_str(*s),
        Term::Atom(s) => intern_atom(*s),
        Term::Var(_) => return None,
        Term::App(f, args) => {
            let mut kids = Vec::with_capacity(args.len());
            for a in args.iter() {
                kids.push(intern_term(a)?);
            }
            intern_app(*f, kids)
        }
    })
}

/// Flat access to an interned entry. Does **not** count as a resolve: the
/// hot path inspects entries (tags, ints, sort keys) without rebuilding
/// terms. Lock-free: two acquire loads through `ENTRIES`.
#[inline]
pub fn entry(id: ConstId) -> &'static Entry {
    ENTRIES.get(id).unwrap_or_else(|| {
        // A small id can come straight off the `intern_int` fast path before
        // the pool, which pre-seeds those, was ever touched.
        let _ = pool();
        ENTRIES.get(id).expect("entry() of an id nobody interned")
    })
}

/// Order two ids by value — exactly `resolve(a).cmp(&resolve(b))`.
#[inline]
pub fn cmp_ids(a: ConstId, b: ConstId) -> Ordering {
    if a.max(b) < SMALL_INTS as ConstId {
        // Pre-seeded small ints are their own ids: id order is value order,
        // and the comparison touches no pool entry.
        a.cmp(&b)
    } else if a == b {
        Ordering::Equal
    } else {
        entry(a).sort_key.cmp(&entry(b).sort_key)
    }
}

/// Number of interned constants (diagnostics).
pub fn pool_len() -> usize {
    pool().read().unwrap_or_else(PoisonError::into_inner).len()
}

// ---------------------------------------------------------------------------
// Resolve accounting
// ---------------------------------------------------------------------------

static HOT_RESOLVES: AtomicU64 = AtomicU64::new(0);
static BOUNDARY_RESOLVES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static BOUNDARY_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// Run `f` inside a boundary scope: resolves performed within count as
/// boundary ops (parser echo, display, wire encoding, lineage export,
/// procedural builtins), not hot-path leaks. Nestable.
pub fn boundary<T>(f: impl FnOnce() -> T) -> T {
    BOUNDARY_DEPTH.with(|d| d.set(d.get() + 1));
    let out = f();
    BOUNDARY_DEPTH.with(|d| d.set(d.get() - 1));
    out
}

fn note_resolve() {
    let in_boundary = BOUNDARY_DEPTH.with(|d| d.get() > 0);
    if in_boundary {
        BOUNDARY_RESOLVES.fetch_add(1, AtomicOrdering::Relaxed);
    } else {
        HOT_RESOLVES.fetch_add(1, AtomicOrdering::Relaxed);
    }
}

/// Cumulative resolve counters (process-wide), split by scope.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResolveCounts {
    /// Resolves outside any [`boundary`] scope — a clean fixpoint does none.
    pub hot: u64,
    /// Resolves inside declared boundary scopes.
    pub boundary: u64,
}

pub fn resolve_counts() -> ResolveCounts {
    ResolveCounts {
        hot: HOT_RESOLVES.load(AtomicOrdering::Relaxed),
        boundary: BOUNDARY_RESOLVES.load(AtomicOrdering::Relaxed),
    }
}

fn resolve_inner(id: ConstId) -> Term {
    match &entry(id).val {
        Val::Int(n) => Term::Int(*n),
        Val::Float(f) => Term::Float(*f),
        Val::Str(s) => Term::Str(*s),
        Val::Atom(s) => Term::Atom(*s),
        Val::App(f, kids) => Term::App(
            *f,
            kids.iter()
                .map(|&k| resolve_inner(k))
                .collect::<Vec<_>>()
                .into(),
        ),
    }
}

/// Materialize the boxed [`Term`] for an id. Counted (once per call) toward
/// the resolve gauges — wrap boundary-side callers in [`boundary`].
pub fn resolve(id: ConstId) -> Term {
    note_resolve();
    resolve_inner(id)
}

/// Materialize several ids at once (one counted resolve op).
pub fn resolve_slice(ids: &[ConstId]) -> Vec<Term> {
    note_resolve();
    ids.iter().map(|&i| resolve_inner(i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_structural() {
        let a = intern_term(&Term::app("loc", vec![Term::Int(1), Term::Int(2)])).unwrap();
        let b = intern_term(&Term::app("loc", vec![Term::Int(1), Term::Int(2)])).unwrap();
        assert_eq!(a, b);
        let c = intern_term(&Term::app("loc", vec![Term::Int(1), Term::Int(3)])).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn small_ints_are_identity() {
        assert_eq!(intern_int(0), 0);
        assert_eq!(intern_int(17), 17);
        assert_eq!(entry(17).val, Val::Int(17));
    }

    #[test]
    fn resolve_round_trips() {
        let terms = vec![
            Term::Int(-5),
            Term::float(2.5),
            Term::str("enemy"),
            Term::atom("cov"),
            Term::list(vec![Term::Int(1), Term::Int(2)], None),
            Term::app(
                "f",
                vec![Term::app("g", vec![Term::Int(9)]), Term::atom("x")],
            ),
        ];
        for t in terms {
            let id = intern_term(&t).unwrap();
            assert_eq!(resolve(id), t);
            assert_eq!(entry(id).byte_size as usize, t.byte_size());
        }
    }

    #[test]
    fn non_ground_terms_do_not_intern() {
        assert!(intern_term(&Term::var("X")).is_none());
        assert!(intern_term(&Term::app("f", vec![Term::var("X")])).is_none());
    }

    #[test]
    fn float_edge_cases_collapse() {
        let z = intern_term(&Term::float(0.0)).unwrap();
        let nz = intern_term(&Term::float(-0.0)).unwrap();
        assert_eq!(z, nz);
        let n1 = intern_term(&Term::float(f64::NAN)).unwrap();
        let n2 = intern_term(&Term::Float(F64::new(f64::from_bits(
            0x7ff8_0000_0000_0001,
        ))))
        .unwrap();
        assert_eq!(n1, n2, "all NaNs are one pool entry");
    }

    #[test]
    fn sort_keys_reproduce_term_order() {
        let samples = vec![
            Term::Int(i64::MIN),
            Term::Int(-1),
            Term::Int(0),
            Term::Int(1),
            // Either side of the pre-seeded range `cmp_ids` compares by id.
            Term::Int(SMALL_INTS - 1),
            Term::Int(SMALL_INTS),
            Term::Int(i64::MAX),
            Term::float(-1.5),
            Term::float(4095.5),
            Term::float(0.0),
            Term::float(2.25),
            Term::float(f64::NAN),
            Term::str(""),
            Term::str("a"),
            Term::str("a\u{0}b"),
            Term::str("ab"),
            Term::atom("a"),
            Term::atom("ab"),
            Term::atom("b"),
            Term::nil(),
            Term::list(vec![Term::Int(1)], None),
            Term::list(vec![Term::Int(1), Term::Int(2)], None),
            Term::app("f", vec![]),
            Term::app("f", vec![Term::Int(1)]),
            Term::app("f", vec![Term::Int(1), Term::Int(1)]),
            Term::app("f", vec![Term::Int(2)]),
            Term::app("g", vec![Term::Int(0)]),
        ];
        for a in &samples {
            for b in &samples {
                let (ia, ib) = (intern_term(a).unwrap(), intern_term(b).unwrap());
                assert_eq!(
                    cmp_ids(ia, ib),
                    a.cmp(b),
                    "sort_key order diverges for {a} vs {b}"
                );
                assert_eq!(
                    cmp_ids(ia, ib),
                    entry(ia).sort_key.cmp(&entry(ib).sort_key),
                    "id fast path diverges from sort keys for {a} vs {b}"
                );
            }
        }
    }

    /// The parallel case driver's case (`sensorlog-bench`'s `run_cases`):
    /// threads read entries, compare and resolve ids while other threads
    /// intern. A reader must never see an id whose entry is not there yet
    /// or is half built, and interning must never disturb the value or the
    /// order of older ids.
    #[test]
    fn lock_free_entry_reads_race_with_interning() {
        use crate::pages::tests::race;
        use std::sync::atomic::{AtomicU32, Ordering::*};

        const WRITERS: usize = 2;
        const FRESH: i64 = 5_000;
        const BASE: i64 = 7_000_000_000; // nobody else's ints, and >= SMALL_INTS
        let pre_terms: Vec<Term> = (0..64)
            .map(|i| Term::app("race_pre", vec![Term::Int(BASE - 64 + i)]))
            .collect();
        // Interned back to front, so id order is the reverse of value order.
        let mut pre: Vec<ConstId> = pre_terms
            .iter()
            .rev()
            .map(|t| intern_term(t).unwrap())
            .collect();
        pre.reverse();
        // Step `j` of every writer: a fresh int, a fresh atom and a nested
        // `App` over both. The writers intern the same values, so each one
        // also finds ids the other has just published through the map.
        let fresh = |j: i64| {
            let n = Term::Int(BASE + j);
            let inner = Term::app("race_inner", vec![n.clone()]);
            Term::app(
                "race",
                vec![n, Term::atom(&format!("race_atom_{j}")), inner],
            )
        };
        let first = intern_term(&fresh(0)).unwrap();
        let check_fresh = |id: ConstId| {
            let Val::App(_, kids) = &entry(id).val else {
                panic!("entry({id}) is not an application");
            };
            let j = entry(kids[0]).val.as_i64().unwrap() - BASE;
            let term = resolve(id);
            assert_eq!(term, fresh(j), "id {id} resolves to something else");
            assert_eq!(entry(id).byte_size as usize, term.byte_size());
            assert_eq!(intern_term(&term), Some(id), "value of {id} has another id");
            assert_eq!(cmp_ids(first, id), 0.cmp(&j), "fresh ids order by value");
            j
        };
        // The newest id each writer has interned, handed to the readers the
        // way any id crosses threads: through a release / acquire pair.
        let latest: Vec<AtomicU32> = (0..WRITERS).map(|_| AtomicU32::new(first)).collect();
        race(
            WRITERS,
            8,
            |w| {
                for j in 1..=FRESH {
                    let id = intern_term(&fresh(j)).unwrap();
                    assert_eq!(check_fresh(id), j);
                    latest[w].store(id, Release);
                }
            },
            || {
                for (i, (&id, term)) in pre.iter().zip(&pre_terms).enumerate() {
                    assert_eq!(resolve(id), *term);
                    if i > 0 {
                        let order = cmp_ids(pre[i - 1], id);
                        assert_eq!(order, Ordering::Less, "order of old ids moved");
                    }
                }
                let (a, b) = (latest[0].load(Acquire), latest[1].load(Acquire));
                assert_eq!(cmp_ids(a, b), check_fresh(a).cmp(&check_fresh(b)));
            },
        );
        for slot in &latest {
            assert_eq!(check_fresh(slot.load(Acquire)), FRESH);
        }
    }

    #[test]
    fn boundary_scope_classifies_resolves() {
        // Counters are process-global and other tests run concurrently, so
        // only lower bounds are exact here.
        let id = intern_term(&Term::Int(123456789)).unwrap();
        let before = resolve_counts();
        let _ = resolve(id);
        let mid = resolve_counts();
        assert!(mid.hot > before.hot);
        boundary(|| {
            let _ = resolve(id);
        });
        let after = resolve_counts();
        assert!(after.boundary > mid.boundary);
    }
}
