//! Global constant pool: hash-consed ground values behind dense `u32` ids.
//!
//! Every ground constant the engines touch — integers, floats, strings,
//! atoms, and ground applications — is interned exactly once into a
//! process-wide pool and referred to by a [`ConstId`] everywhere on
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
//! **Small ints cost nothing until read.** The ids `0..4096` are the
//! non-negative integers below 4096 themselves (`intern_int(n) == n`): no
//! lock and no map row mints one, and the pool starts empty, handing out
//! `4096` as its first id. The first [`entry`] of a small int that has none
//! publishes its 256-id chunk into the same table, once per chunk (a
//! `OnceLock` each), so a process pays for the chunks it reads.
//!
//! **Determinism.** Id assignment is first-touch order, which is
//! deterministic for a deterministic workload — but nothing observable
//! depends on it: every ordered structure (relation iteration, journal
//! content) orders by *value* through [`cmp_ids`], which is `Term`'s derived
//! `Ord` over the resolved terms (`Int < Float < Str < Atom < App`, symbols
//! by content). Two runs that intern the same values in different orders
//! therefore produce byte-identical traces. `Tuple`'s `Ord` compares column
//! by column through [`cmp_ids`], so a relation's ordered map answers every
//! bound-column prefix probe as a range, in canonical tuple order.
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

/// The hasher for maps keyed by fixed-width ids ([`ConstId`]s, symbols,
/// tuple ids, timer tags): a few words of key, where SipHash's set-up costs
/// more than the mixing. Integer writes, which is all a derived `Hash` of
/// ids, tuples of ids and fieldless enums makes, fold in one word each: a
/// rotate, an xor and a multiply (FxHash's step), so a `(TupleId,
/// UpdateKind)` key is four multiplies where FNV-1a's byte loop took 17.
/// Byte slices (`str` keys) still take FNV-1a's loop. Ids are minted by
/// this process, so nobody can craft colliding keys; keep the default
/// hasher for keys that come from outside. The iteration order of such a
/// map is a function of the ids and the hash — never expose it without
/// sorting.
pub struct Fnv(u64);

impl Fnv {
    #[inline]
    fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

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
    fn write_u8(&mut self, i: u8) {
        self.word(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.word(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.word(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.word(i as u64);
    }

    #[inline]
    fn write_isize(&mut self, i: isize) {
        self.word(i as u64);
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

/// Pool entry: the value plus its cached size, so the hot path never
/// rebuilds a `Term` to answer a size question.
#[derive(Debug)]
pub struct Entry {
    pub val: Val,
    /// Serialized size in bytes, identical to [`Term::byte_size`] of the
    /// resolved term (message-cost accounting must not change).
    pub byte_size: u32,
}

/// Value → id, with no small-int rows: the next id is `SMALL_INTS` plus its
/// length. Keyed by the published entry's own value, so the pool holds each
/// constant once. Guarded by the pool lock.
type Pool = HashMap<&'static Val, ConstId>;

/// `ConstId → &Entry`: the table [`entry`] — and through it every id
/// comparison — reads without touching the pool lock.
static ENTRIES: Pages<Entry> = Pages::new();

/// Give `entry` the next id: publish it in [`ENTRIES`], *then* let the map
/// hand the id out. The caller holds the pool write lock, so ids never race.
fn push(pool: &mut Pool, entry: Entry) -> ConstId {
    let id = ConstId::try_from(next_id(pool)).expect("const pool overflow");
    let entry: &'static Entry = Box::leak(Box::new(entry));
    ENTRIES.publish(id, entry);
    pool.insert(&entry.val, id);
    id
}

fn next_id(pool: &Pool) -> usize {
    SMALL_INTS as usize + pool.len()
}

/// Small non-negative integers are their own ids, `intern_int(n) == n` for
/// `0 <= n < SMALL_INTS`, so stage arithmetic interns without the lock and
/// the pool never holds a row for one. Their entries are built when first
/// read, a [`SMALL_INT_CHUNK`] at a time.
pub(crate) const SMALL_INTS: i64 = 4096;

/// Small-int ids whose entries [`entry`] publishes together on first read.
const SMALL_INT_CHUNK: usize = 256;

/// One flag per chunk of small ints: set once its entries are in [`ENTRIES`].
static SMALL_INTS_SEEDED: [OnceLock<()>; SMALL_INTS as usize / SMALL_INT_CHUNK] =
    [const { OnceLock::new() }; SMALL_INTS as usize / SMALL_INT_CHUNK];

/// Publish the entries of small int `id`'s chunk into `table`, once per
/// `seeded` flag: a racing reader waits for the first one to finish.
fn seed_small_ints(table: &Pages<Entry>, seeded: &[OnceLock<()>], id: ConstId) {
    let chunk = id as usize / SMALL_INT_CHUNK;
    seeded[chunk].get_or_init(|| {
        let first = chunk * SMALL_INT_CHUNK;
        let entries: &'static [Entry] = Box::leak(
            (first..first + SMALL_INT_CHUNK)
                .map(|n| build_entry(Val::Int(n as i64)))
                .collect(),
        );
        for (n, e) in (first..).zip(entries) {
            table.publish(n as ConstId, e);
        }
    });
}

fn pool() -> &'static RwLock<Pool> {
    static POOL: OnceLock<RwLock<Pool>> = OnceLock::new();
    POOL.get_or_init(|| RwLock::new(Pool::new()))
}

/// Build the entry for `val`, reading child entries from the pool.
/// Children must already be interned; no locks are held by the caller.
fn build_entry(val: Val) -> Entry {
    let byte_size = match &val {
        Val::Int(_) | Val::Float(_) => 8,
        Val::Str(s) | Val::Atom(s) => 2 + s.as_str().len() as u32,
        Val::App(f, kids) => {
            2 + f.as_str().len() as u32 + kids.iter().map(|&k| entry(k).byte_size).sum::<u32>()
        }
    };
    Entry { val, byte_size }
}

/// Intern a ground value (children of `App` must already be interned).
pub fn intern_val(val: Val) -> ConstId {
    if let Val::Int(n @ 0..SMALL_INTS) = val {
        return n as ConstId;
    }
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
/// hot path inspects entries (tags, ints, sizes) without rebuilding
/// terms. Lock-free: two acquire loads through `ENTRIES`.
#[inline]
pub fn entry(id: ConstId) -> &'static Entry {
    ENTRIES.get(id).unwrap_or_else(|| small_int_entry(id))
}

/// A small int's entry on its first read: no one interns those, so the
/// chunk is published here.
#[cold]
#[inline(never)]
fn small_int_entry(id: ConstId) -> &'static Entry {
    assert!(
        id < SMALL_INTS as ConstId,
        "entry() of an id nobody interned"
    );
    seed_small_ints(&ENTRIES, &SMALL_INTS_SEEDED, id);
    ENTRIES.get(id).expect("small int chunk published")
}

/// Order two ids by value — exactly `resolve(a).cmp(&resolve(b))`.
#[inline]
pub fn cmp_ids(a: ConstId, b: ConstId) -> Ordering {
    if a.max(b) < SMALL_INTS as ConstId {
        // Small ints are their own ids: id order is value order, and the
        // comparison touches (and builds) no pool entry.
        a.cmp(&b)
    } else if a == b {
        Ordering::Equal
    } else {
        cmp_vals(&entry(a).val, &entry(b).val)
    }
}

/// `Term`'s derived order over two values: by variant, then ints as `i64`,
/// floats by [`F64`]'s order, symbols by content, and applications by name,
/// then child by child, the shorter first on a common prefix.
fn cmp_vals(a: &Val, b: &Val) -> Ordering {
    match (a, b) {
        (Val::Int(x), Val::Int(y)) => x.cmp(y),
        (Val::Float(x), Val::Float(y)) => x.cmp(y),
        (Val::Str(x), Val::Str(y)) | (Val::Atom(x), Val::Atom(y)) => x.cmp(y),
        (Val::App(f, xs), Val::App(g, ys)) => f.cmp(g).then_with(|| {
            let mut kids = xs.iter().zip(ys.iter()).map(|(&x, &y)| cmp_ids(x, y));
            kids.find(|o| o.is_ne()).unwrap_or(xs.len().cmp(&ys.len()))
        }),
        _ => rank(a).cmp(&rank(b)),
    }
}

/// A value's variant in `Term`'s declaration order.
fn rank(v: &Val) -> u8 {
    match v {
        Val::Int(_) => 0,
        Val::Float(_) => 1,
        Val::Str(_) => 2,
        Val::Atom(_) => 3,
        Val::App(..) => 4,
    }
}

/// The next id to be handed out: `SMALL_INTS` plus every other constant
/// interned so far (diagnostics).
pub fn pool_len() -> usize {
    next_id(&pool().read().unwrap_or_else(PoisonError::into_inner))
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

    /// Id-shaped keys (a node, a timestamp, a sequence number and a
    /// fieldless enum, as `(TupleId, UpdateKind)` hashes) hash apart and
    /// spread over a table's low bits, which pick its bucket.
    #[test]
    fn id_hasher_spreads_word_keys() {
        use std::hash::BuildHasher;
        #[derive(Hash)]
        enum Kind {
            Insert,
            Delete,
        }
        let build = std::hash::BuildHasherDefault::<Fnv>::default();
        let mut hashes = Vec::new();
        for node in 0..32u32 {
            for ts in 0..64u64 {
                for kind in [Kind::Insert, Kind::Delete] {
                    hashes.push(build.hash_one(((node, ts * 20, 0u32), kind)));
                }
            }
        }
        let n = hashes.len();
        let mut buckets: Vec<u64> = hashes.iter().map(|h| h & 0xfff).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), n, "full-hash collisions");
        buckets.sort_unstable();
        buckets.dedup();
        assert!(
            buckets.len() * 2 > 4096,
            "{} of 4096 buckets",
            buckets.len()
        );
    }

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

    /// Reading every small int — its entry, its term, its order and its
    /// size on the air — mints no pool row: the value → id map holds none
    /// of them, and `pool_len` still counts them in the next id.
    #[test]
    fn small_ints_mint_no_pool_rows() {
        use crate::term::Tuple;
        let past = intern_int(SMALL_INTS);
        for n in 0..SMALL_INTS {
            let id = intern_int(n);
            assert_eq!(i64::from(id), n);
            assert_eq!(intern_val(Val::Int(n)), id);
            assert_eq!(entry(id).val, Val::Int(n));
            assert_eq!(resolve(id), Term::Int(n));
            assert_eq!(cmp_ids(id, past), Ordering::Less);
            assert_eq!(Tuple::from_slice(&[id, past]).byte_size(), 16);
        }
        let rows_before = pool().read().unwrap_or_else(PoisonError::into_inner).len();
        let len = pool_len();
        let pool = pool().read().unwrap_or_else(PoisonError::into_inner);
        let small_rows: Vec<&Val> = (pool.keys().copied())
            .filter(|v| matches!(v, Val::Int(0..SMALL_INTS)))
            .collect();
        assert!(
            small_rows.is_empty(),
            "small ints hold pool rows: {small_rows:?}"
        );
        // Other tests intern meanwhile: the rows counted before and after
        // `pool_len` bracket the rows it counted.
        let small = SMALL_INTS as usize;
        assert!(
            (small + rows_before..=small + pool.len()).contains(&len),
            "pool_len {len} is not {small} + rows ({rows_before}..={})",
            pool.len()
        );
    }

    /// The first reads of one chunk of small ints race each other while
    /// writers intern large ints: the chunk is published once (a second
    /// `publish` of an id panics) and every reader sees each id's own
    /// value. A table of the test's own makes that first read one the
    /// readers race for (the pool's table may have been read already by
    /// another test); the pool's table sees the same reads through `entry`.
    #[test]
    fn small_int_chunks_seed_once_under_racing_readers() {
        use crate::pages::tests::race;
        const CHUNK: usize = 7;
        const BASE: i64 = 8_000_000_000; // nobody else's ints
        let table: Pages<Entry> = Pages::new();
        let seeded: [OnceLock<()>; SMALL_INTS_SEEDED.len()] = [const { OnceLock::new() }; _];
        let chunk =
            (CHUNK * SMALL_INT_CHUNK) as ConstId..((CHUNK + 1) * SMALL_INT_CHUNK) as ConstId;
        race(
            2,
            8,
            |w| {
                for j in 0..2_000 {
                    let n = BASE + (w as i64) * 1_000_000 + j;
                    let id = intern_int(n);
                    assert!(id >= SMALL_INTS as ConstId, "{n} took small id {id}");
                    assert_eq!(entry(id).val, Val::Int(n));
                }
            },
            || {
                // Last id first: the whole chunk is there once any of it is.
                for id in chunk.clone().rev() {
                    seed_small_ints(&table, &seeded, id);
                    let got = table.get(id).map(|e| &e.val);
                    assert_eq!(got, Some(&Val::Int(i64::from(id))));
                    assert_eq!(entry(id).val, Val::Int(i64::from(id)));
                }
            },
        );
        // Only the chunk that was read is there.
        assert!(table.get(chunk.start - 1).is_none());
        assert!(table.get(chunk.end).is_none());
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
    fn cmp_ids_reproduces_term_order() {
        let mut samples = vec![
            Term::Int(i64::MIN),
            Term::Int(-1),
            Term::Int(0),
            Term::Int(1),
            Term::Int(i64::MAX),
            Term::float(-1.5),
            Term::float(255.5),
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
        // Either side of every small-int chunk (255 | 256 … 3839 | 3840) and
        // of the range `cmp_ids` compares by id (4095 | 4096).
        let chunk = SMALL_INT_CHUNK as i64;
        samples.extend(
            (1..=SMALL_INTS / chunk).flat_map(|k| [Term::Int(k * chunk - 1), Term::Int(k * chunk)]),
        );
        samples.push(Term::str("256"));
        for a in &samples {
            for b in &samples {
                let (ia, ib) = (intern_term(a).unwrap(), intern_term(b).unwrap());
                assert_eq!(cmp_ids(ia, ib), a.cmp(b), "order diverges for {a} vs {b}");
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
