//! Relations and databases.
//!
//! A [`Relation`] is a set of ground tuples with per-tuple metadata
//! (generation timestamp — Definition 2 — and whatever else the store's
//! owner keeps per tuple, [`TupleMeta::extra`]) in one ordered map. `Tuple`
//! order is column-lexicographic value order, so a probe on a column prefix
//! is a range of that map; a registered non-prefix signature is the same
//! range over a set of column-permuted keys, each of which is the whole
//! tuple (see DESIGN.md, "Tuple representation & ordered indexes").

use sensorlog_logic::intern::ConstId;
use sensorlog_logic::{Symbol, Tuple};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-tuple metadata. `X` is the store owner's own per-tuple record: the
/// engines keep none (`()`, which costs nothing), a sensor node keeps its
/// replica record there (the stored generation's id and its tombstone,
/// `core::partial::Replica`), so a replica is one entry of one map.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub struct TupleMeta<X = ()> {
    /// Generation timestamp (simulated ms; 0 for batch evaluation).
    pub gen_ts: u64,
    pub extra: X,
}

const _: () = assert!(std::mem::size_of::<TupleMeta>() == 8);

impl TupleMeta {
    pub fn at(gen_ts: u64) -> TupleMeta {
        TupleMeta { gen_ts, extra: () }
    }
}

impl<X> TupleMeta<X> {
    /// The generation clauses of Theorem 3's timestamp discipline: a probe
    /// with update-timestamp `tau` over a window of `window` ms sees tuples
    /// with `gen_ts ≤ tau` and `gen_ts > tau − window`. (A replica's
    /// deletion clause is its owner's: `core::partial::visible_at`.)
    pub fn visible_at(&self, tau: u64, window: Option<u64>) -> bool {
        self.gen_ts <= tau && window.is_none_or(|w| self.gen_ts + w > tau)
    }
}

/// Whether the ascending signature `cols` is the run `0..k`: a prefix of
/// `Tuple`'s own column order, which the primary map serves. Any other
/// signature is served by the map keyed on `cols ++ ascending(rest)`.
fn is_prefix(cols: &[usize]) -> bool {
    cols.iter().enumerate().all(|(i, &c)| i == c)
}

/// The column each position of a `spec` key holds in an `n`-column tuple:
/// `spec ++ ascending(rest)`.
fn key_columns(spec: &[usize], n: usize) -> impl Iterator<Item = usize> + '_ {
    spec.iter()
        .copied()
        .chain((0..n).filter(move |c| !spec.contains(c)))
}

/// An `n`-column tuple whose ids `fill` writes: inline up to
/// [`Tuple::INLINE`] columns, one allocation beyond.
fn tuple_of(n: usize, fill: impl FnOnce(&mut [ConstId])) -> Tuple {
    if n > Tuple::INLINE {
        let mut ids = vec![0; n];
        fill(&mut ids);
        return Tuple::from_ids(ids);
    }
    let mut buf = [0; Tuple::INLINE];
    fill(&mut buf[..n]);
    Tuple::from_slice(&buf[..n])
}

/// `t`'s ids in `spec ++ ascending(rest)` column order: its entry in the
/// key set of `spec`. Among tuples equal on the spec columns this order is
/// canonical tuple order. `None` if `t` lacks a spec column — no probe on
/// `spec` can match it, so it is not stored.
fn permuted(spec: &[usize], t: &Tuple) -> Option<Tuple> {
    let ids = t.ids();
    if spec.iter().any(|&c| c >= ids.len()) {
        return None;
    }
    Some(tuple_of(ids.len(), |key| {
        for (slot, c) in key.iter_mut().zip(key_columns(spec, ids.len())) {
            *slot = ids[c];
        }
    }))
}

/// The tuple whose [`permuted`] key of `spec` is `key`.
fn unpermuted(spec: &[usize], key: &Tuple) -> Tuple {
    let ids = key.ids();
    tuple_of(ids.len(), |t| {
        for (&id, c) in ids.iter().zip(key_columns(spec, ids.len())) {
            t[c] = id;
        }
    })
}

/// Whether `t` has every column of `cols` and its ids there equal `key`.
fn matches_at(t: &Tuple, cols: &[usize], key: &[ConstId]) -> bool {
    let ids = t.ids();
    cols.iter()
        .zip(key)
        .all(|(&c, &k)| ids.get(c).is_some_and(|&id| id == k))
}

/// Probe counters for `join.index.*` telemetry. Relaxed atomics: probes
/// take `&self`, and the counts are only read for snapshots.
#[derive(Debug, Default)]
pub struct IndexStats {
    /// Probes served as a range of an ordered map.
    pub hits: AtomicU64,
    /// Probes served by a filtered scan (unregistered non-prefix signature).
    pub scans: AtomicU64,
    /// Probes with no bound column (a body literal nothing keys yet):
    /// the whole relation is enumerated. An evaluator that does this per
    /// stage or per delta costs relation size, not frontier size.
    pub full_scans: AtomicU64,
}

/// A clone's counters start at zero: they count probes against the clone.
impl Clone for IndexStats {
    fn clone(&self) -> IndexStats {
        IndexStats::default()
    }
}

/// Owned snapshot of [`IndexStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IndexStatsSnapshot {
    pub hits: u64,
    pub scans: u64,
    pub full_scans: u64,
}

impl IndexStatsSnapshot {
    pub fn merge(&mut self, other: IndexStatsSnapshot) {
        self.hits += other.hits;
        self.scans += other.scans;
        self.full_scans += other.full_scans;
    }
}

/// A tuple as [`Relation::lookup`] finds it: borrowed from the primary map
/// with its metadata, or rebuilt from a key set's entry, which holds none.
pub(crate) enum Found<'a, X> {
    Stored(&'a Tuple, &'a TupleMeta<X>),
    Key(Tuple),
}

impl<'a, X> Found<'a, X> {
    pub(crate) fn tuple(&self) -> &Tuple {
        match self {
            Found::Stored(t, _) => t,
            Found::Key(t) => t,
        }
    }

    /// The tuple, borrowed where the primary map holds it.
    pub(crate) fn into_cow(self) -> Cow<'a, Tuple> {
        match self {
            Found::Stored(t, _) => Cow::Borrowed(t),
            Found::Key(t) => Cow::Owned(t),
        }
    }
}

/// A set of ground tuples with metadata, ordered for keyed probes.
///
/// Tuples are kept in a `BTreeMap` so iteration order is the canonical tuple
/// order, identical across processes. This matters in the distributed
/// runtime: iteration order here feeds join-probe solution order and hence
/// message emission order; with a hash map the order would vary with the
/// per-process hasher seed and replays would diverge under message loss.
/// Probes preserve the same canonical order: a range of the primary map is
/// in it by definition, and a range of a key set holds tuples equal on the
/// permuted-first columns, ordered by the ascending rest.
#[derive(Clone, Debug)]
pub struct Relation<X = ()> {
    tuples: BTreeMap<Tuple, TupleMeta<X>>,
    /// Registered probe signatures — the bound-position sets the planner
    /// probes (`crate::planner`).
    registered: BTreeSet<Vec<usize>>,
    /// One key set per registered non-prefix signature: every stored
    /// tuple's [`permuted`] key, which holds every column, so an entry is
    /// its tuple ([`unpermuted`]). Built at registration and maintained by
    /// insert/remove. Few enough that a linear scan beats hashing the
    /// signature.
    secondary: Vec<(Vec<usize>, BTreeSet<Tuple>)>,
    stats: IndexStats,
}

/// Hand-written so that `X` needs no `Default`.
impl<X> Default for Relation<X> {
    fn default() -> Relation<X> {
        Relation {
            tuples: BTreeMap::new(),
            registered: BTreeSet::new(),
            secondary: Vec::new(),
            stats: IndexStats::default(),
        }
    }
}

impl Relation {
    pub fn new() -> Relation {
        Relation::default()
    }
}

impl<X> Relation<X> {
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    pub fn contains(&self, t: &Tuple) -> bool {
        self.tuples.contains_key(t)
    }

    pub fn meta(&self, t: &Tuple) -> Option<&TupleMeta<X>> {
        self.tuples.get(t)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, &TupleMeta<X>)> {
        self.tuples.iter()
    }

    pub fn tuples(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.keys()
    }

    /// Insert a tuple; returns true if it was new. Re-inserting an existing
    /// tuple keeps its stored metadata, and with it the *earlier*
    /// generation timestamp ("later duplicates … are not considered as
    /// generations", Sec. III-B).
    pub fn insert(&mut self, t: Tuple, meta: TupleMeta<X>) -> bool {
        self.update(t, |stored| stored.is_none().then_some(meta))
    }

    /// The one write: `decide` sees what is stored for `t` — to edit in
    /// place — and returns the metadata that becomes `t`'s entry, if any
    /// does. One descent whatever it decides. Returns true if `t` was new.
    pub fn update(
        &mut self,
        t: Tuple,
        decide: impl FnOnce(Option<&mut TupleMeta<X>>) -> Option<TupleMeta<X>>,
    ) -> bool {
        match self.tuples.entry(t) {
            std::collections::btree_map::Entry::Occupied(mut e) => {
                if let Some(meta) = decide(Some(e.get_mut())) {
                    e.insert(meta);
                }
                false
            }
            std::collections::btree_map::Entry::Vacant(e) => {
                let Some(meta) = decide(None) else {
                    return false;
                };
                for (spec, keys) in &mut self.secondary {
                    if let Some(k) = permuted(spec, e.key()) {
                        keys.insert(k);
                    }
                }
                e.insert(meta);
                true
            }
        }
    }

    /// Physically remove a tuple; returns true if it was present.
    pub fn remove(&mut self, t: &Tuple) -> bool {
        if self.tuples.remove(t).is_none() {
            return false;
        }
        for (spec, keys) in &mut self.secondary {
            if let Some(k) = permuted(spec, t) {
                keys.remove(&k);
            }
        }
        true
    }

    fn secondary_of(&self, cols: &[usize]) -> Option<&BTreeSet<Tuple>> {
        self.secondary
            .iter()
            .find(|(spec, _)| spec == cols)
            .map(|(_, keys)| keys)
    }

    /// Register `cols` as a probe signature. A non-prefix signature gets
    /// its key set built from the current tuples here and maintained
    /// through insert/remove from then on; a prefix signature needs nothing
    /// beyond the primary map. `cols` must be sorted and non-empty.
    pub fn register_index(&mut self, cols: &[usize]) {
        debug_assert!(!cols.is_empty() && cols.windows(2).all(|w| w[0] < w[1]));
        self.registered.insert(cols.to_vec());
        if !is_prefix(cols) && self.secondary_of(cols).is_none() {
            let keys = self.tuples.keys().filter_map(|t| permuted(cols, t));
            self.secondary.push((cols.to_vec(), keys.collect()));
        }
    }

    /// Registered index signatures, sorted.
    pub fn registered_indexes(&self) -> Vec<Vec<usize>> {
        self.registered.iter().cloned().collect()
    }

    /// Probe counters (see [`IndexStats`]).
    pub fn index_stats(&self) -> IndexStatsSnapshot {
        IndexStatsSnapshot {
            hits: self.stats.hits.load(Ordering::Relaxed),
            scans: self.stats.scans.load(Ordering::Relaxed),
            full_scans: self.stats.full_scans.load(Ordering::Relaxed),
        }
    }

    /// Full enumeration of the map or key set serving probe signature
    /// `cols`, in its key order, as tuples — diagnostics and the
    /// index-maintenance property test. `None` if the signature would be
    /// served by a scan.
    pub fn index_contents(&self, cols: &[usize]) -> Option<Vec<Tuple>> {
        if is_prefix(cols) {
            return Some(self.tuples.keys().cloned().collect());
        }
        let keys = self.secondary_of(cols)?.iter();
        Some(keys.map(|k| unpermuted(cols, k)).collect())
    }

    /// The one lookup: visit every tuple whose ids at `cols` equal `key`
    /// (every tuple when `cols` is empty) in canonical tuple order, as the
    /// structure that served the lookup holds it ([`Found`]). `cols` must
    /// be sorted.
    ///
    /// A prefix signature (`[0]`, `[0, 1]`, …) is the range of the primary
    /// map that starts with `key`; a registered non-prefix signature is the
    /// same range of its key set, whose keys start with the `cols` columns
    /// in order, each un-permuted as it is visited; any other keyed
    /// signature is a filtered walk, counted in [`IndexStats::scans`], and
    /// an unkeyed one is the whole map, counted in
    /// [`IndexStats::full_scans`]. O(log n + matches) unless it walks.
    pub(crate) fn lookup<'a>(
        &'a self,
        cols: &[usize],
        key: &[ConstId],
        mut visit: impl FnMut(Found<'a, X>),
    ) {
        debug_assert!(cols.len() == key.len());
        let stored = |(t, m)| Found::Stored(t, m);
        if cols.is_empty() {
            self.stats.full_scans.fetch_add(1, Ordering::Relaxed);
            self.tuples.iter().map(stored).for_each(visit);
            return;
        }
        // A shorter tuple sorts before its extensions, so `key` itself is
        // the lower bound of everything that starts with it.
        let lo = Tuple::from_slice(key);
        let starts_with_key = |k: &Tuple| k.ids().starts_with(key);
        if is_prefix(cols) {
            self.stats.hits.fetch_add(1, Ordering::Relaxed);
            self.tuples
                .range(&lo..)
                .take_while(|(t, _)| starts_with_key(t))
                .map(stored)
                .for_each(visit);
        } else if let Some(keys) = self.secondary_of(cols) {
            self.stats.hits.fetch_add(1, Ordering::Relaxed);
            keys.range(&lo..)
                .take_while(|k| starts_with_key(k))
                .for_each(|k| visit(Found::Key(unpermuted(cols, k))));
        } else {
            self.stats.scans.fetch_add(1, Ordering::Relaxed);
            self.tuples
                .iter()
                .filter(|(t, _)| matches_at(t, cols, key))
                .map(stored)
                .for_each(visit);
        }
    }

    /// Visit what matches `key` at `cols` (`Relation::lookup`: a range
    /// where the signature allows one), tuple and metadata, borrowing both
    /// from the primary map. The distributed runtime's node join
    /// (`core::partial`) reads its fragment stores through this; a tuple
    /// found in a key set costs a second descent, which no node store
    /// registers.
    pub fn probe<'a>(
        &'a self,
        cols: &[usize],
        key: &[ConstId],
        mut visit: impl FnMut(&'a Tuple, &'a TupleMeta<X>),
    ) {
        self.lookup(cols, key, |found| match found {
            Found::Stored(t, m) => visit(t, m),
            Found::Key(k) => {
                let (t, m) = (self.tuples.get_key_value(&k)).expect("a key names a stored tuple");
                visit(t, m)
            }
        });
    }

    /// The tuples matching `key` at `cols` (`Relation::lookup`), by value
    /// into `out`. The engines' body walk visits the same lookup in place.
    pub fn select(&self, cols: &[usize], key: &[ConstId], out: &mut Vec<Tuple>) {
        if cols.is_empty() {
            // The whole relation lands in one allocation.
            out.reserve(self.tuples.len());
        }
        self.lookup(cols, key, |found| out.push(found.into_cow().into_owned()));
    }

    /// What a probe means, written as the id-filtered scan of every tuple:
    /// those whose ids at `cols` equal `key` (all of them when `cols` is
    /// empty), in canonical tuple order, touching no index or stats. The
    /// reference the probe tests compare against, and the `micro` bench
    /// case's baseline.
    pub fn scan_into(&self, cols: &[usize], key: &[ConstId], out: &mut Vec<Tuple>) {
        out.extend(
            self.tuples
                .keys()
                .filter(|t| matches_at(t, cols, key))
                .cloned(),
        );
    }

    /// Drop expired tuples: `gen_ts + window ≤ now`. Returns the expired
    /// tuples ("independently expiring a tuple after sufficient time",
    /// Sec. II-B).
    pub fn expire(&mut self, window: u64, now: u64) -> Vec<Tuple> {
        let expired: Vec<Tuple> = self
            .tuples
            .iter()
            .filter(|(_, m)| m.gen_ts + window <= now)
            .map(|(t, _)| t.clone())
            .collect();
        for t in &expired {
            self.remove(t);
        }
        expired
    }
}

/// A named collection of relations: one `(Symbol, Relation, E)` per
/// predicate it holds, in `Symbol` order, grown one at a time and found by
/// a scan for the id (a program has a handful of predicates, a sensor node
/// stores one or two). `E` is what a user keeps of a predicate beside its
/// relation, made and dropped with it: every engine keeps `()`, and nothing
/// in `eval` reads it; a sensor node keeps its expiry queues and owned
/// entries there (`core::runtime`).
#[derive(Clone, Debug)]
pub struct Database<X = (), E = ()> {
    rels: Vec<(Symbol, Relation<X>, E)>,
}

impl<X, E> Default for Database<X, E> {
    fn default() -> Database<X, E> {
        Database { rels: Vec::new() }
    }
}

impl Database {
    pub fn new() -> Database {
        Database::default()
    }

    pub fn insert(&mut self, p: Symbol, t: Tuple) -> bool {
        self.relation_or_insert(p).insert(t, TupleMeta::default())
    }

    /// Load facts from a text block of `pred(args).` facts (multiple per
    /// line fine; blank lines and `%` comments allowed).
    pub fn load_facts(&mut self, src: &str) -> Result<usize, sensorlog_logic::ParseError> {
        let facts = sensorlog_logic::parse_facts(src)?;
        let n = facts.len();
        for (p, args) in facts {
            self.insert(p, Tuple::new(args));
        }
        Ok(n)
    }
}

impl<X, E: Default> Database<X, E> {
    /// The entry of `p`, created empty — its relation and a default `E` —
    /// in its place in `Symbol` order if the database holds none: the one
    /// lookup that inserts, for writes that store.
    pub fn entry_or_insert(&mut self, p: Symbol) -> (&mut Relation<X>, &mut E) {
        let i = self.position(p).unwrap_or_else(|| {
            let at = self.rels.partition_point(|(q, ..)| *q < p);
            self.rels.reserve_exact(1);
            self.rels.insert(at, (p, Relation::default(), E::default()));
            at
        });
        let (_, rel, extra) = &mut self.rels[i];
        (rel, extra)
    }

    /// The relation of `p`, created as [`Database::entry_or_insert`] does.
    pub fn relation_or_insert(&mut self, p: Symbol) -> &mut Relation<X> {
        self.entry_or_insert(p).0
    }

    /// Register a persistent index signature on relation `p` (see
    /// [`Relation::register_index`]).
    pub fn register_index(&mut self, p: Symbol, cols: &[usize]) {
        self.relation_or_insert(p).register_index(cols);
    }
}

impl<X, E> Database<X, E> {
    fn position(&self, p: Symbol) -> Option<usize> {
        self.rels.iter().position(|(q, ..)| *q == p)
    }

    pub fn relation(&self, p: Symbol) -> Option<&Relation<X>> {
        self.position(p).map(|i| &self.rels[i].1)
    }

    /// The relation of `p`, if the database holds one: a lookup that
    /// creates nothing, for reads and removals.
    pub fn relation_mut(&mut self, p: Symbol) -> Option<&mut Relation<X>> {
        self.position(p).map(|i| &mut self.rels[i].1)
    }

    /// The entry of `p`, if the database holds one: creates nothing.
    pub fn entry_mut(&mut self, p: Symbol) -> Option<(&mut Relation<X>, &mut E)> {
        let i = self.position(p)?;
        let (_, rel, extra) = &mut self.rels[i];
        Some((rel, extra))
    }

    /// Every entry, in `Symbol` order.
    pub fn entries(&self) -> impl Iterator<Item = (Symbol, &Relation<X>, &E)> {
        self.rels.iter().map(|(p, rel, extra)| (*p, rel, extra))
    }

    pub fn preds(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.rels.iter().map(|(p, ..)| *p)
    }

    pub fn remove(&mut self, p: Symbol, t: &Tuple) -> bool {
        self.relation_mut(p).is_some_and(|r| r.remove(t))
    }

    pub fn contains(&self, p: Symbol, t: &Tuple) -> bool {
        self.relation(p).is_some_and(|r| r.contains(t))
    }

    pub fn len_of(&self, p: Symbol) -> usize {
        self.relation(p).map_or(0, Relation::len)
    }

    /// Total number of tuples across all relations.
    pub fn total_tuples(&self) -> usize {
        self.rels.iter().map(|(_, r, _)| r.len()).sum()
    }

    /// Sorted tuples of a relation — deterministic views for tests/output.
    pub fn sorted(&self, p: Symbol) -> Vec<Tuple> {
        self.relation(p)
            .map(|r| r.tuples().cloned().collect())
            .unwrap_or_default()
    }

    /// Probe counters summed across all relations.
    pub fn index_stats(&self) -> IndexStatsSnapshot {
        let mut s = IndexStatsSnapshot::default();
        for (_, r, _) in &self.rels {
            s.merge(r.index_stats());
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensorlog_logic::{intern, Term};

    fn tup(v: Vec<i64>) -> Tuple {
        Tuple::new(v.into_iter().map(Term::Int).collect())
    }

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    fn id(n: i64) -> ConstId {
        intern::intern_int(n)
    }

    #[test]
    fn insert_remove_contains() {
        let mut r = Relation::new();
        assert!(r.insert(tup(vec![1, 2]), TupleMeta::default()));
        assert!(!r.insert(tup(vec![1, 2]), TupleMeta::default()));
        assert!(r.contains(&tup(vec![1, 2])));
        assert_eq!(r.len(), 1);
        assert!(r.remove(&tup(vec![1, 2])));
        assert!(!r.remove(&tup(vec![1, 2])));
        assert!(r.is_empty());
    }

    #[test]
    fn duplicate_insert_keeps_earlier_timestamp() {
        let mut r = Relation::new();
        r.insert(tup(vec![1]), TupleMeta::at(10));
        r.insert(tup(vec![1]), TupleMeta::at(20));
        assert_eq!(r.meta(&tup(vec![1])).unwrap().gen_ts, 10);
    }

    #[test]
    fn index_select_and_consistency() {
        let mut r = Relation::new();
        r.register_index(&[0]);
        for i in 0..10 {
            r.insert(tup(vec![i % 3, i]), TupleMeta::default());
        }
        let mut out = Vec::new();
        r.select(&[0], &[id(1)], &mut out);
        let expect = (0..10).filter(|i| i % 3 == 1).count();
        assert_eq!(out.len(), expect);
        // Mutations are visible to the next probe.
        r.insert(tup(vec![1, 100]), TupleMeta::default());
        r.remove(&tup(vec![1, 1]));
        out.clear();
        r.select(&[0], &[id(1)], &mut out);
        assert_eq!(out.len(), expect); // +1 insert, -1 remove
        for t in &out {
            assert_eq!(t.get(0), Term::Int(1));
        }
    }

    #[test]
    fn multi_column_index() {
        let mut r = Relation::new();
        r.insert(tup(vec![1, 2, 3]), TupleMeta::default());
        r.insert(tup(vec![1, 2, 4]), TupleMeta::default());
        r.insert(tup(vec![1, 5, 3]), TupleMeta::default());
        let mut out = Vec::new();
        r.select(&[0, 1], &[id(1), id(2)], &mut out);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn prefix_signatures_need_no_registration() {
        let mut r = Relation::new();
        for i in 0..6 {
            r.insert(tup(vec![i % 2, i % 3, i]), TupleMeta::default());
        }
        let mut out = Vec::new();
        r.select(&[0], &[id(1)], &mut out);
        let expect: Vec<Tuple> = [vec![1, 0, 3], vec![1, 1, 1], vec![1, 2, 5]]
            .into_iter()
            .map(tup)
            .collect();
        assert_eq!(out, expect, "a range of the primary map is canonical order");
        out.clear();
        r.select(&[0, 1], &[id(1), id(2)], &mut out);
        assert_eq!(out, vec![tup(vec![1, 2, 5])]);
        let s = r.index_stats();
        assert_eq!((s.hits, s.scans), (2, 0));
        // A non-prefix signature scans until it is registered, then has its
        // own permutation.
        out.clear();
        r.select(&[2], &[id(4)], &mut out);
        assert_eq!(out, vec![tup(vec![0, 1, 4])]);
        assert_eq!(r.index_stats().scans, 1);
        assert!(r.index_contents(&[2]).is_none());
        r.register_index(&[2]);
        out.clear();
        r.select(&[2], &[id(4)], &mut out);
        assert_eq!(out, vec![tup(vec![0, 1, 4])]);
        let s = r.index_stats();
        assert_eq!((s.hits, s.scans), (3, 1));
        assert_eq!(r.registered_indexes(), vec![vec![2]]);
    }

    #[test]
    fn secondary_results_in_canonical_order() {
        let mut r = Relation::new();
        r.register_index(&[1]);
        let rows = [
            vec![3, 7, 1],
            vec![1, 7, 2],
            vec![1, 7, 1],
            vec![2, 5, 0],
            vec![1, 7],
        ];
        for v in rows {
            r.insert(tup(v), TupleMeta::default());
        }
        let mut out = Vec::new();
        r.select(&[1], &[id(7)], &mut out);
        let mut expect: Vec<Tuple> = [vec![3, 7, 1], vec![1, 7, 2], vec![1, 7, 1], vec![1, 7]]
            .into_iter()
            .map(tup)
            .collect();
        expect.sort();
        assert_eq!(
            out, expect,
            "secondary enumeration is canonical tuple order"
        );
    }

    /// A store whose every tuple has its own metadata: generation `i` for
    /// the `i`-th row.
    fn store(rows: impl IntoIterator<Item = Tuple>) -> Relation {
        let mut r = Relation::new();
        for (i, t) in rows.into_iter().enumerate() {
            r.insert(t, TupleMeta::at(i as u64));
        }
        r
    }

    /// On every key present at `cols` (plus one absent), the borrowing
    /// probe, `select` and the filtered scan agree row for row — tuple and
    /// metadata — and the lookups were ranges (`hits`) or walks (`scans`)
    /// as `ranged` says.
    fn assert_probes_equal_scans(r: &Relation, cols: &[usize], ranged: bool) {
        let mut keys: BTreeSet<Vec<ConstId>> = r
            .tuples()
            .filter(|t| cols.iter().all(|&c| c < t.arity()))
            .map(|t| cols.iter().map(|&c| t.id(c)).collect())
            .collect();
        keys.insert(cols.iter().map(|_| id(-77)).collect());
        let before = r.index_stats();
        for key in &keys {
            let (mut probed, mut selected, mut scanned) = (Vec::new(), Vec::new(), Vec::new());
            r.probe(cols, key, |t, m| probed.push((t.clone(), *m)));
            r.select(cols, key, &mut selected);
            r.scan_into(cols, key, &mut scanned);
            assert_eq!(selected, scanned, "cols {cols:?} key {key:?}");
            let with_meta: Vec<(Tuple, TupleMeta)> = scanned
                .into_iter()
                .map(|t| {
                    let m = *r.meta(&t).unwrap();
                    (t, m)
                })
                .collect();
            assert_eq!(probed, with_meta, "cols {cols:?} key {key:?}");
        }
        let (after, lookups) = (r.index_stats(), 2 * keys.len() as u64);
        let (hits, scans) = (after.hits - before.hits, after.scans - before.scans);
        let want = if ranged { (lookups, 0) } else { (0, lookups) };
        assert_eq!((hits, scans), want, "cols {cols:?}");
    }

    #[test]
    fn non_prefix_probe_on_mixed_arities_equals_scan() {
        let mut r = store(
            [
                vec![1],
                vec![2],
                vec![1, 5],
                vec![2, 5],
                vec![2, 6],
                vec![1, 5, 9],
                vec![3, 5, 0],
                vec![0, 6, 5],
            ]
            .map(tup),
        );
        assert_probes_equal_scans(&r, &[1], false);
        r.register_index(&[1]);
        assert_probes_equal_scans(&r, &[1], true);
        assert_probes_equal_scans(&r, &[0], true);
        assert_probes_equal_scans(&r, &[0, 1], true);
        assert_probes_equal_scans(&r, &[2], false);
        assert_probes_equal_scans(&r, &[1, 2], false);

        let mut r = store(
            [
                vec![1, 2, 3],
                vec![1, 9, 3],
                vec![1, 2, 3, 4],
                vec![1, 0, 3, 0],
                vec![2, 2, 3],
                vec![1, 3, 2, 3],
                vec![1, 2, 3, 4, 5],
                vec![1, 9, 3, 4, 0],
                vec![2, 2, 3, 7, 5],
                vec![1, 2, 3, 4, 6],
                vec![0, 2, 5, 4, 5],
            ]
            .map(tup),
        );
        r.register_index(&[0, 2]);
        assert_probes_equal_scans(&r, &[0, 2], true);
        assert_probes_equal_scans(&r, &[0, 3], false);
        // Wider than a tuple holds inline: 5-ary rows' secondary keys, and
        // probe keys of four and five columns, live on the heap.
        r.register_index(&[1, 3, 4]);
        assert_probes_equal_scans(&r, &[1, 3, 4], true);
        assert_probes_equal_scans(&r, &[0, 1, 2, 3], true);
        assert_probes_equal_scans(&r, &[0, 1, 2, 3, 4], true);
        assert_probes_equal_scans(&r, &[2, 4], false);
        r.register_index(&[1, 2, 3, 4]);
        assert_probes_equal_scans(&r, &[1, 2, 3, 4], true);
    }

    #[test]
    fn unkeyed_probe_is_the_whole_store_and_counts_as_a_full_scan() {
        let r = store([vec![2, 1], vec![1], vec![1, 7, 7], vec![0, 3]].map(tup));
        let (mut probed, mut selected, mut scanned) = (Vec::new(), Vec::new(), Vec::new());
        r.probe(&[], &[], |t, m| probed.push((t.clone(), *m)));
        r.select(&[], &[], &mut selected);
        r.scan_into(&[], &[], &mut scanned);
        assert_eq!(selected, scanned);
        let stored: Vec<(Tuple, TupleMeta)> = r.iter().map(|(t, m)| (t.clone(), *m)).collect();
        assert_eq!(probed, stored);
        assert_eq!(scanned.len(), 4);
        let s = r.index_stats();
        assert_eq!((s.hits, s.scans, s.full_scans), (0, 0, 2));
    }

    #[test]
    fn registering_a_populated_relation_builds_at_once_and_clone_keeps_it() {
        let mut r = Relation::new();
        for i in 0..5 {
            r.insert(tup(vec![i, i * 10]), TupleMeta::default());
        }
        r.register_index(&[1]);
        let c = r.clone();
        for rel in [&r, &c] {
            let mut out = Vec::new();
            rel.select(&[1], &[id(20)], &mut out);
            assert_eq!(out, vec![tup(vec![2, 20])]);
            let s = rel.index_stats();
            assert_eq!((s.hits, s.scans), (1, 0));
        }
        assert_eq!(c.registered_indexes(), vec![vec![1]]);
        // The clone is maintained independently of the original.
        let mut c = c;
        c.remove(&tup(vec![2, 20]));
        let mut out = Vec::new();
        c.select(&[1], &[id(20)], &mut out);
        assert!(out.is_empty());
        r.select(&[1], &[id(20)], &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn mixed_arity_probe_excludes_short_tuples() {
        let mut r = Relation::new();
        r.register_index(&[0, 1]);
        r.insert(tup(vec![1]), TupleMeta::default());
        r.insert(tup(vec![1, 2]), TupleMeta::default());
        r.insert(tup(vec![1, 2, 3]), TupleMeta::default());
        let mut out = Vec::new();
        r.select(&[0, 1], &[id(1), id(2)], &mut out);
        assert_eq!(out, vec![tup(vec![1, 2]), tup(vec![1, 2, 3])]);
    }

    #[test]
    fn expiry() {
        let mut r = Relation::new();
        r.insert(tup(vec![1]), TupleMeta::at(0));
        r.insert(tup(vec![2]), TupleMeta::at(50));
        let gone = r.expire(100, 100);
        assert_eq!(gone, vec![tup(vec![1])]);
        assert_eq!(r.len(), 1);
    }

    /// Reads and removals find what is there and create nothing: only a
    /// store makes a relation, in `Symbol` order whatever the order of
    /// first stores.
    #[test]
    fn a_lookup_creates_nothing() {
        let mut db = Database::new();
        assert!(!db.remove(sym("absent"), &tup(vec![1])));
        assert!(db.relation_mut(sym("absent")).is_none());
        assert!(!db.contains(sym("absent"), &tup(vec![1])));
        assert_eq!(db.preds().count(), 0);
        for p in ["m", "b", "z", "b"] {
            db.insert(sym(p), tup(vec![1]));
        }
        let preds: Vec<&str> = db.preds().map(Symbol::as_str).collect();
        assert_eq!(preds, ["b", "m", "z"]);
        assert!(db.remove(sym("m"), &tup(vec![1])));
        assert_eq!(db.len_of(sym("m")), 0);
    }

    /// A per-predicate extension is made with its relation, default, by
    /// the one lookup that inserts, and kept beside it in `Symbol` order;
    /// no other lookup makes either.
    #[test]
    fn an_extension_is_made_with_its_relation() {
        let mut db: Database<(), Vec<usize>> = Database::default();
        assert!(db.relation_mut(sym("m")).is_none());
        assert!(db.entry_mut(sym("m")).is_none());
        assert!(!db.remove(sym("m"), &tup(vec![1])));
        assert_eq!(db.entries().count(), 0);
        for (i, p) in ["m", "b", "z", "b"].into_iter().enumerate() {
            let (rel, extra) = db.entry_or_insert(sym(p));
            rel.insert(tup(vec![i as i64]), TupleMeta::default());
            extra.push(i);
        }
        db.relation_or_insert(sym("a"));
        let entries: Vec<(&str, usize, &[usize])> = (db.entries())
            .map(|(p, rel, extra)| (p.as_str(), rel.len(), extra.as_slice()))
            .collect();
        let want: [(&str, usize, &[usize]); 4] = [
            ("a", 0, &[]),
            ("b", 2, &[1, 3]),
            ("m", 1, &[0]),
            ("z", 1, &[2]),
        ];
        assert_eq!(entries, want);
        let preds: Vec<&str> = db.preds().map(Symbol::as_str).collect();
        assert_eq!(preds, ["a", "b", "m", "z"]);
        let z = db
            .entry_mut(sym("z"))
            .map(|(rel, extra)| (rel.len(), extra.len()));
        assert_eq!(z, Some((1, 1)));
    }

    #[test]
    fn database_load_facts() {
        let mut db = Database::new();
        let n = db
            .load_facts(
                r#"
                % edges
                e(1, 2).
                e(2, 3).
                "#,
            )
            .unwrap();
        assert_eq!(n, 2);
        assert_eq!(db.len_of(sym("e")), 2);
        assert!(db.contains(sym("e"), &tup(vec![1, 2])));
        let sorted = db.sorted(sym("e"));
        assert!(sorted[0] < sorted[1]);
    }

    /// Ids on both sides of the small-int boundary (4095 | 4096),
    /// negative ints, floats, strings and compound terms, as rows and as
    /// probe keys: ranges must cut where value order says, not id order.
    #[test]
    fn probes_match_scans_across_the_small_int_boundary_and_sorts() {
        let vals = [
            Term::Int(-3),
            Term::Int(0),
            Term::Int(4095),
            Term::Int(4096),
            Term::Int(70_000),
            Term::float(-0.5),
            Term::float(4095.5),
            Term::atom("a"),
            Term::atom("ab"),
            Term::str("a"),
            Term::app("loc", vec![Term::Int(1), Term::Int(4096)]),
        ];
        let mut rows = Vec::new();
        for (i, a) in vals.iter().enumerate() {
            for b in &vals[i % 3..] {
                rows.push(Tuple::new(vec![a.clone(), b.clone()]));
            }
            rows.push(Tuple::new(vec![a.clone()]));
        }
        let mut r = store(rows);
        let sorted: Vec<&Tuple> = r.tuples().collect();
        assert!(sorted.windows(2).all(|w| w[0].terms() < w[1].terms()));
        assert_probes_equal_scans(&r, &[1], false);
        r.register_index(&[1]);
        assert_probes_equal_scans(&r, &[0], true);
        assert_probes_equal_scans(&r, &[1], true);
        assert_probes_equal_scans(&r, &[0, 1], true);
    }
}
