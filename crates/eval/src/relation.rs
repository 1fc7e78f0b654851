//! Relations and databases.
//!
//! A [`Relation`] is a set of ground tuples with per-tuple metadata
//! (generation timestamp, optional deletion timestamp — Definition 2 / the
//! tombstone discipline of Sec. IV-B — and whatever else the store's owner
//! keeps per tuple, [`TupleMeta::extra`]) in one ordered map. `Tuple` order is
//! column-lexicographic value order, so a probe on a column prefix is a
//! range of that map; a registered non-prefix signature is the same range
//! over a second map keyed by the column-permuted tuple (see DESIGN.md,
//! "Tuple representation & ordered indexes").

use sensorlog_logic::intern::ConstId;
use sensorlog_logic::{Symbol, Tuple};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-tuple metadata. `X` is the store owner's own per-tuple record: the
/// engines keep none (`()`, which costs nothing), a sensor node keeps the
/// stored generation's tuple id there, so a replica is one entry of one map.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub struct TupleMeta<X = ()> {
    /// Generation timestamp (simulated ms; 0 for batch evaluation).
    pub gen_ts: u64,
    /// Tombstone: local timestamp of deletion, if deleted (Sec. IV-B keeps
    /// deleted replicas around with their deletion-timestamp recorded).
    pub del_ts: Option<u64>,
    pub extra: X,
}

impl TupleMeta {
    pub fn at(gen_ts: u64) -> TupleMeta {
        TupleMeta {
            gen_ts,
            del_ts: None,
            extra: (),
        }
    }
}

impl<X> TupleMeta<X> {
    /// Record a deletion at `del_ts`; of two, the earlier stands.
    pub fn tombstone(&mut self, del_ts: u64) {
        self.del_ts = Some(self.del_ts.map_or(del_ts, |d| d.min(del_ts)));
    }

    /// Theorem 3's timestamp discipline: a probe with
    /// update-timestamp `tau` over a window of `window` ms sees tuples with
    /// `gen_ts ≤ tau`, `gen_ts > tau − window`, and no deletion-timestamp
    /// `< tau`.
    pub fn visible_at(&self, tau: u64, window: Option<u64>) -> bool {
        if self.gen_ts > tau {
            return false;
        }
        if let Some(w) = window {
            if self.gen_ts + w <= tau {
                return false;
            }
        }
        match self.del_ts {
            Some(d) => d >= tau,
            None => true,
        }
    }
}

/// Whether the ascending signature `cols` is the run `0..k`: a prefix of
/// `Tuple`'s own column order, which the primary map serves. Any other
/// signature is served by the map keyed on `cols ++ ascending(rest)`.
fn is_prefix(cols: &[usize]) -> bool {
    cols.iter().enumerate().all(|(i, &c)| i == c)
}

/// `t`'s ids in `spec ++ ascending(rest)` column order: its key in the
/// secondary map of `spec`. Among tuples equal on the spec columns this
/// order is canonical tuple order. `None` if `t` lacks a spec column — no
/// probe on `spec` can match it, so it is not stored.
fn permuted(spec: &[usize], t: &Tuple) -> Option<Tuple> {
    let ids = t.ids();
    if spec.iter().any(|&c| c >= ids.len()) {
        return None;
    }
    let rest = (0..ids.len()).filter(|c| !spec.contains(c));
    let order = spec.iter().copied().chain(rest);
    if ids.len() > Tuple::INLINE {
        return Some(Tuple::from_ids(order.map(|c| ids[c]).collect()));
    }
    let mut buf = [0; Tuple::INLINE];
    for (slot, c) in buf.iter_mut().zip(order) {
        *slot = ids[c];
    }
    Some(Tuple::from_slice(&buf[..ids.len()]))
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

/// A set of ground tuples with metadata, ordered for keyed probes.
///
/// Tuples are kept in a `BTreeMap` so iteration order is the canonical tuple
/// order, identical across processes. This matters in the distributed
/// runtime: iteration order here feeds join-probe solution order and hence
/// message emission order; with a hash map the order would vary with the
/// per-process hasher seed and replays would diverge under message loss.
/// Probes preserve the same canonical order: a range of the primary map is
/// in it by definition, and a range of a secondary map holds tuples equal
/// on the permuted-first columns, ordered by the ascending rest.
#[derive(Clone, Debug)]
pub struct Relation<X = ()> {
    tuples: BTreeMap<Tuple, TupleMeta<X>>,
    /// Registered probe signatures — the bound-position sets the planner
    /// probes (`crate::planner`).
    registered: BTreeSet<Vec<usize>>,
    /// One map per registered non-prefix signature, [`permuted`] key →
    /// tuple, built at registration and maintained by insert/remove. Few
    /// enough that a linear scan beats hashing the signature.
    secondary: Vec<(Vec<usize>, BTreeMap<Tuple, Tuple>)>,
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
    /// tuple keeps the *earlier* generation timestamp ("later duplicates …
    /// are not considered as generations", Sec. III-B) but clears any
    /// tombstone.
    pub fn insert(&mut self, t: Tuple, meta: TupleMeta<X>) -> bool {
        self.update(t, |stored| match stored {
            Some(m) => {
                m.del_ts = None;
                None
            }
            None => Some(meta),
        })
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
                for (spec, map) in &mut self.secondary {
                    if let Some(k) = permuted(spec, e.key()) {
                        map.insert(k, e.key().clone());
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
        for (spec, map) in &mut self.secondary {
            if let Some(k) = permuted(spec, t) {
                map.remove(&k);
            }
        }
        true
    }

    /// Record a tombstone without removing the tuple (distributed replicas:
    /// "we do not remove the replicated copies … but only record its
    /// deletion-timestamp", Sec. IV-B).
    pub fn mark_deleted(&mut self, t: &Tuple, del_ts: u64) -> bool {
        match self.tuples.get_mut(t) {
            Some(m) => {
                m.tombstone(del_ts);
                true
            }
            None => false,
        }
    }

    fn secondary_of(&self, cols: &[usize]) -> Option<&BTreeMap<Tuple, Tuple>> {
        self.secondary
            .iter()
            .find(|(spec, _)| spec == cols)
            .map(|(_, map)| map)
    }

    /// Register `cols` as a probe signature. A non-prefix signature gets
    /// its secondary map built from the current tuples here and maintained
    /// through insert/remove from then on; a prefix signature needs nothing
    /// beyond the primary map. `cols` must be sorted and non-empty.
    pub fn register_index(&mut self, cols: &[usize]) {
        debug_assert!(!cols.is_empty() && cols.windows(2).all(|w| w[0] < w[1]));
        self.registered.insert(cols.to_vec());
        if !is_prefix(cols) && self.secondary_of(cols).is_none() {
            let map = self
                .tuples
                .keys()
                .filter_map(|t| Some((permuted(cols, t)?, t.clone())))
                .collect();
            self.secondary.push((cols.to_vec(), map));
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

    /// Full enumeration of the map serving probe signature `cols`, in its
    /// key order — diagnostics and the index-maintenance property test.
    /// `None` if the signature would be served by a scan.
    pub fn index_contents(&self, cols: &[usize]) -> Option<Vec<Tuple>> {
        if is_prefix(cols) {
            return Some(self.tuples.keys().cloned().collect());
        }
        Some(self.secondary_of(cols)?.values().cloned().collect())
    }

    /// The one lookup: visit every tuple whose ids at `cols` equal `key`
    /// (every tuple when `cols` is empty) in canonical tuple order, with its
    /// metadata where the map that served the lookup holds it. `cols` must
    /// be sorted.
    ///
    /// A prefix signature (`[0]`, `[0, 1]`, …) is the range of the primary
    /// map that starts with `key`; a registered non-prefix signature is the
    /// same range of its secondary map, whose keys start with the `cols`
    /// columns in order (and which holds no metadata); any other keyed
    /// signature is a filtered walk, counted in [`IndexStats::scans`], and
    /// an unkeyed one is the whole map, counted in
    /// [`IndexStats::full_scans`]. O(log n + matches) unless it walks.
    pub(crate) fn lookup<'a>(
        &'a self,
        cols: &[usize],
        key: &[ConstId],
        mut visit: impl FnMut(&'a Tuple, Option<&'a TupleMeta<X>>),
    ) {
        debug_assert!(cols.len() == key.len());
        if cols.is_empty() {
            self.stats.full_scans.fetch_add(1, Ordering::Relaxed);
            self.tuples.iter().for_each(|(t, m)| visit(t, Some(m)));
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
                .for_each(|(t, m)| visit(t, Some(m)));
        } else if let Some(map) = self.secondary_of(cols) {
            self.stats.hits.fetch_add(1, Ordering::Relaxed);
            map.range(&lo..)
                .take_while(|(k, _)| starts_with_key(k))
                .for_each(|(_, t)| visit(t, None));
        } else {
            self.stats.scans.fetch_add(1, Ordering::Relaxed);
            self.tuples
                .iter()
                .filter(|(t, _)| matches_at(t, cols, key))
                .for_each(|(t, m)| visit(t, Some(m)));
        }
    }

    /// Visit what matches `key` at `cols` ([`Relation::lookup`]: a range
    /// where the signature allows one), tuple and metadata, borrowing both
    /// from the store. The distributed runtime's node join
    /// (`core::partial`) reads its fragment stores through this; metadata
    /// costs a second descent only under a secondary map, which no node
    /// store registers.
    pub fn probe<'a>(
        &'a self,
        cols: &[usize],
        key: &[ConstId],
        mut visit: impl FnMut(&'a Tuple, &'a TupleMeta<X>),
    ) {
        self.lookup(cols, key, |t, m| {
            visit(t, m.unwrap_or_else(|| &self.tuples[t]))
        });
    }

    /// The tuples matching `key` at `cols` ([`Relation::lookup`]), cloned
    /// into `out`. The engines' body walk visits the same lookup in place.
    pub fn select(&self, cols: &[usize], key: &[ConstId], out: &mut Vec<Tuple>) {
        if cols.is_empty() {
            // The whole relation lands in one allocation.
            out.reserve(self.tuples.len());
        }
        self.lookup(cols, key, |t, _| out.push(t.clone()));
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

/// A named collection of relations.
#[derive(Clone, Debug)]
pub struct Database<X = ()> {
    rels: BTreeMap<Symbol, Relation<X>>,
}

impl<X> Default for Database<X> {
    fn default() -> Database<X> {
        Database {
            rels: BTreeMap::new(),
        }
    }
}

impl Database {
    pub fn new() -> Database {
        Database::default()
    }

    pub fn insert(&mut self, p: Symbol, t: Tuple) -> bool {
        self.relation_mut(p).insert(t, TupleMeta::default())
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

impl<X> Database<X> {
    pub fn relation(&self, p: Symbol) -> Option<&Relation<X>> {
        self.rels.get(&p)
    }

    pub fn relation_mut(&mut self, p: Symbol) -> &mut Relation<X> {
        self.rels.entry(p).or_default()
    }

    pub fn preds(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.rels.keys().copied()
    }

    pub fn remove(&mut self, p: Symbol, t: &Tuple) -> bool {
        self.relation_mut(p).remove(t)
    }

    pub fn contains(&self, p: Symbol, t: &Tuple) -> bool {
        self.rels.get(&p).is_some_and(|r| r.contains(t))
    }

    pub fn len_of(&self, p: Symbol) -> usize {
        self.rels.get(&p).map_or(0, Relation::len)
    }

    /// Total number of tuples across all relations.
    pub fn total_tuples(&self) -> usize {
        self.rels.values().map(Relation::len).sum()
    }

    /// Sorted tuples of a relation — deterministic views for tests/output.
    pub fn sorted(&self, p: Symbol) -> Vec<Tuple> {
        self.rels
            .get(&p)
            .map(|r| r.tuples().cloned().collect())
            .unwrap_or_default()
    }

    /// Register a persistent index signature on relation `p` (see
    /// [`Relation::register_index`]).
    pub fn register_index(&mut self, p: Symbol, cols: &[usize]) {
        self.relation_mut(p).register_index(cols);
    }

    /// Probe counters summed across all relations.
    pub fn index_stats(&self) -> IndexStatsSnapshot {
        let mut s = IndexStatsSnapshot::default();
        for r in self.rels.values() {
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
    fn reinsert_clears_tombstone() {
        let mut r = Relation::new();
        r.insert(tup(vec![1]), TupleMeta::at(10));
        r.mark_deleted(&tup(vec![1]), 15);
        assert!(r.meta(&tup(vec![1])).unwrap().del_ts.is_some());
        r.insert(tup(vec![1]), TupleMeta::at(20));
        assert!(r.meta(&tup(vec![1])).unwrap().del_ts.is_none());
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
    /// the `i`-th row, every third one tombstoned.
    fn store(rows: impl IntoIterator<Item = Tuple>) -> Relation {
        let mut r = Relation::new();
        for (i, t) in rows.into_iter().enumerate() {
            r.insert(t.clone(), TupleMeta::at(i as u64));
            if i % 3 == 0 {
                r.mark_deleted(&t, 1_000 + i as u64);
            }
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
            ]
            .map(tup),
        );
        r.register_index(&[0, 2]);
        assert_probes_equal_scans(&r, &[0, 2], true);
        assert_probes_equal_scans(&r, &[0, 3], false);
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
    fn visibility_window() {
        let m = TupleMeta::at(100);
        assert!(m.visible_at(100, None));
        assert!(m.visible_at(150, Some(100)));
        assert!(!m.visible_at(200, Some(100))); // 100 + 100 <= 200
        assert!(!m.visible_at(50, None)); // not yet generated
        let mut m = TupleMeta::at(100);
        m.del_ts = Some(120);
        assert!(m.visible_at(110, None));
        assert!(m.visible_at(120, None)); // deleted *at* tau still visible
        assert!(!m.visible_at(121, None));
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

    /// Ids on both sides of the pre-seeded small-int boundary (4095 | 4096),
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
