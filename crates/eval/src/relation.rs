//! Relations and databases.
//!
//! A [`Relation`] is a set of ground tuples with per-tuple metadata
//! (generation timestamp, optional deletion timestamp — Definition 2 / the
//! tombstone discipline of Sec. IV-B). Hot relations are additionally backed
//! by byte-trie indexes over column-permuted sort keys of the interned
//! constant ids, so one persistent structure answers every bound-column
//! prefix signature (see DESIGN.md, "Tuple representation & trie indexes").

use parking_lot::RwLock;
use sensorlog_logic::intern::{self, ConstId, IdHashMap};
use sensorlog_logic::{Symbol, Tuple};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-tuple metadata.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub struct TupleMeta {
    /// Generation timestamp (simulated ms; 0 for batch evaluation).
    pub gen_ts: u64,
    /// Tombstone: local timestamp of deletion, if deleted (Sec. IV-B keeps
    /// deleted replicas around with their deletion-timestamp recorded).
    pub del_ts: Option<u64>,
}

impl TupleMeta {
    pub fn at(gen_ts: u64) -> TupleMeta {
        TupleMeta {
            gen_ts,
            del_ts: None,
        }
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

/// An unregistered signature is probed by scanning this many times before
/// it is promoted to a persistent index — a safety net for probe paths the
/// static planner doesn't enumerate (aggregate group-key seeds, ad-hoc
/// queries).
const PROMOTE_AFTER: u32 = 4;

/// A compressed (path-merged) byte-trie node. Keys are concatenated
/// order-preserving sort keys of the tuple's interned constants in the
/// trie's column permutation; sort keys are prefix-free, so concatenation
/// is injective and memcmp order on keys equals the permuted column-
/// lexicographic tuple order.
#[derive(Clone, Debug, Default)]
struct TrieNode {
    /// Path bytes below the incoming edge byte (path compression).
    prefix: Vec<u8>,
    /// Tuple whose full key ends exactly here.
    leaf: Option<Tuple>,
    /// Edge bytes, ascending. Parallel to `child_nodes`: searching a dense
    /// byte array touches a couple of cache lines even at full fan-out,
    /// where a `Vec<(u8, TrieNode)>` would stride ~100 bytes per element.
    child_bytes: Vec<u8>,
    /// Child nodes, parallel to `child_bytes` — ascending-byte traversal
    /// yields canonical order.
    child_nodes: Vec<TrieNode>,
}

impl TrieNode {
    fn insert(&mut self, key: &[u8], t: Tuple) {
        let common = self
            .prefix
            .iter()
            .zip(key.iter())
            .take_while(|(a, b)| a == b)
            .count();
        if common < self.prefix.len() {
            // Split this node at the divergence point.
            let split_byte = self.prefix[common];
            let child = TrieNode {
                prefix: self.prefix[common + 1..].to_vec(),
                leaf: self.leaf.take(),
                child_bytes: std::mem::take(&mut self.child_bytes),
                child_nodes: std::mem::take(&mut self.child_nodes),
            };
            self.prefix.truncate(common);
            self.child_bytes.push(split_byte);
            self.child_nodes.push(child);
        }
        // Here self.prefix.len() == common (either it always was, or the
        // split above truncated it).
        if key.len() == common {
            self.leaf = Some(t);
            return;
        }
        let rest = &key[common..];
        match self.child_bytes.binary_search(&rest[0]) {
            Ok(i) => self.child_nodes[i].insert(&rest[1..], t),
            Err(i) => {
                self.child_bytes.insert(i, rest[0]);
                self.child_nodes.insert(
                    i,
                    TrieNode {
                        prefix: rest[1..].to_vec(),
                        leaf: Some(t),
                        child_bytes: Vec::new(),
                        child_nodes: Vec::new(),
                    },
                );
            }
        }
    }

    /// Remove `key`; returns true if a leaf was removed. Empty children are
    /// pruned (paths are not re-merged — harmless for correctness).
    fn remove(&mut self, key: &[u8]) -> bool {
        if key.len() < self.prefix.len() || key[..self.prefix.len()] != self.prefix[..] {
            return false;
        }
        let rest = &key[self.prefix.len()..];
        if rest.is_empty() {
            return self.leaf.take().is_some();
        }
        if let Ok(i) = self.child_bytes.binary_search(&rest[0]) {
            let removed = self.child_nodes[i].remove(&rest[1..]);
            if removed
                && self.child_nodes[i].leaf.is_none()
                && self.child_nodes[i].child_bytes.is_empty()
            {
                self.child_bytes.remove(i);
                self.child_nodes.remove(i);
            }
            removed
        } else {
            false
        }
    }

    /// Append every tuple whose key starts with `probe` (a whole-column
    /// boundary in the key encoding), in key order — which is canonical
    /// tuple order among the matches. Iterative: the descent is the probe
    /// hot path and a call frame per byte is measurable.
    fn collect_prefix(&self, mut probe: &[u8], out: &mut Vec<Tuple>) {
        let mut node = self;
        loop {
            let n = node.prefix.len().min(probe.len());
            if node.prefix[..n] != probe[..n] {
                return;
            }
            if probe.len() <= node.prefix.len() {
                node.collect_all(out);
                return;
            }
            probe = &probe[node.prefix.len()..];
            match node.child_bytes.binary_search(&probe[0]) {
                Ok(i) => {
                    node = &node.child_nodes[i];
                    probe = &probe[1..];
                }
                Err(_) => return,
            }
        }
    }

    fn collect_all(&self, out: &mut Vec<Tuple>) {
        // Leaf before children: a full key that ends here is a strict
        // prefix of every key below, i.e. the shorter tuple sorts first.
        if let Some(t) = &self.leaf {
            out.push(t.clone());
        }
        for c in &self.child_nodes {
            c.collect_all(out);
        }
    }
}

/// Cap on memoized probe entries per trie; past this the memo is cleared
/// wholesale (simple, bounded, and a full repopulation is just trie walks).
const MEMO_CAP: usize = 1 << 16;

/// Longest probe (bound-column count) the memo serves; wider probes walk
/// the trie every time. Join plans bind a handful of columns.
const MEMO_KEY_MAX: usize = 4;

/// Memo key: the probe's interned key ids in bound-column (ascending)
/// order, zero-padded. Unambiguous per trie: the signatures a canonical
/// spec serves have pairwise-distinct lengths — ascending-run sigs
/// `[0..k]` all share the identity trie, and any other sorted sig is its
/// own canon (stripping only fires on full `{0..max}` runs) — so
/// `(len, ids)` identifies the probe. Keying on ids keeps the memo hit
/// path entirely free of pool-entry derefs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct MemoKey {
    len: u8,
    ids: [ConstId; MEMO_KEY_MAX],
}

impl MemoKey {
    fn new(ids: &[ConstId]) -> Option<MemoKey> {
        if ids.len() > MEMO_KEY_MAX {
            return None;
        }
        let mut k = MemoKey {
            len: ids.len() as u8,
            ids: [0; MEMO_KEY_MAX],
        };
        k.ids[..ids.len()].copy_from_slice(ids);
        Some(k)
    }
}

/// Never iterated, so the id hasher cannot affect any observable order.
type MemoMap = IdHashMap<MemoKey, Memoized>;

/// Memoized probe results. Most probes return zero or one tuple (keyed
/// relations); storing those inline skips the postings-vector indirection
/// on the hit path.
#[derive(Clone, Debug)]
enum Memoized {
    Zero,
    One(Tuple),
    Many(Vec<Tuple>),
}

impl Memoized {
    fn of(results: &[Tuple]) -> Memoized {
        match results {
            [] => Memoized::Zero,
            [t] => Memoized::One(t.clone()),
            _ => Memoized::Many(results.to_vec()),
        }
    }

    fn extend_into(&self, out: &mut Vec<Tuple>) {
        match self {
            Memoized::Zero => {}
            Memoized::One(t) => out.push(t.clone()),
            Memoized::Many(v) => out.extend(v.iter().cloned()),
        }
    }
}

/// One built trie: tuples keyed on the column permutation
/// `spec ++ ascending(complement)`. Tuples missing a spec column (arity too
/// small) are not stored; probes exclude them by key-length anyway.
#[derive(Clone, Debug)]
struct Trie {
    spec: Spec,
    root: TrieNode,
    /// Materialized probe results, keyed by probe bytes. A radix descent
    /// into a large cold trie is a chain of dependent cache misses; the
    /// fixpoint loop re-probes the same keys across rules and iterations,
    /// so repeated probes are served at hash-lookup speed from here while
    /// the trie itself remains the source of canonical order. Entries are
    /// invalidated on insert/remove at every whole-column prefix of the
    /// mutated tuple's key (probes are column-aligned by construction).
    memo: MemoMap,
}

impl Trie {
    fn new(spec: Spec) -> Trie {
        Trie {
            spec,
            root: TrieNode::default(),
            memo: MemoMap::default(),
        }
    }

    /// Full key of `t` under this trie's permutation; `None` if the tuple
    /// lacks a spec column.
    fn key_bytes(&self, t: &Tuple) -> Option<Vec<u8>> {
        let a = t.arity();
        if self.spec.iter().any(|c| c >= a) {
            return None;
        }
        let mut out = Vec::with_capacity(a * 10);
        for c in self.spec.iter() {
            out.extend_from_slice(&intern::entry(t.id(c)).sort_key);
        }
        for c in 0..a {
            if !self.spec.contains(c) {
                out.extend_from_slice(&intern::entry(t.id(c)).sort_key);
            }
        }
        Some(out)
    }

    /// Drop memo entries whose probe `t` answers (or could start
    /// answering). The identity trie serves the ascending-run signatures
    /// `[0..k]`, so every id prefix of `t` is a candidate key; any other
    /// spec serves exactly its own signature.
    fn invalidate_memo(&mut self, t: &Tuple) {
        if self.memo.is_empty() {
            return;
        }
        let a = t.arity();
        if self.spec.len == 0 {
            for k in 1..=a.min(MEMO_KEY_MAX) {
                if let Some(mk) = MemoKey::new(&t.ids()[..k]) {
                    self.memo.remove(&mk);
                }
            }
        } else {
            let mut ids = [0; MEMO_KEY_MAX];
            let n = self.spec.len as usize;
            if n <= MEMO_KEY_MAX && self.spec.iter().all(|c| c < a) {
                for (i, c) in self.spec.iter().enumerate() {
                    ids[i] = t.id(c);
                }
                self.memo.remove(&MemoKey { len: n as u8, ids });
            }
        }
    }

    fn insert(&mut self, t: &Tuple) {
        if let Some(k) = self.key_bytes(t) {
            self.invalidate_memo(t);
            self.root.insert(&k, t.clone());
        }
    }

    fn remove(&mut self, t: &Tuple) {
        if let Some(k) = self.key_bytes(t) {
            self.invalidate_memo(t);
            self.root.remove(&k);
        }
    }
}

/// An inline bound-column signature: up to [`Spec::MAX`] column positions,
/// each `< 256`. Copyable and comparable as two machine words, so the probe
/// hot path never allocates or hashes a `Vec<usize>`. Signatures that don't
/// fit (absurdly wide probes) fall back to the filtered scan in
/// [`Relation::select`], which is always correct.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
struct Spec {
    len: u8,
    cols: [u8; Spec::MAX],
}

impl Spec {
    const MAX: usize = 15;

    fn from_cols(cols: &[usize]) -> Option<Spec> {
        if cols.len() > Spec::MAX || cols.iter().any(|&c| c > u8::MAX as usize) {
            return None;
        }
        let mut s = Spec {
            len: cols.len() as u8,
            cols: [0; Spec::MAX],
        };
        for (i, &c) in cols.iter().enumerate() {
            s.cols[i] = c as u8;
        }
        Some(s)
    }

    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.cols[..self.len as usize].iter().map(|&c| c as usize)
    }

    fn contains(&self, c: usize) -> bool {
        self.cols[..self.len as usize].contains(&(c as u8))
    }

    fn to_vec(self) -> Vec<usize> {
        self.iter().collect()
    }
}

/// Canonical trie spec serving a probe on bound columns `cols` (ascending):
/// strip trailing columns that the default ascending completion would place
/// next anyway. `canon([0]) == canon([0, 1]) == []` — the identity-order
/// trie serves every ascending-prefix signature — while `canon([1]) == [1]`
/// and `canon([0, 2]) == [0, 2]` get their own permutations. A probe on
/// `cols` is answerable by trie `S` iff `cols` equals the first
/// `cols.len()` columns of `S`'s permutation; this canon is the unique
/// such suffix-stripped spec, so equal-prefix probes share one structure.
fn canon_spec(spec: Spec) -> Spec {
    let mut spec = spec;
    while spec.len > 0 {
        let last = spec.cols[spec.len as usize - 1];
        // mex of the (ascending) prefix = first gap.
        let mut mex = 0;
        for &c in &spec.cols[..spec.len as usize - 1] {
            if c == mex {
                mex += 1;
            } else {
                break;
            }
        }
        if last == mex {
            spec.len -= 1;
            spec.cols[spec.len as usize] = 0;
        } else {
            break;
        }
    }
    spec
}

/// Index machinery behind one lock: built tries (keyed by canonical spec),
/// the registered (persistent) probe signatures, and scan counts driving
/// auto-promotion.
#[derive(Debug, Default)]
struct TrieStore {
    /// Built tries, canonical spec → trie, few enough that a linear scan
    /// over inline [`Spec`] keys beats hashing. Maintained on
    /// insert/remove; one trie serves every probe signature with the same
    /// canonical spec.
    built: Vec<(Spec, Trie)>,
    /// Persistent probe signatures — the bound-position sets the planner
    /// probes (`crate::planner`). Registration survives
    /// [`Relation::clone`]; the trie itself is rebuilt on first probe and
    /// maintained from then on.
    registered: BTreeSet<Spec>,
    /// Probe counts for unregistered signatures (promotion heuristic).
    scan_counts: HashMap<Spec, u32>,
    /// Canonical specs whose built tries a clone dropped — the next build
    /// of one of these counts as a rebuild (`join.index.rebuilds`).
    dropped_by_clone: BTreeSet<Spec>,
}

impl TrieStore {
    fn built_get(&self, spec: Spec) -> Option<&Trie> {
        self.built.iter().find(|(s, _)| *s == spec).map(|(_, t)| t)
    }

    fn built_get_mut(&mut self, spec: Spec) -> Option<&mut Trie> {
        self.built
            .iter_mut()
            .find(|(s, _)| *s == spec)
            .map(|(_, t)| t)
    }
}

/// Probe counters for `join.index.*` telemetry. Relaxed atomics: probes
/// take `&self`, and the counts are only read for snapshots.
#[derive(Debug, Default)]
pub struct IndexStats {
    /// Probes served by a maintained trie.
    pub hits: AtomicU64,
    /// Trie builds (first probe of a registered/promoted signature).
    pub builds: AtomicU64,
    /// Probes served by a filtered scan (unregistered signature).
    pub scans: AtomicU64,
    /// Builds that re-created a trie dropped by [`Relation::clone`] — the
    /// silent cost of the clone-drops-cache policy, made visible.
    pub rebuilds: AtomicU64,
    /// Body literals evaluated with no bound column ([`Relation::full_scan`]):
    /// the whole relation is enumerated. An evaluator that does this per
    /// stage or per delta costs relation size, not frontier size.
    pub full_scans: AtomicU64,
}

/// Owned snapshot of [`IndexStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IndexStatsSnapshot {
    pub hits: u64,
    pub builds: u64,
    pub scans: u64,
    pub rebuilds: u64,
    pub full_scans: u64,
}

impl IndexStatsSnapshot {
    pub fn merge(&mut self, other: IndexStatsSnapshot) {
        self.hits += other.hits;
        self.builds += other.builds;
        self.scans += other.scans;
        self.rebuilds += other.rebuilds;
        self.full_scans += other.full_scans;
    }
}

/// A set of ground tuples with metadata and persistent trie indexes.
///
/// Tuples are kept in a `BTreeMap` so iteration order is the canonical tuple
/// order, identical across processes. This matters in the distributed
/// runtime: iteration order here feeds join-probe solution order and hence
/// message emission order; with a hash map the order would vary with the
/// per-process hasher seed and replays would diverge under message loss.
/// Trie enumeration preserves the same canonical order: keys are
/// order-preserving sort keys, and equal-prefix matches differ only in the
/// ascending remaining columns.
#[derive(Debug, Default)]
pub struct Relation {
    tuples: BTreeMap<Tuple, TupleMeta>,
    /// See [`TrieStore`]. `RwLock` because trie building and promotion
    /// happen during `&self` lookups.
    indexes: RwLock<TrieStore>,
    stats: IndexStats,
}

impl Clone for Relation {
    fn clone(&self) -> Relation {
        // Built tries are a cache: don't copy them. Registrations are
        // *policy* and survive the clone — the planner's signatures keep
        // paying off after the semi-naive engine clones its working EDB.
        // Dropped specs are remembered so the rebuild cost shows up in
        // `join.index.rebuilds` instead of vanishing silently.
        let src = self.indexes.read();
        let mut dropped = src.dropped_by_clone.clone();
        dropped.extend(src.built.iter().map(|(s, _)| *s));
        Relation {
            tuples: self.tuples.clone(),
            indexes: RwLock::new(TrieStore {
                built: Vec::new(),
                registered: src.registered.clone(),
                scan_counts: HashMap::new(),
                dropped_by_clone: dropped,
            }),
            stats: IndexStats::default(),
        }
    }
}

impl Relation {
    pub fn new() -> Relation {
        Relation::default()
    }

    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    pub fn contains(&self, t: &Tuple) -> bool {
        self.tuples.contains_key(t)
    }

    pub fn meta(&self, t: &Tuple) -> Option<&TupleMeta> {
        self.tuples.get(t)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, &TupleMeta)> {
        self.tuples.iter()
    }

    pub fn tuples(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.keys()
    }

    /// Insert a tuple; returns true if it was new. Re-inserting an existing
    /// tuple keeps the *earlier* generation timestamp ("later duplicates …
    /// are not considered as generations", Sec. III-B) but clears any
    /// tombstone.
    pub fn insert(&mut self, t: Tuple, meta: TupleMeta) -> bool {
        match self.tuples.entry(t.clone()) {
            std::collections::btree_map::Entry::Occupied(mut e) => {
                e.get_mut().del_ts = None;
                false
            }
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(meta);
                let mut idx = self.indexes.write();
                for (_, trie) in idx.built.iter_mut() {
                    trie.insert(&t);
                }
                true
            }
        }
    }

    /// Physically remove a tuple; returns true if it was present.
    pub fn remove(&mut self, t: &Tuple) -> bool {
        if self.tuples.remove(t).is_some() {
            let mut idx = self.indexes.write();
            for (_, trie) in idx.built.iter_mut() {
                trie.remove(t);
            }
            true
        } else {
            false
        }
    }

    /// Record a tombstone without removing the tuple (distributed replicas:
    /// "we do not remove the replicated copies … but only record its
    /// deletion-timestamp", Sec. IV-B).
    pub fn mark_deleted(&mut self, t: &Tuple, del_ts: u64) -> bool {
        match self.tuples.get_mut(t) {
            Some(m) => {
                m.del_ts = Some(m.del_ts.map_or(del_ts, |d| d.min(del_ts)));
                true
            }
            None => false,
        }
    }

    /// Register `cols` as a persistent index signature: the serving trie is
    /// built on the first probe and maintained through insert/delete from
    /// then on, and the registration survives [`Clone`]. `cols` must be
    /// sorted and non-empty.
    pub fn register_index(&mut self, cols: &[usize]) {
        debug_assert!(!cols.is_empty() && cols.windows(2).all(|w| w[0] < w[1]));
        if let Some(spec) = Spec::from_cols(cols) {
            self.indexes.write().registered.insert(spec);
        }
    }

    /// Registered index signatures, sorted.
    pub fn registered_indexes(&self) -> Vec<Vec<usize>> {
        self.indexes
            .read()
            .registered
            .iter()
            .map(|s| s.to_vec())
            .collect()
    }

    /// Canonical specs of currently built tries, sorted.
    pub fn built_tries(&self) -> Vec<Vec<usize>> {
        let mut v: Vec<Vec<usize>> = self
            .indexes
            .read()
            .built
            .iter()
            .map(|(s, _)| s.to_vec())
            .collect();
        v.sort();
        v
    }

    /// Probe counters (see [`IndexStats`]).
    pub fn index_stats(&self) -> IndexStatsSnapshot {
        IndexStatsSnapshot {
            hits: self.stats.hits.load(Ordering::Relaxed),
            builds: self.stats.builds.load(Ordering::Relaxed),
            scans: self.stats.scans.load(Ordering::Relaxed),
            rebuilds: self.stats.rebuilds.load(Ordering::Relaxed),
            full_scans: self.stats.full_scans.load(Ordering::Relaxed),
        }
    }

    /// Full enumeration of the trie serving probe signature `cols`, in trie
    /// (key) order — diagnostics and the index-maintenance property test.
    /// `None` if no trie is built for the signature's canonical spec.
    pub fn index_contents(&self, cols: &[usize]) -> Option<Vec<Tuple>> {
        let spec = canon_spec(Spec::from_cols(cols)?);
        let idx = self.indexes.read();
        let trie = idx.built_get(spec)?;
        let mut out = Vec::new();
        trie.root.collect_all(&mut out);
        Some(out)
    }

    /// Tuples whose argument values at `cols` equal the interned `key`, in
    /// canonical tuple order. `cols` must be sorted and non-empty.
    ///
    /// Probe policy: a built trie whose column permutation starts with
    /// `cols` answers directly (one trie per *canonical spec* serves every
    /// signature sharing that prefix — `[0]`, `[0,1]`, … all hit the
    /// identity trie); a registered (or promoted) signature builds its trie
    /// on first probe and keeps it maintained; anything else is a filtered
    /// scan — cheap for one-shot probes, counted toward promotion so a hot
    /// unregistered signature stops rescanning after [`PROMOTE_AFTER`]
    /// probes.
    pub fn select(&self, cols: &[usize], key: &[ConstId], out: &mut Vec<Tuple>) {
        debug_assert!(!cols.is_empty());
        let Some(sig) = Spec::from_cols(cols) else {
            // A signature too wide for the inline spec: filtered scan.
            self.stats.scans.fetch_add(1, Ordering::Relaxed);
            self.scan_into(cols, key, out);
            return;
        };
        let spec = canon_spec(sig);
        {
            let idx = self.indexes.read();
            if let Some(trie) = idx.built_get(spec) {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                let memo_key = MemoKey::new(key);
                if let Some(mk) = &memo_key {
                    if let Some(v) = trie.memo.get(mk) {
                        v.extend_into(out);
                        return;
                    }
                }
                let start = out.len();
                PROBE_BUF.with(|buf| {
                    let mut probe = buf.borrow_mut();
                    probe_bytes(trie, cols, key, &mut probe);
                    trie.root.collect_prefix(&probe, out);
                });
                let Some(mk) = memo_key else {
                    return;
                };
                // Memoize the cold walk. Mutation needs `&mut Relation`, so
                // nothing can invalidate between the walk above and this
                // write — concurrent selects at worst store the same entry.
                let results = Memoized::of(&out[start..]);
                drop(idx);
                let mut idx = self.indexes.write();
                if let Some(trie) = idx.built_get_mut(spec) {
                    if trie.memo.len() >= MEMO_CAP {
                        trie.memo.clear();
                    }
                    trie.memo.insert(mk, results);
                }
                return;
            }
        }
        let mut idx = self.indexes.write();
        let promote = idx.registered.contains(&sig) || {
            let c = idx.scan_counts.entry(sig).or_insert(0);
            *c += 1;
            *c >= PROMOTE_AFTER
        };
        if !promote {
            drop(idx);
            self.stats.scans.fetch_add(1, Ordering::Relaxed);
            self.scan_into(cols, key, out);
            return;
        }
        // Build the trie (and keep it: insert/remove maintain it).
        self.stats.builds.fetch_add(1, Ordering::Relaxed);
        if idx.dropped_by_clone.remove(&spec) {
            self.stats.rebuilds.fetch_add(1, Ordering::Relaxed);
        }
        let mut trie = Trie::new(spec);
        for t in self.tuples.keys() {
            trie.insert(t);
        }
        PROBE_BUF.with(|buf| {
            let mut probe = buf.borrow_mut();
            probe_bytes(&trie, cols, key, &mut probe);
            trie.root.collect_prefix(&probe, out);
        });
        idx.scan_counts.remove(&sig);
        idx.registered.insert(sig);
        idx.built.push((spec, trie));
    }

    /// The id-filtered scan: tuples whose ids at `cols` equal `key` (all of
    /// them when `cols` is empty), in canonical tuple order, touching no
    /// index machinery or stats. [`Relation::select`] falls back to it, and
    /// the distributed runtime probes its small per-node fragment stores
    /// with it directly — a trie per node costs more heap than it saves.
    pub fn scan_into(&self, cols: &[usize], key: &[ConstId], out: &mut Vec<Tuple>) {
        if cols.is_empty() {
            // Exact size hint: the whole relation lands in one allocation.
            out.extend(self.tuples.keys().cloned());
            return;
        }
        out.extend(
            self.tuples
                .keys()
                .filter(|t| {
                    cols.iter().all(|&c| c < t.arity())
                        && cols.iter().zip(key.iter()).all(|(&c, &k)| t.id(c) == k)
                })
                .cloned(),
        );
    }

    /// Every tuple, in canonical order: a body literal evaluated with no
    /// bound column. Counted in [`IndexStats::full_scans`].
    pub fn full_scan(&self, out: &mut Vec<Tuple>) {
        self.stats.full_scans.fetch_add(1, Ordering::Relaxed);
        self.scan_into(&[], &[], out);
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

thread_local! {
    /// Reusable probe-key buffer: probes are frequent and keys are tiny, so
    /// the hot path must not allocate per call.
    static PROBE_BUF: std::cell::RefCell<Vec<u8>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Probe key bytes for `trie` into `out`: the bound values' sort keys in
/// the trie's column permutation order (spec columns first, remaining bound
/// columns ascending). By construction of [`canon_spec`] the bound set is
/// exactly the first `cols.len()` columns of the permutation, so this is a
/// whole-column-aligned key prefix.
fn probe_bytes(trie: &Trie, cols: &[usize], key: &[ConstId], out: &mut Vec<u8>) {
    debug_assert_eq!(cols.len(), key.len());
    out.clear();
    let id_at = |c: usize| key[cols.binary_search(&c).expect("probe col missing")];
    for c in trie.spec.iter() {
        out.extend_from_slice(&intern::entry(id_at(c)).sort_key);
    }
    for &c in cols {
        if !trie.spec.contains(c) {
            out.extend_from_slice(&intern::entry(id_at(c)).sort_key);
        }
    }
}

/// A named collection of relations.
#[derive(Clone, Debug, Default)]
pub struct Database {
    rels: BTreeMap<Symbol, Relation>,
}

impl Database {
    pub fn new() -> Database {
        Database::default()
    }

    pub fn relation(&self, p: Symbol) -> Option<&Relation> {
        self.rels.get(&p)
    }

    pub fn relation_mut(&mut self, p: Symbol) -> &mut Relation {
        self.rels.entry(p).or_default()
    }

    pub fn preds(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.rels.keys().copied()
    }

    pub fn insert(&mut self, p: Symbol, t: Tuple) -> bool {
        self.relation_mut(p).insert(t, TupleMeta::default())
    }

    pub fn insert_at(&mut self, p: Symbol, t: Tuple, gen_ts: u64) -> bool {
        self.relation_mut(p).insert(t, TupleMeta::at(gen_ts))
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
        let mut v: Vec<Tuple> = self
            .rels
            .get(&p)
            .map(|r| r.tuples().cloned().collect())
            .unwrap_or_default();
        v.sort();
        v
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

#[cfg(test)]
mod tests {
    use super::*;
    use sensorlog_logic::Term;

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
        // Mutations keep the built trie consistent.
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
    fn one_trie_serves_prefix_compatible_signatures() {
        let mut r = Relation::new();
        r.register_index(&[0]);
        r.register_index(&[0, 1]);
        for i in 0..6 {
            r.insert(tup(vec![i % 2, i % 3, i]), TupleMeta::default());
        }
        let mut out = Vec::new();
        r.select(&[0], &[id(1)], &mut out);
        assert_eq!(r.index_stats().builds, 1);
        out.clear();
        // Same canonical spec ([]) — no second build, straight hit.
        r.select(&[0, 1], &[id(1), id(2)], &mut out);
        let s = r.index_stats();
        assert_eq!((s.builds, s.hits), (1, 1));
        assert_eq!(out, vec![tup(vec![1, 2, 5])]);
        assert_eq!(r.built_tries(), vec![Vec::<usize>::new()]);
        // A non-prefix signature gets its own permutation.
        out.clear();
        r.register_index(&[2]);
        r.select(&[2], &[id(4)], &mut out);
        assert_eq!(out, vec![tup(vec![0, 1, 4])]);
        assert_eq!(r.built_tries(), vec![vec![], vec![2]]);
    }

    #[test]
    fn trie_results_in_canonical_order() {
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
        assert_eq!(out, expect, "trie enumeration is canonical tuple order");
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

    #[test]
    fn unregistered_signature_promotes_after_repeated_scans() {
        let mut r = Relation::new();
        for i in 0..5 {
            r.insert(tup(vec![i, i * 10]), TupleMeta::default());
        }
        let mut out = Vec::new();
        for _ in 0..PROMOTE_AFTER {
            out.clear();
            r.select(&[1], &[id(20)], &mut out);
        }
        let s = r.index_stats();
        assert_eq!(s.scans, (PROMOTE_AFTER - 1) as u64);
        assert_eq!(s.builds, 1, "the PROMOTE_AFTER-th probe builds the trie");
        out.clear();
        r.select(&[1], &[id(20)], &mut out);
        assert_eq!(r.index_stats().hits, 1);
        assert_eq!(out, vec![tup(vec![2, 20])]);
    }

    #[test]
    fn registration_survives_clone_and_rebuilds_on_probe() {
        let mut r = Relation::new();
        r.register_index(&[0]);
        r.insert(tup(vec![1, 2]), TupleMeta::default());
        let mut out = Vec::new();
        r.select(&[0], &[id(1)], &mut out);
        assert_eq!(r.index_stats().builds, 1);
        assert_eq!(r.index_stats().rebuilds, 0);
        let c = r.clone();
        assert_eq!(c.registered_indexes(), vec![vec![0]]);
        assert_eq!(c.index_stats().builds, 0, "stats reset on clone");
        out.clear();
        c.select(&[0], &[id(1)], &mut out);
        let s = c.index_stats();
        assert_eq!(s.builds, 1, "first probe after clone rebuilds");
        assert_eq!(
            s.rebuilds, 1,
            "rebuild of a clone-dropped trie is counted separately"
        );
        assert_eq!(out.len(), 1);
        // A second clone before any probe chains the dropped set through.
        let c2 = c.clone().clone();
        out.clear();
        c2.select(&[0], &[id(1)], &mut out);
        assert_eq!(c2.index_stats().rebuilds, 1);
    }

    #[test]
    fn clone_drops_index_cache_but_keeps_tuples() {
        let mut r = Relation::new();
        r.insert(tup(vec![1, 2]), TupleMeta::default());
        let mut out = Vec::new();
        r.select(&[0], &[id(1)], &mut out);
        let c = r.clone();
        assert_eq!(c.len(), 1);
        let mut out2 = Vec::new();
        c.select(&[0], &[id(1)], &mut out2);
        assert_eq!(out2.len(), 1);
    }

    #[test]
    fn trie_probe_matches_fresh_scan_on_strings_and_apps() {
        let mut r = Relation::new();
        r.register_index(&[0]);
        let rows: Vec<Vec<Term>> = vec![
            vec![Term::atom("a"), Term::Int(1)],
            vec![Term::atom("a"), Term::float(1.5)],
            vec![Term::atom("ab"), Term::Int(2)],
            vec![Term::str("a"), Term::Int(3)],
            vec![
                Term::app("loc", vec![Term::Int(1), Term::Int(2)]),
                Term::Int(4),
            ],
        ];
        for v in &rows {
            r.insert(Tuple::new(v.clone()), TupleMeta::default());
        }
        let probe = intern::intern_term(&Term::atom("a")).unwrap();
        let mut out = Vec::new();
        r.select(&[0], &[probe], &mut out);
        let expect: Vec<Tuple> = r.tuples().filter(|t| t.id(0) == probe).cloned().collect();
        assert_eq!(out, expect);
        assert_eq!(out.len(), 2);
    }
}
