//! The per-node runtime: the compiled program's node state machine
//! (Sec. V, Fig. 3 — "the join component at a sensor node").
//!
//! Each node holds replicated fragments of the streams whose storage
//! regions cross it, runs the storage and join-computation phases of the
//! Generalized Perpendicular Approach, and — for derived tuples it owns
//! (`DistProgram::owner_of`) — maintains the set of derivations with
//! multiplicity counts and propagates liveness transitions as new stream
//! updates (Secs. III-B, IV).

use crate::durable::DurableStore;
use crate::msg::{Msg, Payload, ProbeMsg, RuleWork};
use crate::partial::{
    process_partials, seed_partial, Fragments, LocalCtx, Partial, ProbeWork, RuleShape,
};
use crate::plan::DistProgram;
use crate::prov::{ProvRecord, Provenance};
use crate::strategy::{PassMode, Strategy};
use crate::tupleid::{clamp_absorbs, DerivationKey, FactRecord, TupleId, EDB_RULE};
use sensorlog_eval::eval_body::instantiate_head;
use sensorlog_eval::relation::TupleMeta;
use sensorlog_eval::{Firing, IncrementalEngine, Support, Update, UpdateKind};
use sensorlog_logic::intern::{IdHashMap, IdHashSet};
use sensorlog_logic::{Literal, Symbol, Tuple};
use sensorlog_netsim::{App, Ctx, MsgMeta, NodeId, SimTime, Topology};
use sensorlog_netstack::{GatherTree, Router};
use sensorlog_telemetry::{HistId, Histogram, Scope, Telemetry, SIM_MS_BUCKETS};
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::sync::{Arc, Mutex, MutexGuard};

/// Shared routing context: the topology, the next-hop oracle over it, and
/// the two whole-network facts the runtime scales its timers and picks its
/// server by.
#[derive(Debug)]
pub struct NetInfo {
    pub topo: Topology,
    router: Router,
    /// Network depth in hops: the longest route a message can take
    /// (grid diameter, or BFS eccentricity of node 0 off-grid). Scales
    /// per-hop latency estimates up to end-to-end bounds; always ≥ 1.
    depth: SimTime,
    /// Centroid's central server ([`Strategy::center`] of `topo`).
    center: NodeId,
}

impl NetInfo {
    pub fn new(topo: Topology) -> NetInfo {
        let depth = match topo.grid_dims() {
            Some((cols, rows)) => (cols + rows).saturating_sub(2),
            None => GatherTree::bfs(&topo, NodeId(0)).max_depth(),
        };
        NetInfo {
            center: Strategy::center(&topo),
            router: Router::new(&topo),
            topo,
            depth: (depth as SimTime).max(1),
        }
    }

    /// Count the router's hop decisions into `tele` (`layer:netstack`).
    pub(crate) fn with_telemetry(mut self, tele: Telemetry) -> NetInfo {
        self.router = self.router.with_telemetry(tele);
        self
    }

    /// The central server for Centroid: the node closest to the deployment
    /// centroid. A scan of every node, so it is done once here rather than
    /// per update.
    pub fn center(&self) -> NodeId {
        self.center
    }

    /// Network depth in hops (≥ 1).
    pub fn depth(&self) -> SimTime {
        self.depth
    }

    /// Next hop from `from` toward `dest` (`from != dest`), as the
    /// [`Router`] decides it. `None` when `dest` is unreachable from `from`
    /// (disconnected topology) — callers on the message path must treat
    /// that as a routed drop, not a panic.
    pub fn next_hop(&self, from: NodeId, dest: NodeId) -> Option<NodeId> {
        debug_assert_ne!(from, dest);
        self.router.next_hop(&self.topo, from, dest)
    }
}

/// Runtime timing/strategy configuration, shared by all nodes.
#[derive(Clone, Debug)]
pub struct RtConfig {
    pub strategy: Strategy,
    /// Whose pass plans the probes walk ([`DistProgram::with_pass_mode`]);
    /// read when the deployment compiles the program.
    pub pass_mode: PassMode,
    /// Upper bound on storage-phase completion (τs, ms).
    pub tau_s: SimTime,
    /// Max clock skew (τc, ms) — must match the simulator's.
    pub tau_c: SimTime,
    /// Upper bound on join-phase completion (τj, ms) — used in retention.
    pub tau_j: SimTime,
    /// Spatial-constraint radius truncating regions (Fig. 7 experiments).
    pub spatial_radius: Option<f64>,
    /// Fault plane: heartbeat/lease liveness tracking, liveness-filtered
    /// ownership, and crash recovery. `None` (the default) disables all of
    /// it — no timers armed, no messages sent, the fault-free trace is
    /// byte-identical to a build without the plane.
    pub faults: Option<FaultPlaneCfg>,
}

impl Default for RtConfig {
    fn default() -> Self {
        RtConfig {
            strategy: Strategy::Perpendicular { band_width: 1.0 },
            pass_mode: PassMode::OnePass,
            tau_s: 1_500,
            tau_c: 0,
            tau_j: 3_000,
            spatial_radius: None,
            faults: None,
        }
    }
}

/// Fault-plane parameters (heartbeats, leases, refresh, checkpointing).
#[derive(Clone, Debug)]
pub struct FaultPlaneCfg {
    /// 1-hop aliveness beacon period (ms).
    pub heartbeat_ms: SimTime,
    /// A neighbor silent for longer than this is declared dead and its
    /// death flooded (lease expiry, Theorem 3's failure-detection input).
    pub lease_ms: SimTime,
    /// Source-driven refresh period: live base facts are re-announced (with
    /// their original ids, so re-announcement is idempotent) and recent
    /// tombstones re-sent, healing state lost to crashes and partitions.
    pub refresh_ms: SimTime,
    /// Fold the durable journal tail into its checkpoint every N ops.
    pub checkpoint_every: usize,
    /// Stop re-arming periodic fault-plane timers once local time passes
    /// this bound, so a healed network can quiesce for oracle comparison.
    pub active_until: SimTime,
}

impl Default for FaultPlaneCfg {
    fn default() -> Self {
        FaultPlaneCfg {
            heartbeat_ms: 200,
            lease_ms: 700,
            refresh_ms: 2_000,
            checkpoint_every: 8,
            active_until: 60_000,
        }
    }
}

/// What this node currently believes about one peer's liveness. Merged
/// CRDT-style: higher `version` wins, on a tie dead beats alive, and a
/// larger `boot_ts` (a newer incarnation) is always news.
#[derive(Clone, Copy, Debug)]
struct LiveEntry {
    version: SimTime,
    alive: bool,
    boot_ts: SimTime,
}

impl Default for LiveEntry {
    fn default() -> Self {
        LiveEntry {
            version: 0,
            alive: true,
            boot_ts: 0,
        }
    }
}

/// Owner-side state of a derived tuple.
#[derive(Debug, Default)]
struct Owned {
    id: Option<TupleId>,
    /// Its set of derivations: the ledger the centralized engine keeps per
    /// derived tuple, keyed here by the derivation keys the deltas carry.
    support: Support<DerivationKey>,
    /// The liveness last propagated into the network.
    propagated_live: bool,
    holddown_armed: bool,
    /// Windowed predicates: the tag of the expiry its latest delta queued
    /// ([`Expiring::Owned`]) — the only one that may drop the entry.
    expiry: Option<u64>,
}

/// The derived tuples this node owns (`DistProgram::owner_of`), with the
/// two counts kept in step with the map so no delta pays a walk of it.
#[derive(Debug, Default)]
struct OwnedTable {
    entries: HashMap<(Symbol, Tuple), Owned>,
    /// Entries per predicate.
    per_pred: HashMap<Symbol, usize>,
    /// Derivation keys stored across all entries
    /// ([`SensorlogNode::derivation_count`] is the walk).
    derivations: usize,
}

impl OwnedTable {
    /// Count one derivation delta into the entry of `(pred, tuple)` — which
    /// its first delta creates — unless the clamp absorbs it.
    fn book(&mut self, pred: Symbol, tuple: &Tuple, key: DerivationKey, sign: i8) -> &mut Owned {
        let entry = match self.entries.entry((pred, tuple.clone())) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                *self.per_pred.entry(pred).or_insert(0) += 1;
                e.insert(Owned::default())
            }
        };
        if !clamp_absorbs(entry.support.count(&key), sign) {
            let before = entry.support.add(key, i64::from(sign));
            // Stored counts are never zero: a key that cancels leaves.
            self.derivations += usize::from(before == 0);
            self.derivations -= usize::from(before + i64::from(sign) == 0);
        }
        entry
    }

    fn remove(&mut self, pred: Symbol, tuple: Tuple) {
        if let Some(gone) = self.entries.remove(&(pred, tuple)) {
            self.derivations -= gone.support.entries().len();
            if let Some(c) = self.per_pred.get_mut(&pred) {
                *c = c.saturating_sub(1);
            }
        }
    }
}

/// What decides whether a stored derivation still counts: the fault plane's
/// view of its peers, and which rule inputs are derived. One struct (not
/// fields of the node) so callers holding `&mut` borrows into `owned` can
/// still consult it.
#[derive(Debug)]
struct LiveView {
    /// What we believe about each peer (fault plane only; empty otherwise).
    peers: HashMap<NodeId, LiveEntry>,
    /// The program, for which rule inputs are derived (IDB): a derived input
    /// minted before its owner's current incarnation booted is stale — the
    /// owner lost that entry in the crash.
    prog: Arc<DistProgram>,
}

impl LiveView {
    fn of(prog: &Arc<DistProgram>) -> LiveView {
        LiveView {
            peers: HashMap::new(),
            prog: Arc::clone(prog),
        }
    }

    /// Is body literal `lit` of rule `rule_id` a derived predicate?
    fn reads_idb(&self, rule_id: usize, lit: usize) -> bool {
        (self.prog.analysis.program.rules.iter())
            .find(|r| r.id == rule_id)
            .and_then(|r| match r.body.get(lit) {
                Some(Literal::Pos(a) | Literal::Neg(a)) => Some(a.pred),
                _ => None,
            })
            .is_some_and(|p| self.prog.idb.contains(&p))
    }

    /// Is a single derivation still supported, given what we believe about
    /// the liveness of its inputs' origin nodes?
    ///
    /// A derivation dies when any input's origin is believed dead, or when a
    /// *derived* (IDB) input predates its origin's current incarnation — the
    /// owner lost that entry in the crash, so the old id will never be
    /// retracted through the normal delete path. Base-fact inputs are exempt
    /// from the incarnation check: recovery re-announces them with their
    /// original (pre-crash) ids.
    fn key_live(&self, key: &DerivationKey) -> bool {
        if key.rule_id == EDB_RULE {
            return true; // static fact: no network inputs
        }
        key.inputs.iter().all(|(lit, id)| {
            let Some(e) = self.peers.get(&id.node) else {
                return true; // never heard anything: presumed alive
            };
            e.alive && !(e.boot_ts > id.ts && self.reads_idb(key.rule_id, *lit as usize))
        })
    }

    /// Owner-side liveness of a derived tuple — the one predicate: at least
    /// one positively counted derivation whose inputs all survive the
    /// current view. With nothing known of any peer (always, with the fault
    /// plane off) every key survives and this is the ledger's own answer.
    fn live(&self, entry: &Owned) -> bool {
        if self.peers.is_empty() {
            return entry.support.is_live();
        }
        (entry.support.entries().iter()).any(|(k, c)| *c > 0 && self.key_live(k))
    }

    /// The guard of the owner's one outgoing transition: the entry's
    /// liveness differs from what the network was last told, and no
    /// holddown is already debouncing it.
    fn wants_holddown(&self, entry: &Owned) -> bool {
        !entry.holddown_armed && self.live(entry) != entry.propagated_live
    }
}

/// Per-node resource/activity counters (Sec. V memory accounting, Table 1).
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeStats {
    pub peak_replicas: usize,
    pub peak_derivations: usize,
    pub probes_processed: u64,
    pub results_emitted: u64,
    /// Messages dropped at this node because their destination was
    /// unreachable or their payload could not be applied (e.g. a
    /// `ToCenter` arriving at a non-center node). Kept separate from radio
    /// losses: these drops are routing/protocol-level.
    pub routing_drops: u64,
    /// Updates the Centroid center's engine refused with an `EvalError`
    /// (cascade limit, derivation cycle): the fact is lost to the result.
    pub center_apply_errors: u64,
}

/// The inside of one `core.join.probe` call, by the update's predicate:
/// partials the probe arrived with, participating local fragments offered to
/// them, and the new partials that came of it ([`ProbeWork`]).
const PROBE_HISTS: [&str; 3] = ["probe.partials_in", "probe.candidates", "probe.extensions"];
const PROBE_COUNT_BUCKETS: &[u64] = &[1, 4, 16, 64, 256, 1_024, 4_096, 16_384];

enum TimerAction {
    StartJoin(FactRecord),
    Holddown(Symbol, Tuple),
    /// Fault plane: one of its periodic duties is due.
    Tick(Tick),
}

/// What leaves the node when its time comes. Each names the generation it
/// was queued for: one that is no longer the stored one expires nothing.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Expiring {
    /// Drop the replica of generation `id` once its retention elapsed
    /// (Sec. IV-B "Tuple Expiry": (τs + τc) + τj + (τw + τc) after
    /// generation).
    Replica(Symbol, Tuple, TupleId),
    /// Silently expire an owned derived tuple (window-based, no join
    /// phase — "independently expiring a tuple after sufficient time"),
    /// unless a later delta queued a later expiry ([`Owned::expiry`]).
    Owned(Symbol, Tuple),
}

/// One entry of a node's expiry queue ([`SensorlogNode::expiries`]),
/// ordered by due local time, then by timer tag: queueing order, the order
/// a node's same-tick timers fire in. (Tags are unique, so the derived
/// order never reads further.)
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Expiry {
    due: SimTime,
    tag: u64,
    what: Expiring,
    /// A simulator timer for it is in flight.
    armed: bool,
}

/// The fault plane's periodic duties.
#[derive(Clone, Copy, Debug)]
enum Tick {
    /// 1-hop aliveness beacon.
    Heartbeat,
    /// Lease check — silent neighbors are declared dead and their death
    /// flooded.
    Lease,
    /// Source-driven refresh + liveness anti-entropy.
    Refresh,
}

/// The sensorlog node application.
pub struct SensorlogNode {
    pub id: NodeId,
    prog: Arc<DistProgram>,
    cfg: Arc<RtConfig>,
    net: Arc<NetInfo>,
    shapes: Arc<Vec<RuleShape>>,
    /// Replicated stream fragments: the one record of a replica — tuple,
    /// gen/del timestamps and the id of the generation stored.
    frags: Fragments,
    /// Tuples in `frags`, kept in step with it ([`Self::replica_count`]).
    replicas: usize,
    /// Pending expiries, earliest first: the only record of when a replica
    /// or an owned entry goes. Each takes a timer tag when queued and fires
    /// as that timer at exactly its due time, but only the head is armed in
    /// the simulator (an expiry is armed when it becomes the head, so armed
    /// ones fire in queue order), and pending events do not scale with
    /// stored replicas.
    expiries: BinaryHeap<Reverse<Expiry>>,
    /// Derived tuples this node owns (`DistProgram::owner_of`).
    owned: OwnedTable,
    /// Tuples this node generated (for delete-by-value at the source).
    my_facts: HashMap<(Symbol, Tuple), TupleId>,
    /// Flood dedup (NaiveBroadcast storage). (Id-hashed like `timers`: the
    /// per-message maps whose keys are all process-minted ids. Never
    /// iterated.)
    flood_seen: IdHashSet<(TupleId, UpdateKind)>,
    timers: IdHashMap<u64, TimerAction>,
    next_tag: u64,
    seq: u32,
    /// Centroid baseline: the central server's engine (center node only —
    /// boxed, so the other nodes carry a pointer, not an empty engine).
    pub center_engine: Option<Box<IncrementalEngine>>,
    /// Provenance-plane bindings at a Centroid center: ground atom →
    /// tuple id (fed EDB facts keep their source id; derived heads get a
    /// center-minted id). Empty unless this node is the center and the
    /// provenance plane is enabled.
    center_ids: HashMap<(Symbol, Tuple), TupleId>,
    /// Sequence counter for center-minted provenance ids. Deliberately
    /// separate from `seq` (and offset into the top half of the range):
    /// provenance is a pure observer, so minting ids for the DAG must not
    /// advance — or collide with — the runtime's real tuple-id stream.
    center_seq: u32,
    pub stats: NodeStats,
    /// Peak stored items per predicate (fragment replicas + owned derived
    /// entries), cross-validated against the static memory bounds of
    /// `logic::diag` by `crate::invariants::check_static_bounds`.
    pub peak_pred_stored: BTreeMap<Symbol, usize>,
    /// Output-predicate transitions observed at this owner.
    pub output_log: Vec<(Symbol, Tuple, UpdateKind, SimTime)>,
    /// Telemetry handle shared across the deployment (disabled by default;
    /// a pure observer — it never touches timers, messages, or the RNG).
    tele: Telemetry,
    /// Ids of the [`PROBE_HISTS`] histograms per update predicate, resolved
    /// by the first probe of that predicate (telemetry on only; a program's
    /// few predicates are searched linearly).
    probe_hists: Vec<(Symbol, [Option<HistId>; 3])>,
    /// Always-on per-hop result-lag histogram feeding the adaptive holddown
    /// default. Deliberately NOT behind the telemetry handle: its samples
    /// are pure simulated-time values (deterministic for a fixed seed), and
    /// the derived holddown affects the schedule — keeping it always-on
    /// preserves the "telemetry never perturbs the trace" invariant.
    hop_lag: Histogram,
    /// Provenance recording handle shared across the deployment (disabled
    /// by default; a pure observer like telemetry — recording never touches
    /// timers, messages, or the RNG, so the netsim journal is byte-identical
    /// with the plane on or off).
    prov: Provenance,
    /// Flash log for this node's own facts (fault plane only). Shared with
    /// the deployment harness so it survives the app being rebuilt on
    /// restart — that is the whole point of a durable store.
    durable: Option<Arc<Mutex<DurableStore>>>,
    /// Peer liveness and the rule facts the liveness filter reads.
    view: LiveView,
    /// Local time we last heard a heartbeat from each neighbor.
    last_hb: HashMap<NodeId, SimTime>,
    /// Local boot time of this incarnation (0 until `on_start`).
    boot_ts: SimTime,
}

impl SensorlogNode {
    pub fn new(
        id: NodeId,
        prog: Arc<DistProgram>,
        cfg: Arc<RtConfig>,
        net: Arc<NetInfo>,
        shapes: Arc<Vec<RuleShape>>,
        tele: Telemetry,
    ) -> SensorlogNode {
        let center_engine = if cfg.strategy == Strategy::Centroid && net.center() == id {
            let mut engine = IncrementalEngine::new(prog.analysis.clone(), prog.reg.clone())
                .expect("centroid engine");
            engine.profiler = tele.profiler();
            Some(Box::new(engine))
        } else {
            None
        };
        SensorlogNode {
            id,
            view: LiveView::of(&prog),
            prog,
            cfg,
            net,
            shapes,
            frags: Fragments::default(),
            replicas: 0,
            expiries: BinaryHeap::new(),
            owned: OwnedTable::default(),
            my_facts: HashMap::new(),
            flood_seen: IdHashSet::default(),
            timers: IdHashMap::default(),
            next_tag: 0,
            seq: 0,
            center_engine,
            center_ids: HashMap::new(),
            center_seq: 0x8000_0000,
            stats: NodeStats::default(),
            peak_pred_stored: BTreeMap::new(),
            output_log: Vec::new(),
            tele,
            probe_hists: Vec::new(),
            hop_lag: Histogram::new(SIM_MS_BUCKETS),
            prov: Provenance::disabled(),
            durable: None,
            last_hb: HashMap::new(),
            boot_ts: 0,
        }
    }

    /// Attach the node's durable store (fault plane). The harness keeps
    /// the other reference so the log outlives app restarts.
    pub fn with_durable(mut self, store: Arc<Mutex<DurableStore>>) -> SensorlogNode {
        self.durable = Some(store);
        self
    }

    /// Attach the deployment-wide provenance recording handle. On a
    /// Centroid center this also switches on the engine's firing log,
    /// which `feed_center` drains into `Deriv`/`Mint` records so
    /// centrally-derived tuples get proofs like GPA-derived ones do.
    pub fn with_provenance(mut self, prov: Provenance) -> SensorlogNode {
        if prov.is_enabled() {
            if let Some(engine) = self.center_engine.as_mut() {
                engine.set_record_firings(true);
            }
        }
        self.prov = prov;
        self
    }

    /// This node's durable store, locked (`None` with the fault plane off).
    fn durable_store(&self) -> Option<MutexGuard<'_, DurableStore>> {
        let store = self.durable.as_ref()?;
        Some(store.lock().expect("a node panicked holding its store"))
    }

    /// Record the current stored-item count for `pred` into its peak.
    fn note_pred_stored(&mut self, pred: Symbol) {
        let cur = self.frags.len_of(pred) + self.owned.per_pred.get(&pred).copied().unwrap_or(0);
        let peak = self.peak_pred_stored.entry(pred).or_insert(0);
        *peak = (*peak).max(cur);
    }

    // ------------------------------------------------------------------
    // Public entry points (driven by the deployment harness)
    // ------------------------------------------------------------------

    /// A sensor reading was generated at this node: create the fact and
    /// run the update pipeline.
    pub fn generate(&mut self, ctx: &mut Ctx<Msg>, pred: Symbol, tuple: Tuple) {
        self.tele.bump(Scope::Pred(pred.as_str()), "generated");
        let id = self.fresh_id(ctx);
        self.my_facts.insert((pred, tuple.clone()), id);
        if let Some(mut d) = self.durable_store() {
            d.log_insert(pred, tuple.clone(), id);
        }
        self.source_update(ctx, FactRecord::insert(pred, tuple, id));
    }

    /// A previously generated reading was retracted at this node.
    pub fn retract(&mut self, ctx: &mut Ctx<Msg>, pred: Symbol, tuple: Tuple) {
        let Some(id) = self.my_facts.remove(&(pred, tuple.clone())) else {
            return; // unknown tuple: nothing to delete
        };
        self.tele.bump(Scope::Pred(pred.as_str()), "retracted");
        let now = ctx.local_time;
        if let Some(mut d) = self.durable_store() {
            d.log_delete(pred, tuple.clone(), id, now);
        }
        self.source_update(ctx, FactRecord::delete(pred, tuple, id, now));
    }

    /// Inject a derived fact directly at its owner (static facts from
    /// empty-body rules, t = 0).
    pub fn inject_static(&mut self, ctx: &mut Ctx<Msg>, pred: Symbol, tuple: Tuple) {
        let id = self.fresh_id(ctx);
        let key = DerivationKey::new(EDB_RULE, Vec::new());
        let entry = self.owned.book(pred, &tuple, key, 1);
        entry.id = Some(id);
        entry.propagated_live = true;
        self.note_pred_stored(pred);
        self.log_output(pred, &tuple, UpdateKind::Insert, ctx.local_time);
        self.source_update(ctx, FactRecord::insert(pred, tuple, id));
    }

    /// An update enters the network here, at the node that holds the fact:
    /// record it as a proof leaf (`Edb` — static facts are leaves at their
    /// owner like base facts at their source) and run the update pipeline.
    fn source_update(&mut self, ctx: &mut Ctx<Msg>, fact: FactRecord) {
        self.prov.record_with(|| ProvRecord::Edb {
            node: self.id,
            pred: fact.pred,
            tuple: fact.tuple.clone(),
            id: fact.id,
            kind: fact.kind,
            tau: fact.tau,
        });
        self.initiate_update(ctx, fact);
    }

    /// Live result tuples of `pred` owned by this node.
    pub fn owned_live(&self, pred: Symbol) -> Vec<Tuple> {
        (self.owned.entries.iter())
            .filter(|((p, _), o)| *p == pred && self.view.live(o))
            .map(|((_, t), _)| t.clone())
            .collect()
    }

    /// Current replica count (fragment tuples stored here).
    pub fn replica_count(&self) -> usize {
        self.replicas
    }

    /// Join-index activity on this node: fragment-store probes plus, on a
    /// Centroid center, the incremental engine's database.
    pub fn index_stats(&self) -> sensorlog_eval::IndexStatsSnapshot {
        let mut s = self.frags.index_stats();
        if let Some(engine) = &self.center_engine {
            s.merge(engine.db.index_stats());
        }
        s
    }

    // ------------------------------------------------------------------
    // Invariant-checker views (read-only; see `crate::invariants`)
    // ------------------------------------------------------------------

    /// Every per-derivation-key count with its owning (pred, tuple) —
    /// at quiescence all of these must be non-negative.
    pub fn derivation_count_entries(&self) -> Vec<(Symbol, Tuple, i64)> {
        let mut out: Vec<(Symbol, Tuple, i64)> = (self.owned.entries.iter())
            .flat_map(|((p, t), o)| {
                (o.support.entries().iter()).map(move |&(_, c)| (*p, t.clone(), c))
            })
            .collect();
        out.sort();
        out
    }

    /// Every `TupleId → (pred, tuple)` binding this node holds: facts it
    /// generated, fragment replicas, and owned derived tuples. A given id
    /// must denote the same fact wherever it appears in the network.
    pub fn id_bindings(&self) -> Vec<(TupleId, Symbol, Tuple)> {
        let mut out: Vec<(TupleId, Symbol, Tuple)> = Vec::new();
        out.extend(
            self.my_facts
                .iter()
                .map(|((p, t), &id)| (id, *p, t.clone())),
        );
        for p in self.frags.preds() {
            let stored = self.frags.relation(p).into_iter().flat_map(|r| r.iter());
            out.extend(stored.map(|(t, m)| (m.extra, p, t.clone())));
        }
        out.extend(
            (self.owned.entries.iter())
                .filter_map(|((p, t), o)| o.id.map(|id| (id, *p, t.clone()))),
        );
        out.sort();
        out
    }

    /// Owner entries that have not settled: a holddown still armed, or a
    /// liveness state differing from what was last propagated. Must be
    /// empty once the network quiesces.
    pub fn unsettled_owned(&self) -> Vec<(Symbol, Tuple)> {
        let mut out: Vec<(Symbol, Tuple)> = (self.owned.entries.iter())
            .filter(|(_, o)| o.holddown_armed || self.view.wants_holddown(o))
            .map(|((p, t), _)| (*p, t.clone()))
            .collect();
        out.sort();
        out
    }

    /// Current stored derivation count, by walking the owned entries.
    pub fn derivation_count(&self) -> usize {
        (self.owned.entries.values())
            .map(|o| o.support.entries().len())
            .sum()
    }

    /// The facts this node generated and still holds, with their ids
    /// (sorted). A node restarted from its durable store must end a run
    /// byte-identical here to the same run without the crash.
    pub fn my_fact_records(&self) -> Vec<(Symbol, Tuple, TupleId)> {
        let mut out: Vec<(Symbol, Tuple, TupleId)> = self
            .my_facts
            .iter()
            .map(|(&(p, ref t), &id)| (p, t.clone(), id))
            .collect();
        out.sort();
        out
    }

    // ------------------------------------------------------------------
    // Update pipeline
    // ------------------------------------------------------------------

    fn fresh_id(&mut self, ctx: &Ctx<Msg>) -> TupleId {
        let id = TupleId {
            node: self.id,
            ts: ctx.local_time,
            seq: self.seq,
        };
        self.seq += 1;
        if let Some(mut d) = self.durable_store() {
            // Persist the high-water mark so a restarted incarnation never
            // re-mints an id this one used.
            d.note_seq(id.seq);
        }
        id
    }

    /// Start the storage phase for `fact` and schedule its join phase.
    fn initiate_update(&mut self, ctx: &mut Ctx<Msg>, fact: FactRecord) {
        let _span = self.tele.span("core.update.initiate");
        // A stream no rule consumes needs neither replication nor a probe:
        // derived results "will anyway be hashed appropriately for further
        // use of the join-query result" (Sec. III-A) — and sink predicates
        // have no further use beyond their owner.
        if !self.prog.occurrences.contains_key(&fact.pred)
            && self.cfg.strategy != Strategy::Centroid
        {
            return;
        }
        if self.cfg.strategy == Strategy::Centroid {
            let center = self.net.center();
            if center == self.id {
                self.feed_center(ctx.local_time, &fact);
            } else {
                self.route(ctx, center, Payload::ToCenter { fact });
            }
            return;
        }

        // Storage phase.
        match self.cfg.strategy {
            Strategy::NaiveBroadcast => {
                self.store_replica(ctx, &fact);
                self.flood_seen.insert((fact.id, fact.kind));
                self.tele
                    .bump(Scope::Pred(fact.pred.as_str()), "flood_broadcasts");
                ctx.broadcast(Arc::new(Payload::FloodStore { fact: fact.clone() }));
            }
            _ => {
                let region = self
                    .cfg
                    .strategy
                    .storage_region(&self.net.topo, self.id, self.cfg.spatial_radius)
                    .expect("non-centroid strategy has regions");
                self.store_replica(ctx, &fact);
                let my_pos = region.iter().position(|&n| n == self.id);
                let walk: Vec<NodeId> = match my_pos {
                    Some(i) => {
                        // Walk right then wrap to the left part: two walks.
                        let right: Vec<NodeId> = region[i + 1..].to_vec();
                        let left: Vec<NodeId> = region[..i].iter().rev().copied().collect();
                        if !right.is_empty() {
                            self.send_store_walk(ctx, &fact, right);
                        }
                        left
                    }
                    None => region,
                };
                if !walk.is_empty() {
                    self.send_store_walk(ctx, &fact, walk);
                }
            }
        }

        // Join phase after τs + τc (Sec. IV-A).
        let delay = self.cfg.tau_s + self.cfg.tau_c;
        self.set_timer(ctx, delay, TimerAction::StartJoin(fact));
    }

    fn send_store_walk(&mut self, ctx: &mut Ctx<Msg>, fact: &FactRecord, walk: Vec<NodeId>) {
        let first = walk[0];
        let msg = Payload::StoreWalk {
            fact: fact.clone(),
            walk: Arc::new(walk),
            pos: 0,
        };
        self.route(ctx, first, msg);
    }

    fn store_replica(&mut self, ctx: &mut Ctx<Msg>, fact: &FactRecord) {
        // Generation-aware replica storage: insert and delete walks may
        // arrive in either order (independent multi-hop routes), so the
        // replica tracks the newest tuple *generation* (by ID, Definition 2)
        // and a tombstone never gets clobbered by its own generation's
        // late-arriving insert.
        self.tele
            .bump(Scope::Pred(fact.pred.as_str()), "replicas_stored");
        let rel = self.frags.relation_mut(fact.pred);
        // `Some(meta)`: this update becomes the stored generation, in place
        // of an older one's entry if there is one.
        let new = rel.update(fact.tuple.clone(), |stored| {
            let (gen_ts, del_ts) = match (fact.kind, stored) {
                // Same generation already here (possibly tombstoned by an
                // overtaking delete), or a newer one: nothing to do.
                (UpdateKind::Insert, Some(old)) if old.extra >= fact.id => return None,
                (UpdateKind::Insert, _) => (fact.tau, None),
                // A newer generation is stored: this delete is stale.
                (UpdateKind::Delete, Some(old)) if old.extra > fact.id => return None,
                // Tombstone the matching generation (Sec. IV-B: replicas
                // stay for concurrent probes and expire later).
                (UpdateKind::Delete, Some(old)) if old.extra == fact.id => {
                    old.tombstone(fact.tau);
                    return None;
                }
                // Delete overtook (or outlived) the insert walk: store a
                // tombstoned replica so probes between gen and del still
                // see it, and later probes don't.
                (UpdateKind::Delete, _) => (fact.id.ts, Some(fact.tau)),
            };
            Some(TupleMeta {
                gen_ts,
                del_ts,
                extra: fact.id,
            })
        });
        self.replicas += usize::from(new);
        debug_assert_eq!(self.replicas, self.frags.total_tuples());
        self.stats.peak_replicas = self.stats.peak_replicas.max(self.replicas);
        self.note_pred_stored(fact.pred);
        // Retention of windowed streams (Sec. IV-B): the replica must
        // outlive every probe that may legally join with it —
        // (τs + τc) + τj + (τw + τc) past its generation timestamp.
        if fact.kind == UpdateKind::Insert {
            if let Some(&w) = self.prog.windows.get(&fact.pred) {
                let retention =
                    (self.cfg.tau_s + self.cfg.tau_c) + self.cfg.tau_j + (w + self.cfg.tau_c);
                let expire_at = fact.tau.saturating_add(retention);
                let delay = expire_at.saturating_sub(ctx.local_time).max(1);
                let replica = Expiring::Replica(fact.pred, fact.tuple.clone(), fact.id);
                self.expire_in(ctx, delay, replica);
            }
        }
    }

    /// Build and launch the join probe for `fact`.
    fn start_join(&mut self, ctx: &mut Ctx<Msg>, fact: FactRecord) {
        let _span = self.tele.span("core.join.start");
        let occs = match self.prog.occurrences.get(&fact.pred) {
            Some(o) => o.clone(),
            None => return, // pred not consumed by any rule
        };
        let mut work = Vec::new();
        for occ in &occs {
            let rule = &self.prog.analysis.program.rules[occ.rule_idx];
            if let Some(p) = seed_partial(
                &self.prog,
                rule,
                occ.lit_idx,
                occ.negated,
                &fact.tuple,
                fact.id,
            ) {
                work.push(RuleWork {
                    rule_idx: occ.rule_idx as u16,
                    occ: occ.lit_idx as u16,
                    negated: occ.negated,
                    partials: vec![p],
                });
            }
        }
        if work.is_empty() {
            return;
        }
        let region = self
            .cfg
            .strategy
            .join_region(&self.net.topo, self.id, self.cfg.spatial_radius)
            .expect("non-centroid strategy has regions");
        let probe = ProbeMsg {
            update: fact,
            walk: Arc::new(region),
            pos: 0,
            pass: 0,
            work,
        };
        self.deliver_probe(ctx, probe);
    }

    /// Route the probe to its current walk target (possibly ourselves).
    fn deliver_probe(&mut self, ctx: &mut Ctx<Msg>, probe: ProbeMsg) {
        let target = probe.walk[probe.pos];
        if target == self.id {
            self.process_probe(ctx, probe);
        } else {
            self.route(ctx, target, Payload::Probe(probe));
        }
    }

    /// Run the join-computation step at this node (Fig. 1) and forward.
    fn process_probe(&mut self, ctx: &mut Ctx<Msg>, mut probe: ProbeMsg) {
        let tau = probe.update.tau;
        // Sim-time age of the update at the moment its probe reaches us —
        // the in-network join latency the paper bounds with τs + τc.
        let _span = self
            .tele
            .span("core.join.probe")
            .with_sim(ctx.local_time.saturating_sub(tau));
        self.stats.probes_processed += 1;
        let sign_base = probe.update.kind;
        self.tele
            .bump(Scope::Pred(probe.update.pred.as_str()), "probes_processed");

        let mut emissions: Vec<(Symbol, Tuple, DerivationKey, i8)> = Vec::new();
        let mut work = ProbeWork::default();
        {
            let lctx = LocalCtx {
                prog: self.prog.as_ref(),
                db: &self.frags,
                tau,
                update_id: probe.update.id,
                // Fault-plane delete probes match generously so re-driven
                // tombstones retract derivations made from stale replicas
                // (see `LocalCtx::generous`). Inert when faults are off.
                generous: self.cfg.faults.is_some() && sign_base == UpdateKind::Delete,
            };
            let last_node = probe.pos + 1 == probe.walk.len();
            let pass = probe.pass as usize;

            for workitem in &mut probe.work {
                let (rule_idx, pin) = (workitem.rule_idx as usize, workitem.occ as usize);
                let rule = &self.prog.analysis.program.rules[rule_idx];
                let shape = &self.shapes[rule_idx];
                let plan = self.prog.pass_plan(rule_idx, pin);
                let pinned = Some(pin);
                let incoming = std::mem::take(&mut workitem.partials);
                let processed = process_partials(
                    &lctx,
                    rule,
                    shape,
                    incoming,
                    pinned,
                    plan.extends(pass),
                    &mut work,
                );
                let needs_full_walk = shape.has_negation_other_than(pinned);
                // The end of this rule's own last pass: what is complete is
                // emitted, what is not never will be.
                let walk_done = last_node && pass + 1 >= plan.passes();
                // The end of an earlier pass keeps only the partials that
                // have joined every literal up to it.
                let joined = plan.joined(pass);
                let sign = match (sign_base, workitem.negated) {
                    (UpdateKind::Insert, false) | (UpdateKind::Delete, true) => 1i8,
                    _ => -1i8,
                };
                let mut keep: Vec<Partial> = Vec::new();
                for p in processed {
                    if p.is_complete(shape) {
                        if needs_full_walk && !walk_done {
                            keep.push(p); // keep checking negations
                        } else {
                            // A head whose evaluation fails is dropped.
                            if let Ok(tuple) = instantiate_head(rule, &p.bindings, &self.prog.reg) {
                                let key = DerivationKey::new(rule.id, p.inputs);
                                emissions.push((rule.head.pred, tuple, key, sign));
                            }
                        }
                    } else if !last_node || (!walk_done && p.bound & joined == joined) {
                        keep.push(p);
                    }
                }
                workitem.partials = keep;
            }
        }
        if self.tele.is_enabled() {
            let pred = probe.update.pred;
            let known = self.probe_hists.iter().position(|(p, _)| *p == pred);
            let at = known.unwrap_or_else(|| {
                self.probe_hists.push((pred, [None; 3]));
                self.probe_hists.len() - 1
            });
            let counts = [work.partials_in, work.candidates, work.extensions];
            let ids = self.probe_hists[at].1.iter_mut();
            for ((id, name), v) in ids.zip(PROBE_HISTS).zip(counts) {
                let scope = Scope::Pred(pred.as_str());
                self.tele
                    .observe_cached(id, scope, name, PROBE_COUNT_BUCKETS, v);
            }
        }

        // Each result goes to the owner the program names for it.
        let origin = probe.update.id;
        for (pred, tuple, key, sign) in emissions {
            self.stats.results_emitted += 1;
            self.tele
                .bump(Scope::Pred(pred.as_str()), "results_emitted");
            let owner = self.prog.owner_of(&self.net.topo, pred, &tuple);
            if owner == self.id {
                self.handle_deriv_delta(ctx, pred, tuple, key, sign, tau, origin);
            } else {
                let payload = Payload::DerivDelta {
                    pred,
                    tuple,
                    key,
                    sign,
                    tau,
                    origin,
                };
                self.route(ctx, owner, payload);
            }
        }

        // Forward.
        if probe.pos + 1 < probe.walk.len() {
            probe.pos += 1;
            self.deliver_probe(ctx, probe);
        } else if probe.work.iter().any(|w| !w.partials.is_empty()) {
            // A partial that can still complete on the next pass: U-turn,
            // carrying only the rules that have one.
            probe.work.retain(|w| !w.partials.is_empty());
            let mut walk = probe.walk.as_ref().clone();
            walk.reverse();
            probe.walk = Arc::new(walk);
            probe.pos = 0;
            probe.pass += 1;
            // Already at the first node of the reversed walk (ourselves).
            self.process_probe(ctx, probe);
        }
        // else: traversal done; undischarged partials discarded
        // ("the partial results generated at the last node are discarded").
    }

    /// Owner-side derivation bookkeeping + holddown arming.
    #[allow(clippy::too_many_arguments)]
    fn handle_deriv_delta(
        &mut self,
        ctx: &mut Ctx<Msg>,
        pred: Symbol,
        tuple: Tuple,
        key: DerivationKey,
        sign: i8,
        tau: SimTime,
        origin: TupleId,
    ) {
        // Sim-time lag between the originating update and its derivation
        // delta landing at the owner (storage + join + result routing).
        let lag = ctx.local_time.saturating_sub(tau);
        let _span = self.tele.span("core.result.apply").with_sim(lag);
        self.tele.bump(Scope::Pred(pred.as_str()), "deriv_deltas");
        self.prov.record_with(|| ProvRecord::Deriv {
            owner: self.id,
            pred,
            tuple: tuple.clone(),
            key: key.clone(),
            sign,
            tau,
            origin,
            at: ctx.local_time,
        });
        // Per-hop estimate: the end-to-end lag spread over the network
        // depth. Feeds the adaptive holddown default for predicates with
        // no declared `.holddown`.
        self.hop_lag.observe(lag / self.net.depth());
        // Windowed derived streams: owned state expires with the window
        // (silent, Sec. II-B). Queued anew by each delta so the entry
        // outlives its last activity by one window.
        let expiry = (self.prog.windows.get(&pred).copied()).map(|w| {
            let owned = Expiring::Owned(pred, tuple.clone());
            self.expire_in(ctx, w + self.cfg.tau_c + 1, owned)
        });
        let entry = self.owned.book(pred, &tuple, key, sign);
        entry.expiry = expiry;
        let wants_holddown = self.view.wants_holddown(entry);
        if wants_holddown {
            self.arm_holddown(ctx, pred, tuple);
        }
        debug_assert_eq!(self.owned.derivations, self.derivation_count());
        self.stats.peak_derivations = self.stats.peak_derivations.max(self.owned.derivations);
        self.note_pred_stored(pred);
    }

    /// Start debouncing a liveness transition of the owned `(pred, tuple)`:
    /// its holddown (declared, else the adaptive default) runs from now.
    fn arm_holddown(&mut self, ctx: &mut Ctx<Msg>, pred: Symbol, tuple: Tuple) {
        let slot = (pred, tuple);
        if let Some(entry) = self.owned.entries.get_mut(&slot) {
            entry.holddown_armed = true;
        }
        let holddown =
            (self.prog.holddown.get(&pred).copied()).unwrap_or_else(|| self.default_holddown());
        self.set_timer(ctx, holddown, TimerAction::Holddown(pred, slot.1));
    }

    /// Holddown for predicates with no declared `.holddown`: p95 observed
    /// per-hop result lag Ã network depth (the ROADMAP adaptive-holddown
    /// item, minimal version) â long enough for a canceling delta to cross
    /// the network, short enough to track the deployment's real latency
    /// instead of a hard-coded constant. Clamped to `[10, Ïj]`; 100 until
    /// the first observation. Declared `.holddown` values stay
    /// authoritative (checked before this is consulted).
    fn default_holddown(&self) -> SimTime {
        // Under the fault plane the holddown upper clamp tightens to τj/4:
        // chaos churn inflates the observed lag tail, and a holddown that
        // stretches toward τj would hold retractions hostage for the whole
        // join bound after every crash.
        let cap = if self.cfg.faults.is_some() {
            (self.cfg.tau_j / 4).max(10)
        } else {
            self.cfg.tau_j.max(10)
        };
        match self.hop_lag.quantile_upper(0.95) {
            Some(per_hop) => per_hop.saturating_mul(self.net.depth()).clamp(10, cap),
            None => 100.min(cap),
        }
    }

    /// Holddown expired: propagate the tuple's liveness if it still differs
    /// from what the network believes (Sec. IV-C's "wait … before actually
    /// finalizing a derived fact").
    fn fire_holddown(&mut self, ctx: &mut Ctx<Msg>, pred: Symbol, tuple: Tuple) {
        let now = ctx.local_time;
        let slot = (pred, tuple);
        let Some(entry) = self.owned.entries.get_mut(&slot) else {
            return;
        };
        entry.holddown_armed = false;
        let live = self.view.live(entry);
        if live == entry.propagated_live {
            return; // transition debounced away
        }
        entry.propagated_live = live;
        let minted = entry.id;
        self.tele.bump(Scope::Pred(pred.as_str()), "holddown_fired");
        let fact = if live {
            // A new generation of the tuple: it gets its own id.
            let id = self.fresh_id(ctx);
            if let Some(entry) = self.owned.entries.get_mut(&slot) {
                entry.id = Some(id);
            }
            FactRecord::insert(pred, slot.1.clone(), id)
        } else {
            let Some(id) = minted else {
                // Died before its insert was ever propagated (the holddown
                // debounced the whole lifetime away at arming time but the
                // flag raced): nothing in the network to retract.
                self.stats.routing_drops += 1;
                return;
            };
            FactRecord::delete(pred, slot.1.clone(), id, now)
        };
        self.prov.record_with(|| ProvRecord::Mint {
            owner: self.id,
            pred,
            tuple: fact.tuple.clone(),
            id: fact.id,
            kind: fact.kind,
            at: now,
        });
        self.log_output(pred, &slot.1, fact.kind, now);
        self.initiate_update(ctx, fact);
    }

    fn log_output(&mut self, pred: Symbol, tuple: &Tuple, kind: UpdateKind, ts: SimTime) {
        if self.prog.outputs.contains(&pred) {
            self.output_log.push((pred, tuple.clone(), kind, ts));
        }
    }

    fn feed_center(&mut self, now: SimTime, fact: &FactRecord) {
        let Some(engine) = self.center_engine.as_mut() else {
            // A ToCenter payload landed at a non-center node (misrouted
            // under churn): drop it rather than crash the node.
            self.stats.routing_drops += 1;
            return;
        };
        let upd = Update {
            pred: fact.pred,
            tuple: fact.tuple.clone(),
            kind: fact.kind,
            ts: fact.tau,
        };
        if engine.apply(upd).is_err() {
            self.stats.center_apply_errors += 1;
            self.tele
                .bump(Scope::Pred(fact.pred.as_str()), "center_apply_errors");
        }
        // The central store is this node's memory (Sec. V): Centroid's
        // hotspot is exactly what the per-node peak exists to show.
        self.stats.peak_replicas = self.stats.peak_replicas.max(engine.db.total_tuples());
        self.stats.peak_derivations = self
            .stats
            .peak_derivations
            .max(engine.stats.max_derivations);
        if self.prov.is_enabled() {
            // The fed fact keeps its source-minted id (the source already
            // emitted the `Edb` record); deletes reuse the generation id,
            // so only inserts refresh the binding.
            if fact.kind == UpdateKind::Insert {
                self.center_ids
                    .insert((fact.pred, fact.tuple.clone()), fact.id);
            }
            self.drain_center_lineage(now, fact.id);
        }
    }

    /// Translate the center engine's firings (logged since the last drain)
    /// into the cross-node provenance dialect: each firing becomes a
    /// `Deriv` whose key maps its premises to their bound tuple ids, and a
    /// newly-live head gets a center-minted `Mint`. Cascade order
    /// guarantees a derived premise's own `+1` firing (and hence its mint)
    /// precedes any firing that consumes it.
    fn drain_center_lineage(&mut self, now: SimTime, trigger: TupleId) {
        let Some(engine) = self.center_engine.as_mut() else {
            return;
        };
        let firings = engine.take_firings();
        let rules = &engine.analysis.program.rules;
        for Firing {
            derivation: d,
            sign,
            pred,
            tuple,
            tau,
        } in firings
        {
            let rule = &rules[d.rule_id as usize];
            let inputs: Option<Vec<(u16, TupleId)>> = (rule.positive_atoms().zip(&d.inputs))
                .enumerate()
                .map(|(i, (a, t))| {
                    let id = self.center_ids.get(&(a.pred, t.clone()))?;
                    Some((i as u16, *id))
                })
                .collect();
            let Some(inputs) = inputs else {
                // A premise with no binding means its own lineage was lost
                // (engine predates the plane being enabled): skip rather
                // than fabricate an unprovable key.
                continue;
            };
            self.prov.record_with(|| ProvRecord::Deriv {
                owner: self.id,
                pred,
                tuple: tuple.clone(),
                key: DerivationKey::new(rule.id, inputs.clone()),
                sign,
                tau,
                origin: trigger,
                at: now,
            });
            if sign > 0 && !self.center_ids.contains_key(&(pred, tuple.clone())) {
                let id = TupleId {
                    node: self.id,
                    ts: now,
                    seq: self.center_seq,
                };
                self.center_seq += 1;
                self.center_ids.insert((pred, tuple.clone()), id);
                self.prov.record_with(|| ProvRecord::Mint {
                    owner: self.id,
                    pred,
                    tuple: tuple.clone(),
                    id,
                    kind: UpdateKind::Insert,
                    at: now,
                });
            }
        }
    }

    // ------------------------------------------------------------------
    // Fault plane: liveness tracking, leases, refresh, recovery
    // ------------------------------------------------------------------

    fn believes_dead(&self, n: NodeId) -> bool {
        self.view.peers.get(&n).is_some_and(|e| !e.alive)
    }

    /// Boot-time fault-plane setup, shared by first start and restart:
    /// stamp the incarnation, baseline neighbor leases, announce ourselves,
    /// and arm the periodic timers. No-op with the plane disabled.
    fn boot_tick(&mut self, ctx: &mut Ctx<Msg>) {
        let Some(f) = self.cfg.faults.clone() else {
            return;
        };
        self.boot_ts = ctx.local_time;
        for nb in ctx.neighbors().to_vec() {
            // Grace period: a neighbor gets a full lease from our boot
            // before we may declare it dead.
            self.last_hb.insert(nb, ctx.local_time);
        }
        self.announce_self(ctx);
        for tick in [Tick::Heartbeat, Tick::Lease, Tick::Refresh] {
            self.arm_tick(ctx, &f, tick);
        }
    }

    /// Tell the 1-hop neighborhood we are alive, at a version (our local
    /// time) kept current so death rumors can be compared against it.
    fn announce_self(&mut self, ctx: &mut Ctx<Msg>) {
        let (version, boot_ts) = (ctx.local_time, self.boot_ts);
        let own = LiveEntry {
            version,
            alive: true,
            boot_ts,
        };
        self.view.peers.insert(self.id, own);
        ctx.broadcast(Arc::new(Payload::Heartbeat { version, boot_ts }));
    }

    /// Arm `tick`'s next period — unless local time has passed the plane's
    /// `active_until`, so a healed network can quiesce.
    fn arm_tick(&mut self, ctx: &mut Ctx<Msg>, f: &FaultPlaneCfg, tick: Tick) {
        if ctx.local_time < f.active_until {
            let period = match tick {
                Tick::Heartbeat => f.heartbeat_ms,
                Tick::Lease => f.lease_ms,
                Tick::Refresh => f.refresh_ms,
            };
            self.set_timer(ctx, period, TimerAction::Tick(tick));
        }
    }

    /// A periodic fault-plane timer fired: do its duty, then re-arm it.
    fn fire_tick(&mut self, ctx: &mut Ctx<Msg>, tick: Tick) {
        let Some(f) = self.cfg.faults.clone() else {
            return;
        };
        match tick {
            Tick::Heartbeat => self.announce_self(ctx),
            Tick::Lease => self.lease_tick(ctx, f.lease_ms),
            Tick::Refresh => self.refresh_tick(ctx),
        }
        self.arm_tick(ctx, &f, tick);
    }

    /// Merge one liveness observation; flood it onward and rescan owned
    /// entries iff it changed something a peer could not already know
    /// (the alive flag or the incarnation — version-only advances stay
    /// local, else every heartbeat would flood the network).
    fn apply_liveness(
        &mut self,
        ctx: &mut Ctx<Msg>,
        subject: NodeId,
        version: SimTime,
        alive: bool,
        boot_ts: SimTime,
    ) {
        if self.cfg.faults.is_none() {
            return;
        }
        if subject == self.id {
            if !alive {
                // Rumors of our death: out-version them.
                let v = ctx.local_time.max(version + 1);
                let own = LiveEntry {
                    version: v,
                    alive: true,
                    boot_ts: self.boot_ts,
                };
                self.view.peers.insert(self.id, own);
                self.tele
                    .bump(Scope::Layer("core.faults"), "death_rebuttals");
                ctx.broadcast(Arc::new(Payload::Liveness {
                    subject: self.id,
                    version: v,
                    alive: true,
                    boot_ts: self.boot_ts,
                }));
            }
            return;
        }
        let e = self.view.peers.entry(subject).or_default();
        let supersedes = version > e.version || (version == e.version && e.alive && !alive);
        let boot_news = boot_ts > e.boot_ts;
        if !supersedes && !boot_news {
            return;
        }
        let flag_changed = (supersedes && e.alive != alive) || boot_news;
        if supersedes {
            e.version = version;
            e.alive = alive;
        }
        if boot_news {
            e.boot_ts = boot_ts;
        }
        if flag_changed {
            let (version, alive, boot_ts) = (e.version, e.alive, e.boot_ts);
            ctx.broadcast(Arc::new(Payload::Liveness {
                subject,
                version,
                alive,
                boot_ts,
            }));
            self.rescan_owned(ctx);
        }
    }

    /// Liveness changed: arm holddowns for owned entries whose filtered
    /// liveness no longer matches what the network believes. This is the
    /// retraction path of Theorem 3 driven by failure detection instead of
    /// an explicit delete.
    fn rescan_owned(&mut self, ctx: &mut Ctx<Msg>) {
        let mut arm: Vec<(Symbol, Tuple)> = (self.owned.entries.iter())
            .filter(|(_, o)| self.view.wants_holddown(o))
            .map(|((p, t), _)| (*p, t.clone()))
            .collect();
        arm.sort();
        for (pred, tuple) in arm {
            self.arm_holddown(ctx, pred, tuple);
        }
    }

    /// Lease check: any neighbor we believe alive but have not heard from
    /// for two lease periods is declared dead and the death flooded.
    fn lease_tick(&mut self, ctx: &mut Ctx<Msg>, lease_ms: SimTime) {
        let now = ctx.local_time;
        let nbrs: Vec<NodeId> = ctx.neighbors().to_vec();
        let suspects: Vec<(NodeId, SimTime)> = nbrs
            .into_iter()
            .filter(|nb| {
                let heard = self.last_hb.get(nb).copied().unwrap_or(0);
                let believed_alive = self.view.peers.get(nb).is_none_or(|e| e.alive);
                believed_alive && now.saturating_sub(heard) > lease_ms
            })
            .map(|nb| {
                let boot = self.view.peers.get(&nb).map(|e| e.boot_ts).unwrap_or(0);
                (nb, boot)
            })
            .collect();
        for (nb, boot) in suspects {
            self.tele.bump(Scope::Layer("core.faults"), "suspicions");
            self.apply_liveness(ctx, nb, now, false, boot);
        }
    }

    /// Source-driven refresh: exchange a 1-hop liveness digest so healed
    /// partitions relearn deaths and reboots they missed, then replay our
    /// facts ([`Self::replay_facts`]).
    fn refresh_tick(&mut self, ctx: &mut Ctx<Msg>) {
        self.tele
            .bump(Scope::Layer("core.faults"), "refresh_rounds");
        let mut entries: Vec<(NodeId, SimTime, bool, SimTime)> = (self.view.peers.iter())
            .filter(|&(&n, e)| n != self.id && (!e.alive || e.boot_ts > 0))
            .map(|(&n, e)| (n, e.version, e.alive, e.boot_ts))
            .collect();
        entries.sort();
        if !entries.is_empty() {
            ctx.broadcast(Arc::new(Payload::LivenessDigest { entries }));
        }
        self.replay_facts(ctx);
    }

    /// Re-announce our live base facts (original ids — idempotent at
    /// replicas and owners thanks to generation dedup and clamped counts)
    /// and re-send the durable store's recent tombstones, whose walks a
    /// crash or partition may have cut short.
    fn replay_facts(&mut self, ctx: &mut Ctx<Msg>) {
        for (pred, tuple, id) in self.my_fact_records() {
            // Replays keep the original id (idempotence at replicas and
            // owners) but probe at *current* time: an original-tau replay
            // would re-derive historical joins with partners deleted since
            // (their tombstones legitimately satisfy `del_ts ≥ tau` for the
            // old tau), resurrecting retracted results every round.
            let mut rec = FactRecord::insert(pred, tuple, id);
            rec.tau = ctx.local_time;
            self.initiate_update(ctx, rec);
        }
        let deletes = self.durable_store().map(|d| d.recent_deletes().to_vec());
        for del in deletes.unwrap_or_default() {
            self.initiate_update(ctx, del);
        }
    }

    /// Arm a timer: `action` runs after `delay` ms of local time.
    fn set_timer(&mut self, ctx: &mut Ctx<Msg>, delay: SimTime, action: TimerAction) {
        let tag = self.next_tag;
        self.next_tag += 1;
        self.timers.insert(tag, action);
        ctx.set_timer(delay, tag);
    }

    /// Queue `what` to expire after `delay` ms of local time; returns the
    /// timer tag it will fire as.
    fn expire_in(&mut self, ctx: &mut Ctx<Msg>, delay: SimTime, what: Expiring) -> u64 {
        let tag = self.next_tag;
        self.next_tag += 1;
        self.expiries.push(Reverse(Expiry {
            due: ctx.local_time + delay,
            tag,
            what,
            armed: false,
        }));
        self.arm_next_expiry(ctx);
        tag
    }

    /// Keep the head of the expiry queue armed: a no-op unless the head
    /// moved earlier or the armed one just fired.
    fn arm_next_expiry(&mut self, ctx: &mut Ctx<Msg>) {
        // (`peek_mut` re-sifts the heap when written through: look first.)
        if self.expiries.peek().is_some_and(|head| !head.0.armed) {
            if let Some(mut head) = self.expiries.peek_mut() {
                head.0.armed = true;
                ctx.set_timer(head.0.due.saturating_sub(ctx.local_time), head.0.tag);
            }
        }
    }

    /// The head of the expiry queue came due as timer `tag`: drop what it
    /// names if that generation is still the stored one, then arm the next.
    fn fire_expiry(&mut self, ctx: &mut Ctx<Msg>, tag: u64) {
        let Some(head) = self.expiries.peek_mut().filter(|head| head.0.tag == tag) else {
            return; // no timer of ours
        };
        match PeekMut::pop(head).0.what {
            Expiring::Replica(pred, tuple, id) => {
                let rel = self.frags.relation_mut(pred);
                if rel.meta(&tuple).is_some_and(|m| m.extra == id) && rel.remove(&tuple) {
                    self.replicas -= 1;
                }
            }
            Expiring::Owned(pred, tuple) => {
                // The latest delta's expiry, and genuinely past the window.
                if let (Some(&w), Some(entry)) = (
                    self.prog.windows.get(&pred),
                    self.owned.entries.get(&(pred, tuple.clone())),
                ) {
                    let stale = entry
                        .id
                        .is_none_or(|id| id.ts.saturating_add(w) < ctx.local_time);
                    if entry.expiry == Some(tag) && stale && !entry.holddown_armed {
                        self.owned.remove(pred, tuple);
                    }
                }
            }
        }
        self.arm_next_expiry(ctx);
    }

    /// Decide the transmission that moves `payload` one hop toward `dest`
    /// and account for it (per-predicate sent counter, provenance hop) —
    /// said once for the origin's send and a relay's forward. `None`: no
    /// route, nothing transmits, the drop is logged.
    fn resolve_hop(&mut self, ctx: &Ctx<Msg>, dest: NodeId, payload: &Payload) -> Option<NodeId> {
        debug_assert_ne!(dest, self.id);
        let Some(mut hop) = self.net.next_hop(self.id, dest) else {
            // Unreachable destination (partitioned topology): a logged
            // drop, indistinguishable from loss to the protocol above.
            self.stats.routing_drops += 1;
            self.tele
                .bump(Scope::Pred(payload.pred().as_str()), "routing_drops");
            return None;
        };
        // Route repair (fault plane): detour around a next hop we believe
        // dead, as long as some live neighbor is strictly closer to the
        // destination (no loops). Falls back to the primary hop — the drop
        // is then recovered by refresh once liveness heals.
        if hop != dest && self.cfg.faults.is_some() && self.believes_dead(hop) {
            if let Some(detour) =
                sensorlog_netstack::router::next_hop_avoiding(&self.net.topo, self.id, dest, &|n| {
                    self.believes_dead(n)
                })
            {
                self.tele.bump(Scope::Layer("core.faults"), "route_detours");
                hop = detour;
            }
        }
        if self.tele.is_enabled() {
            // Per-predicate traffic accounting, one bump per hop that
            // transmits (the same currency as the simulator's per-kind tx
            // counters).
            self.tele.bump(
                Scope::Pred(payload.pred().as_str()),
                sent_counter(payload.kind()),
            );
        }
        if self.prov.is_enabled() {
            if let Some(origin) = payload.origin_id() {
                let (kind, at) = (payload.kind(), ctx.local_time);
                self.prov.record_with(|| ProvRecord::Hop {
                    from: self.id,
                    to: hop,
                    dest,
                    kind,
                    origin,
                    at,
                });
            }
        }
        Some(hop)
    }

    /// Start `payload` on its journey to `dest`: the one place a routed
    /// message is allocated — bare for a neighbor, enveloped otherwise.
    fn route(&mut self, ctx: &mut Ctx<Msg>, dest: NodeId, payload: Payload) {
        let Some(hop) = self.resolve_hop(ctx, dest, &payload) else {
            return;
        };
        let inner = Arc::new(payload);
        if hop == dest {
            ctx.send(dest, inner);
        } else {
            ctx.send(hop, Arc::new(Payload::Routed { dest, inner }));
        }
    }

    fn handle_msg(&mut self, ctx: &mut Ctx<Msg>, msg: Msg) {
        // What is only passed on is read through the pointer and passed on
        // as the pointer; only a consumer below takes the payload out.
        match &*msg {
            // A relay: the `Arc` that arrived goes to the next hop, and
            // the hop before `dest` sends `inner` alone.
            Payload::Routed { dest, inner } if *dest != self.id => {
                if let Some(hop) = self.resolve_hop(ctx, *dest, inner) {
                    let out = if hop == *dest { inner.clone() } else { msg };
                    ctx.send(hop, out);
                }
                return;
            }
            Payload::FloodStore { fact } => {
                if self.flood_seen.insert((fact.id, fact.kind)) {
                    self.store_replica(ctx, fact);
                    self.tele
                        .bump(Scope::Pred(fact.pred.as_str()), "flood_broadcasts");
                    ctx.broadcast(msg);
                }
                return;
            }
            _ => {}
        }
        match Arc::unwrap_or_clone(msg) {
            Payload::Routed { inner, .. } => self.handle_msg(ctx, inner),
            Payload::FloodStore { .. } => unreachable!("handled by reference above"),
            Payload::StoreWalk { fact, walk, pos } => {
                self.store_replica(ctx, &fact);
                if pos + 1 < walk.len() {
                    let next = walk[pos + 1];
                    self.route(
                        ctx,
                        next,
                        Payload::StoreWalk {
                            fact,
                            walk,
                            pos: pos + 1,
                        },
                    );
                }
            }
            Payload::Probe(probe) => {
                if probe.walk[probe.pos] == self.id {
                    self.process_probe(ctx, probe);
                } else {
                    // Mid-route to its walk target.
                    self.deliver_probe(ctx, probe);
                }
            }
            Payload::DerivDelta {
                pred,
                tuple,
                key,
                sign,
                tau,
                origin,
            } => self.handle_deriv_delta(ctx, pred, tuple, key, sign, tau, origin),
            Payload::ToCenter { fact } => self.feed_center(ctx.local_time, &fact),
            // 1-hop heartbeats carry their sender in the radio header and
            // are intercepted in `on_message`; one arriving here (inside a
            // Routed envelope) is a protocol violation we simply drop.
            Payload::Heartbeat { .. } => self.stats.routing_drops += 1,
            Payload::Liveness {
                subject,
                version,
                alive,
                boot_ts,
            } => self.apply_liveness(ctx, subject, version, alive, boot_ts),
            Payload::LivenessDigest { entries } => {
                for (subject, version, alive, boot_ts) in entries {
                    self.apply_liveness(ctx, subject, version, alive, boot_ts);
                }
            }
        }
    }
}

/// Telemetry counter name for a routed payload of the given message kind
/// (`&'static` so counter keys never allocate on the hot path).
fn sent_counter(kind: &'static str) -> &'static str {
    match kind {
        "store" => "sent_store",
        "probe" => "sent_probe",
        "result" => "sent_result",
        "centroid" => "sent_centroid",
        _ => "sent_other",
    }
}

impl App for SensorlogNode {
    type Msg = Msg;

    fn on_start(&mut self, ctx: &mut Ctx<Msg>) {
        self.boot_tick(ctx);
    }

    /// Crash recovery: run the normal boot path (new incarnation heartbeat,
    /// timers), then replay the durable store — restore the sequence
    /// high-water mark and the surviving base facts with their ORIGINAL
    /// ids, and re-announce them and the recent-tombstone window as a
    /// refresh round does.
    fn on_restart(&mut self, ctx: &mut Ctx<Msg>) {
        self.boot_tick(ctx);
        if let Some(r) = self.durable_store().map(|mut d| d.recover()) {
            self.seq = self.seq.max(r.next_seq);
            self.tele.add(
                Scope::Layer("core.faults"),
                "recovery_replays",
                (r.facts.len() + r.recent_deletes.len()) as u64,
            );
            let facts = r.facts.into_iter();
            self.my_facts.extend(facts.map(|(p, t, id)| ((p, t), id)));
            self.replay_facts(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<Msg>, from: NodeId, msg: Msg) {
        match *msg {
            // Heartbeats are 1-hop and identified by their radio sender.
            Payload::Heartbeat { version, boot_ts } => {
                if self.cfg.faults.is_some() {
                    self.last_hb.insert(from, ctx.local_time);
                    self.apply_liveness(ctx, from, version, true, boot_ts);
                }
            }
            _ => self.handle_msg(ctx, msg),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<Msg>, tag: u64) {
        match self.timers.remove(&tag) {
            Some(TimerAction::StartJoin(fact)) => self.start_join(ctx, fact),
            Some(TimerAction::Holddown(pred, tuple)) => self.fire_holddown(ctx, pred, tuple),
            Some(TimerAction::Tick(tick)) => self.fire_tick(ctx, tick),
            // Not a timer of its own: the expiry queue's head.
            None => self.fire_expiry(ctx, tag),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::{prop, prop_assert, prop_assert_eq, proptest, ProptestConfig};

    #[test]
    fn netinfo_asks_the_router() {
        let net = NetInfo::new(Topology::square_grid(4));
        // x first, then y.
        let from = NodeId(0); // (0,0)
        let dest = NodeId(15); // (3,3)
        let hop = net.next_hop(from, dest);
        assert_eq!(hop, Some(NodeId(1))); // (1,0)
        let hop2 = net.next_hop(NodeId(3), dest); // (3,0) -> up
        assert_eq!(hop2, Some(NodeId(7))); // (3,1)
    }

    #[test]
    fn netinfo_center_is_the_strategy_center() {
        for topo in [
            Topology::grid(6, 5),
            Topology::grid(9, 1), // a line
            Topology::random_geometric(40, 6.0, 1.8, 3).unwrap(),
        ] {
            let expect = Strategy::center(&topo);
            assert_eq!(NetInfo::new(topo).center(), expect);
        }
    }

    #[test]
    fn rtconfig_defaults_are_sane() {
        let c = RtConfig::default();
        assert!(c.tau_s > 0 && c.tau_j > 0);
        assert_eq!(c.pass_mode, crate::strategy::PassMode::OnePass);
        assert!(matches!(c.strategy, Strategy::Perpendicular { .. }));
        assert!(c.faults.is_none(), "fault plane must be opt-in");
    }

    fn test_node(cfg: RtConfig) -> SensorlogNode {
        let prog = Arc::new(
            crate::plan::compile_source(
                ".output q.\nq(X, Y) :- r1(X, T), r2(Y, T).\nqx(X) :- q(X, Y).",
                sensorlog_logic::builtin::BuiltinRegistry::standard(),
                crate::plan::PlanTiming::default(),
            )
            .unwrap(),
        );
        let shapes = Arc::new(
            prog.analysis
                .program
                .rules
                .iter()
                .map(crate::partial::RuleShape::of)
                .collect::<Vec<_>>(),
        );
        let net = Arc::new(NetInfo::new(Topology::square_grid(4)));
        SensorlogNode::new(
            NodeId(0),
            prog,
            Arc::new(cfg),
            net,
            shapes,
            Telemetry::disabled(),
        )
    }

    /// Satellite: with the fault plane active the adaptive holddown's
    /// upper clamp tightens from τj to (τj/4).max(10) — chaos churn must
    /// not let one inflated lag observation hold retractions for seconds.
    #[test]
    fn holddown_clamp_tightens_under_fault_plane() {
        let mut plain = test_node(RtConfig::default());
        let mut faulty = test_node(RtConfig {
            faults: Some(FaultPlaneCfg::default()),
            ..RtConfig::default()
        });
        // Before any lag observation both use the 100 ms fallback (already
        // under the 750 ms chaos cap for the default τj = 3000).
        assert_eq!(plain.default_holddown(), 100);
        assert_eq!(faulty.default_holddown(), 100);
        // A pathological lag tail (p95 ≈ 4 s/hop on a 6-hop-deep grid)
        // saturates both clamps.
        for n in [&mut plain, &mut faulty] {
            for _ in 0..50 {
                n.hop_lag.observe(4_000);
            }
        }
        assert_eq!(plain.default_holddown(), 3_000, "fault-free clamp is τj");
        assert_eq!(
            faulty.default_holddown(),
            750,
            "fault-plane clamp is (τj/4).max(10)"
        );
    }

    /// The liveness filter: a derivation dies with its input's origin, a
    /// derived input predates its owner's reboot, and base-fact inputs
    /// survive reboots (recovery re-announces them with original ids).
    #[test]
    fn key_live_filters_dead_and_stale_inputs() {
        let mut node = test_node(RtConfig {
            faults: Some(FaultPlaneCfg::default()),
            ..RtConfig::default()
        });
        let rule_id = node.prog.analysis.program.rules[0].id;
        let mk = |n: u32, ts: SimTime| TupleId {
            node: NodeId(n),
            ts,
            seq: 0,
        };
        // Inputs at body literals 0 (r1) and 1 (r2) — both base predicates.
        let key = DerivationKey::new(rule_id, vec![(0, mk(3, 100)), (1, mk(7, 200))]);
        let view = &mut node.view;
        assert!(view.key_live(&key), "no knowledge: presumed alive");
        let dead = LiveEntry {
            version: 500,
            alive: false,
            boot_ts: 0,
        };
        view.peers.insert(NodeId(3), dead);
        assert!(!view.key_live(&key), "dead input origin kills the key");
        let rebooted = LiveEntry {
            version: 900,
            alive: true,
            boot_ts: 800, // rebooted after minting ts=100
        };
        view.peers.insert(NodeId(3), rebooted);
        assert!(
            view.key_live(&key),
            "base-fact inputs survive reboots (recovery replays them)"
        );
        // A derived (IDB) input minted before its owner's reboot is stale:
        // rule 1 reads `q`.
        let idb_key = DerivationKey::new(1, vec![(0, mk(3, 100))]);
        assert!(
            !view.key_live(&idb_key),
            "stale IDB input (minted before owner reboot) kills the key"
        );
        // Static facts are immune.
        assert!(view.key_live(&DerivationKey::new(EDB_RULE, Vec::new())));
    }

    /// The owner's ledger under redelivery: a refresh replays a `+1`, a
    /// tombstone replay over-delivers the `-1`. The stored count of the key
    /// never leaves {-1, 1} (a zero leaves the ledger), the in-step
    /// derivation counter equals the walk at every step, and liveness is the
    /// ledger's. (`provenance::invariants` replays the same sequence through
    /// `on_message` and holds the DAG's liveness against this node's.)
    #[test]
    fn replayed_insert_and_overdelivered_delete_stay_clamped() {
        let mut d = deploy(".output q.\nq(X, Y) :- r1(X, T), r2(Y, T).", 3);
        let (q, owner, tuple) = (Symbol::intern("q"), NodeId(4), ints(&[1, 2]));
        let id = |n: u32, ts: SimTime| TupleId {
            node: NodeId(n),
            ts,
            seq: 0,
        };
        let key = DerivationKey::new(0, vec![(0, id(0, 10)), (1, id(8, 20))]);
        // (delta, stored count afterwards; 0 = the key left the ledger)
        let steps = [
            (1, 1),
            (1, 1),
            (-1, 0),
            (-1, -1),
            (-1, -1),
            (1, 0),
            (1, 1),
            (1, 1),
        ];
        for (sign, want) in steps {
            d.sim.invoke(owner, |node, ctx| {
                node.handle_deriv_delta(ctx, q, tuple.clone(), key.clone(), sign, 20, id(8, 20));
            });
            let node = d.node(owner);
            let stored: Vec<i64> = (node.derivation_count_entries().iter())
                .map(|&(_, _, c)| c)
                .collect();
            assert_eq!(stored, if want == 0 { vec![] } else { vec![want] });
            assert_eq!(node.derivation_count(), node.owned.derivations);
            assert_eq!(
                node.owned_live(q),
                if want > 0 {
                    vec![tuple.clone()]
                } else {
                    vec![]
                }
            );
        }
    }

    fn some_id(node: u32, ts: SimTime) -> TupleId {
        TupleId {
            node: NodeId(node),
            ts,
            seq: 0,
        }
    }

    /// A relay reads an envelope through the pointer and queues the pointer:
    /// mid-route the queue holds the very allocation that arrived, and the
    /// hop before the destination queues `inner` alone.
    #[test]
    fn a_relay_forwards_the_envelope_it_received() {
        let mut d = deploy(".output q.\nq(X, Y) :- r1(X, T), r2(Y, T).", 4);
        let inner: Msg = Arc::new(Payload::DerivDelta {
            pred: Symbol::intern("q"),
            tuple: ints(&[1, 2]),
            key: DerivationKey::new(0, vec![(0, some_id(0, 10)), (1, some_id(8, 20))]),
            sign: 1,
            tau: 20,
            origin: some_id(8, 20),
        });
        let dest = NodeId(3); // the end of row 0: 0 -> 1 -> 2 -> 3
        let envelope: Msg = Arc::new(Payload::Routed {
            dest,
            inner: inner.clone(),
        });
        d.sim.invoke(NodeId(1), |node, ctx| {
            node.on_message(ctx, NodeId(0), envelope.clone());
            let [(to, queued)] = ctx.buffered_sends() else {
                panic!("a relay sends once");
            };
            assert_eq!(*to, NodeId(2));
            assert!(Arc::ptr_eq(queued, &envelope));
        });
        assert_eq!(Arc::strong_count(&envelope), 2, "ours and the queue's");
        d.sim.invoke(NodeId(2), |node, ctx| {
            node.on_message(ctx, NodeId(1), envelope.clone());
            let [(to, queued)] = ctx.buffered_sends() else {
                panic!("a relay sends once");
            };
            assert_eq!(*to, dest);
            assert!(
                Arc::ptr_eq(queued, &inner),
                "the last hop carries no envelope"
            );
        });
        assert_eq!(Arc::strong_count(&envelope), 2, "node 2 queued no envelope");
        assert_eq!(
            Arc::strong_count(&inner),
            3,
            "ours, the envelope's, the queue's"
        );
        // Both copies arrive (the queued envelope via node 2 again), each
        // consumer copies what it shares, and nothing is left in flight.
        d.sim.run_to_quiescence(120_000);
        assert_eq!(Arc::strong_count(&envelope), 1);
        assert_eq!(Arc::strong_count(&inner), 2);
        assert_eq!(d.node(dest).derivation_count(), 1);
    }

    /// A flooded fact is one allocation however many links carry it: the
    /// first delivery re-broadcasts the `Arc` that arrived, a duplicate is
    /// recognised through the pointer and dropped.
    #[test]
    fn a_flood_shares_one_allocation_among_neighbours() {
        let mut d = deploy(WINDOWED_JOIN, 4);
        let at = NodeId(5); // interior: four neighbours
        let fact = FactRecord::insert(Symbol::intern("r1"), ints(&[1, 5]), some_id(9, 50));
        let msg: Msg = Arc::new(Payload::FloodStore { fact });
        d.sim.invoke(at, |node, ctx| {
            node.on_message(ctx, NodeId(4), msg.clone());
            let sent = ctx.buffered_sends();
            assert_eq!(sent.len(), 4);
            assert!(sent.iter().all(|(_, m)| Arc::ptr_eq(m, &msg)));
        });
        assert_eq!(Arc::strong_count(&msg), 1 + 4);
        assert_eq!(d.node(at).replica_count(), 1);
        let tx = d.sim.metrics.total_tx();
        d.sim.invoke(at, |node, ctx| {
            node.on_message(ctx, NodeId(6), msg.clone());
            assert!(ctx.buffered_sends().is_empty());
        });
        assert_eq!(Arc::strong_count(&msg), 1 + 4);
        assert_eq!(d.sim.metrics.total_tx(), tx);
        assert_eq!(d.node(at).replica_count(), 1);
    }

    /// The fault plane's duplication window queues one `Arc` twice. A walk
    /// message is advanced by its consumer, so each delivery works on its
    /// own copy: both continue from the original position and the shared
    /// original is untouched.
    #[test]
    fn a_duplicated_walk_message_is_processed_as_two_copies() {
        let mut d = deploy(".output q.\nq(X, Y) :- r1(X, T), r2(Y, T).", 4);
        let walk = Arc::new(vec![NodeId(1), NodeId(2), NodeId(3)]);
        let (r1, tuple, id) = (Symbol::intern("r1"), ints(&[1, 5]), some_id(0, 10));
        let fact = FactRecord::insert(r1, tuple.clone(), id);
        let prog = d.node(NodeId(1)).prog.clone();
        let rule = &prog.analysis.program.rules[0];
        let seed = seed_partial(&prog, rule, 0, false, &tuple, id).expect("r1 seeds the rule");
        let store: Msg = Arc::new(Payload::StoreWalk {
            fact: fact.clone(),
            walk: walk.clone(),
            pos: 0,
        });
        let probe: Msg = Arc::new(Payload::Probe(ProbeMsg {
            update: fact,
            walk,
            pos: 0,
            pass: 0,
            work: vec![RuleWork {
                rule_idx: 0,
                occ: 0,
                negated: false,
                partials: vec![seed],
            }],
        }));
        for msg in [&store, &probe] {
            for _delivery in 0..2 {
                d.sim.invoke(NodeId(1), |node, ctx| {
                    node.on_message(ctx, NodeId(0), msg.clone());
                    let [(to, next)] = ctx.buffered_sends() else {
                        panic!("a walk step sends once");
                    };
                    assert_eq!(*to, NodeId(2));
                    assert!(!Arc::ptr_eq(next, msg), "the step is a copy");
                    match &**next {
                        Payload::StoreWalk { pos, .. } => assert_eq!(*pos, 1),
                        Payload::Probe(p) => {
                            assert_eq!((p.pos, p.work[0].partials.len()), (1, 1))
                        }
                        other => panic!("unexpected {other:?}"),
                    }
                });
            }
            match &**msg {
                Payload::StoreWalk { pos, .. } => assert_eq!(*pos, 0),
                Payload::Probe(p) => assert_eq!((p.pos, p.work[0].partials.len()), (0, 1)),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(d.node(NodeId(1)).stats.probes_processed, 2);
    }

    const WINDOWED_JOIN: &str =
        ".window r1 1000.\n.window r2 1000.\n.output q.\nq(X, Y) :- r1(X, T), r2(Y, T).";

    fn deploy(src: &str, m: u32) -> crate::Deployment {
        crate::Deployment::new(
            src,
            sensorlog_logic::builtin::BuiltinRegistry::standard(),
            Topology::square_grid(m),
            crate::DeployConfig::default(),
        )
        .unwrap()
    }

    fn ints(v: &[i64]) -> Tuple {
        Tuple::new(v.iter().map(|&i| sensorlog_logic::Term::Int(i)).collect())
    }

    /// Regression: an expiry removed whatever was stored under its
    /// `(pred, tuple)`, so a tuple deleted and generated again inside its
    /// retention died with its *first* generation — here at 100 + 5,500
    /// instead of 3,000 + 5,500 (retention: τs + τj + τw = 1,500 + 3,000 +
    /// 1,000), on all four nodes of the source's row.
    #[test]
    fn an_older_generations_expiry_leaves_the_newer_replica() {
        let mut d = deploy(WINDOWED_JOIN, 4);
        let (r1, t) = (Symbol::intern("r1"), ints(&[1, 5]));
        let ev = |at, kind| crate::WorkloadEvent {
            at,
            node: NodeId(5),
            pred: r1,
            tuple: t.clone(),
            kind,
        };
        d.schedule_all([
            ev(100, UpdateKind::Insert),
            ev(1_000, UpdateKind::Delete),
            ev(3_000, UpdateKind::Insert),
        ]);
        let mut replicas_at = |at| {
            d.run(at);
            let stored = d.sim.nodes().flat_map(|n| n.id_bindings());
            // The source also binds the id in `my_facts`.
            let gens: Vec<SimTime> = stored.map(|(id, _, _)| id.ts).collect();
            let held: usize = d.sim.nodes().map(|n| n.replica_count()).sum();
            (held, gens.iter().filter(|&&ts| ts == 3_000).count())
        };
        assert_eq!(replicas_at(2_000), (4, 0), "first generation, tombstoned");
        assert_eq!(replicas_at(5_599), (4, 5), "second generation stored");
        assert_eq!(
            replicas_at(5_600),
            (4, 5),
            "the first one's expiry is stale"
        );
        assert_eq!(replicas_at(8_499), (4, 5));
        assert_eq!(replicas_at(8_500), (0, 1), "expired at 3,000 + 5,500");
        assert!(d.sim.is_quiescent());
    }

    /// The owned-side twin: an entry outlives its *last* delta by one
    /// window. An earlier delta's expiry used to drop it as soon as its id
    /// was a window old — here at 600 + 1,001 with all three derivations,
    /// although the delta at 1,000 had queued the expiry for 2,001.
    #[test]
    fn an_earlier_deltas_expiry_leaves_the_rearmed_owned_entry() {
        let mut d = deploy(
            ".window q 1000.\n.output q.\nq(X, Y) :- r1(X, T), r2(Y, T).",
            3,
        );
        let (q, owner, tuple) = (Symbol::intern("q"), NodeId(4), ints(&[1, 2]));
        let id = |n: u32, ts: SimTime| TupleId {
            node: NodeId(n),
            ts,
            seq: 0,
        };
        for at in [100, 600, 1_000] {
            d.sim.run_until(at);
            let key = DerivationKey::new(0, vec![(0, id(0, at)), (1, id(8, at))]);
            d.sim.invoke(owner, |node, ctx| {
                node.handle_deriv_delta(ctx, q, tuple.clone(), key, 1, at, id(8, at));
            });
        }
        for (at, want) in [(1_101, 3), (1_601, 3), (2_000, 3), (2_001, 0)] {
            d.sim.run_until(at);
            assert_eq!(d.node(owner).derivation_count(), want, "at {at}");
            assert_eq!(d.node(owner).owned_live(q).len(), want.min(1), "at {at}");
        }
        assert!(d.sim.is_quiescent());
    }

    /// What `store_replica` and the expiry queue must leave in the store,
    /// written as the decision table over a plain map and a list.
    #[derive(Default)]
    struct StoreModel {
        stored: BTreeMap<Tuple, TupleMeta<TupleId>>,
        /// (due, tuple, generation), in queueing order.
        pending: Vec<(SimTime, Tuple, TupleId)>,
    }

    impl StoreModel {
        fn store(&mut self, fact: &FactRecord, now: SimTime) {
            let (t, id) = (fact.tuple.clone(), fact.id);
            let meta = |gen_ts, del_ts| TupleMeta {
                gen_ts,
                del_ts,
                extra: id,
            };
            let old = self.stored.get(&t).map(|m| m.extra);
            match fact.kind {
                UpdateKind::Insert => {
                    if old.is_none_or(|old| old < id) {
                        self.stored.insert(t.clone(), meta(fact.tau, None));
                    }
                    // τs + τj + τw of `WINDOWED_JOIN` under the defaults.
                    self.pending.push(((fact.tau + 5_500).max(now + 1), t, id));
                }
                UpdateKind::Delete if old == Some(id) => {
                    let m = self.stored.get_mut(&t).unwrap();
                    m.del_ts = Some(m.del_ts.map_or(fact.tau, |d| d.min(fact.tau)));
                }
                UpdateKind::Delete if old.is_some_and(|old| old > id) => {}
                UpdateKind::Delete => {
                    self.stored.insert(t, meta(id.ts, Some(fact.tau)));
                }
            }
        }

        fn expire(&mut self, now: SimTime) {
            let mut due: Vec<(SimTime, Tuple, TupleId)> = Vec::new();
            self.pending
                .retain(|e| e.0 > now || (due.push(e.clone()), false).1);
            due.sort_by_key(|e| e.0); // stable: queueing order within a tick
            for (_, t, id) in due {
                if self.stored.get(&t).is_some_and(|m| m.extra == id) {
                    self.stored.remove(&t);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random insert / delete / re-insert / replay-with-later-τ / wait
        /// sequences through `store_replica` at one node: after every step
        /// the fragment store, `replica_count()` and `id_bindings()` say
        /// what the model says, a delete of generation g never touches a
        /// stored g′ ≠ g, and in the end every generation whose insert came
        /// has expired (a tombstone whose insert never does waits for it).
        #[test]
        fn replica_store_views_agree_under_random_histories(
            steps in prop::collection::vec((0u8..4, 0i64..3, 0u32..4, 1u64..4_000), 1..48)
        ) {
            let mut d = deploy(WINDOWED_JOIN, 3);
            let (r1, at) = (Symbol::intern("r1"), NodeId(4));
            let mut model = StoreModel::default();
            for (op, k, g, dt) in steps {
                let now = d.sim.now();
                let tuple = ints(&[k, 5]);
                // Generation `g` of tuple `k`, minted at 1,000·g by node 7.
                let id = TupleId { node: NodeId(7), ts: 1_000 * SimTime::from(g), seq: k as u32 };
                let fact = match op {
                    0 => FactRecord::insert(r1, tuple.clone(), id),
                    // A refresh replay: the original id, stored at today's τ.
                    1 => FactRecord { tau: now, ..FactRecord::insert(r1, tuple.clone(), id) },
                    2 => FactRecord::delete(r1, tuple.clone(), id, now),
                    _ => {
                        d.sim.run_until(now + dt);
                        model.expire(now + dt);
                        continue;
                    }
                };
                let before = d.node(at).frags.relation(r1).and_then(|r| r.meta(&tuple).copied());
                d.sim.invoke(at, |node, ctx| node.store_replica(ctx, &fact));
                model.store(&fact, now);
                let node = d.node(at);
                let after = node.frags.relation(r1).and_then(|r| r.meta(&tuple).copied());
                if op == 2 && after.is_some_and(|m| m.extra != id) {
                    prop_assert_eq!(before, after, "a delete of {id} touched another generation");
                }
                let stored: Vec<(Tuple, TupleMeta<TupleId>)> = (node.frags.relation(r1).into_iter())
                    .flat_map(|r| r.iter().map(|(t, m)| (t.clone(), *m)))
                    .collect();
                let want: Vec<(Tuple, TupleMeta<TupleId>)> =
                    model.stored.iter().map(|(t, m)| (t.clone(), *m)).collect();
                prop_assert_eq!(&stored, &want);
                prop_assert_eq!(node.replica_count(), want.len());
                let mut bound: Vec<(TupleId, Symbol, Tuple)> =
                    want.into_iter().map(|(t, m)| (m.extra, r1, t)).collect();
                bound.sort();
                prop_assert_eq!(node.id_bindings(), bound);
            }
            let end = d.sim.run_to_quiescence(SimTime::MAX);
            prop_assert!(end <= 4_000 * 48 + 5_500);
            model.expire(end);
            let node = d.node(at);
            prop_assert!(node.expiries.is_empty() && model.pending.is_empty());
            prop_assert_eq!(node.replica_count(), model.stored.len());
            prop_assert!(model.stored.values().all(|m| m.del_ts.is_some()));
        }
    }
}
