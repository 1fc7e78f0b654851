//! The per-node runtime: the compiled program's node state machine
//! (Sec. V, Fig. 3 — "the join component at a sensor node").
//!
//! Each node holds replicated fragments of the streams whose storage
//! regions cross it, runs the storage and join-computation phases of the
//! Generalized Perpendicular Approach, and — for derived tuples it owns
//! (`DistProgram::owner_of`) — maintains the set of derivations with
//! multiplicity counts and propagates liveness transitions as new stream
//! updates (Secs. III-B, IV).
//!
//! Where an update goes is not decided here: the deployment gives each
//! predicate one [`Reach`] (`DistProgram::with_reach`), and the update
//! pipeline matches it once in `initiate_update` and once in `start_join`
//! — to the Centroid server, on the neighbourhood plane, nowhere, flooded,
//! or along the strategy's regions — testing no strategy itself.
//!
//! A node carries inline only what every node uses. What its deployment
//! shares is one [`DeployContext`] pointer; replicas, owned tuples, timers
//! and the rest of storage are one part allocated by the first operation
//! that needs it, and the fault plane's state another, present only with
//! the plane on.

use crate::msg::{Msg, OnWalk, Payload, ProbeMsg, RuleWork};
use crate::partial::{
    process_partials, seed_partial, Fragments, LocalCtx, ProbeWork, Replica, RuleShape,
};
use crate::plan::{self, Delay, DistProgram, Reach};
use crate::prov::{ProvRecord, Provenance};
use crate::strategy::{PassMode, Strategy};
use crate::tupleid::{clamp_absorbs, DerivationKey, FactRecord, TupleId, EDB_RULE};
use sensorlog_eval::eval_body::instantiate_head;
use sensorlog_eval::relation::TupleMeta;
use sensorlog_eval::{EvalError, Firing, IncrementalEngine, Support, Update, UpdateKind};
use sensorlog_logic::intern::IdHashMap;
use sensorlog_logic::{Literal, Symbol, Tuple};
use sensorlog_netsim::{App, Ctx, MsgMeta, NodeId, SimConfig, SimTime, Topology};
use sensorlog_netstack::Router;
use sensorlog_telemetry::{HistId, Scope, Telemetry};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::Arc;

/// Shared routing context: the topology, the next-hop oracle over it, the
/// server Centroid picks, and what the runtime prices its waits by.
#[derive(Debug)]
pub struct NetInfo {
    /// The deployment's one topology: the simulator holds the same `Arc`.
    pub topo: Arc<Topology>,
    router: Router,
    /// Centroid's central server ([`Strategy::center`] of `topo`).
    center: NodeId,
    /// τc (ms): the network's clock-skew bound, the simulator's
    /// `SimConfig::clock_skew_max` (Theorem 3). 0 until a deployment sets it.
    tau_c: SimTime,
    /// The most one hop's delivery takes (ms), `SimConfig::max_hop_delay`:
    /// reorder windows' jitter included. 0 until a deployment sets it.
    hop_ms: SimTime,
}

impl NetInfo {
    pub fn new(topo: Topology) -> NetInfo {
        NetInfo::shared(Arc::new(topo))
    }

    /// Route over a topology held elsewhere too (the deployment's
    /// simulator), without a copy of its adjacency.
    pub(crate) fn shared(topo: Arc<Topology>) -> NetInfo {
        NetInfo {
            center: Strategy::center(&topo),
            router: Router::new(&topo),
            topo,
            tau_c: 0,
            hop_ms: 0,
        }
    }

    /// Count the router's hop decisions into `tele` (`layer:netstack`).
    pub(crate) fn with_telemetry(mut self, tele: Telemetry) -> NetInfo {
        self.router = self.router.with_telemetry(tele);
        self
    }

    /// Price the runtime's waits by the simulator's delay bounds: its
    /// slowest hop and its clock-skew bound.
    pub(crate) fn with_delays(mut self, sim: &SimConfig) -> NetInfo {
        self.tau_c = sim.clock_skew_max;
        self.hop_ms = sim.max_hop_delay();
        self
    }

    /// What `delay` comes to on this network (ms).
    pub fn wait(&self, delay: Delay) -> SimTime {
        delay.ms + delay.hops * self.hop_ms + delay.skews * self.tau_c
    }

    /// The central server for Centroid: the node closest to the deployment
    /// centroid. A scan of every node, so it is done once here rather than
    /// per update.
    pub fn center(&self) -> NodeId {
        self.center
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

/// Runtime strategy configuration, shared by all nodes. No wait is set
/// here: each is derived per deployment (`DistProgram::with_reach`) and
/// priced by the simulator's delay bounds ([`NetInfo::wait`]).
#[derive(Clone, Debug)]
pub struct RtConfig {
    pub strategy: Strategy,
    /// Whose pass plans the probes walk ([`DistProgram::with_pass_mode`]);
    /// read when the deployment compiles the program.
    pub pass_mode: PassMode,
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
            faults: None,
        }
    }
}

/// Fault-plane 1-hop aliveness beacon period (ms).
const HEARTBEAT_MS: SimTime = 200;
/// A neighbor silent for longer than this is declared dead and its death
/// flooded (lease expiry, Theorem 3's failure-detection input).
const LEASE_MS: SimTime = 700;
/// Source-driven refresh period: live base facts are re-announced (with
/// their original ids, so re-announcement is idempotent) and recent
/// tombstones re-sent, healing state lost to crashes and partitions.
const REFRESH_MS: SimTime = 2_000;
/// Most recent retractions a node keeps to re-send. Anything older has
/// long since finished its delete walk (bounded by τs + τj).
const RECENT_DELETES_CAP: usize = 64;

/// The fault plane's one setting. Its periods are constants of this module
/// (`HEARTBEAT_MS`, `LEASE_MS`, `REFRESH_MS`).
#[derive(Clone, Copy, Debug)]
pub struct FaultPlaneCfg {
    /// Stop re-arming periodic fault-plane timers once local time passes
    /// this bound, so a healed network can quiesce for oracle comparison.
    pub active_until: SimTime,
}

impl Default for FaultPlaneCfg {
    fn default() -> Self {
        FaultPlaneCfg {
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
    /// Windowed predicates: the tag of the `owned` [`Expiry`] its latest
    /// delta queued — the only one that may drop the entry.
    expiry: Option<u64>,
    /// That expiry came due with a holddown in flight, which drops it.
    expired: bool,
}

/// What decides whether a stored derivation still counts: the fault plane's
/// view of its peers, and which rule inputs are derived. Borrowed from the
/// node's fault part and its deployment's program rather than read through
/// the node, so callers holding `&mut` borrows into its storage part can
/// still consult it.
#[derive(Clone, Copy)]
struct LiveView<'a> {
    /// What we believe about each peer (`None`: the fault plane is off).
    peers: Option<&'a HashMap<NodeId, LiveEntry>>,
    /// The program, for which rule inputs are derived (IDB): a derived input
    /// minted before its owner's current incarnation booted is stale — the
    /// owner lost that entry in the crash.
    prog: &'a DistProgram,
}

impl<'a> LiveView<'a> {
    fn of(prog: &'a DistProgram, faults: Option<&'a FaultState>) -> LiveView<'a> {
        LiveView {
            peers: faults.map(|f| &f.peers),
            prog,
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
            let Some(e) = self.peers.and_then(|peers| peers.get(&id.node)) else {
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
        if self.peers.is_none_or(HashMap::is_empty) {
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
    /// Evaluations this node could not finish, each lost to the result:
    /// updates the Centroid center's engine refused with an `EvalError`
    /// (cascade limit, derivation cycle, a failing builtin), and heads a
    /// probe completed but could not evaluate (`m(X / 0)` over `n(0)`).
    /// `invariants::check_structural` reports them.
    pub eval_errors: u64,
    /// Neighbourhood-plane updates started here that break the plane's
    /// precondition (`plan::breaks_plane`): the tuple is about no node,
    /// or the link it states is not a radio link. Their joins may miss
    /// partners; `invariants::check_structural` reports them.
    pub locality_violations: u64,
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

/// One entry of an expiry queue of a predicate's [`PredRecord`]: what
/// leaves the node when its time comes. Its queue says which predicate and
/// which kind. A replica's: the replica of `tuple`, if it is past its own
/// retention (Sec. IV-B "Tuple Expiry": (τs + τc) + τj + (τw + τc) after
/// generation, [`past_retention`]) — the stored generation's `gen_ts` says
/// which one that is, so a tuple generated again inside its predecessor's
/// retention stays until its own entry. An owned entry's: silently expire
/// the owned derived tuple (window-based, no join phase — "independently
/// expiring a tuple after sufficient time"), unless a later delta queued a
/// later expiry ([`Owned::expiry`]) — at its due, whenever the entry's id
/// was minted.
///
/// Ordered by due local time, then by timer tag: queueing order, the order
/// a node's same-tick timers fire in. (Tags are unique, so the derived
/// order never reads further.)
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Expiry {
    due: SimTime,
    tag: u64,
    tuple: Tuple,
}

// One entry per windowed replica, beside the replica itself: 64 B when it
// repeated the replica's generation id (`TupleId`), 40 B while it named its
// predicate, its kind and whether its timer was in flight.
const _: () = assert!(std::mem::size_of::<Expiry>() <= 32);

/// A queue of pending expiries, earliest first.
type ExpiryQueue = BinaryHeap<Reverse<Expiry>>;

/// Whether a replica generated at `gen_ts` is past its `retention` (`None`:
/// its stream is not windowed) at `now`: too old to store, and too old to
/// keep. No probe may join it from `gen_ts + retention` on, and none may
/// lose it before.
fn past_retention(gen_ts: SimTime, retention: Option<SimTime>, now: SimTime) -> bool {
    retention.is_some_and(|r| gen_ts.saturating_add(r) <= now)
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

/// What every node of one deployment reads and none writes: the compiled
/// program, the runtime settings, the routing context, each rule's join
/// shape and the two observer handles. Built once per deployment; a node
/// holds one `Arc` of it.
#[derive(Debug)]
pub struct DeployContext {
    prog: Arc<DistProgram>,
    cfg: RtConfig,
    net: NetInfo,
    /// [`RuleShape::of`] each rule, by rule index.
    shapes: Vec<RuleShape>,
    /// Telemetry handle (disabled by default; a pure observer — it never
    /// touches timers, messages, or the RNG).
    tele: Telemetry,
    /// Provenance recording handle (disabled by default; a pure observer
    /// like telemetry — recording never touches timers, messages, or the
    /// RNG, so the netsim journal is byte-identical with the plane on or
    /// off).
    prov: Provenance,
}

impl DeployContext {
    pub fn new(
        prog: Arc<DistProgram>,
        cfg: RtConfig,
        net: NetInfo,
        tele: Telemetry,
        prov: Provenance,
    ) -> DeployContext {
        let shapes = prog.analysis.program.rules.iter().map(RuleShape::of);
        DeployContext {
            shapes: shapes.collect(),
            prog,
            cfg,
            net,
            tele,
            prov,
        }
    }

    pub(crate) fn cfg(&self) -> &RtConfig {
        &self.cfg
    }

    pub(crate) fn net(&self) -> &NetInfo {
        &self.net
    }

    pub(crate) fn prov(&self) -> &Provenance {
        &self.prov
    }

    /// How long a replica of `pred` is kept past its generation on this
    /// deployment (`Waits::retain`); `None` unless `pred` is windowed.
    fn retention(&self, pred: Symbol) -> Option<SimTime> {
        self.prog.waits(pred).retain.map(|r| self.net.wait(r))
    }

    /// A Centroid center's engine over this program, profiled by the
    /// deployment's telemetry and, with provenance on, logging the firings
    /// `feed_center` turns into proofs. Building it evaluates the program's
    /// ground facts, which can fail (a builtin error, the cascade limit).
    pub(crate) fn center_engine(&self) -> Result<Box<IncrementalEngine>, EvalError> {
        let mut engine = IncrementalEngine::new(self.prog.analysis.clone(), self.prog.reg.clone())?;
        engine.profiler = self.tele.profiler();
        engine.set_record_firings(self.prov.is_enabled());
        Ok(Box::new(engine))
    }
}

/// What a node keeps of one predicate beside its replicas: the extension
/// of the predicate's entry in [`NodeStore::frags`], made with its relation
/// by the first replica, owned entry or expiry of the predicate at the node.
#[derive(Debug, Default)]
struct PredRecord {
    /// When each stored replica of the predicate goes.
    replica_expiries: ExpiryQueue,
    /// When each owned entry goes (windowed derived predicates).
    owned_expiries: ExpiryQueue,
    /// The derived tuples of the predicate this node owns
    /// (`DistProgram::owner_of`), in tuple order: a few per node, where a
    /// hash table's smallest allocation holds four.
    owned_entries: Vec<(Tuple, Owned)>,
    /// Peak stored items (fragment replicas + owned derived entries),
    /// cross-validated against the static memory bounds of `logic::diag`
    /// by `crate::invariants::check_static_bounds`.
    peak: usize,
}

impl PredRecord {
    fn queue(&mut self, owned: bool) -> &mut ExpiryQueue {
        if owned {
            &mut self.owned_expiries
        } else {
            &mut self.replica_expiries
        }
    }

    /// Count one derivation delta into the owned entry of `tuple` — which
    /// its first delta creates — unless the clamp absorbs it, keeping
    /// `derivations`, the node's count of stored derivation keys, in step.
    fn book(
        &mut self,
        derivations: &mut usize,
        tuple: &Tuple,
        key: DerivationKey,
        sign: i8,
    ) -> &mut Owned {
        let i = self.find(tuple).unwrap_or_else(|at| {
            let v = &mut self.owned_entries;
            // Doubling from one entry, not from `Vec`'s four.
            if v.len() == v.capacity() {
                v.reserve_exact(v.len().max(1));
            }
            v.insert(at, (tuple.clone(), Owned::default()));
            at
        });
        let entry = &mut self.owned_entries[i].1;
        if !clamp_absorbs(entry.support.count(&key), sign) {
            let before = entry.support.add(key, i64::from(sign));
            // Stored counts are never zero: a key that cancels leaves.
            *derivations += usize::from(before == 0);
            *derivations -= usize::from(before + i64::from(sign) == 0);
        }
        entry
    }

    /// Drop the owned entry at `i`, its derivation keys with it.
    fn drop_owned(&mut self, i: usize, derivations: &mut usize) {
        let (_, gone) = self.owned_entries.remove(i);
        *derivations -= gone.support.entries().len();
    }

    /// Where the owned entry of `tuple` is, or would go.
    fn find(&self, tuple: &Tuple) -> Result<usize, usize> {
        self.owned_entries.binary_search_by(|(t, _)| t.cmp(tuple))
    }

    /// Record the stored-item count, `replicas` of the predicate and its
    /// owned entries, into the peak.
    fn note_stored(&mut self, replicas: usize) {
        self.peak = self.peak.max(replicas + self.owned_entries.len());
    }
}

/// What a node holds once it stores a replica, owns a derived tuple, arms
/// a timer, or sees a flood — allocated by the first such operation.
/// Under Centroid no node but the center ever does.
#[derive(Default)]
struct NodeStore {
    /// One entry per predicate the node keeps anything of, in `Symbol`
    /// order: its replicas — the one record of a replica: tuple, gen/del
    /// timestamps and the id of the generation stored — and its
    /// [`PredRecord`].
    frags: Fragments<PredRecord>,
    /// Tags of the pending expiries a simulator timer is in flight for.
    /// Each expiry takes a timer tag when queued and fires as that timer at
    /// exactly its due time, but only the earliest of all queue heads is
    /// armed (an expiry is armed when it becomes that head, so armed ones
    /// fire in queue order): this holds it and any an earlier one displaced
    /// before it fired — a few at most, empty exactly when nothing is
    /// pending — and pending events do not scale with stored replicas.
    armed: Vec<u64>,
    /// Derivation keys stored across the owned entries, kept in step with
    /// them so no delta pays a walk ([`SensorlogNode::derivation_count`] is
    /// the walk).
    derivations: usize,
    timers: IdHashMap<u64, TimerAction>,
    /// Output-predicate transitions observed at this owner.
    output_log: Vec<(Symbol, Tuple, UpdateKind, SimTime)>,
    /// Ids of the [`PROBE_HISTS`] histograms per update predicate, resolved
    /// by the first probe of that predicate (telemetry on only; a program's
    /// few predicates are searched linearly).
    probe_hists: Vec<(Symbol, [Option<HistId>; 3])>,
    /// Provenance-plane bindings at a Centroid center: ground atom →
    /// tuple id (fed EDB facts keep their source id; derived heads get a
    /// center-minted id). Empty unless this node is the center and the
    /// provenance plane is enabled.
    center_ids: IdHashMap<(Symbol, Tuple), TupleId>,
    /// Center-minted provenance ids so far. Deliberately separate from
    /// `seq` (and offset into the top half of the range by
    /// [`CENTER_SEQ_BASE`]): provenance is a pure observer, so minting ids
    /// for the DAG must not advance — or collide with — the runtime's real
    /// tuple-id stream.
    center_minted: u32,
}

/// Where center-minted provenance ids start ([`NodeStore::center_minted`]).
const CENTER_SEQ_BASE: u32 = 0x8000_0000;

impl NodeStore {
    /// The earliest pending expiry, the smallest `(due, tag)` among the
    /// queue heads: `(due, tag, pred, owned)`.
    fn next_expiry(&self) -> Option<(SimTime, u64, Symbol, bool)> {
        let heads = self.frags.entries().flat_map(|(pred, _, r)| {
            let queues = [(false, &r.replica_expiries), (true, &r.owned_expiries)];
            (queues.into_iter()).filter_map(move |(owned, q)| {
                q.peek().map(|head| (head.0.due, head.0.tag, pred, owned))
            })
        });
        heads.min()
    }

    /// Queue `expiry` of `pred`'s replica or `owned` entry, and keep the
    /// earliest armed.
    fn queue_expiry(&mut self, ctx: &mut Ctx<Msg>, pred: Symbol, owned: bool, expiry: Expiry) {
        let (_, record) = self.frags.entry_or_insert(pred);
        record.queue(owned).push(Reverse(expiry));
        self.arm_next_expiry(ctx);
    }

    /// The entry of the derived `(pred, tuple)` this node owns.
    fn owned_mut(&mut self, pred: Symbol, tuple: &Tuple) -> Option<&mut Owned> {
        let (_, record) = self.frags.entry_mut(pred)?;
        let i = record.find(tuple).ok()?;
        Some(&mut record.owned_entries[i].1)
    }

    /// Keep the earliest pending expiry armed: a no-op unless it moved
    /// earlier or the armed one just fired.
    fn arm_next_expiry(&mut self, ctx: &mut Ctx<Msg>) {
        if let Some((due, tag, ..)) = self.next_expiry() {
            if !self.armed.contains(&tag) {
                self.armed.push(tag);
                ctx.set_timer(due.saturating_sub(ctx.local_time), tag);
            }
        }
    }
}

/// The fault plane's per-node state: present exactly when
/// [`RtConfig::faults`] is set.
#[derive(Debug, Default)]
struct FaultState {
    /// What we believe about each peer's liveness.
    peers: HashMap<NodeId, LiveEntry>,
    /// Local time we last heard a heartbeat from each neighbor.
    last_hb: HashMap<NodeId, SimTime>,
    /// This node's most recent retractions (oldest first, at most
    /// [`RECENT_DELETES_CAP`]), re-sent by each refresh round and after a
    /// restart. With `my_facts` and `seq` it is what survives a crash.
    recent_deletes: VecDeque<FactRecord>,
    /// Local boot time of this incarnation (0 until `on_start`).
    boot_ts: SimTime,
}

/// The sensorlog node application. Inline is only what every node uses;
/// what one plane needs is allocated by that plane (`NodeStore`,
/// `FaultState`), and what the deployment shares is one pointer.
pub struct SensorlogNode {
    pub id: NodeId,
    seq: u32,
    next_tag: u64,
    ctx: Arc<DeployContext>,
    /// Tuples this node generated (for delete-by-value at the source).
    my_facts: IdHashMap<(Symbol, Tuple), TupleId>,
    pub stats: NodeStats,
    /// Centroid baseline: the central server's engine (center node only —
    /// boxed, so the other nodes carry a pointer, not an empty engine).
    pub center_engine: Option<Box<IncrementalEngine>>,
    /// Storage and ownership (`None` until this node first stores, owns or
    /// arms a timer).
    store: Option<Box<NodeStore>>,
    /// The fault plane (`None` when it is off).
    faults: Option<Box<FaultState>>,
}

// Every node of a deployment is one element of `Simulator::apps`, so its
// size is multiplied by the grid (1,800 on the largest benchmark workload)
// whether or not the node stores anything. State only some nodes have goes
// behind a pointer: the Centroid centre's engine, inline, was half of a
// 1,632 B node, and every plane's state inline made 584 B.
const _: () = assert!(std::mem::size_of::<SensorlogNode>() <= 160);

impl SensorlogNode {
    /// Node `id` of the deployment `ctx`. `center_engine` is the Centroid
    /// center's (`DeployContext::center_engine`), `None` elsewhere.
    pub fn new(
        id: NodeId,
        ctx: Arc<DeployContext>,
        center_engine: Option<Box<IncrementalEngine>>,
    ) -> SensorlogNode {
        let faults = ctx.cfg.faults.map(|_| Box::default());
        SensorlogNode {
            id,
            seq: 0,
            next_tag: 0,
            ctx,
            my_facts: IdHashMap::default(),
            stats: NodeStats::default(),
            center_engine,
            store: None,
            faults,
        }
    }

    /// The storage part, allocated by its first use.
    fn store_mut(&mut self) -> &mut NodeStore {
        self.store.get_or_insert_with(Box::default)
    }

    /// The liveness filter over this node's fault-plane view.
    fn view(&self) -> LiveView<'_> {
        LiveView::of(&self.ctx.prog, self.faults.as_deref())
    }

    /// Peak stored items per predicate (fragment replicas + owned derived
    /// entries), in `Symbol` order, cross-validated against the static
    /// memory bounds of `logic::diag` by
    /// `crate::invariants::check_static_bounds`.
    pub fn peak_pred_stored(&self) -> impl Iterator<Item = (Symbol, usize)> + '_ {
        let entries = self.store.iter().flat_map(|s| s.frags.entries());
        // An entry whose every copy was refused stored nothing.
        entries.filter_map(|(p, _, r)| (r.peak > 0).then_some((p, r.peak)))
    }

    /// Output-predicate transitions observed at this owner.
    pub fn output_log(&self) -> &[(Symbol, Tuple, UpdateKind, SimTime)] {
        self.store.as_ref().map_or(&[], |s| &s.output_log)
    }

    // ------------------------------------------------------------------
    // Public entry points (driven by the deployment harness)
    // ------------------------------------------------------------------

    /// A sensor reading was generated at this node: create the fact and
    /// run the update pipeline.
    pub fn generate(&mut self, ctx: &mut Ctx<Msg>, pred: Symbol, tuple: Tuple) {
        self.ctx.tele.bump(Scope::Pred(pred.as_str()), "generated");
        let id = self.fresh_id(ctx);
        self.my_facts.insert((pred, tuple.clone()), id);
        self.source_update(ctx, FactRecord::insert(pred, tuple, id));
    }

    /// A previously generated reading was retracted at this node.
    pub fn retract(&mut self, ctx: &mut Ctx<Msg>, pred: Symbol, tuple: Tuple) {
        let Some(id) = self.my_facts.remove(&(pred, tuple.clone())) else {
            return; // unknown tuple: nothing to delete
        };
        self.ctx.tele.bump(Scope::Pred(pred.as_str()), "retracted");
        let fact = FactRecord::delete(pred, tuple, id, ctx.local_time);
        if let Some(f) = self.faults.as_deref_mut() {
            if f.recent_deletes.len() == RECENT_DELETES_CAP {
                f.recent_deletes.pop_front();
            }
            f.recent_deletes.push_back(fact.clone());
        }
        self.source_update(ctx, fact);
    }

    /// Inject a derived fact directly at its owner (static facts from
    /// empty-body rules, t = 0).
    pub fn inject_static(&mut self, ctx: &mut Ctx<Msg>, pred: Symbol, tuple: Tuple) {
        let id = self.fresh_id(ctx);
        let key = DerivationKey::new(EDB_RULE, Vec::new());
        let store = self.store_mut();
        let (rel, record) = store.frags.entry_or_insert(pred);
        let entry = record.book(&mut store.derivations, &tuple, key, 1);
        entry.id = Some(id);
        entry.propagated_live = true;
        record.note_stored(rel.len());
        self.log_output(pred, &tuple, UpdateKind::Insert, ctx.local_time);
        self.source_update(ctx, FactRecord::insert(pred, tuple, id));
    }

    /// An update enters the network here, at the node that holds the fact:
    /// record it as a proof leaf (`Edb` — static facts are leaves at their
    /// owner like base facts at their source) and run the update pipeline.
    fn source_update(&mut self, ctx: &mut Ctx<Msg>, fact: FactRecord) {
        self.ctx.prov.record_with(|| ProvRecord::Edb {
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
        let view = self.view();
        let owned = self.owned().filter(|&(p, _, o)| p == pred && view.live(o));
        owned.map(|(_, t, _)| t.clone()).collect()
    }

    /// The entries of the derived tuples this node owns, with their
    /// predicates.
    fn owned(&self) -> impl Iterator<Item = (Symbol, &Tuple, &Owned)> {
        let entries = self.store.iter().flat_map(|s| s.frags.entries());
        entries.flat_map(|(p, _, r)| r.owned_entries.iter().map(move |(t, o)| (p, t, o)))
    }

    /// Current replica count (fragment tuples stored here).
    pub fn replica_count(&self) -> usize {
        self.store.as_ref().map_or(0, |s| s.frags.total_tuples())
    }

    /// Join-index activity on this node: fragment-store probes plus, on a
    /// Centroid center, the incremental engine's database.
    pub fn index_stats(&self) -> sensorlog_eval::IndexStatsSnapshot {
        let mut s = sensorlog_eval::IndexStatsSnapshot::default();
        if let Some(store) = &self.store {
            s.merge(store.frags.index_stats());
        }
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
        let mut out: Vec<(Symbol, Tuple, i64)> = (self.owned())
            .flat_map(|(p, t, o)| {
                (o.support.entries().iter()).map(move |&(_, c)| (p, t.clone(), c))
            })
            .collect();
        out.sort();
        out
    }

    /// Stored replicas of windowed predicates that no pending expiry names
    /// at their own due (`gen_ts` + today's retention): the node would keep
    /// them for good.
    #[cfg(test)]
    pub(crate) fn replicas_without_expiry(&self) -> usize {
        let Some(store) = &self.store else {
            return 0;
        };
        let mut unexpiring = 0;
        for (pred, rel, record) in store.frags.entries() {
            let Some(r) = self.ctx.retention(pred) else {
                continue;
            };
            for (tuple, m) in rel.iter() {
                let due = m.gen_ts + r;
                let mut queued = record.replica_expiries.iter();
                unexpiring += usize::from(!queued.any(|e| e.0.tuple == *tuple && e.0.due == due));
            }
        }
        unexpiring
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
        for (p, rel, _) in self.store.iter().flat_map(|s| s.frags.entries()) {
            out.extend(rel.iter().map(|(t, m)| (m.extra.id, p, t.clone())));
        }
        out.extend((self.owned()).filter_map(|(p, t, o)| o.id.map(|id| (id, p, t.clone()))));
        out.sort();
        out
    }

    /// Owner entries that have not settled: a holddown still armed, or a
    /// liveness state differing from what was last propagated. Must be
    /// empty once the network quiesces.
    pub fn unsettled_owned(&self) -> Vec<(Symbol, Tuple)> {
        let view = self.view();
        let mut out: Vec<(Symbol, Tuple)> = (self.owned())
            .filter(|(_, _, o)| o.holddown_armed || view.wants_holddown(o))
            .map(|(p, t, _)| (p, t.clone()))
            .collect();
        out.sort();
        out
    }

    /// Current stored derivation count, by walking the owned entries.
    pub fn derivation_count(&self) -> usize {
        (self.owned())
            .map(|(_, _, o)| o.support.entries().len())
            .sum()
    }

    /// The facts this node generated and still holds, with their ids
    /// (sorted). A node restarted with the fault plane on must end a run
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
        id
    }

    /// Start the storage phase for `fact` where its [`Reach`] says, and
    /// schedule its join phase.
    fn initiate_update(&mut self, ctx: &mut Ctx<Msg>, fact: FactRecord) {
        let _span = self.ctx.tele.span("core.update.initiate");
        // Storage phase.
        match self.ctx.prog.reach(fact.pred) {
            Reach::Center => {
                let center = self.ctx.net.center();
                if center == self.id {
                    self.feed_center(ctx.local_time, &fact);
                } else {
                    self.route(ctx, center, Payload::ToCenter { fact });
                }
                return;
            }
            // No storage phase to wait for.
            Reach::Nowhere => return self.start_join(ctx, fact),
            Reach::Plane(on) => {
                // (A clone of the pointer: the store set below is borrowed
                // from the topology while the node sends.)
                let shared = Arc::clone(&self.ctx);
                let topo = &shared.net.topo;
                let home = plan::plane_node(topo, on, &fact.tuple);
                if let Some(home) = home.filter(|&n| n != self.id) {
                    // Sensed away from the node it is about: it starts
                    // there, its storage phase one route longer.
                    self.route(ctx, home, Payload::Relocate { fact });
                    return;
                }
                if plan::breaks_plane(topo, on, fact.pred, &fact.tuple) {
                    self.stats.locality_violations += 1;
                    self.ctx
                        .tele
                        .bump(Scope::Pred(fact.pred.as_str()), "locality_violations");
                }
                self.store_replica(ctx, &fact);
                for &nb in plan::store_targets(topo, self.id, on, &fact.tuple) {
                    let fact = fact.clone();
                    let on = OnWalk::default();
                    self.route(ctx, nb, Payload::StoreWalk { fact, on });
                }
            }
            Reach::Flood => {
                self.store_replica(ctx, &fact);
                self.ctx
                    .tele
                    .bump(Scope::Pred(fact.pred.as_str()), "flood_broadcasts");
                ctx.broadcast(Arc::new(Payload::FloodStore { fact: fact.clone() }));
            }
            Reach::Regions(radius) => {
                self.store_replica(ctx, &fact);
                // Its storage walk from here toward the end, then toward
                // the start: passes 0 and 1.
                if let Some((walk, i)) = self.ctx.prog.walks_of(self.id)[0].clone() {
                    for pass in 0..2 {
                        let on = OnWalk::side(&walk, i, radius.map(|rad| rad.r), pass);
                        self.forward_store_walk(ctx, fact.clone(), on);
                    }
                }
            }
        }

        // Join phase after τs + τc (Sec. IV-A).
        let delay = self.ctx.net.wait(self.ctx.prog.waits(fact.pred).store);
        self.set_timer(ctx, delay, TimerAction::StartJoin(fact));
    }

    /// Send `fact`'s storage walk on to the member after `on`'s, if any.
    fn forward_store_walk(&mut self, ctx: &mut Ctx<Msg>, fact: FactRecord, mut on: OnWalk) {
        if let Some(pos) = self.next_member(&on, fact.pred, false) {
            on.pos = pos;
            let next = on.at().expect("a member of a walk");
            self.route(ctx, next, Payload::StoreWalk { fact, on });
        }
    }

    /// The position of the member after `on`'s on its pass (`behind`: the
    /// one before), its walk cut to `pred`'s radius when it is cut.
    fn next_member(&self, on: &OnWalk, pred: Symbol, behind: bool) -> Option<u32> {
        let radius = on.cut.then(|| self.ctx.prog.radius(pred)).flatten();
        on.next(&self.ctx.net.topo, radius.map(|rad| rad.r), behind)
    }

    /// Store `fact`'s copy of its replica. True iff that changed the store:
    /// a new replica, a newer generation in place of an older one, or a
    /// tombstone set on the stored generation. A copy that changes nothing
    /// (a duplicate, an older generation, an insert its own delete
    /// overtook) returns at once, and so does one whose replica's retention
    /// has passed: it is not stored.
    fn store_replica(&mut self, ctx: &mut Ctx<Msg>, fact: &FactRecord) -> bool {
        // Retention of windowed streams (Sec. IV-B): the replica must
        // outlive every probe that may legally join with it —
        // (τs + τc) + τj + (τw + τc) past its generation timestamp.
        let retention = self.ctx.retention(fact.pred);
        let now = ctx.local_time;
        let store = self.store.get_or_insert_with(Box::default);
        let (rel, record) = store.frags.entry_or_insert(fact.pred);
        // Generation-aware replica storage: insert and delete walks may
        // arrive in either order (independent multi-hop routes), so the
        // replica tracks the newest tuple *generation* (by ID, Definition 2)
        // and a tombstone never gets clobbered by its own generation's
        // late-arriving insert. `new_gen: Some(gen_ts)`: this update became
        // the stored generation, in place of an older one's entry if there
        // is one, generated at `gen_ts`.
        let (mut tombstoned, mut new_gen) = (false, None);
        rel.update(fact.tuple.clone(), |stored| {
            let mut replica = Replica::live(fact.id);
            let gen_ts = match (fact.kind, stored) {
                // Same generation already here (possibly tombstoned by an
                // overtaking delete), or a newer one: nothing to do.
                (UpdateKind::Insert, Some(old)) if old.extra.id >= fact.id => return None,
                (UpdateKind::Insert, _) => fact.tau,
                // A newer generation is stored: this delete is stale.
                (UpdateKind::Delete, Some(old)) if old.extra.id > fact.id => return None,
                // Tombstone the matching generation (Sec. IV-B: replicas
                // stay for concurrent probes and expire later).
                (UpdateKind::Delete, Some(old)) if old.extra.id == fact.id => {
                    tombstoned = old.extra.tombstone(fact.tau);
                    return None;
                }
                // Delete overtook (or outlived) the insert walk: store a
                // tombstoned replica so probes between gen and del still
                // see it, and later probes don't.
                (UpdateKind::Delete, _) => {
                    replica.tombstone(fact.tau);
                    fact.id.ts
                }
            };
            // No probe may join a replica past its retention: storing it
            // would only have it expire a tick later.
            if past_retention(gen_ts, retention, now) {
                return None;
            }
            new_gen = Some(gen_ts);
            Some(TupleMeta {
                gen_ts,
                extra: replica,
            })
        });
        let Some(gen_ts) = new_gen else {
            return tombstoned;
        };
        record.note_stored(rel.len());
        self.ctx
            .tele
            .bump(Scope::Pred(fact.pred.as_str()), "replicas_stored");
        let replicas = store.frags.total_tuples();
        self.stats.peak_replicas = self.stats.peak_replicas.max(replicas);
        if let Some(r) = retention {
            let due = gen_ts.saturating_add(r);
            let expiry = Expiry {
                due,
                tag: self.take_tag(),
                tuple: fact.tuple.clone(),
            };
            self.store_mut().queue_expiry(ctx, fact.pred, false, expiry);
        }
        true
    }

    /// Build and launch the join probe for `fact`.
    fn start_join(&mut self, ctx: &mut Ctx<Msg>, fact: FactRecord) {
        // (A clone of the pointer: the occurrences are borrowed from the
        // program while the node sends.)
        let shared = Arc::clone(&self.ctx);
        let Some(occs) = shared.prog.occurrences.get(&fact.pred) else {
            return; // pred not consumed by any rule
        };
        let _span = shared.tele.span("core.join.start");
        let mut work = Vec::new();
        for occ in occs {
            let rule = &shared.prog.analysis.program.rules[occ.rule_idx];
            if let Some(p) = seed_partial(
                &shared.prog,
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
        // Only an update walking regions joins anywhere but where it stands.
        let mut on = OnWalk::default();
        if let Reach::Regions(radius) = self.ctx.prog.reach(fact.pred) {
            if let Some((walk, i)) = &self.ctx.prog.walks_of(self.id)[1] {
                on = OnWalk::probe(&self.ctx.net.topo, walk, *i, radius.map(|rad| rad.r));
            }
        }
        let probe = ProbeMsg {
            update: fact,
            on,
            work,
        };
        self.deliver_probe(ctx, probe);
    }

    /// Route the probe to its current walk target (possibly ourselves).
    fn deliver_probe(&mut self, ctx: &mut Ctx<Msg>, probe: ProbeMsg) {
        match probe.on.at() {
            Some(target) if target != self.id => self.route(ctx, target, Payload::Probe(probe)),
            _ => self.process_probe(ctx, probe),
        }
    }

    /// Run the join-computation step at this node (Fig. 1) and forward.
    fn process_probe(&mut self, ctx: &mut Ctx<Msg>, mut probe: ProbeMsg) {
        let tau = probe.update.tau;
        // Sim-time age of the update at the moment its probe reaches us —
        // the in-network join latency the paper bounds with τs + τc.
        let _span = (self.ctx.tele)
            .span("core.join.probe")
            .with_sim(ctx.local_time.saturating_sub(tau));
        self.stats.probes_processed += 1;
        let sign_base = probe.update.kind;
        let pred = probe.update.pred;
        let ahead = self.next_member(&probe.on, pred, false);
        self.ctx
            .tele
            .bump(Scope::Pred(probe.update.pred.as_str()), "probes_processed");

        let mut emissions: Vec<(Symbol, Tuple, DerivationKey, i8)> = Vec::new();
        let mut work = ProbeWork::default();
        {
            // A node that stores nothing joins against no fragments.
            let none = Fragments::<PredRecord>::default();
            let lctx = LocalCtx {
                prog: self.ctx.prog.as_ref(),
                db: self.store.as_ref().map_or(&none, |s| &s.frags),
                tau,
                update_id: probe.update.id,
                // Fault-plane delete probes match generously so re-driven
                // tombstones retract derivations made from stale replicas
                // (see `LocalCtx::generous`). Inert when faults are off.
                generous: self.ctx.cfg.faults.is_some() && sign_base == UpdateKind::Delete,
            };
            let last_node = ahead.is_none();
            // The walk leaves its node unless no member is behind its last.
            let leaves = !last_node || self.next_member(&probe.on, pred, true).is_some();
            let pass = probe.on.pass as usize;

            for workitem in &mut probe.work {
                let (rule_idx, pin) = (workitem.rule_idx as usize, workitem.occ as usize);
                let rule = &self.ctx.prog.analysis.program.rules[rule_idx];
                let shape = &self.ctx.shapes[rule_idx];
                let plan = self.ctx.prog.pass_plan(rule_idx, pin);
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
                // The end of this rule's own last pass: what is complete is
                // emitted, what is not never will be.
                let walk_done = last_node && pass + 1 >= plan.passes(leaves);
                // The end of an earlier pass keeps only the partials that
                // have joined every literal up to it.
                let joined = plan.joined(pass);
                let sign = match (sign_base, workitem.negated) {
                    (UpdateKind::Insert, false) | (UpdateKind::Delete, true) => 1i8,
                    _ => -1i8,
                };
                // What goes on stays where it arrived: filtered in place.
                let kept = processed.into_iter().filter_map(|p| {
                    if !p.is_complete(shape) {
                        return (!last_node || (!walk_done && p.bound & joined == joined))
                            .then_some(p);
                    }
                    if plan.holds_complete() && !walk_done {
                        return Some(p); // keep checking negations
                    }
                    match instantiate_head(rule, &p.bindings, &self.ctx.prog.reg) {
                        Ok(tuple) => {
                            let key = DerivationKey::new(rule.id, p.inputs);
                            emissions.push((rule.head.pred, tuple, key, sign));
                        }
                        Err(_) => {
                            self.stats.eval_errors += 1;
                            let head = Scope::Pred(rule.head.pred.as_str());
                            self.ctx.tele.bump(head, "eval_errors");
                        }
                    }
                    None
                });
                workitem.partials = kept.collect();
            }
        }
        if self.ctx.tele.is_enabled() {
            let pred = probe.update.pred;
            let hists = &mut self.store.get_or_insert_with(Box::default).probe_hists;
            let known = hists.iter().position(|(p, _)| *p == pred);
            let at = known.unwrap_or_else(|| {
                hists.push((pred, [None; 3]));
                hists.len() - 1
            });
            let counts = [work.partials_in, work.candidates, work.extensions];
            let ids = hists[at].1.iter_mut();
            for ((id, name), v) in ids.zip(PROBE_HISTS).zip(counts) {
                let scope = Scope::Pred(pred.as_str());
                self.ctx
                    .tele
                    .observe_cached(id, scope, name, PROBE_COUNT_BUCKETS, v);
            }
        }

        // Each result goes to the owner the program names for it.
        let origin = probe.update.id;
        for (pred, tuple, key, sign) in emissions {
            self.stats.results_emitted += 1;
            self.ctx
                .tele
                .bump(Scope::Pred(pred.as_str()), "results_emitted");
            let owner = self.ctx.prog.owner_of(&self.ctx.net.topo, pred, &tuple);
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
        if let Some(pos) = ahead {
            probe.on.pos = pos;
            self.deliver_probe(ctx, probe);
        } else if probe.work.iter().any(|w| !w.partials.is_empty()) {
            // A partial that can still complete on the next pass: U-turn,
            // carrying only the rules that have one.
            probe.work.retain(|w| !w.partials.is_empty());
            probe.on.pass += 1;
            // Already at the first node of the pass back (ourselves).
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
        let _span = self.ctx.tele.span("core.result.apply").with_sim(lag);
        self.ctx
            .tele
            .bump(Scope::Pred(pred.as_str()), "deriv_deltas");
        self.ctx.prov.record_with(|| ProvRecord::Deriv {
            owner: self.id,
            pred,
            tuple: tuple.clone(),
            key: key.clone(),
            sign,
            tau,
            origin,
            at: ctx.local_time,
        });
        // Windowed derived streams: owned state expires with the window
        // (silent, Sec. II-B), a window and τc after its last delta —
        // queued anew by each delta, whatever its holddown mints since.
        let window = self.ctx.prog.windows.get(&pred).copied();
        let tag = window.map(|_| self.take_tag());
        let store = self.store.get_or_insert_with(Box::default);
        let (rel, record) = store.frags.entry_or_insert(pred);
        let entry = record.book(&mut store.derivations, &tuple, key, sign);
        (entry.expiry, entry.expired) = (tag, false);
        let view = LiveView::of(&self.ctx.prog, self.faults.as_deref());
        let wants_holddown = view.wants_holddown(entry);
        record.note_stored(rel.len());
        if let (Some(w), Some(tag)) = (window, tag) {
            let due = ctx.local_time + w + self.ctx.net.tau_c + 1;
            let tuple = tuple.clone();
            store.queue_expiry(ctx, pred, true, Expiry { due, tag, tuple });
        }
        let derivations = store.derivations;
        debug_assert_eq!(derivations, self.derivation_count());
        self.stats.peak_derivations = self.stats.peak_derivations.max(derivations);
        if wants_holddown {
            self.arm_holddown(ctx, pred, tuple);
        }
    }

    /// Start debouncing a liveness transition of the owned `(pred, tuple)`:
    /// its holddown on this deployment (`DistProgram::holddown`) runs from
    /// now.
    fn arm_holddown(&mut self, ctx: &mut Ctx<Msg>, pred: Symbol, tuple: Tuple) {
        if let Some(entry) = self
            .store
            .as_deref_mut()
            .and_then(|s| s.owned_mut(pred, &tuple))
        {
            entry.holddown_armed = true;
        }
        let holddown = self.ctx.net.wait(self.ctx.prog.holddown(pred));
        self.set_timer(ctx, holddown, TimerAction::Holddown(pred, tuple));
    }

    /// Holddown expired: propagate the tuple's liveness if it still differs
    /// from what the network believes (Sec. IV-C's "wait … before actually
    /// finalizing a derived fact").
    fn fire_holddown(&mut self, ctx: &mut Ctx<Msg>, pred: Symbol, tuple: Tuple) {
        let now = ctx.local_time;
        let view = LiveView::of(&self.ctx.prog, self.faults.as_deref());
        let Some(store) = self.store.as_deref_mut() else {
            return;
        };
        let found =
            (store.frags.entry_mut(pred)).and_then(|(_, r)| Some((r.find(&tuple).ok()?, r)));
        let Some((i, record)) = found else {
            return;
        };
        let entry = &mut record.owned_entries[i].1;
        entry.holddown_armed = false;
        // An entry whose window closed meanwhile is dead, and goes.
        let live = !entry.expired && view.live(entry);
        let (debounced, minted) = (live == entry.propagated_live, entry.id);
        entry.propagated_live = live;
        if entry.expired {
            record.drop_owned(i, &mut store.derivations);
        }
        if debounced {
            return; // transition debounced away
        }
        self.ctx
            .tele
            .bump(Scope::Pred(pred.as_str()), "holddown_fired");
        let fact = if live {
            // A new generation of the tuple: it gets its own id.
            let id = self.fresh_id(ctx);
            if let Some(entry) = self.store_mut().owned_mut(pred, &tuple) {
                entry.id = Some(id);
            }
            FactRecord::insert(pred, tuple.clone(), id)
        } else {
            let Some(id) = minted else {
                // Died before its insert was ever propagated (the holddown
                // debounced the whole lifetime away at arming time but the
                // flag raced): nothing in the network to retract.
                self.stats.routing_drops += 1;
                return;
            };
            FactRecord::delete(pred, tuple.clone(), id, now)
        };
        self.ctx.prov.record_with(|| ProvRecord::Mint {
            owner: self.id,
            pred,
            tuple: fact.tuple.clone(),
            id: fact.id,
            kind: fact.kind,
            at: now,
        });
        self.log_output(pred, &tuple, fact.kind, now);
        self.initiate_update(ctx, fact);
    }

    fn log_output(&mut self, pred: Symbol, tuple: &Tuple, kind: UpdateKind, ts: SimTime) {
        if self.ctx.prog.outputs.contains(&pred) {
            (self.store_mut().output_log).push((pred, tuple.clone(), kind, ts));
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
            self.stats.eval_errors += 1;
            self.ctx
                .tele
                .bump(Scope::Pred(fact.pred.as_str()), "eval_errors");
        }
        // The central store is this node's memory (Sec. V): Centroid's
        // hotspot is exactly what the per-node peak exists to show.
        self.stats.peak_replicas = self.stats.peak_replicas.max(engine.db.total_tuples());
        self.stats.peak_derivations = self
            .stats
            .peak_derivations
            .max(engine.stats.max_derivations);
        if self.ctx.prov.is_enabled() {
            // The fed fact keeps its source-minted id (the source already
            // emitted the `Edb` record); deletes reuse the generation id,
            // so only inserts refresh the binding.
            if fact.kind == UpdateKind::Insert {
                (self.store_mut().center_ids).insert((fact.pred, fact.tuple.clone()), fact.id);
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
        let store = self.store.get_or_insert_with(Box::default);
        for Firing {
            derivation: d,
            sign,
            pred,
            tuple,
            tau,
        } in firings
        {
            let rule = &rules[d.rule_id()];
            let inputs: Option<Vec<(u16, TupleId)>> = (rule.positive_atoms().zip(d.inputs(rule)))
                .enumerate()
                .map(|(i, (a, t))| {
                    let id = store.center_ids.get(&(a.pred, t))?;
                    Some((i as u16, *id))
                })
                .collect();
            let Some(inputs) = inputs else {
                // A premise with no binding means its own lineage was lost
                // (engine predates the plane being enabled): skip rather
                // than fabricate an unprovable key.
                continue;
            };
            self.ctx.prov.record_with(|| ProvRecord::Deriv {
                owner: self.id,
                pred,
                tuple: tuple.clone(),
                key: DerivationKey::new(rule.id, inputs.clone()),
                sign,
                tau,
                origin: trigger,
                at: now,
            });
            if sign > 0 && !store.center_ids.contains_key(&(pred, tuple.clone())) {
                let id = TupleId {
                    node: self.id,
                    ts: now,
                    seq: CENTER_SEQ_BASE + store.center_minted,
                };
                store.center_minted += 1;
                store.center_ids.insert((pred, tuple.clone()), id);
                self.ctx.prov.record_with(|| ProvRecord::Mint {
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
        let peers = self.faults.as_ref().map(|f| &f.peers);
        peers.and_then(|p| p.get(&n)).is_some_and(|e| !e.alive)
    }

    /// Boot-time fault-plane setup, shared by first start and restart:
    /// stamp the incarnation, baseline neighbor leases, announce ourselves,
    /// and arm the periodic timers. No-op with the plane disabled.
    fn boot_tick(&mut self, ctx: &mut Ctx<Msg>) {
        let (Some(cfg), Some(f)) = (self.ctx.cfg.faults, self.faults.as_deref_mut()) else {
            return;
        };
        f.boot_ts = ctx.local_time;
        for &nb in ctx.neighbors() {
            // Grace period: a neighbor gets a full lease from our boot
            // before we may declare it dead.
            f.last_hb.insert(nb, ctx.local_time);
        }
        self.announce_self(ctx);
        for tick in [Tick::Heartbeat, Tick::Lease, Tick::Refresh] {
            self.arm_tick(ctx, &cfg, tick);
        }
    }

    /// Tell the 1-hop neighborhood we are alive, at a version (our local
    /// time) kept current so death rumors can be compared against it.
    fn announce_self(&mut self, ctx: &mut Ctx<Msg>) {
        let Some(f) = self.faults.as_deref_mut() else {
            return;
        };
        let (version, boot_ts) = (ctx.local_time, f.boot_ts);
        let own = LiveEntry {
            version,
            alive: true,
            boot_ts,
        };
        f.peers.insert(self.id, own);
        ctx.broadcast(Arc::new(Payload::Heartbeat { version, boot_ts }));
    }

    /// Arm `tick`'s next period — unless local time has passed the plane's
    /// `active_until`, so a healed network can quiesce.
    fn arm_tick(&mut self, ctx: &mut Ctx<Msg>, f: &FaultPlaneCfg, tick: Tick) {
        if ctx.local_time < f.active_until {
            let period = match tick {
                Tick::Heartbeat => HEARTBEAT_MS,
                Tick::Lease => LEASE_MS,
                Tick::Refresh => REFRESH_MS,
            };
            self.set_timer(ctx, period, TimerAction::Tick(tick));
        }
    }

    /// A periodic fault-plane timer fired: do its duty, then re-arm it.
    fn fire_tick(&mut self, ctx: &mut Ctx<Msg>, tick: Tick) {
        let Some(f) = self.ctx.cfg.faults else {
            return;
        };
        match tick {
            Tick::Heartbeat => self.announce_self(ctx),
            Tick::Lease => self.lease_tick(ctx),
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
        let Some(f) = self.faults.as_deref_mut() else {
            return;
        };
        if subject == self.id {
            if !alive {
                // Rumors of our death: out-version them.
                let v = ctx.local_time.max(version + 1);
                let own = LiveEntry {
                    version: v,
                    alive: true,
                    boot_ts: f.boot_ts,
                };
                f.peers.insert(self.id, own);
                (self.ctx.tele).bump(Scope::Layer("core.faults"), "death_rebuttals");
                ctx.broadcast(Arc::new(Payload::Liveness {
                    subject: self.id,
                    version: v,
                    alive: true,
                    boot_ts: own.boot_ts,
                }));
            }
            return;
        }
        let e = f.peers.entry(subject).or_default();
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
        let view = self.view();
        let mut arm: Vec<(Symbol, Tuple)> = (self.owned())
            .filter(|(_, _, o)| view.wants_holddown(o))
            .map(|(p, t, _)| (p, t.clone()))
            .collect();
        arm.sort();
        for (pred, tuple) in arm {
            self.arm_holddown(ctx, pred, tuple);
        }
    }

    /// Lease check: any neighbor we believe alive but have not heard from
    /// for longer than [`LEASE_MS`] is declared dead and the death flooded.
    fn lease_tick(&mut self, ctx: &mut Ctx<Msg>) {
        let Some(f) = self.faults.as_deref() else {
            return;
        };
        let now = ctx.local_time;
        let suspects: Vec<(NodeId, SimTime)> = (ctx.neighbors().iter())
            .filter(|nb| {
                let heard = f.last_hb.get(nb).copied().unwrap_or(0);
                let believed_alive = f.peers.get(nb).is_none_or(|e| e.alive);
                believed_alive && now.saturating_sub(heard) > LEASE_MS
            })
            .map(|&nb| {
                let boot = f.peers.get(&nb).map(|e| e.boot_ts).unwrap_or(0);
                (nb, boot)
            })
            .collect();
        for (nb, boot) in suspects {
            self.ctx
                .tele
                .bump(Scope::Layer("core.faults"), "suspicions");
            self.apply_liveness(ctx, nb, now, false, boot);
        }
    }

    /// Source-driven refresh: exchange a 1-hop liveness digest so healed
    /// partitions relearn deaths and reboots they missed, then replay our
    /// facts ([`Self::replay_facts`]).
    fn refresh_tick(&mut self, ctx: &mut Ctx<Msg>) {
        self.ctx
            .tele
            .bump(Scope::Layer("core.faults"), "refresh_rounds");
        let peers = self.faults.iter().flat_map(|f| f.peers.iter());
        let mut entries: Vec<(NodeId, SimTime, bool, SimTime)> = peers
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
    /// and re-send our recent tombstones, whose walks a crash or partition
    /// may have cut short.
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
        let deletes = self.faults.as_ref().map(|f| f.recent_deletes.clone());
        for del in deletes.unwrap_or_default() {
            self.initiate_update(ctx, del);
        }
    }

    /// Arm a timer: `action` runs after `delay` ms of local time.
    fn set_timer(&mut self, ctx: &mut Ctx<Msg>, delay: SimTime, action: TimerAction) {
        let tag = self.take_tag();
        self.store_mut().timers.insert(tag, action);
        ctx.set_timer(delay, tag);
    }

    /// The next timer tag: a timer's, or an expiry's that fires as one.
    fn take_tag(&mut self) -> u64 {
        self.next_tag += 1;
        self.next_tag - 1
    }

    /// The earliest pending expiry came due as timer `tag`: drop what it
    /// names if it is still due to go, then arm the next.
    fn fire_expiry(&mut self, ctx: &mut Ctx<Msg>, tag: u64) {
        let Some(store) = self.store.as_deref_mut() else {
            return; // no timer of ours
        };
        let Some((_, _, pred, owned)) = store.next_expiry().filter(|head| head.1 == tag) else {
            return; // no timer of ours
        };
        let (rel, record) = store
            .frags
            .entry_mut(pred)
            .expect("the entry next_expiry found");
        let head = record.queue(owned).pop();
        let Reverse(Expiry { tuple, .. }) = head.expect("the head next_expiry found");
        store.armed.retain(|&armed| armed != tag);
        if !owned {
            // Whichever generation is stored now, if it is past its own
            // retention: a newer one generated later stays for its own entry.
            let now = ctx.local_time;
            let past = |gen_ts| past_retention(gen_ts, self.ctx.retention(pred), now);
            if rel.meta(&tuple).is_some_and(|m| past(m.gen_ts)) {
                rel.remove(&tuple);
            }
        } else if let Ok(i) = record.find(&tuple) {
            // The latest delta's expiry: the entry goes at the due its queue
            // held, or with the holddown in flight then, which still sends
            // its transition.
            let entry = &mut record.owned_entries[i].1;
            entry.expired = entry.expiry == Some(tag);
            if entry.expired && !entry.holddown_armed {
                record.drop_owned(i, &mut store.derivations);
            }
        }
        store.arm_next_expiry(ctx);
    }

    /// Record `msg` as one provenance hop where it lands, if it carries an
    /// originating tuple id. The one hop record: a transmission that is
    /// lost, or dropped at a dead node, never lands and leaves none. Kept
    /// out of line so the delivery path with the plane off is one branch.
    #[inline(never)]
    fn record_hop(&self, ctx: &Ctx<Msg>, from: NodeId, msg: &Payload) {
        let Some(origin) = msg.origin_id() else {
            return;
        };
        let dest = match *msg {
            Payload::Routed { dest, .. } => dest,
            _ => self.id,
        };
        let (to, kind, at) = (self.id, msg.kind(), ctx.local_time);
        self.ctx.prov.record_with(|| ProvRecord::Hop {
            from,
            to,
            dest,
            kind,
            origin,
            at,
        });
    }

    /// Decide the transmission that moves `payload` one hop toward `dest`
    /// and count it in the per-predicate sent counter — said once for the
    /// origin's send and a relay's forward. `None`: no route, nothing
    /// transmits, the drop is logged.
    fn resolve_hop(&mut self, dest: NodeId, payload: &Payload) -> Option<NodeId> {
        debug_assert_ne!(dest, self.id);
        let Some(mut hop) = self.ctx.net.next_hop(self.id, dest) else {
            // Unreachable destination (partitioned topology): a logged
            // drop, indistinguishable from loss to the protocol above.
            self.stats.routing_drops += 1;
            self.ctx
                .tele
                .bump(Scope::Pred(payload.pred().as_str()), "routing_drops");
            return None;
        };
        // Route repair (fault plane): detour around a next hop we believe
        // dead, as long as some live neighbor is strictly closer to the
        // destination (no loops). Falls back to the primary hop — the drop
        // is then recovered by refresh once liveness heals.
        if hop != dest && self.ctx.cfg.faults.is_some() && self.believes_dead(hop) {
            if let Some(detour) = sensorlog_netstack::router::next_hop_avoiding(
                &self.ctx.net.topo,
                self.id,
                dest,
                &|n| self.believes_dead(n),
            ) {
                self.ctx
                    .tele
                    .bump(Scope::Layer("core.faults"), "route_detours");
                hop = detour;
            }
        }
        if self.ctx.tele.is_enabled() {
            // Per-predicate traffic accounting, one bump per hop that
            // transmits (the same currency as the simulator's per-kind tx
            // counters).
            self.ctx.tele.bump(
                Scope::Pred(payload.pred().as_str()),
                sent_counter(payload.kind()),
            );
        }
        Some(hop)
    }

    /// Start `payload` on its journey to `dest`: the one place a routed
    /// message is allocated — bare for a neighbor, enveloped otherwise.
    fn route(&mut self, ctx: &mut Ctx<Msg>, dest: NodeId, payload: Payload) {
        let Some(hop) = self.resolve_hop(dest, &payload) else {
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
                if let Some(hop) = self.resolve_hop(*dest, inner) {
                    let out = if hop == *dest { inner.clone() } else { msg };
                    ctx.send(hop, out);
                }
                return;
            }
            // A flood copy goes on exactly when storing it changed this
            // node's replica store: a duplicate, a stale generation and a
            // copy past its retention stop here.
            Payload::FloodStore { fact } => {
                if self.store_replica(ctx, fact) {
                    self.ctx
                        .tele
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
            Payload::StoreWalk { fact, on } => {
                self.store_replica(ctx, &fact);
                self.forward_store_walk(ctx, fact, on);
            }
            // At its walk target, or mid-route to it.
            Payload::Probe(probe) => self.deliver_probe(ctx, probe),
            Payload::DerivDelta {
                pred,
                tuple,
                key,
                sign,
                tau,
                origin,
            } => self.handle_deriv_delta(ctx, pred, tuple, key, sign, tau, origin),
            Payload::ToCenter { fact } => self.feed_center(ctx.local_time, &fact),
            Payload::Relocate { fact } => self.initiate_update(ctx, fact),
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
    /// timers). With the fault plane on, the node's flash survives the
    /// crash: take its base facts with their ORIGINAL ids, its sequence
    /// (so no id is minted twice) and its recent tombstones from the
    /// crashed instance, and re-announce them as a refresh round does.
    /// With the plane off the node keeps nothing.
    fn on_restart(&mut self, ctx: &mut Ctx<Msg>, mut crashed: SensorlogNode) {
        self.boot_tick(ctx);
        let (Some(f), Some(old)) = (self.faults.as_deref_mut(), crashed.faults.as_deref_mut())
        else {
            return;
        };
        f.recent_deletes = std::mem::take(&mut old.recent_deletes);
        self.my_facts = std::mem::take(&mut crashed.my_facts);
        self.seq = crashed.seq;
        let replays = (self.my_facts.len() + f.recent_deletes.len()) as u64;
        (self.ctx.tele).add(Scope::Layer("core.faults"), "recovery_replays", replays);
        self.replay_facts(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<Msg>, from: NodeId, msg: Msg) {
        if self.ctx.prov.is_enabled() {
            self.record_hop(ctx, from, &msg);
        }
        match *msg {
            // Heartbeats are 1-hop and identified by their radio sender.
            Payload::Heartbeat { version, boot_ts } => {
                if let Some(f) = self.faults.as_deref_mut() {
                    f.last_hb.insert(from, ctx.local_time);
                    self.apply_liveness(ctx, from, version, true, boot_ts);
                }
            }
            _ => self.handle_msg(ctx, msg),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<Msg>, tag: u64) {
        let action = self.store.as_mut().and_then(|s| s.timers.remove(&tag));
        match action {
            Some(TimerAction::StartJoin(fact)) => self.start_join(ctx, fact),
            Some(TimerAction::Holddown(pred, tuple)) => self.fire_holddown(ctx, pred, tuple),
            Some(TimerAction::Tick(tick)) => self.fire_tick(ctx, tick),
            // Not a timer of its own: the earliest pending expiry.
            None => self.fire_expiry(ctx, tag),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::{prop, prop_assert, prop_assert_eq, proptest, ProptestConfig};
    use sensorlog_eval::relation::Relation;
    use sensorlog_netstack::regions::Walk;
    use std::collections::BTreeMap;

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
        assert_eq!(c.pass_mode, crate::strategy::PassMode::OnePass);
        assert!(matches!(c.strategy, Strategy::Perpendicular { .. }));
        assert!(c.faults.is_none(), "fault plane must be opt-in");
        // A lease outlasts three heartbeats, and the plane runs long enough
        // to expire one.
        let f = FaultPlaneCfg::default();
        assert!(LEASE_MS > 3 * HEARTBEAT_MS && f.active_until > REFRESH_MS);
    }

    fn test_node(cfg: RtConfig) -> SensorlogNode {
        let prog = Arc::new(
            crate::plan::compile_source(
                ".output q.\nq(X, Y) :- r1(X, T), r2(Y, T).\nqx(X) :- q(X, Y).",
                sensorlog_logic::builtin::BuiltinRegistry::standard(),
                crate::plan::PlanTiming,
            )
            .unwrap(),
        );
        let net = NetInfo::new(Topology::square_grid(4));
        let ctx = DeployContext::new(
            prog,
            cfg,
            net,
            Telemetry::disabled(),
            Provenance::disabled(),
        );
        SensorlogNode::new(NodeId(0), Arc::new(ctx), None)
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
        let rule_id = node.ctx.prog.analysis.program.rules[0].id;
        let mk = |n: u32, ts: SimTime| TupleId {
            node: NodeId(n),
            ts,
            seq: 0,
        };
        // Inputs at body literals 0 (r1) and 1 (r2) — both base predicates.
        let key = DerivationKey::new(rule_id, vec![(0, mk(3, 100)), (1, mk(7, 200))]);
        assert!(node.view().key_live(&key), "no knowledge: presumed alive");
        let believe = |node: &mut SensorlogNode, n: u32, entry| {
            let faults = node.faults.as_deref_mut().expect("the fault plane is on");
            faults.peers.insert(NodeId(n), entry);
        };
        let dead = LiveEntry {
            version: 500,
            alive: false,
            boot_ts: 0,
        };
        believe(&mut node, 3, dead);
        assert!(
            !node.view().key_live(&key),
            "dead input origin kills the key"
        );
        let rebooted = LiveEntry {
            version: 900,
            alive: true,
            boot_ts: 800, // rebooted after minting ts=100
        };
        believe(&mut node, 3, rebooted);
        let view = node.view();
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
            let booked = node.store.as_ref().map_or(0, |s| s.derivations);
            assert_eq!(node.derivation_count(), booked);
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
    /// first delivery re-broadcasts the `Arc` that arrived, and a duplicate
    /// changes nothing in the store and is dropped.
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

    /// Hand node 5 (interior: four neighbours) a fresh `FloodStore` copy of
    /// `fact` from node 4, and count the copies it sends on.
    fn flood_copy(d: &mut crate::Deployment, fact: &FactRecord) -> usize {
        let msg: Msg = Arc::new(Payload::FloodStore { fact: fact.clone() });
        let mut sent = 0;
        d.sim.invoke(NodeId(5), |node, ctx| {
            node.on_message(ctx, NodeId(4), msg);
            sent = ctx.buffered_sends().len();
        });
        sent
    }

    /// What node 5 stores of `r1(1, 5)`.
    fn flooded_replica(d: &crate::Deployment) -> Option<TupleMeta<Replica>> {
        let rel = stored_rel(d.node(NodeId(5)), Symbol::intern("r1"));
        rel.and_then(|r| r.meta(&ints(&[1, 5])).copied())
    }

    fn r1_insert(id: TupleId) -> FactRecord {
        FactRecord::insert(Symbol::intern("r1"), ints(&[1, 5]), id)
    }

    fn r1_delete(id: TupleId, tau: SimTime) -> FactRecord {
        FactRecord::delete(Symbol::intern("r1"), ints(&[1, 5]), id, tau)
    }

    /// An equal copy in its own allocation is neither stored again nor
    /// sent, and queues no second expiry.
    #[test]
    fn a_duplicate_flood_copy_is_neither_stored_again_nor_sent() {
        let mut d = deploy(WINDOWED_JOIN, 4);
        let fact = r1_insert(some_id(9, 50));
        let expiries = |d: &crate::Deployment| {
            let store = d.node(NodeId(5)).store.as_ref();
            let records = store.iter().flat_map(|s| s.frags.entries());
            records
                .map(|(_, _, r)| r.replica_expiries.len())
                .sum::<usize>()
        };
        assert_eq!(flood_copy(&mut d, &fact), 4);
        assert_eq!(expiries(&d), 1);
        assert_eq!(flood_copy(&mut d, &fact), 0);
        assert_eq!(d.node(NodeId(5)).replica_count(), 1);
        assert_eq!(expiries(&d), 1);
    }

    /// A copy of an older generation than the stored one, insert or
    /// delete, leaves the newer generation as it was and goes no further.
    #[test]
    fn a_flood_copy_of_an_older_generation_is_dropped() {
        let mut d = deploy(WINDOWED_JOIN, 4);
        let (old, new) = (some_id(9, 50), some_id(9, 60));
        assert_eq!(flood_copy(&mut d, &r1_insert(new)), 4);
        let stored = flooded_replica(&d);
        assert_eq!(flood_copy(&mut d, &r1_insert(old)), 0);
        assert_eq!(flood_copy(&mut d, &r1_delete(old, 55)), 0);
        assert_eq!(flooded_replica(&d), stored);
        assert_eq!(
            stored.map(|m| (m.extra.id, m.extra.is_deleted())),
            Some((new, false))
        );
    }

    /// A delete that overtook its insert stores the tombstoned replica and
    /// goes on; the insert arriving after it changes nothing and stops.
    #[test]
    fn an_insert_copy_its_delete_overtook_is_dropped() {
        let mut d = deploy(WINDOWED_JOIN, 4);
        let id = some_id(9, 50);
        assert_eq!(flood_copy(&mut d, &r1_delete(id, 80)), 4);
        let stored = flooded_replica(&d);
        assert_eq!(
            stored.map(|m| (m.gen_ts, m.extra)),
            Some((50, Replica { id, del_ts: 80 }))
        );
        assert_eq!(flood_copy(&mut d, &r1_insert(id)), 0);
        assert_eq!(flooded_replica(&d), stored);
    }

    /// A delete copy tombstones the stored generation and is forwarded
    /// once: its duplicate finds the tombstone already set.
    #[test]
    fn a_delete_copy_tombstones_and_is_forwarded_once() {
        let mut d = deploy(WINDOWED_JOIN, 4);
        let id = some_id(9, 50);
        assert_eq!(flood_copy(&mut d, &r1_insert(id)), 4);
        assert_eq!(flood_copy(&mut d, &r1_delete(id, 80)), 4);
        assert_eq!(flooded_replica(&d).map(|m| m.extra.del_ts), Some(80));
        assert_eq!(flood_copy(&mut d, &r1_delete(id, 80)), 0);
        assert_eq!(d.node(NodeId(5)).replica_count(), 1);
    }

    /// How long `d` keeps a replica of `pred` past its generation.
    fn retention(d: &crate::Deployment, pred: &str) -> SimTime {
        let retain = d.prog.waits(Symbol::intern(pred)).retain;
        d.net().wait(retain.expect("a windowed predicate"))
    }

    /// `WINDOWED_JOIN`'s retention under PA on an m×m grid at the default
    /// 30 ms a hop: its 1,000 ms window, and the longest τs + τj of a
    /// partner — an (m - 1)-hop row store, and a column walk to its end and
    /// along it, (m - 1) hops each.
    fn windowed_join_retention(m: SimTime) -> SimTime {
        1_000 + 3 * (m - 1) * 30
    }

    /// A copy of a windowed insert is stored and forwarded up to its
    /// replica's retention (1,270 ms past generation on a 4×4 grid) and
    /// not from then on. A late copy used to re-store the expired replica
    /// at every node it reached, each to expire a millisecond later and
    /// take the next late copy again.
    #[test]
    fn a_windowed_insert_copy_past_its_retention_is_neither_stored_nor_forwarded() {
        let mut d = deploy(WINDOWED_JOIN, 4);
        let kept = retention(&d, "r1");
        assert_eq!(kept, windowed_join_retention(4));
        let fact = r1_insert(some_id(9, 50));
        d.sim.run_until(50 + kept - 1);
        assert_eq!(flood_copy(&mut d, &fact), 4, "within its retention");
        d.sim.run_until(50 + kept);
        let held = |d: &crate::Deployment| d.sim.nodes().map(|n| n.replica_count()).sum::<usize>();
        assert_eq!(held(&d), 0, "every copy expired at 1,320");
        let tx = d.sim.metrics.total_tx();
        assert_eq!(flood_copy(&mut d, &fact), 0);
        d.sim.run_to_quiescence(SimTime::MAX);
        assert_eq!((held(&d), d.sim.metrics.total_tx()), (0, tx));
    }

    /// The fault plane's duplication window queues one `Arc` twice. A walk
    /// message is advanced by its consumer, so each delivery works on its
    /// own copy: both continue from the original position and the shared
    /// original is untouched.
    #[test]
    fn a_duplicated_walk_message_is_processed_as_two_copies() {
        let mut d = deploy(".output q.\nq(X, Y) :- r1(X, T), r2(Y, T).", 4);
        let walk = Walk::line(vec![NodeId(1), NodeId(2), NodeId(3)]);
        let on = OnWalk {
            walk: Some(Arc::new(walk)),
            ..OnWalk::default()
        };
        let (r1, tuple, id) = (Symbol::intern("r1"), ints(&[1, 5]), some_id(0, 10));
        let fact = FactRecord::insert(r1, tuple.clone(), id);
        let prog = d.node(NodeId(1)).ctx.prog.clone();
        let rule = &prog.analysis.program.rules[0];
        let seed = seed_partial(&prog, rule, 0, false, &tuple, id).expect("r1 seeds the rule");
        let store: Msg = Arc::new(Payload::StoreWalk {
            fact: fact.clone(),
            on: on.clone(),
        });
        let probe: Msg = Arc::new(Payload::Probe(ProbeMsg {
            update: fact,
            on,
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
                        Payload::StoreWalk { on, .. } => assert_eq!(on.pos, 1),
                        Payload::Probe(p) => {
                            assert_eq!((p.on.pos, p.work[0].partials.len()), (1, 1))
                        }
                        other => panic!("unexpected {other:?}"),
                    }
                });
            }
            match &**msg {
                Payload::StoreWalk { on, .. } => assert_eq!(on.pos, 0),
                Payload::Probe(p) => assert_eq!((p.on.pos, p.work[0].partials.len()), (0, 1)),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(d.node(NodeId(1)).stats.probes_processed, 2);
    }

    /// A PA update's storage walks and its probe carry the deployment's own
    /// walks, shared, not a region built for the update: node 5, at (1, 1)
    /// of a 4×4 grid, sends its row's `Arc` both ways along the row and its
    /// column's to the column's first member.
    #[test]
    fn walk_messages_carry_the_deployments_walks() {
        let mut d = deploy(".output q.\nq(X, Y) :- r1(X, T), r2(Y, T).", 4);
        let node = NodeId(5);
        let fact = FactRecord::insert(Symbol::intern("r1"), ints(&[1, 5]), some_id(5, 10));
        let [store, join] = (d.prog.walks_of(node).clone()).map(|w| w.expect("PA walks").0);
        let carried = |msg: &Msg| match &**msg {
            Payload::StoreWalk { on, .. } => on.walk.clone().unwrap(),
            Payload::Probe(p) => p.on.walk.clone().unwrap(),
            other => panic!("unexpected {other:?}"),
        };
        d.sim.invoke(node, |n, ctx| {
            n.initiate_update(ctx, fact.clone());
            let [(right, a), (left, b)] = ctx.buffered_sends() else {
                panic!("two storage walks");
            };
            assert_eq!((*right, *left), (NodeId(6), NodeId(4)));
            assert!(Arc::ptr_eq(&carried(a), &store) && Arc::ptr_eq(&carried(b), &store));
        });
        d.sim.invoke(node, |n, ctx| {
            n.start_join(ctx, fact);
            let [(first, probe)] = ctx.buffered_sends() else {
                panic!("one probe");
            };
            assert_eq!(*first, NodeId(1));
            assert!(Arc::ptr_eq(&carried(probe), &join));
        });
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

    /// A join of two streams on `T` that also reads a static fact, and its
    /// events: `r1` / `r2` readings at four nodes of a 5×5 grid, three of
    /// which join.
    const STATIC_JOIN: &str = ".output q.\nb(7).\nq(X, Y) :- r1(X, T), r2(Y, T), b(T).";

    fn static_join_events() -> Vec<crate::WorkloadEvent> {
        let ev = |at, node, pred: &str, x, t| crate::WorkloadEvent {
            at,
            node: NodeId(node),
            pred: Symbol::intern(pred),
            tuple: ints(&[x, t]),
            kind: UpdateKind::Insert,
        };
        vec![
            ev(100, 1, "r1", 1, 7),
            ev(200, 23, "r2", 2, 7),
            ev(300, 9, "r1", 3, 7),
            ev(400, 15, "r2", 4, 8),
        ]
    }

    /// Deploy [`STATIC_JOIN`] on a 5×5 grid under `rt`, run its events to
    /// quiescence, and check the result against the oracle.
    fn run_static_join(rt: RtConfig) -> crate::Deployment {
        let config = crate::DeployConfig {
            rt,
            ..crate::DeployConfig::default()
        };
        let reg = sensorlog_logic::builtin::BuiltinRegistry::standard();
        let topo = Topology::square_grid(5);
        let mut d = crate::Deployment::new(STATIC_JOIN, reg, topo, config).unwrap();
        let events = static_join_events();
        d.schedule_all(events.clone()).unwrap();
        d.run(600_000);
        assert!(d.sim.is_quiescent());
        let q = Symbol::intern("q");
        assert_eq!(d.results(q).len(), 2);
        let held = crate::oracle::check(&d, &events, q);
        assert!(held.exact(), "{held:?}");
        d
    }

    /// The count gate of "a node is born small" under Centroid: every node
    /// but the center only routes, so none of them allocates a storage
    /// part. The center holds one, for the static fact it owns. (Allocated
    /// eagerly, all 25 nodes would hold one.)
    #[test]
    fn centroid_nodes_but_the_center_allocate_no_store() {
        let d = run_static_join(RtConfig {
            strategy: Strategy::Centroid,
            ..RtConfig::default()
        });
        let center = d.net().center();
        for n in d.sim.nodes() {
            assert_eq!(n.store.is_some(), n.id == center, "{}", n.id);
            assert_eq!(n.center_engine.is_some(), n.id == center, "{}", n.id);
        }
    }

    /// The count gate of "the fault plane allocates its own state": with
    /// the plane off no node holds a fault part (allocated eagerly, every
    /// node would), and with it on every node holds one.
    #[test]
    fn only_the_fault_plane_allocates_a_fault_part() {
        for faults in [
            None,
            Some(FaultPlaneCfg {
                active_until: 3_000,
            }),
        ] {
            let d = run_static_join(RtConfig {
                faults,
                ..RtConfig::default()
            });
            for n in d.sim.nodes() {
                assert_eq!(n.faults.is_some(), faults.is_some(), "{}", n.id);
            }
        }
    }

    /// Regression: an expiry removed whatever was stored under its
    /// `(pred, tuple)`, so a tuple deleted and generated again inside its
    /// retention died with its *first* generation — here at 100 + 1,270
    /// instead of 1,000 + 1,270 (retention on a 4×4 grid: 1,000 ms of
    /// window and 9 hops of partner legs), on all four nodes of the
    /// source's row.
    #[test]
    fn an_older_generations_expiry_leaves_the_newer_replica() {
        let mut d = deploy(WINDOWED_JOIN, 4);
        let kept = retention(&d, "r1");
        assert_eq!(kept, windowed_join_retention(4));
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
            ev(400, UpdateKind::Delete),
            ev(1_000, UpdateKind::Insert),
        ])
        .unwrap();
        let mut replicas_at = |at| {
            d.run(at);
            let stored = d.sim.nodes().flat_map(|n| n.id_bindings());
            // The source also binds the id in `my_facts`.
            let gens: Vec<SimTime> = stored.map(|(id, _, _)| id.ts).collect();
            let held: usize = d.sim.nodes().map(|n| n.replica_count()).sum();
            (held, gens.iter().filter(|&&ts| ts == 1_000).count())
        };
        assert_eq!(replicas_at(700), (4, 0), "first generation, tombstoned");
        assert_eq!(
            replicas_at(100 + kept - 1),
            (4, 5),
            "second generation stored"
        );
        assert_eq!(
            replicas_at(100 + kept),
            (4, 5),
            "the first one's expiry is stale"
        );
        assert_eq!(replicas_at(1_000 + kept - 1), (4, 5));
        assert_eq!(
            replicas_at(1_000 + kept),
            (0, 1),
            "expired at 1,000 + 1,270"
        );
        assert!(d.sim.is_quiescent());
    }

    /// A replay stores its replica at the replay's τ, not at its id's
    /// timestamp, and the replica stays until τ + retention. Here an older
    /// generation replayed at 100 queues the entry that pops at
    /// 100 + retention; the newer one (id minted at 50) replayed at 500 is
    /// stored then, and that pop leaves it although 50 + retention has
    /// passed: a pop reads the stored `gen_ts`, not the id.
    #[test]
    fn a_replayed_replica_expires_a_retention_after_its_replay() {
        let mut d = deploy(WINDOWED_JOIN, 4);
        let kept = retention(&d, "r1");
        let (r1, at, t) = (Symbol::intern("r1"), NodeId(5), ints(&[1, 5]));
        let (older, newer) = (some_id(9, 40), some_id(9, 50));
        for (tau, id) in [(100, older), (500, newer)] {
            d.sim.run_until(tau);
            let replay = FactRecord {
                tau,
                ..r1_insert(id)
            };
            d.sim
                .invoke(at, |node, ctx| assert!(node.store_replica(ctx, &replay)));
        }
        let stored = |d: &mut crate::Deployment, until| {
            d.sim.run_until(until);
            let rel = stored_rel(d.node(at), r1);
            rel.and_then(|r| r.meta(&t)).map(|m| (m.gen_ts, m.extra.id))
        };
        assert_eq!(stored(&mut d, 100 + kept), Some((500, newer)));
        assert_eq!(stored(&mut d, 500 + kept - 1), Some((500, newer)));
        assert_eq!(stored(&mut d, 500 + kept), None, "at τ + retention");
        assert!(d.sim.is_quiescent());
    }

    /// Whichever entry pops, it drops the stored generation only once that
    /// generation is past its own retention. A tuple generated again inside
    /// its predecessor's retention keeps the newer replica until the newer
    /// one's due; a newer generation stored at an earlier `gen_ts` than its
    /// predecessor's (its delete overtook its insert, against a replayed
    /// predecessor) goes at its own due, ahead of the predecessor's entry.
    #[test]
    fn a_pop_drops_only_a_generation_past_its_own_retention() {
        let mut d = deploy(WINDOWED_JOIN, 4);
        let kept = retention(&d, "r1");
        let (r1, at) = (Symbol::intern("r1"), NodeId(5));
        let (again, early) = (ints(&[1, 5]), ints(&[2, 5]));
        let facts = [
            (100, FactRecord::insert(r1, again.clone(), some_id(9, 100))),
            (
                300,
                FactRecord {
                    tau: 300,
                    ..FactRecord::insert(r1, early.clone(), some_id(9, 40))
                },
            ),
            (
                350,
                FactRecord::delete(r1, early.clone(), some_id(9, 60), 350),
            ),
            (400, FactRecord::insert(r1, again.clone(), some_id(9, 400))),
        ];
        for (at_ms, fact) in facts {
            d.sim.run_until(at_ms);
            d.sim
                .invoke(at, |node, ctx| assert!(node.store_replica(ctx, &fact)));
        }
        let gen_ts = |d: &mut crate::Deployment, until, t: &Tuple| {
            d.sim.run_until(until);
            stored_rel(d.node(at), r1).and_then(|r| r.meta(t).map(|m| m.gen_ts))
        };
        assert_eq!(gen_ts(&mut d, 60 + kept - 1, &early), Some(60));
        assert_eq!(gen_ts(&mut d, 60 + kept, &early), None, "its own due");
        assert_eq!(gen_ts(&mut d, 100 + kept, &again), Some(400));
        assert_eq!(gen_ts(&mut d, 400 + kept - 1, &again), Some(400));
        assert_eq!(gen_ts(&mut d, 400 + kept, &again), None);
        // Every entry fired, the early tuple's stale one at 300 + retention
        // too, and nothing is left.
        assert_eq!(d.sim.run_to_quiescence(SimTime::MAX), 400 + kept);
        assert_eq!(d.node(at).replica_count(), 0);
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

    /// Regression: an owned entry whose holddown minted its id after its
    /// one expiry was queued outlived its window for good. The expiry found
    /// the id younger than a window and kept the entry, and nothing queued
    /// another. It goes at the due its queue holds.
    #[test]
    fn an_entry_minted_after_its_expiry_was_queued_goes_at_that_due() {
        let mut d = deploy(
            ".window q 1000.\n.output q.\nq(X, Y) :- r1(X, T), r2(Y, T).",
            3,
        );
        let (q, owner, tuple) = (Symbol::intern("q"), NodeId(4), ints(&[1, 2]));
        let (minted, due) = (
            100 + d.net().wait(d.prog.holddown(q)),
            1_101 + d.net().tau_c,
        );
        assert!(
            minted + 1_000 >= due,
            "the mint is not a window old at the due"
        );
        let id = |n: u32| TupleId {
            node: NodeId(n),
            ts: 100,
            seq: 0,
        };
        d.sim.run_until(100);
        let key = DerivationKey::new(0, vec![(0, id(0)), (1, id(8))]);
        d.sim.invoke(owner, |node, ctx| {
            node.handle_deriv_delta(ctx, q, tuple.clone(), key, 1, 100, id(8));
        });
        d.sim.run_until(due - 1);
        let log = d.node(owner).output_log();
        assert_eq!(log, [(q, tuple.clone(), UpdateKind::Insert, minted)]);
        assert_eq!(d.node(owner).derivation_count(), 1);
        d.sim.run_to_quiescence(SimTime::MAX);
        assert_eq!(d.node(owner).derivation_count(), 0);
        assert!(d.node(owner).owned_live(q).is_empty());
    }

    /// An entry whose window closes while a holddown is in flight goes
    /// with that holddown, which still propagates its transition: here a
    /// fault-driven retraction armed one ms before the due. Dropped at the
    /// due, the entry left the holddown nothing to retract, and the
    /// network kept the announced tuple.
    #[test]
    fn a_holddown_in_flight_at_the_due_retracts_then_drops_the_entry() {
        let config = crate::DeployConfig {
            rt: RtConfig {
                faults: Some(FaultPlaneCfg { active_until: 0 }),
                ..RtConfig::default()
            },
            ..crate::DeployConfig::default()
        };
        let mut d = crate::Deployment::new(
            ".window q 1000.\n.output q.\nq(X, Y) :- r1(X, T), r2(Y, T).",
            sensorlog_logic::builtin::BuiltinRegistry::standard(),
            Topology::square_grid(3),
            config,
        )
        .unwrap();
        let (q, owner, tuple) = (Symbol::intern("q"), NodeId(4), ints(&[1, 2]));
        let holddown = d.net().wait(d.prog.holddown(q));
        let (minted, due) = (100 + holddown, 1_101 + d.net().tau_c);
        let suspected = due - 1;
        assert!(minted < suspected && suspected + holddown > due);
        // Inputs from nodes outside the grid: no heartbeat or rebuttal
        // speaks for them.
        let id = |n: u32| TupleId {
            node: NodeId(n),
            ts: 100,
            seq: 0,
        };
        d.sim.run_until(100);
        let key = DerivationKey::new(0, vec![(0, id(98)), (1, id(99))]);
        d.sim.invoke(owner, |node, ctx| {
            node.handle_deriv_delta(ctx, q, tuple.clone(), key, 1, 100, id(99));
        });
        d.sim.run_until(suspected);
        d.sim.invoke(owner, |node, ctx| {
            node.apply_liveness(ctx, NodeId(99), 1_000_000, false, 0);
        });
        d.sim.run_until(due);
        assert_eq!(d.node(owner).derivation_count(), 1, "held past the due");
        d.sim.run_to_quiescence(SimTime::MAX);
        let log = d.node(owner).output_log();
        let retracted = suspected + holddown;
        assert_eq!(
            log,
            [
                (q, tuple.clone(), UpdateKind::Insert, minted),
                (q, tuple.clone(), UpdateKind::Delete, retracted),
            ]
        );
        assert_eq!(d.node(owner).derivation_count(), 0);
        assert!(d.node(owner).unsettled_owned().is_empty());
    }

    /// What `store_replica` and the expiry queue must leave in the store,
    /// written as the decision table over a plain map and a list.
    #[derive(Default)]
    struct StoreModel {
        stored: BTreeMap<Tuple, TupleMeta<Replica>>,
        /// (due, tuple, generation), in queueing order.
        pending: Vec<(SimTime, Tuple, TupleId)>,
    }

    impl StoreModel {
        /// Whether storing `fact` at `now` changes the store.
        fn store(&mut self, fact: &FactRecord, now: SimTime) -> bool {
            let (t, id) = (fact.tuple.clone(), fact.id);
            let old = self.stored.get(&t).map(|m| m.extra.id);
            let (gen_ts, del_ts) = match fact.kind {
                UpdateKind::Insert if old.is_none_or(|old| old < id) => (fact.tau, Replica::LIVE),
                UpdateKind::Delete if old == Some(id) => {
                    let m = self.stored.get_mut(&t).unwrap();
                    let earlier = fact.tau < m.extra.del_ts;
                    m.extra.del_ts = m.extra.del_ts.min(fact.tau);
                    return earlier;
                }
                UpdateKind::Delete if old.is_none_or(|old| old < id) => (id.ts, fact.tau),
                _ => return false,
            };
            // `WINDOWED_JOIN`'s retention on the 3×3 grid.
            let due = gen_ts + windowed_join_retention(3);
            if due <= now {
                return false;
            }
            let extra = Replica { id, del_ts };
            self.stored.insert(t.clone(), TupleMeta { gen_ts, extra });
            self.pending.push((due, t, id));
            true
        }

        fn expire(&mut self, now: SimTime) {
            let mut due: Vec<(SimTime, Tuple, TupleId)> = Vec::new();
            self.pending
                .retain(|e| e.0 > now || (due.push(e.clone()), false).1);
            due.sort_by_key(|e| e.0); // stable: queueing order within a tick
            for (_, t, id) in due {
                if self.stored.get(&t).is_some_and(|m| m.extra.id == id) {
                    self.stored.remove(&t);
                }
            }
        }
    }

    /// `node`'s stored fragments of `pred`, if it has any.
    fn stored_rel(node: &SensorlogNode, pred: Symbol) -> Option<&Relation<Replica>> {
        node.store.as_ref()?.frags.relation(pred)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random insert / delete / re-insert / replay-with-later-τ / wait
        /// sequences through `store_replica` at one node: after every step
        /// its answer, the fragment store, `replica_count()` and
        /// `id_bindings()` say what the model says, a delete of generation g
        /// never touches a stored g′ ≠ g, and in the end every stored
        /// generation has expired, a tombstone whose insert never came too,
        /// and no expiry is left queued or armed.
        #[test]
        fn replica_store_views_agree_under_random_histories(
            steps in prop::collection::vec((0u8..4, 0i64..3, 0u32..4, 1u64..4_000), 1..48)
        ) {
            let mut d = deploy(WINDOWED_JOIN, 3);
            prop_assert_eq!(retention(&d, "r1"), windowed_join_retention(3));
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
                let before = stored_rel(d.node(at), r1).and_then(|r| r.meta(&tuple).copied());
                let mut changed = None;
                d.sim.invoke(at, |node, ctx| changed = Some(node.store_replica(ctx, &fact)));
                prop_assert_eq!(changed, Some(model.store(&fact, now)));
                let node = d.node(at);
                let after = stored_rel(node, r1).and_then(|r| r.meta(&tuple).copied());
                if op == 2 && after.is_some_and(|m| m.extra.id != id) {
                    prop_assert_eq!(before, after, "a delete of {id} touched another generation");
                }
                let stored: Vec<(Tuple, TupleMeta<Replica>)> = (stored_rel(node, r1).into_iter())
                    .flat_map(|r| r.iter().map(|(t, m)| (t.clone(), *m)))
                    .collect();
                let want: Vec<(Tuple, TupleMeta<Replica>)> =
                    model.stored.iter().map(|(t, m)| (t.clone(), *m)).collect();
                prop_assert_eq!(&stored, &want);
                prop_assert_eq!(node.replica_count(), want.len());
                let mut bound: Vec<(TupleId, Symbol, Tuple)> =
                    want.into_iter().map(|(t, m)| (m.extra.id, r1, t)).collect();
                bound.sort();
                prop_assert_eq!(node.id_bindings(), bound);
            }
            let end = d.sim.run_to_quiescence(SimTime::MAX);
            prop_assert!(end <= 4_000 * 48 + windowed_join_retention(3));
            model.expire(end);
            let node = d.node(at);
            prop_assert!(node.store.as_ref().is_none_or(|s| s.armed.is_empty()
                && s.frags.entries().all(|(_, _, r)| r.replica_expiries.is_empty() && r.owned_expiries.is_empty())));
            prop_assert!(model.pending.is_empty());
            prop_assert!(model.stored.is_empty());
            prop_assert_eq!(node.replica_count(), 0);
        }
    }
}
