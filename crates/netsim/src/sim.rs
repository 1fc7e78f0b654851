//! The discrete-event simulator core.
//!
//! Nodes are instances of an [`App`]; they exchange messages over the
//! unit-disk topology with bounded per-hop delays, Bernoulli losses, and
//! per-node clock skew — exactly the environment Theorems 1–3 assume
//! (bounded message delays, bounded clock difference τc). Events wait in
//! one binary heap and pop in `(at, tie)` order. Deterministic for a fixed
//! seed: ties are origin-keyed, `(origin_node << 32) | per-origin counter`,
//! and every random draw on the message path comes from the *sender's*
//! private `NodeRng` stream. A send's tie and draws therefore depend on
//! its sender's own history alone — so which same-tick event runs first is
//! one choice point in one queue (what a schedule explorer permutes), and a
//! fault on one link never shifts any other node's stream.

use crate::faults::{FaultEvent, FaultKind, FaultSchedule, LinkState};
use crate::metrics::Metrics;
use crate::topology::{NodeId, Topology};
use crate::trace::{DropReason, TraceEvent, TraceRecord, TraceSink};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sensorlog_telemetry::{HistId, Scope, Telemetry, BYTES_BUCKETS, SIM_MS_BUCKETS};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

/// Simulated time in milliseconds.
pub type SimTime = u64;

/// Size/kind introspection for message accounting.
pub trait MsgMeta {
    /// Approximate on-air payload size in bytes.
    fn size_bytes(&self) -> usize;
    /// Coarse message category for the per-kind counters
    /// (e.g. `"storage"`, `"join"`, `"result"`).
    fn kind(&self) -> &'static str {
        "msg"
    }
}

/// A shared message is its pointee on the air: an [`App`] whose message is
/// bigger than a pointer queues an `Arc` of it (events hold `M` by value),
/// and a relay forwards the `Arc` it received.
impl<M: MsgMeta> MsgMeta for std::sync::Arc<M> {
    fn size_bytes(&self) -> usize {
        (**self).size_bytes()
    }
    fn kind(&self) -> &'static str {
        (**self).kind()
    }
}

/// A node application.
pub trait App: Sized {
    type Msg: Clone + MsgMeta;

    /// Called once at time 0.
    fn on_start(&mut self, _ctx: &mut Ctx<Self::Msg>) {}

    /// Called on a *fresh* application instance when a crashed node is
    /// restarted by the fault plane; `crashed` is the instance that
    /// crashed. Defaults to [`App::on_start`], so the old instance's state
    /// is lost; a recovery-aware app overrides this to take what a node
    /// keeps across a crash (its flash) out of `crashed`.
    fn on_restart(&mut self, ctx: &mut Ctx<Self::Msg>, _crashed: Self) {
        self.on_start(ctx);
    }

    /// A message arrived from a neighbor.
    fn on_message(&mut self, ctx: &mut Ctx<Self::Msg>, from: NodeId, msg: Self::Msg);

    /// A timer set via [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, _ctx: &mut Ctx<Self::Msg>, _tag: u64) {}
}

/// Simulation parameters.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Per-hop delivery delay sampled uniformly from this range (ms).
    pub hop_delay: (SimTime, SimTime),
    /// Per-transmission loss probability (uniform across links).
    pub loss_prob: f64,
    /// Per-link loss overrides `(from, to) → p` (testbed profile's
    /// asymmetric links).
    pub link_loss: HashMap<(NodeId, NodeId), f64>,
    /// Link-layer retransmissions (ARQ): on loss, up to this many retries
    /// per hop, each counted as a transmission. 0 = no retries.
    pub retries: u32,
    /// Max clock skew: node-local clocks read `now + skew`,
    /// `skew ∈ [0, clock_skew_max]` (so τc = clock_skew_max).
    pub clock_skew_max: SimTime,
    /// RNG seed; fixed seed ⇒ fully deterministic run.
    pub seed: u64,
    /// Scripted faults (crashes, restarts, partitions, dup / reorder
    /// windows), applied tick-exactly: a fault at time `t` strikes before
    /// any event scheduled at `t` runs.
    pub faults: FaultSchedule,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            hop_delay: (5, 30),
            loss_prob: 0.0,
            link_loss: HashMap::new(),
            retries: 0,
            clock_skew_max: 0,
            seed: 0xC0FFEE,
            faults: FaultSchedule::new(),
        }
    }
}

impl SimConfig {
    /// The worst link's chance that a hop is lost for good: its loss
    /// probability to the power of the attempts the link layer makes.
    pub fn hop_loss(&self) -> f64 {
        let worst = (self.link_loss.values()).fold(self.loss_prob, |a, &p| a.max(p));
        worst.powf(f64::from(self.retries) + 1.0)
    }

    /// The most one hop's delivery takes (ms): the slowest delay draw
    /// (`hop_delay.1`, which a draw can equal), after the backoff of every
    /// retransmission, plus the jitter of the fault schedule's widest
    /// reorder window.
    pub fn max_hop_delay(&self) -> SimTime {
        let (lo, hi) = self.hop_delay;
        let backoffs = (0..self.retries).map(backoff).sum::<SimTime>();
        lo.max(hi) + backoffs + self.faults.reorder_jitter()
    }
}

/// The link layer's wait after failed attempt `attempt` (ms): exponential,
/// 5, 10, 20, … up to 160.
fn backoff(attempt: u32) -> SimTime {
    5 << attempt.min(5)
}

enum Event<M> {
    Start(NodeId),
    /// One message in flight, held inline: an event is as big as `M`, so
    /// an app with a large message type queues a pointer to it.
    Deliver {
        to: NodeId,
        from: NodeId,
        /// `msg.size_bytes()` as computed for the send (saturating), so
        /// the receive side accounts the same number without recomputing.
        bytes: u32,
        msg: M,
    },
    Timer {
        node: NodeId,
        tag: u64,
        /// Boot epoch of the incarnation that armed this timer. A timer
        /// whose epoch is stale (the node crashed and restarted since it
        /// was set) is consumed silently instead of firing on the new
        /// incarnation.
        epoch: u32,
    },
}

struct Queued<M> {
    at: SimTime,
    tie: u64,
    event: Event<M>,
}

impl<M> PartialEq for Queued<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.tie == other.tie
    }
}
impl<M> Eq for Queued<M> {}
impl<M> PartialOrd for Queued<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Queued<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.tie).cmp(&(other.at, other.tie))
    }
}

/// The simulator's event queue: a binary min-heap on `(at, tie)`. Ties are
/// unique, so the pop order is a total order fixed by the keys alone —
/// never by push order. A deployment holds a few hundred to a few thousand
/// events pending at once (`netsim.max_queue_depth`), and the heap's one
/// buffer is as big as the most it ever held.
struct EventHeap<M>(BinaryHeap<Reverse<Queued<M>>>);

impl<M> Default for EventHeap<M> {
    fn default() -> Self {
        EventHeap(BinaryHeap::new())
    }
}

impl<M> EventHeap<M> {
    fn push(&mut self, at: SimTime, tie: u64, event: Event<M>) {
        self.0.push(Reverse(Queued { at, tie, event }));
    }

    fn pop(&mut self) -> Option<(SimTime, Event<M>)> {
        self.0.pop().map(|Reverse(q)| (q.at, q.event))
    }

    /// Timestamp of the earliest pending event.
    fn next_at(&self) -> Option<SimTime> {
        self.0.peek().map(|Reverse(q)| q.at)
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    /// Events the heap's buffer has room for without growing.
    #[cfg(test)]
    fn capacity(&self) -> usize {
        self.0.capacity()
    }
}

/// Per-node deterministic RNG stream: xoroshiro128++ (Blackman & Vigna's
/// public-domain generator), seeded via splitmix64 from `(seed, node)`.
///
/// A node's loss/jitter draws are consumed exclusively while *its* radio
/// transmits, so each stream's consumption order is fixed by that node's
/// local event order alone: reordering other nodes' same-tick events, or a
/// fault elsewhere in the network, leaves it where it was. (A global
/// `StdRng` made every draw depend on the full interleaving.)
#[derive(Clone, Debug)]
struct NodeRng {
    s0: u64,
    s1: u64,
}

impl NodeRng {
    fn new(seed: u64, node: u32) -> NodeRng {
        // splitmix64 over a (seed, node)-derived state; xoroshiro's authors
        // recommend exactly this for seeding.
        let mut x = seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(node as u64 + 1);
        let mut split = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let s0 = split();
        let mut s1 = split();
        if s0 == 0 && s1 == 0 {
            s1 = 1; // the all-zero state is the one forbidden seed
        }
        NodeRng { s0, s1 }
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s0 = self.s0;
        let mut s1 = self.s1;
        let result = s0.wrapping_add(s1).rotate_left(17).wrapping_add(s0);
        s1 ^= s0;
        self.s0 = s0.rotate_left(49) ^ s1 ^ (s1 << 21);
        self.s1 = s1.rotate_left(28);
        result
    }

    /// Uniform in `[0, 1)`, 53 mantissa bits.
    #[inline]
    fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi]`. Modulo reduction: the bias over a ≤ few-dozen
    /// ms jitter span is ~2⁻⁵⁸ — irrelevant for delay sampling, and cheaper
    /// than rejection on the hottest path in the simulator.
    #[inline]
    fn gen_range(&mut self, lo: SimTime, hi: SimTime) -> SimTime {
        debug_assert!(hi > lo);
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// Scheduler operation counters, exported as `sched.*` telemetry gauges by
/// the deployment layer. Plain fields on the hot path; zero-cost to skip.
#[derive(Clone, Copy, Debug, Default)]
pub struct SchedStats {
    /// Queue operations (pushes) actually performed.
    pub pushes: u64,
    /// Always 0: every message is its own queue operation since same-tick
    /// link batching went (it carried at most 10 of a workload's 10^4–10^5
    /// messages). Kept because the frozen `benchmark/` reads the field.
    pub batched_msgs: u64,
    /// Always 0: the event heap has no far-future tier to spill into. Kept
    /// because the frozen `benchmark/src/rep.rs:600` reads the field.
    pub spill_pushes: u64,
}

/// Node-side API handle passed to [`App`] callbacks. Sends and timers are
/// buffered and applied by the simulator when the callback returns.
pub struct Ctx<'a, M> {
    /// This node's id.
    pub node: NodeId,
    /// Global simulation time (apps should normally use [`Ctx::local_time`]).
    pub now: SimTime,
    /// Node-local clock (global time + this node's skew).
    pub local_time: SimTime,
    topo: &'a Topology,
    sends: Vec<(NodeId, M)>,
    timers: Vec<(SimTime, u64)>,
}

impl<'a, M> Ctx<'a, M> {
    /// Unicast to a direct neighbor. Panics on non-neighbors: multi-hop
    /// routing is the network stack's job, not the radio's.
    pub fn send(&mut self, to: NodeId, msg: M) {
        assert!(
            self.topo.are_neighbors(self.node, to),
            "{} attempted radio send to non-neighbor {}",
            self.node,
            to
        );
        self.sends.push((to, msg));
    }

    /// Broadcast to every neighbor (counted as one transmission per
    /// neighbor delivery attempt, one tx record per neighbor — conservative
    /// for load accounting).
    pub fn broadcast(&mut self, msg: M)
    where
        M: Clone,
    {
        let topo = self.topo; // `&'a`, so it outlives the `sends` borrow
        for &n in topo.neighbors(self.node) {
            self.sends.push((n, msg.clone()));
        }
    }

    /// Fire `on_timer(tag)` after `delay` ms of global time.
    pub fn set_timer(&mut self, delay: SimTime, tag: u64) {
        self.timers.push((delay, tag));
    }

    /// What this callback has handed to [`Ctx::send`] / [`Ctx::broadcast`]
    /// so far, in send order: how a test sees *which* message an app queued.
    #[doc(hidden)]
    pub fn buffered_sends(&self) -> &[(NodeId, M)] {
        &self.sends
    }

    pub fn neighbors(&self) -> &[NodeId] {
        self.topo.neighbors(self.node)
    }

    pub fn position(&self) -> (f64, f64) {
        self.topo.position(self.node)
    }

    pub fn topology(&self) -> &Topology {
        self.topo
    }
}

/// Node-application factory: builds an app at boot and on restart.
type MakeApp<A> = Box<dyn FnMut(NodeId, &Topology) -> A>;

/// The simulator: topology + per-node apps + event queue + metrics.
pub struct Simulator<A: App> {
    /// Shared with whoever else reads it (a deployment's router), so the
    /// adjacency is held once.
    topo: Arc<Topology>,
    apps: Vec<A>,
    queue: EventHeap<A::Msg>,
    now: SimTime,
    /// Per-origin tie counters (`tie = origin << 32 | counter`).
    counters: Vec<u32>,
    pushes: u64,
    /// The send / timer buffers a [`Ctx`] fills, kept between callbacks so
    /// a callback's first `send` does not allocate: [`Simulator::invoke`]
    /// lends them to the `Ctx` and takes them back drained.
    send_buf: Vec<(NodeId, A::Msg)>,
    timer_buf: Vec<(SimTime, u64)>,
    skew: Vec<SimTime>,
    /// Crashed nodes: deliver nothing, fire no timers, send nothing.
    failed: Vec<bool>,
    /// Per-node boot epoch: bumped on restart so stale timers from a
    /// previous incarnation are swallowed instead of firing.
    epochs: Vec<u32>,
    /// Link-level fault condition driven by the fault schedule.
    links: LinkState,
    /// Pending fault schedule (sorted) and application cursor.
    faults: Vec<FaultEvent>,
    fault_cursor: usize,
    /// Rebuilds a node's application on restart (full volatile state
    /// loss); also used during construction.
    make_app: MakeApp<A>,
    /// Per-node RNG streams for the message path (loss + jitter draws).
    rngs: Vec<NodeRng>,
    pub config: SimConfig,
    pub metrics: Metrics,
    events_processed: u64,
    /// Optional event journal (see [`crate::trace`]). `None` costs one
    /// branch per event and never constructs a record.
    trace: Option<Box<dyn TraceSink>>,
    trace_seq: u64,
    max_queue_depth: usize,
    /// Optional telemetry handle (spans + histograms). Disabled costs one
    /// branch per use, same contract as `trace`. Telemetry is an observer:
    /// it never touches the RNGs or the event queue, so enabling it cannot
    /// change a run's journal.
    telemetry: Telemetry,
    /// Each node's `Scope::Node(n)` / `"tx_bytes"` histogram id in
    /// `telemetry`'s registry, and the one `"hop_delay_ms"` id: resolved by
    /// key on first use and by id from then on, so a run creates the
    /// histograms keyed `observe` calls would have.
    tx_bytes_hists: Vec<Option<HistId>>,
    hop_delay_hist: Option<HistId>,
}

impl<A: App> Simulator<A> {
    /// Build a simulator; `make_app` constructs each node's application.
    /// Start events for every node are queued at t = 0. `topo` may be an
    /// `Arc` held elsewhere too ([`Simulator::shared_topology`]).
    pub fn new(
        topo: impl Into<Arc<Topology>>,
        config: SimConfig,
        make_app: impl FnMut(NodeId, &Topology) -> A + 'static,
    ) -> Simulator<A> {
        let topo: Arc<Topology> = topo.into();
        let mut make_app: MakeApp<A> = Box::new(make_app);
        // Setup-only RNG: clock skew is sampled once, serially, before any
        // event runs — the per-node streams never see these draws.
        let mut rng = StdRng::seed_from_u64(config.seed);
        let skew: Vec<SimTime> = (0..topo.len())
            .map(|_| {
                if config.clock_skew_max == 0 {
                    0
                } else {
                    rng.gen_range(0..=config.clock_skew_max)
                }
            })
            .collect();
        let apps: Vec<A> = topo.nodes().map(|id| make_app(id, &topo)).collect();
        let rngs: Vec<NodeRng> = (0..topo.len() as u32)
            .map(|i| NodeRng::new(config.seed, i))
            .collect();
        let n = apps.len();
        let mut sim = Simulator {
            metrics: Metrics::new(n),
            topo,
            apps,
            queue: EventHeap::default(),
            now: 0,
            counters: vec![0; n],
            pushes: 0,
            send_buf: Vec::new(),
            timer_buf: Vec::new(),
            skew,
            failed: vec![false; n],
            epochs: vec![0; n],
            links: LinkState::default(),
            faults: config.faults.sorted().events().to_vec(),
            fault_cursor: 0,
            make_app,
            rngs,
            config,
            events_processed: 0,
            trace: None,
            trace_seq: 0,
            max_queue_depth: 0,
            telemetry: Telemetry::disabled(),
            tx_bytes_hists: vec![None; n],
            hop_delay_hist: None,
        };
        for id in sim.topo.nodes() {
            sim.push_from(id, 0, Event::Start(id));
        }
        sim
    }

    /// Queue `event` at `at` under `origin`'s next `(origin << 32) |
    /// counter` tie: ties are minted in push order, so two sends that land
    /// on one link at one tick pop in the order they were sent.
    fn push_from(&mut self, origin: NodeId, at: SimTime, event: Event<A::Msg>) {
        let c = &mut self.counters[origin.index()];
        let tie = ((origin.0 as u64) << 32) | *c as u64;
        *c = c.checked_add(1).expect("per-origin tie counter overflow");
        self.queue.push(at, tie, event);
        self.pushes += 1;
        self.max_queue_depth = self.max_queue_depth.max(self.queue.len());
    }

    /// Attach a trace sink (e.g. [`crate::trace::SharedJournal`]); every
    /// subsequent event is journaled. Pass-by-`Box` so callers keep a
    /// shared handle if they need the data back afterwards.
    pub fn set_trace(&mut self, sink: Box<dyn TraceSink>) {
        self.trace = Some(sink);
    }

    /// Attach a telemetry handle; the caller keeps a clone to read results
    /// back. Spans cover routing, delivery, and timer dispatch; histograms
    /// cover per-node message sizes and hop delays.
    pub fn set_telemetry(&mut self, tele: Telemetry) {
        self.telemetry = tele;
        self.tx_bytes_hists.fill(None);
        self.hop_delay_hist = None;
    }

    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Journal an event at the current time (construction deferred: with
    /// no journal attached this is one branch).
    #[inline]
    fn emit(&mut self, event: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = self.trace.as_mut() {
            sink.record(TraceRecord {
                seq: self.trace_seq,
                at: self.now,
                event: event(),
            });
            self.trace_seq += 1;
        }
    }

    /// Size of one queued event. [`Event`] is crate-private; this is how a
    /// test outside the crate bounds what the queue pays per pending entry.
    #[doc(hidden)]
    pub fn queued_event_bytes() -> usize {
        std::mem::size_of::<Event<A::Msg>>()
    }

    /// High-water mark of the pending event queue over the whole run.
    pub fn max_queue_depth(&self) -> usize {
        self.max_queue_depth
    }

    /// Scheduler operation counters for this run (`sched.*` telemetry).
    pub fn sched_stats(&self) -> SchedStats {
        SchedStats {
            pushes: self.pushes,
            ..SchedStats::default()
        }
    }

    pub fn now(&self) -> SimTime {
        self.now
    }

    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The topology as the shared pointer this simulator holds.
    pub fn shared_topology(&self) -> &Arc<Topology> {
        &self.topo
    }

    pub fn local_time(&self, node: NodeId) -> SimTime {
        self.now + self.skew[node.index()]
    }

    pub fn node(&self, id: NodeId) -> &A {
        &self.apps[id.index()]
    }

    pub fn nodes(&self) -> impl Iterator<Item = &A> {
        self.apps.iter()
    }

    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Crash a node: it stops receiving, sending, and firing timers
    /// ("fault-tolerant … immune to certain topology changes", Sec. III-A:
    /// the replication of PA is exactly what failures test).
    pub fn fail_node(&mut self, id: NodeId) {
        if self.failed[id.index()] {
            return; // idempotent: a dead node stays dead
        }
        self.failed[id.index()] = true;
        self.emit(|| TraceEvent::NodeFail { node: id });
    }

    /// Restart a crashed node: a fresh application instance from
    /// `make_app` (volatile state lost), a bumped boot epoch (stale timers
    /// swallowed), and an immediate [`App::on_restart`] callback on the
    /// fresh instance, handed the crashed one to take what survives a crash
    /// from. RNG streams, tie counters, and clock skew persist across
    /// incarnations — determinism depends on it. No-op on live nodes.
    pub fn restart_node(&mut self, id: NodeId) {
        if !self.failed[id.index()] {
            return;
        }
        self.failed[id.index()] = false;
        self.epochs[id.index()] += 1;
        let fresh = (self.make_app)(id, &self.topo);
        let crashed = std::mem::replace(&mut self.apps[id.index()], fresh);
        self.emit(|| TraceEvent::NodeRestart { node: id });
        self.invoke(id, |app, ctx| app.on_restart(ctx, crashed));
    }

    pub fn is_failed(&self, id: NodeId) -> bool {
        self.failed[id.index()]
    }

    /// True when the config scheduled faults or a node was ever failed
    /// manually — the "fault plane active" flag checks key off.
    pub fn faults_injected(&self) -> bool {
        !self.faults.is_empty() || self.failed.iter().any(|&f| f)
    }

    /// Apply every fault scheduled at exactly `t`, advancing `now` to `t`.
    fn apply_faults_at(&mut self, t: SimTime) {
        debug_assert!(t >= self.now, "fault time went backwards");
        self.now = self.now.max(t);
        while let Some(f) = self.faults.get(self.fault_cursor) {
            if f.at != t {
                break;
            }
            let kind = f.kind.clone();
            self.fault_cursor += 1;
            self.apply_fault(kind);
        }
    }

    fn apply_fault(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::Crash(n) => self.fail_node(n),
            FaultKind::Restart(n) => self.restart_node(n),
            FaultKind::LinkDown(a, b) => {
                self.links.set_down(a, b, true);
                self.emit(|| TraceEvent::LinkDown { a, b });
            }
            FaultKind::LinkUp(a, b) => {
                self.links.set_down(a, b, false);
                self.emit(|| TraceEvent::LinkUp { a, b });
            }
            FaultKind::DupWindow { until, ppm } => {
                self.links.open_dup_window(until, ppm);
                self.emit(|| TraceEvent::DupWindow { until, ppm });
            }
            FaultKind::ReorderWindow { until, jitter } => {
                self.links.open_reorder_window(until, jitter);
                self.emit(|| TraceEvent::ReorderWindow { until, jitter });
            }
        }
    }

    /// Run `f` on a node *now* (workload injection: "a sensor reading was
    /// generated at this node"), processing any sends/timers it produces.
    /// No-op on failed nodes.
    pub fn invoke(&mut self, node: NodeId, f: impl FnOnce(&mut A, &mut Ctx<A::Msg>)) {
        if self.failed[node.index()] {
            return; // dead nodes do nothing
        }
        let mut ctx = Ctx {
            node,
            now: self.now,
            local_time: self.now + self.skew[node.index()],
            topo: &self.topo,
            sends: std::mem::take(&mut self.send_buf),
            timers: std::mem::take(&mut self.timer_buf),
        };
        f(&mut self.apps[node.index()], &mut ctx);
        let (mut sends, mut timers) = (ctx.sends, ctx.timers);
        self.apply_outputs(node, &mut sends, &mut timers);
        (self.send_buf, self.timer_buf) = (sends, timers);
    }

    /// Put one callback's buffered sends on the air (loss draws, ARQ, fault
    /// windows, hop delays) and queue its timers.
    fn apply_outputs(
        &mut self,
        from: NodeId,
        sends: &mut Vec<(NodeId, A::Msg)>,
        timers: &mut Vec<(SimTime, u64)>,
    ) {
        let _route_span = self.telemetry.span("sim.route");
        let now = self.now;
        let from_i = from.index();
        let mut dups: Vec<(NodeId, SimTime, u32, A::Msg)> = Vec::new();
        for (to, msg) in sends.drain(..) {
            let bytes = msg.size_bytes();
            let queued_bytes = u32::try_from(bytes).unwrap_or(u32::MAX);
            let kind = msg.kind();
            self.telemetry.observe_cached(
                &mut self.tx_bytes_hists[from_i],
                Scope::Node(from.0),
                "tx_bytes",
                BYTES_BUCKETS,
                bytes as u64,
            );
            // A downed link is a loss probability of 1 — same RNG draw
            // pattern as lossy air, so healing a link never shifts the
            // sender's stream relative to a run where it stayed up.
            let down = self.links.is_down(from, to);
            let p = if down {
                1.0
            } else {
                self.config
                    .link_loss
                    .get(&(from, to))
                    .copied()
                    .unwrap_or(self.config.loss_prob)
            };
            let attempt_reason = if down {
                DropReason::Partition
            } else {
                DropReason::Loss
            };
            // Link-layer ARQ: attempt until delivered or retries exhausted;
            // every attempt is a transmission, failed attempts are losses.
            let mut delivered = false;
            let mut extra_delay: SimTime = 0;
            for attempt in 0..=self.config.retries {
                self.metrics.record_tx(from, bytes, kind);
                self.emit(|| TraceEvent::Send {
                    from,
                    to,
                    kind,
                    bytes,
                    attempt,
                });
                if p > 0.0 && self.rngs[from_i].gen_f64() < p {
                    self.metrics.record_loss(kind, attempt_reason);
                    extra_delay += backoff(attempt);
                    continue;
                }
                delivered = true;
                break;
            }
            if !delivered {
                let reason = if down {
                    DropReason::Partition
                } else if self.config.retries > 0 {
                    DropReason::Retries
                } else {
                    DropReason::Loss
                };
                self.emit(|| TraceEvent::Drop {
                    from,
                    to,
                    kind,
                    reason,
                });
                continue;
            }
            let (lo, hi) = self.config.hop_delay;
            let mut delay = if hi > lo {
                self.rngs[from_i].gen_range(lo, hi)
            } else {
                lo
            };
            // Open reordering window: extra uniform jitter on top of the
            // hop delay lets later sends overtake this one. The draw only
            // happens while a window is open, so the fault-free stream is
            // untouched.
            if let Some(jitter) = self.links.reorder_jitter(now) {
                delay += self.rngs[from_i].gen_range(0, jitter);
            }
            self.telemetry.observe_cached(
                &mut self.hop_delay_hist,
                Scope::Global,
                "hop_delay_ms",
                SIM_MS_BUCKETS,
                delay + extra_delay,
            );
            let at = now + delay + extra_delay;
            // Open duplication window: the radio transmits a copy with its
            // own delay draw. The copy is a full transmission (tx recorded,
            // journaled) so message-conservation accounting still balances.
            if let Some(pdup) = self.links.dup_prob(now) {
                if self.rngs[from_i].gen_f64() < pdup {
                    let ddelay = if hi > lo {
                        self.rngs[from_i].gen_range(lo, hi)
                    } else {
                        lo
                    };
                    self.metrics.record_tx(from, bytes, kind);
                    self.emit(|| TraceEvent::Send {
                        from,
                        to,
                        kind,
                        bytes,
                        attempt: 0,
                    });
                    dups.push((to, now + ddelay + extra_delay, queued_bytes, msg.clone()));
                }
            }
            let event = Event::Deliver {
                to,
                from,
                bytes: queued_bytes,
                msg,
            };
            self.push_from(from, at, event);
        }
        for (to, at, bytes, msg) in dups {
            let event = Event::Deliver {
                to,
                from,
                bytes,
                msg,
            };
            self.push_from(from, at, event);
        }
        let epoch = self.epochs[from_i];
        for (delay, tag) in timers.drain(..) {
            let event = Event::Timer {
                node: from,
                tag,
                epoch,
            };
            self.push_from(from, now + delay, event);
        }
    }

    /// Process one queue event; false when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((at, event)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        self.events_processed += 1;
        match event {
            Event::Start(node) => {
                if !self.failed[node.index()] {
                    self.emit(|| TraceEvent::Start { node });
                }
                self.invoke(node, |app, ctx| app.on_start(ctx));
            }
            Event::Deliver {
                to,
                from,
                bytes,
                msg,
            } => {
                let kind = msg.kind();
                if self.failed[to.index()] {
                    self.metrics.record_loss(kind, DropReason::DeadNode);
                    self.emit(|| TraceEvent::Drop {
                        from,
                        to,
                        kind,
                        reason: DropReason::DeadNode,
                    });
                } else {
                    let _span = self.telemetry.span("sim.deliver");
                    let bytes = bytes as usize;
                    self.metrics.record_rx(to, bytes, kind);
                    self.emit(|| TraceEvent::Deliver {
                        from,
                        to,
                        kind,
                        bytes,
                    });
                    self.invoke(to, |app, ctx| app.on_message(ctx, from, msg));
                }
            }
            Event::Timer { node, tag, epoch } => {
                if self.epochs[node.index()] != epoch {
                    return true; // armed by a previous incarnation: swallow
                }
                let _span = self.telemetry.span("sim.timer");
                if !self.failed[node.index()] {
                    self.emit(|| TraceEvent::Timer { node, tag });
                }
                self.invoke(node, |app, ctx| app.on_timer(ctx, tag));
            }
        }
        true
    }

    /// True when no events remain.
    pub fn is_quiescent(&self) -> bool {
        self.queue.len() == 0
    }

    /// Step through every event scheduled at or before `limit`. The single
    /// head-draining loop shared by [`Self::run_to_quiescence`] and
    /// [`Self::run_until`]; a no-op on an empty queue.
    fn drain_ready(&mut self, limit: SimTime) {
        // Interleave scheduled faults with event processing: a fault at
        // time t strikes before any event at t (so a crash at an event's
        // exact tick kills that event's handler), and pending faults are
        // applied even when the queue is empty (a restart can revive a
        // quiesced network).
        loop {
            let next_fault = self
                .faults
                .get(self.fault_cursor)
                .map(|f| f.at)
                .filter(|&t| t <= limit);
            let next_event = self.queue.next_at().filter(|&at| at <= limit);
            match (next_fault, next_event) {
                (Some(f), Some(at)) if f <= at => self.apply_faults_at(f),
                (_, Some(_)) => {
                    self.step();
                }
                (Some(f), None) => self.apply_faults_at(f),
                (None, None) => break,
            }
        }
    }

    /// Run until the queue drains or simulated time exceeds `limit`.
    /// Returns the final simulated time.
    pub fn run_to_quiescence(&mut self, limit: SimTime) -> SimTime {
        self.drain_ready(limit);
        self.now
    }

    /// Run while events are scheduled at or before `t`.
    pub fn run_until(&mut self, t: SimTime) {
        self.drain_ready(t);
        self.now = self.now.max(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensorlog_telemetry::{MetricsRegistry, Snapshot};

    /// Flood app: node 0 starts a flood; everyone re-broadcasts once.
    struct Flood {
        id: NodeId,
        seen: bool,
        received_at: Option<SimTime>,
    }

    #[derive(Clone)]
    struct Ping;

    impl MsgMeta for Ping {
        fn size_bytes(&self) -> usize {
            8
        }
        fn kind(&self) -> &'static str {
            "ping"
        }
    }

    impl App for Flood {
        type Msg = Ping;

        fn on_start(&mut self, ctx: &mut Ctx<Ping>) {
            if self.id == NodeId(0) {
                self.seen = true;
                self.received_at = Some(ctx.now);
                ctx.broadcast(Ping);
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<Ping>, _from: NodeId, msg: Ping) {
            if !self.seen {
                self.seen = true;
                self.received_at = Some(ctx.now);
                ctx.broadcast(msg);
            }
        }
    }

    fn flood_sim(cfg: SimConfig) -> Simulator<Flood> {
        Simulator::new(Topology::square_grid(4), cfg, |id, _| Flood {
            id,
            seen: false,
            received_at: None,
        })
    }

    #[test]
    fn flood_reaches_everyone() {
        let mut sim = flood_sim(SimConfig::default());
        sim.run_to_quiescence(100_000);
        assert!(sim.nodes().all(|n| n.seen));
        // Messages were counted: every node broadcast once to each neighbor.
        assert!(sim.metrics.total_tx() > 0);
        assert_eq!(sim.metrics.tx_by_kind()["ping"], sim.metrics.total_tx());
    }

    /// Each node broadcasts `per_node` pings at start and ignores what it
    /// hears.
    struct Chatty {
        per_node: usize,
    }

    impl App for Chatty {
        type Msg = Ping;
        fn on_start(&mut self, ctx: &mut Ctx<Ping>) {
            for _ in 0..self.per_node {
                ctx.broadcast(Ping);
            }
        }
        fn on_message(&mut self, _: &mut Ctx<Ping>, _: NodeId, _: Ping) {}
    }

    /// A 6x6 grid of [`Chatty`] nodes, each sending what `per_node` says.
    fn chatty_sim(per_node: impl Fn(NodeId) -> usize + 'static) -> Simulator<Chatty> {
        Simulator::new(
            Topology::square_grid(6),
            SimConfig::default(),
            move |id, _| Chatty {
                per_node: per_node(id),
            },
        )
    }

    /// `sim.metrics` walks its registry's key map only for per-kind
    /// counters: never while it is built (node counters are a dense row per
    /// node), then once per kind for its first tx and first rx, however
    /// many messages a run delivers. A per-node registration in
    /// `Metrics::new` would add 4 walks per node, and a keyed `bump` in
    /// `record_tx` / `record_rx` two per delivery.
    #[test]
    fn keyed_registry_walks_do_not_grow_with_traffic() {
        let run = |per_node: usize| {
            let mut sim = chatty_sim(move |_| per_node);
            assert_eq!(
                sim.metrics.registry().keyed_walks(),
                0,
                "construction walks"
            );
            sim.run_to_quiescence(100_000);
            (
                sim.metrics.delivered(),
                sim.metrics.registry().keyed_walks(),
            )
        };
        let (light_rx, light_walks) = run(1);
        let (heavy_rx, heavy_walks) = run(20);
        assert_eq!(heavy_rx, 20 * light_rx, "the heavy run must carry 20x");
        assert!(light_rx >= 100);
        assert_eq!(light_walks, 2);
        assert_eq!(heavy_walks, 2);
    }

    /// The exported `node:n/*` rows are the ones a registry holding every
    /// node's four counters from construction on would export: 4 rows per
    /// node in key order, idle nodes' zeros included, each value the one
    /// `Metrics::node` reads, followed by the per-kind rows. (The eager
    /// registry is built from `Metrics::node`, so equal snapshots check
    /// both the keys and the values.)
    #[test]
    fn exported_node_rows_match_an_eagerly_registered_registry() {
        // Only node 0 talks: its two neighbours hear it, the other 33 nodes
        // neither send nor receive.
        let mut sim = chatty_sim(|id| if id == NodeId(0) { 3 } else { 0 });
        sim.run_to_quiescence(100_000);
        let m = &sim.metrics;
        let idle = (0..36)
            .filter(|&n| m.node(NodeId(n)) == Default::default())
            .count();
        assert_eq!(idle, 33);

        let mut eager = MetricsRegistry::new();
        for n in 0..36u32 {
            let c = m.node(NodeId(n));
            for (name, v) in [
                ("tx", c.tx),
                ("rx", c.rx),
                ("tx_bytes", c.tx_bytes),
                ("rx_bytes", c.rx_bytes),
            ] {
                let id = eager.counter(Scope::Node(n), name);
                eager.inc_by(id, v);
            }
        }
        eager.merge_from(m.registry());
        let mut want = Snapshot::default();
        want.absorb_registry(&eager);
        let mut got = Snapshot::default();
        m.export(&mut got);
        assert_eq!(got, want);

        let node_rows = got.counters.iter().filter(|r| r.scope.starts_with("node:"));
        assert_eq!(node_rows.count(), 4 * 36);
    }

    #[test]
    fn determinism_same_seed() {
        let mut a = flood_sim(SimConfig::default());
        let mut b = flood_sim(SimConfig::default());
        a.run_to_quiescence(100_000);
        b.run_to_quiescence(100_000);
        assert_eq!(a.metrics.total_tx(), b.metrics.total_tx());
        let ta: Vec<_> = a.nodes().map(|n| n.received_at).collect();
        let tb: Vec<_> = b.nodes().map(|n| n.received_at).collect();
        assert_eq!(ta, tb);
        assert_eq!(a.events_processed(), b.events_processed());
    }

    #[test]
    fn different_seed_differs() {
        let mut a = flood_sim(SimConfig::default());
        let mut b = flood_sim(SimConfig {
            seed: 99,
            ..SimConfig::default()
        });
        a.run_to_quiescence(100_000);
        b.run_to_quiescence(100_000);
        let ta: Vec<_> = a.nodes().map(|n| n.received_at).collect();
        let tb: Vec<_> = b.nodes().map(|n| n.received_at).collect();
        assert_ne!(ta, tb, "delay jitter should differ across seeds");
    }

    #[test]
    fn total_loss_blocks_flood() {
        let mut sim = flood_sim(SimConfig {
            loss_prob: 1.0,
            ..SimConfig::default()
        });
        sim.run_to_quiescence(100_000);
        let reached = sim.nodes().filter(|n| n.seen).count();
        assert_eq!(reached, 1); // only the origin
        assert!(sim.metrics.lost() > 0);
        assert_eq!(sim.metrics.delivered(), 0);
    }

    #[test]
    fn partial_loss_partial_delivery() {
        let mut sim = flood_sim(SimConfig {
            loss_prob: 0.3,
            seed: 7,
            ..SimConfig::default()
        });
        sim.run_to_quiescence(100_000);
        assert!(sim.metrics.lost() > 0);
        assert!(sim.metrics.delivered() > 0);
        let r = sim.metrics.delivery_ratio();
        assert!(r > 0.4 && r < 0.95, "ratio {r} should reflect ~30% loss");
    }

    #[test]
    fn per_link_loss_override() {
        let mut cfg = SimConfig::default();
        // Kill both directions of the 0-1 link on a 1x2 grid.
        cfg.link_loss.insert((NodeId(0), NodeId(1)), 1.0);
        let topo = Topology::grid(2, 1);
        let mut sim = Simulator::new(topo, cfg, |id, _| Flood {
            id,
            seen: false,
            received_at: None,
        });
        sim.run_to_quiescence(10_000);
        assert!(!sim.node(NodeId(1)).seen);
    }

    #[test]
    fn clock_skew_bounded() {
        let sim = flood_sim(SimConfig {
            clock_skew_max: 50,
            ..SimConfig::default()
        });
        for id in sim.topology().nodes() {
            let lt = sim.local_time(id);
            assert!(lt >= sim.now() && lt <= sim.now() + 50);
        }
    }

    #[test]
    fn timers_fire() {
        struct TimerApp {
            fired: Vec<(SimTime, u64)>,
        }
        #[derive(Clone)]
        struct Nothing;
        impl MsgMeta for Nothing {
            fn size_bytes(&self) -> usize {
                0
            }
        }
        impl App for TimerApp {
            type Msg = Nothing;
            fn on_start(&mut self, ctx: &mut Ctx<Nothing>) {
                ctx.set_timer(100, 1);
                ctx.set_timer(50, 2);
            }
            fn on_message(&mut self, _: &mut Ctx<Nothing>, _: NodeId, _: Nothing) {}
            fn on_timer(&mut self, ctx: &mut Ctx<Nothing>, tag: u64) {
                self.fired.push((ctx.now, tag));
            }
        }
        let mut sim = Simulator::new(Topology::grid(1, 1), SimConfig::default(), |_, _| {
            TimerApp { fired: Vec::new() }
        });
        sim.run_to_quiescence(1_000);
        assert_eq!(sim.node(NodeId(0)).fired, vec![(50, 2), (100, 1)]);
    }

    #[test]
    #[should_panic(expected = "non-neighbor")]
    fn send_to_non_neighbor_panics() {
        struct Bad;
        #[derive(Clone)]
        struct Nothing;
        impl MsgMeta for Nothing {
            fn size_bytes(&self) -> usize {
                0
            }
        }
        impl App for Bad {
            type Msg = Nothing;
            fn on_start(&mut self, ctx: &mut Ctx<Nothing>) {
                ctx.send(NodeId(8), Nothing); // diagonal/non-adjacent
            }
            fn on_message(&mut self, _: &mut Ctx<Nothing>, _: NodeId, _: Nothing) {}
        }
        let mut sim = Simulator::new(Topology::square_grid(3), SimConfig::default(), |_, _| Bad);
        sim.run_to_quiescence(100);
    }

    #[test]
    fn run_until_advances_clock() {
        let mut sim = flood_sim(SimConfig::default());
        sim.run_until(10);
        assert!(sim.now() >= 10 || sim.is_quiescent());
    }

    fn lossy_cfg() -> SimConfig {
        SimConfig {
            loss_prob: 0.25,
            retries: 1,
            seed: 11,
            ..SimConfig::default()
        }
    }

    fn journaled_flood(cfg: SimConfig) -> crate::trace::Journal {
        let shared = crate::trace::SharedJournal::new(cfg.seed);
        let mut sim = flood_sim(cfg);
        sim.set_trace(Box::new(shared.clone()));
        sim.run_to_quiescence(100_000);
        shared.take()
    }

    #[test]
    fn record_replay_byte_identical() {
        // A journal recorded from a seeded run, re-run under the same
        // configuration, must reproduce byte-for-byte.
        let a = journaled_flood(lossy_cfg());
        let b = journaled_flood(lossy_cfg());
        assert_eq!(
            a.first_divergence(&b),
            None,
            "first divergence: {:?} vs {:?}",
            a.first_divergence(&b).map(|i| &a.records[i]),
            a.first_divergence(&b).and_then(|i| b.records.get(i)),
        );
        assert_eq!(a.to_text(), b.to_text(), "journals must be byte-identical");
        assert_eq!(a.content_hash(), b.content_hash());
        assert!(!a.records.is_empty());
        // Trace seq numbers are monotonic from 0.
        for (i, r) in a.records.iter().enumerate() {
            assert_eq!(r.seq, i as u64);
        }
    }

    #[test]
    fn replay_checker_verifies_live_rerun() {
        let recorded = journaled_flood(lossy_cfg());
        let mut sim = flood_sim(lossy_cfg());
        let checker = crate::trace::ReplayChecker::new(recorded);
        let shared = std::rc::Rc::new(std::cell::RefCell::new(checker));
        struct SharedChecker(std::rc::Rc<std::cell::RefCell<crate::trace::ReplayChecker>>);
        impl crate::trace::TraceSink for SharedChecker {
            fn record(&mut self, rec: crate::trace::TraceRecord) {
                self.0.borrow_mut().record(rec);
            }
        }
        sim.set_trace(Box::new(SharedChecker(shared.clone())));
        sim.run_to_quiescence(100_000);
        let result = shared.borrow().result();
        if let Err(d) = result {
            panic!("{d}");
        }
    }

    #[test]
    fn different_seed_diverges_in_journal() {
        let a = journaled_flood(lossy_cfg());
        let b = journaled_flood(SimConfig {
            seed: 12,
            ..lossy_cfg()
        });
        assert!(a.first_divergence(&b).is_some());
    }

    #[test]
    fn trace_covers_loss_and_failure_events() {
        let shared = crate::trace::SharedJournal::new(0);
        let mut sim = flood_sim(SimConfig {
            loss_prob: 0.5,
            seed: 3,
            ..SimConfig::default()
        });
        sim.set_trace(Box::new(shared.clone()));
        sim.fail_node(NodeId(15));
        sim.run_to_quiescence(100_000);
        let j = shared.take();
        let s = j.summary();
        assert!(s.sends > 0);
        assert!(s.drops_loss > 0, "50% loss must journal drops");
        assert_eq!(s.node_failures, 1);
        assert_eq!(s.sends_by_kind["ping"], s.sends);
        assert_eq!(
            s.sends,
            sim.metrics.total_tx(),
            "journal sends == metric tx"
        );
        // Queue high-water mark is tracked for run summaries.
        assert!(sim.max_queue_depth() > 0);
    }

    /// The tag of a queued timer event (what the queue-order tests push).
    fn popped_tag(q: &mut EventHeap<()>) -> Option<(SimTime, u64)> {
        match q.pop()? {
            (at, Event::Timer { tag, .. }) => Some((at, tag)),
            _ => unreachable!("only timers are queued"),
        }
    }

    fn push_tagged(q: &mut EventHeap<()>, at: SimTime, tie: u64, tag: u64) {
        let event = Event::Timer {
            node: NodeId(0),
            tag,
            epoch: 0,
        };
        q.push(at, tie, event);
    }

    /// A zero-delay timer set from inside a handler lands on the tick being
    /// drained, behind what is already popped and in tie order among what
    /// is not.
    #[test]
    fn same_tick_push_while_the_tick_drains_pops_in_tie_order() {
        let mut q = EventHeap::default();
        push_tagged(&mut q, 7, 0, 1);
        push_tagged(&mut q, 7, 5, 3);
        assert_eq!(popped_tag(&mut q), Some((7, 1)));
        push_tagged(&mut q, 7, 2, 2); // below the pending tie
        assert_eq!(popped_tag(&mut q), Some((7, 2)));
        assert_eq!(popped_tag(&mut q), Some((7, 3)));
        assert_eq!(popped_tag(&mut q), None);
    }

    /// Origin-keyed ties are not monotone across pushes: a later push by a
    /// lower-numbered origin carries a smaller tie and pops first, at any
    /// distance in time — and a push earlier than the peeked head (the
    /// harness peeks, stops at a horizon, then injects) is legal.
    #[test]
    fn non_monotone_origin_ties_pop_in_tie_order() {
        let mut q = EventHeap::default();
        let far = 3 * 4_096 + 17;
        for (at, tie, tag) in [(9, 40, 4), (9, 10, 1), (far, 8, 6), (9, 30, 3)] {
            push_tagged(&mut q, at, tie, tag);
        }
        push_tagged(&mut q, 9, 20, 2);
        push_tagged(&mut q, far, 2, 5);
        assert_eq!(q.next_at(), Some(9));
        push_tagged(&mut q, 6, 1 << 40, 0);
        assert_eq!(q.len(), 7);
        let order: Vec<_> = std::iter::from_fn(|| popped_tag(&mut q)).collect();
        assert_eq!(
            order,
            [(6, 0), (9, 1), (9, 2), (9, 3), (9, 4), (far, 5), (far, 6)]
        );
    }

    /// Bursts of same-tick timers on more consecutive ticks (5,000) than the
    /// 4,096-slot timer wheel this queue replaced had slots, with at most
    /// two bursts pending at once. A calendar queue keeps each slot's
    /// high-water buffer, so it ends up holding room for a burst per slot;
    /// what a queue retains must follow what it held pending.
    #[test]
    fn queue_memory_follows_pending_events() {
        const BURST: u64 = 8;
        const TICKS: SimTime = 5_000;
        struct Bursts;
        impl App for Bursts {
            type Msg = Ping;
            fn on_start(&mut self, ctx: &mut Ctx<Ping>) {
                (0..BURST).for_each(|tag| ctx.set_timer(1, tag));
            }
            fn on_message(&mut self, _: &mut Ctx<Ping>, _: NodeId, _: Ping) {}
            fn on_timer(&mut self, ctx: &mut Ctx<Ping>, tag: u64) {
                if tag == 0 && ctx.now < TICKS {
                    (0..BURST).for_each(|tag| ctx.set_timer(1, tag));
                }
            }
        }
        let mut sim = Simulator::new(Topology::grid(1, 1), SimConfig::default(), |_, _| Bursts);
        sim.run_to_quiescence(2 * TICKS);
        assert_eq!(sim.events_processed(), 1 + BURST * TICKS);
        let peak = sim.max_queue_depth();
        assert!(peak < 2 * BURST as usize, "peak {peak}");
        let retained = sim.queue.capacity();
        assert!(
            retained <= 4 * peak,
            "room for {retained} events kept after a peak of {peak}"
        );
    }

    #[test]
    fn drain_ready_empty_queue_is_noop() {
        let mut sim = flood_sim(SimConfig::default());
        sim.run_to_quiescence(100_000);
        assert!(sim.is_quiescent());
        let now = sim.now();
        let processed = sim.events_processed();
        // Draining an empty queue must not advance time or process events.
        sim.drain_ready(now + 50_000);
        assert_eq!(sim.now(), now);
        assert_eq!(sim.events_processed(), processed);
        assert!(!sim.step());
        // run_until on an empty queue still advances the wall clock.
        sim.run_until(now + 10);
        assert_eq!(sim.now(), now + 10);
    }

    /// Two sends on one link from one callback that land on the same tick
    /// (zero jitter) are two queue operations with consecutive ties of one
    /// origin: they pop in send order.
    #[test]
    fn same_link_same_tick_sends_deliver_in_send_order() {
        struct DoubleSend {
            id: NodeId,
            heard: Vec<u8>,
        }
        #[derive(Clone)]
        struct Nth(u8);
        impl MsgMeta for Nth {
            fn size_bytes(&self) -> usize {
                4
            }
        }
        impl App for DoubleSend {
            type Msg = Nth;
            fn on_start(&mut self, ctx: &mut Ctx<Nth>) {
                if self.id == NodeId(0) {
                    ctx.send(NodeId(1), Nth(1));
                    ctx.send(NodeId(1), Nth(2));
                }
            }
            fn on_message(&mut self, _: &mut Ctx<Nth>, _: NodeId, msg: Nth) {
                self.heard.push(msg.0);
            }
        }
        let cfg = SimConfig {
            hop_delay: (10, 10), // zero jitter: both sends arrive together
            ..SimConfig::default()
        };
        let shared = crate::trace::SharedJournal::new(cfg.seed);
        let mut sim = Simulator::new(Topology::grid(2, 1), cfg, |id, _| DoubleSend {
            id,
            heard: Vec::new(),
        });
        sim.set_trace(Box::new(shared.clone()));
        sim.run_to_quiescence(1_000);
        assert_eq!(sim.node(NodeId(1)).heard, [1, 2]);
        let stats = sim.sched_stats();
        assert_eq!(stats.pushes, 2 + 2, "two starts, one push per send");
        assert_eq!(stats.batched_msgs, 0);
        assert_eq!(sim.events_processed(), 2 + 2);
        assert_eq!(shared.take().summary().sends, 2);
    }

    #[test]
    fn disabled_trace_changes_nothing() {
        // Runs with and without a sink produce identical outcomes: the
        // journal is an observer, never a participant.
        let mut plain = flood_sim(lossy_cfg());
        plain.run_to_quiescence(100_000);
        let shared = crate::trace::SharedJournal::new(lossy_cfg().seed);
        let mut traced = flood_sim(lossy_cfg());
        traced.set_trace(Box::new(shared.clone()));
        traced.run_to_quiescence(100_000);
        assert_eq!(plain.metrics.total_tx(), traced.metrics.total_tx());
        assert_eq!(plain.events_processed(), traced.events_processed());
        let ta: Vec<_> = plain.nodes().map(|n| n.received_at).collect();
        let tb: Vec<_> = traced.nodes().map(|n| n.received_at).collect();
        assert_eq!(ta, tb);
    }
}

#[cfg(test)]
mod failure_tests {
    use super::*;

    struct Echo {
        id: NodeId,
        heard: u32,
    }
    #[derive(Clone)]
    struct Beep;
    impl MsgMeta for Beep {
        fn size_bytes(&self) -> usize {
            1
        }
    }
    impl App for Echo {
        type Msg = Beep;
        fn on_start(&mut self, ctx: &mut Ctx<Beep>) {
            if self.id == NodeId(0) {
                ctx.broadcast(Beep);
                ctx.set_timer(100, 1);
            }
        }
        fn on_message(&mut self, _: &mut Ctx<Beep>, _: NodeId, _: Beep) {
            self.heard += 1;
        }
        fn on_timer(&mut self, ctx: &mut Ctx<Beep>, _: u64) {
            ctx.broadcast(Beep);
        }
    }

    #[test]
    fn failed_node_receives_nothing() {
        let mut sim = Simulator::new(Topology::grid(2, 1), SimConfig::default(), |id, _| Echo {
            id,
            heard: 0,
        });
        sim.fail_node(NodeId(1));
        sim.run_to_quiescence(10_000);
        assert!(sim.is_failed(NodeId(1)));
        assert_eq!(sim.node(NodeId(1)).heard, 0);
        assert!(
            sim.metrics.lost() >= 1,
            "drops at dead nodes count as losses"
        );
    }

    #[test]
    fn failed_node_fires_no_timers_and_sends_nothing() {
        let mut sim = Simulator::new(Topology::grid(2, 1), SimConfig::default(), |id, _| Echo {
            id,
            heard: 0,
        });
        // Let the start broadcast land, then kill node 0 before its timer.
        sim.run_until(50);
        sim.fail_node(NodeId(0));
        sim.run_to_quiescence(10_000);
        // Node 1 heard exactly the first broadcast, not the timer rebroadcast.
        assert_eq!(sim.node(NodeId(1)).heard, 1);
    }

    #[test]
    fn invoke_on_failed_node_is_noop() {
        let mut sim = Simulator::new(Topology::grid(2, 1), SimConfig::default(), |id, _| Echo {
            id,
            heard: 0,
        });
        sim.fail_node(NodeId(0));
        sim.invoke(NodeId(0), |app, ctx| {
            app.heard = 99;
            ctx.broadcast(Beep);
        });
        assert_eq!(sim.node(NodeId(0)).heard, 0);
    }
}

#[cfg(test)]
mod fault_plane_tests {
    use super::*;
    use crate::faults::FaultSchedule;
    use crate::trace::{DropReason, SharedJournal};

    /// Periodic chatter: every node re-broadcasts on a timer until
    /// `active_until`, so there is continuous traffic for faults to hit
    /// and guaranteed quiescence afterwards.
    struct Chatter {
        heard: u32,
        boots: u32,
        period: SimTime,
        active_until: SimTime,
    }
    #[derive(Clone)]
    struct Tick;
    impl MsgMeta for Tick {
        fn size_bytes(&self) -> usize {
            4
        }
        fn kind(&self) -> &'static str {
            "ping"
        }
    }
    impl App for Chatter {
        type Msg = Tick;
        fn on_start(&mut self, ctx: &mut Ctx<Tick>) {
            self.boots += 1;
            ctx.broadcast(Tick);
            if ctx.now < self.active_until {
                ctx.set_timer(self.period, 1);
            }
        }
        fn on_message(&mut self, _: &mut Ctx<Tick>, _: NodeId, _: Tick) {
            self.heard += 1;
        }
        fn on_timer(&mut self, ctx: &mut Ctx<Tick>, _: u64) {
            ctx.broadcast(Tick);
            if ctx.now < self.active_until {
                ctx.set_timer(self.period, 1);
            }
        }
    }

    fn chatter_sim(topo: Topology, cfg: SimConfig, active_until: SimTime) -> Simulator<Chatter> {
        Simulator::new(topo, cfg, move |_, _| Chatter {
            heard: 0,
            boots: 0,
            period: 100,
            active_until,
        })
    }

    /// The default config with `faults` scheduled.
    fn faulted(faults: FaultSchedule) -> SimConfig {
        SimConfig {
            faults,
            ..SimConfig::default()
        }
    }

    #[test]
    fn crash_and_restart_loses_state_and_reboots() {
        let faults = (FaultSchedule::new())
            .crash(500, NodeId(1))
            .restart(1_000, NodeId(1));
        let mut sim = chatter_sim(Topology::grid(2, 1), faulted(faults), 2_000);
        sim.run_to_quiescence(100_000);
        assert!(!sim.is_failed(NodeId(1)));
        // The replacement instance rebooted (on_restart defaults to
        // on_start) and heard only post-restart traffic.
        assert_eq!(sim.node(NodeId(1)).boots, 1);
        assert!(sim.node(NodeId(1)).heard > 0, "rejoined after restart");
        assert!(
            (sim.node(NodeId(1)).heard as u64) < sim.metrics.tx_of("ping"),
            "state loss: pre-crash receptions are gone"
        );
        // Drops while dead are booked under the dead-node reason.
        let by = sim.metrics.lost_by_reason();
        assert!(by[DropReason::DeadNode.index()] > 0);
    }

    /// Chatter whose restart keeps the crashed instance's counters.
    struct Keeper(Chatter);
    impl App for Keeper {
        type Msg = Tick;
        fn on_start(&mut self, ctx: &mut Ctx<Tick>) {
            self.0.on_start(ctx);
        }
        fn on_restart(&mut self, ctx: &mut Ctx<Tick>, crashed: Keeper) {
            (self.0.heard, self.0.boots) = (crashed.0.heard, crashed.0.boots);
            self.0.on_start(ctx);
        }
        fn on_message(&mut self, ctx: &mut Ctx<Tick>, from: NodeId, msg: Tick) {
            self.0.on_message(ctx, from, msg);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<Tick>, tag: u64) {
            self.0.on_timer(ctx, tag);
        }
    }

    /// `on_restart` is handed the instance that crashed: an app that takes
    /// its counters from it ends with the receptions of both incarnations
    /// and both boots, where the default restart keeps neither. The
    /// traffic is the same either way.
    #[test]
    fn restart_hands_the_crashed_instance_to_on_restart() {
        let crash = FaultSchedule::new().crash(500, NodeId(1));
        let restart = crash.clone().restart(1_000, NodeId(1));
        let n1 = NodeId(1);
        // A node that crashes for good keeps its pre-crash count.
        let mut dead = chatter_sim(Topology::grid(2, 1), faulted(crash), 2_000);
        dead.run_to_quiescence(100_000);
        let before = dead.node(n1).heard;
        assert!(before > 0);
        let mut lost = chatter_sim(Topology::grid(2, 1), faulted(restart.clone()), 2_000);
        lost.run_to_quiescence(100_000);
        let mut kept = Simulator::new(Topology::grid(2, 1), faulted(restart), |_, _| {
            Keeper(Chatter {
                heard: 0,
                boots: 0,
                period: 100,
                active_until: 2_000,
            })
        });
        kept.run_to_quiescence(100_000);
        assert_eq!(kept.metrics.tx_of("ping"), lost.metrics.tx_of("ping"));
        assert_eq!((lost.node(n1).boots, kept.node(n1).0.boots), (1, 2));
        assert_eq!(kept.node(n1).0.heard, before + lost.node(n1).heard);
    }

    #[test]
    fn restart_revives_a_quiesced_network() {
        // All chatter stops by t=200; the scheduled restart at t=5000 hits
        // an empty queue and must still fire, re-seeding traffic.
        let faults = (FaultSchedule::new())
            .crash(50, NodeId(1))
            .restart(5_000, NodeId(1));
        let mut sim = chatter_sim(Topology::grid(2, 1), faulted(faults), 200);
        sim.run_to_quiescence(100_000);
        assert_eq!(sim.node(NodeId(1)).boots, 1);
        // The revived node's boot broadcast reached node 0 after t=5000.
        assert!(sim.now() >= 5_000, "restart advanced the clock");
        assert!(sim.node(NodeId(0)).heard > 0);
    }

    #[test]
    fn stale_timers_from_previous_incarnation_are_swallowed() {
        struct OneShot {
            fired: Vec<SimTime>,
        }
        #[derive(Clone)]
        struct Nil;
        impl MsgMeta for Nil {
            fn size_bytes(&self) -> usize {
                0
            }
        }
        impl App for OneShot {
            type Msg = Nil;
            fn on_start(&mut self, ctx: &mut Ctx<Nil>) {
                ctx.set_timer(1_000, 7);
            }
            fn on_message(&mut self, _: &mut Ctx<Nil>, _: NodeId, _: Nil) {}
            fn on_timer(&mut self, ctx: &mut Ctx<Nil>, _: u64) {
                self.fired.push(ctx.now);
            }
        }
        // Crash at 500 (before the boot timer lands at 1000), restart at
        // 600. The incarnation-0 timer must be swallowed; only the
        // incarnation-1 timer (armed at 600, fires at 1600) runs.
        let faults = (FaultSchedule::new())
            .crash(500, NodeId(0))
            .restart(600, NodeId(0));
        let mut sim = Simulator::new(Topology::grid(1, 1), faulted(faults), |_, _| OneShot {
            fired: Vec::new(),
        });
        sim.run_to_quiescence(100_000);
        assert_eq!(sim.node(NodeId(0)).fired, vec![1_600]);
    }

    #[test]
    fn link_down_partitions_and_link_up_heals() {
        let faults = (FaultSchedule::new())
            .link_down(1_000, NodeId(0), NodeId(1))
            .link_up(2_000, NodeId(1), NodeId(0));
        let mut sim = chatter_sim(Topology::grid(2, 1), faulted(faults), 4_000);
        let shared = SharedJournal::new(0);
        sim.set_trace(Box::new(shared.clone()));
        sim.run_to_quiescence(100_000);
        let by = sim.metrics.lost_by_reason();
        assert!(
            by[DropReason::Partition.index()] > 0,
            "sends during the partition drop with the partition reason"
        );
        assert_eq!(by[DropReason::Loss.index()], 0, "default loss is 0");
        // Both nodes kept hearing each other after the heal: roughly one
        // reception per period outside the partition window.
        assert!(sim.node(NodeId(0)).heard > 20);
        assert!(sim.node(NodeId(1)).heard > 20);
        let s = shared.take().summary();
        assert_eq!(s.link_faults, 2, "down + up journaled");
        assert_eq!(s.drops_partition, by[DropReason::Partition.index()]);
    }

    #[test]
    fn dup_window_duplicates_and_conserves() {
        // Single broadcast under an always-duplicate window: the neighbor
        // hears it twice and the duplicate books its own tx, keeping the
        // per-kind conservation tx == rx + lost intact.
        let faults = FaultSchedule::new().dup_window(0, 10_000, 1_000_000);
        let mut sim = chatter_sim(Topology::grid(2, 1), faulted(faults), 0);
        sim.run_to_quiescence(100_000);
        assert_eq!(sim.node(NodeId(0)).heard, 2);
        assert_eq!(sim.node(NodeId(1)).heard, 2);
        for (kind, tx, rx, lost) in sim.metrics.kind_balance() {
            assert_eq!(tx, rx + lost, "{kind} conservation broke under dup");
        }
        assert_eq!(sim.metrics.tx_of("ping"), 4);
    }

    #[test]
    fn reorder_window_is_deterministic() {
        let run = |jitter: SimTime| {
            let shared = SharedJournal::new(9);
            let faults = match jitter {
                0 => FaultSchedule::new(),
                _ => FaultSchedule::new().reorder_window(0, 2_000, jitter),
            };
            let cfg = SimConfig {
                seed: 9,
                ..faulted(faults)
            };
            let mut sim = chatter_sim(Topology::square_grid(3), cfg, 1_000);
            sim.set_trace(Box::new(shared.clone()));
            sim.run_to_quiescence(100_000);
            shared.take()
        };
        let a = run(40);
        let b = run(40);
        assert_eq!(a.content_hash(), b.content_hash(), "same script, same run");
        let plain = run(0);
        assert_ne!(
            a.content_hash(),
            plain.content_hash(),
            "reorder jitter must actually perturb the delivery schedule"
        );
    }

    /// A fault strikes at exactly its tick, before any event of that tick:
    /// the crash at 137 is journaled at 137 and node 4 hears nothing until
    /// its restart at 1201, and the link-down at 433 precedes a timer armed
    /// for 433, whose broadcast finds the link already down.
    #[test]
    fn faults_strike_at_their_exact_tick() {
        let schedule = FaultSchedule::new()
            .crash(137, NodeId(4))
            .restart(1_201, NodeId(4))
            .link_down(433, NodeId(0), NodeId(1))
            .link_up(977, NodeId(1), NodeId(0));
        let cfg = SimConfig {
            loss_prob: 0.1,
            seed: 21,
            ..faulted(schedule)
        };
        let shared = SharedJournal::new(cfg.seed);
        let mut sim = chatter_sim(Topology::square_grid(4), cfg, 3_000);
        sim.set_trace(Box::new(shared.clone()));
        sim.run_until(400);
        sim.invoke(NodeId(0), |_, ctx| ctx.set_timer(33, 9));
        sim.run_to_quiescence(100_000);
        let j = shared.take();
        let fail = j
            .records
            .iter()
            .find(|r| r.event == TraceEvent::NodeFail { node: NodeId(4) });
        assert_eq!(fail.map(|r| r.at), Some(137));
        let dead = 137..1_201;
        let while_dead = || j.records.iter().filter(|r| dead.contains(&r.at));
        assert!(
            !while_dead().any(|r| matches!(r.event,
                TraceEvent::Deliver { to, .. } if to == NodeId(4))),
            "node 4 heard a message while down"
        );
        assert!(
            while_dead().any(|r| matches!(r.event,
                TraceEvent::Drop { to, reason: DropReason::DeadNode, .. } if to == NodeId(4))),
            "nothing reached node 4 while it was down"
        );
        let at_433: Vec<_> = j.records.iter().filter(|r| r.at == 433).collect();
        let link_down = TraceEvent::LinkDown {
            a: NodeId(0),
            b: NodeId(1),
        };
        let timer = TraceEvent::Timer {
            node: NodeId(0),
            tag: 9,
        };
        let cut = TraceEvent::Drop {
            from: NodeId(0),
            to: NodeId(1),
            kind: "ping",
            reason: DropReason::Partition,
        };
        assert_eq!(at_433.first().map(|r| &r.event), Some(&link_down));
        assert!(at_433.iter().any(|r| r.event == timer));
        assert!(at_433.iter().any(|r| r.event == cut));
    }
}
