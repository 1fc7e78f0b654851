//! The discrete-event simulator core.
//!
//! Nodes are instances of an [`App`]; they exchange messages over the
//! unit-disk topology with bounded per-hop delays, Bernoulli losses, and
//! per-node clock skew — exactly the environment Theorems 1–3 assume
//! (bounded message delays, bounded clock difference τc). Deterministic for
//! a fixed seed: event ties break on the origin-keyed key
//! `(origin_node << 32) | per-origin counter`, and every random draw on the
//! message path comes from the *sender's* private [`NodeRng`] stream. The
//! schedule is therefore a pure function of `(seed, program)`, independent
//! of which scheduler backend executes it — including the region-sharded
//! conservative-PDES backend (see [`crate::shard`]), whose workers replay
//! disjoint projections of the same global `(at, tie)` order.

use crate::faults::{FaultEvent, FaultKind, FaultSchedule, LinkState};
use crate::metrics::Metrics;
use crate::shard::ShardQueues;
use crate::topology::{NodeId, Topology};
use crate::trace::{DropReason, TraceEvent, TraceRecord, TraceSink};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sensorlog_telemetry::{HistId, Scope, Telemetry, BYTES_BUCKETS, SIM_MS_BUCKETS};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

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
    /// restarted by the fault plane. Defaults to [`App::on_start`];
    /// recovery-aware apps override this to replay durable state.
    fn on_restart(&mut self, ctx: &mut Ctx<Self::Msg>) {
        self.on_start(ctx);
    }

    /// A message arrived from a neighbor.
    fn on_message(&mut self, ctx: &mut Ctx<Self::Msg>, from: NodeId, msg: Self::Msg);

    /// A timer set via [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, _ctx: &mut Ctx<Self::Msg>, _tag: u64) {}
}

/// Event-queue backend. Both variants pop in exactly `(at, tie)` order, so
/// for a fixed seed a run is byte-identical under either — the choice is
/// purely about execution (see DESIGN.md "Scheduler" and
/// `tests/trace_stability.rs`, which pins both backends to one golden hash).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sched {
    /// One binary heap on `(at, tie)` (the default): O(log n) per operation
    /// over the few hundred to few thousand events a deployment holds
    /// pending, and memory that follows the pending count.
    Heap,
    /// Conservative-PDES region sharding: the node space splits into
    /// `workers` contiguous regions, each with its own heap, advanced in
    /// lockstep windows bounded by the minimum hop delay (the lookahead).
    /// Cross-region sends ride per-pair mailboxes flushed at window
    /// barriers. Requires `hop_delay.0 ≥ 1`. See [`crate::shard`].
    Shard { workers: usize },
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
    /// Event-queue backend; observationally pure, defaults to the heap.
    pub sched: Sched,
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
            sched: Sched::Heap,
        }
    }
}

pub(crate) enum Event<M> {
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

impl<M> Event<M> {
    /// The node whose callbacks this event drives (delivery target, timer
    /// owner, starting node) — the shard router's key: an event is always
    /// processed by the region that owns its handler.
    pub(crate) fn handler(&self) -> NodeId {
        match self {
            Event::Start(node) => *node,
            Event::Deliver { to, .. } => *to,
            Event::Timer { node, .. } => *node,
        }
    }
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
/// never by push order, which is why the shard backend's per-region heaps
/// replay the serial schedule. A deployment holds a few hundred to a few
/// thousand events pending at once (`netsim.max_queue_depth`), and the
/// heap's one buffer is as big as the most it ever held.
pub(crate) struct EventHeap<M>(BinaryHeap<Reverse<Queued<M>>>);

impl<M> Default for EventHeap<M> {
    fn default() -> Self {
        EventHeap(BinaryHeap::new())
    }
}

impl<M> EventHeap<M> {
    pub(crate) fn push(&mut self, at: SimTime, tie: u64, event: Event<M>) {
        self.0.push(Reverse(Queued { at, tie, event }));
    }

    pub(crate) fn pop(&mut self) -> Option<(SimTime, u64, Event<M>)> {
        self.0.pop().map(|Reverse(q)| (q.at, q.tie, q.event))
    }

    /// `(at, tie)` of the earliest pending event.
    pub(crate) fn peek(&self) -> Option<(SimTime, u64)> {
        self.0.peek().map(|Reverse(q)| (q.at, q.tie))
    }

    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// Events the heap's buffer has room for without growing.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.0.capacity()
    }
}

/// Per-node deterministic RNG stream: xoroshiro128++ (Blackman & Vigna's
/// public-domain generator), seeded via splitmix64 from `(seed, node)`.
///
/// A node's loss/jitter draws are consumed exclusively while *its* radio
/// transmits, so each stream's consumption order is fixed by that node's
/// local event order alone — the property that lets region workers run
/// concurrently yet byte-match the serial schedule. (The old global
/// `StdRng` made every draw depend on the full interleaving.)
#[derive(Clone, Debug)]
pub(crate) struct NodeRng {
    s0: u64,
    s1: u64,
}

impl NodeRng {
    pub(crate) fn new(seed: u64, node: u32) -> NodeRng {
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
    pub(crate) fn next_u64(&mut self) -> u64 {
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
    pub(crate) fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi]`. Modulo reduction: the bias over a ≤ few-dozen
    /// ms jitter span is ~2⁻⁵⁸ — irrelevant for delay sampling, and cheaper
    /// than rejection on the hottest path in the simulator.
    #[inline]
    pub(crate) fn gen_range(&mut self, lo: SimTime, hi: SimTime) -> SimTime {
        debug_assert!(hi > lo);
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// Telemetry histograms one node's sends record into, each resolved by key
/// the first time that node records into it and by id from then on — so the
/// set of histograms a run creates is what keyed `observe` calls would have
/// created.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct SendHists {
    /// `Scope::Node(n)` / `"tx_bytes"`.
    tx_bytes: Option<HistId>,
    /// `Scope::Global` / `"hop_delay_ms"` (cached per node so region
    /// workers share nothing mutable).
    hop_delay: Option<HistId>,
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
    /// Shard only: lockstep windows executed and cross-region messages
    /// carried through window-barrier mailboxes.
    pub shard_windows: u64,
    pub shard_cross_msgs: u64,
    /// Shard only: events handled on the sub-threshold serial path.
    pub shard_serial_events: u64,
    /// Shard only: summed per-region busy time vs. summed per-window
    /// critical path (the max busy region per window), nanoseconds. Their
    /// ratio is the model speedup an ideally parallel host would reach.
    pub shard_work_ns: u64,
    pub shard_crit_ns: u64,
    /// Shard only: number of regions (≤ configured workers).
    pub shard_regions: u64,
}

/// The scheduler's queue: one heap, or one per region. Both pop strictly in
/// `(at, tie)` order; see [`Sched`].
pub(crate) enum EventQueue<M> {
    Heap(EventHeap<M>),
    Shard(ShardQueues<M>),
}

impl<M> EventQueue<M> {
    fn new(sched: Sched, n_nodes: usize) -> EventQueue<M> {
        match sched {
            Sched::Heap => EventQueue::Heap(EventHeap::default()),
            Sched::Shard { workers } => EventQueue::Shard(ShardQueues::new(n_nodes, workers)),
        }
    }

    pub(crate) fn push(&mut self, at: SimTime, tie: u64, event: Event<M>) {
        match self {
            EventQueue::Heap(h) => h.push(at, tie, event),
            EventQueue::Shard(s) => s.push(at, tie, event),
        }
    }

    pub(crate) fn pop(&mut self) -> Option<(SimTime, u64, Event<M>)> {
        match self {
            EventQueue::Heap(h) => h.pop(),
            EventQueue::Shard(s) => s.pop(),
        }
    }

    /// Timestamp of the next event.
    pub(crate) fn next_at(&self) -> Option<SimTime> {
        match self {
            EventQueue::Heap(h) => h.peek().map(|(at, _)| at),
            EventQueue::Shard(s) => s.next_at(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            EventQueue::Heap(h) => h.len(),
            EventQueue::Shard(s) => s.len(),
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events the queue's buffers hold room for, summed over regions.
    #[cfg(test)]
    fn capacity(&self) -> usize {
        match self {
            EventQueue::Heap(h) => h.capacity(),
            EventQueue::Shard(s) => s.heaps.iter().map(EventHeap::capacity).sum(),
        }
    }
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

/// The send / timer buffers a [`Ctx`] fills, kept between callbacks so a
/// callback's first `send` does not allocate: [`Lane::invoke`] lends them
/// to the `Ctx` and takes them back drained.
pub(crate) struct Scratch<M> {
    sends: Vec<(NodeId, M)>,
    timers: Vec<(SimTime, u64)>,
}

impl<M> Default for Scratch<M> {
    fn default() -> Self {
        Scratch {
            sends: Vec::new(),
            timers: Vec::new(),
        }
    }
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

/// Where a [`Lane`]'s outputs land: the serial main loop ([`MainSink`]) or
/// a region worker's scratch (`shard::RegionSink`). Statically dispatched;
/// both paths execute the *identical* `Lane` code, so serial/sharded
/// behavioral divergence is impossible by construction.
pub(crate) trait LaneSink<M> {
    /// Enqueue `event` keyed `(at, tie)`.
    fn push(&mut self, at: SimTime, tie: u64, event: Event<M>);
    /// Journal a record at time `now` (construction deferred; a sink with
    /// no journal attached pays one branch).
    fn emit(&mut self, now: SimTime, event: impl FnOnce() -> TraceEvent)
    where
        Self: Sized;
    fn record_tx(&mut self, node: NodeId, bytes: usize, kind: &'static str);
    fn record_rx(&mut self, node: NodeId, bytes: usize, kind: &'static str);
    fn record_loss(&mut self, kind: &'static str, reason: DropReason);
}

/// The event-processing core shared by the serial loop and region workers:
/// a window onto the per-node state (`apps`/`rngs`/`counters` slices cover
/// nodes `base..base + len`), plus the shared read-only environment.
/// Everything an event does — callbacks, RNG draws, tie assignment, ARQ —
/// happens here, parameterized only by where outputs go.
pub(crate) struct Lane<'a, A: App> {
    pub(crate) topo: &'a Topology,
    pub(crate) config: &'a SimConfig,
    pub(crate) telemetry: &'a Telemetry,
    pub(crate) skew: &'a [SimTime],
    pub(crate) failed: &'a [bool],
    /// Per-node boot epochs (bumped on restart); stamps timers.
    pub(crate) epochs: &'a [u32],
    /// Link-level fault condition (partitions, loss overrides, dup /
    /// reorder windows). Mutated only at drain / window boundaries.
    pub(crate) links: &'a LinkState,
    pub(crate) apps: &'a mut [A],
    pub(crate) rngs: &'a mut [NodeRng],
    pub(crate) counters: &'a mut [u32],
    pub(crate) send_hists: &'a mut [SendHists],
    /// First node id covered by the mutable slices above.
    pub(crate) base: u32,
    pub(crate) events_processed: &'a mut u64,
    pub(crate) scratch: &'a mut Scratch<A::Msg>,
}

impl<'a, A: App> Lane<'a, A> {
    #[inline]
    fn idx(&self, node: NodeId) -> usize {
        debug_assert!(node.0 >= self.base, "node outside this lane's region");
        (node.0 - self.base) as usize
    }

    /// Mint the next `(origin << 32) | counter` tie for a push by `origin`.
    #[inline]
    fn next_tie(&mut self, origin: NodeId) -> u64 {
        let i = self.idx(origin);
        let c = self.counters[i];
        self.counters[i] = c.checked_add(1).expect("per-origin tie counter overflow");
        ((origin.0 as u64) << 32) | c as u64
    }

    /// Run `f` on `node` at time `now`, then apply the sends/timers it
    /// buffered. No-op on failed nodes.
    pub(crate) fn invoke<S: LaneSink<A::Msg>>(
        &mut self,
        sink: &mut S,
        now: SimTime,
        node: NodeId,
        f: impl FnOnce(&mut A, &mut Ctx<A::Msg>),
    ) {
        if self.failed[node.index()] {
            return; // dead nodes do nothing
        }
        let mut ctx = Ctx {
            node,
            now,
            local_time: now + self.skew[node.index()],
            topo: self.topo,
            sends: std::mem::take(&mut self.scratch.sends),
            timers: std::mem::take(&mut self.scratch.timers),
        };
        let i = self.idx(node);
        f(&mut self.apps[i], &mut ctx);
        let (mut sends, mut timers) = (ctx.sends, ctx.timers);
        self.apply_outputs(sink, now, node, &mut sends, &mut timers);
        (self.scratch.sends, self.scratch.timers) = (sends, timers);
    }

    fn apply_outputs<S: LaneSink<A::Msg>>(
        &mut self,
        sink: &mut S,
        now: SimTime,
        from: NodeId,
        sends: &mut Vec<(NodeId, A::Msg)>,
        timers: &mut Vec<(SimTime, u64)>,
    ) {
        let _route_span = self.telemetry.span("sim.route");
        let mut dups: Vec<(NodeId, SimTime, u32, A::Msg)> = Vec::new();
        for (to, msg) in sends.drain(..) {
            let bytes = msg.size_bytes();
            let queued_bytes = u32::try_from(bytes).unwrap_or(u32::MAX);
            let kind = msg.kind();
            let from_i = self.idx(from);
            self.telemetry.observe_cached(
                &mut self.send_hists[from_i].tx_bytes,
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
                self.links.loss_override(from, to).unwrap_or_else(|| {
                    self.config
                        .link_loss
                        .get(&(from, to))
                        .copied()
                        .unwrap_or(self.config.loss_prob)
                })
            };
            let attempt_reason = if down {
                DropReason::Partition
            } else {
                DropReason::Loss
            };
            // Link-layer ARQ: attempt until delivered or retries exhausted;
            // every attempt is a transmission, failed attempts are losses.
            // Retransmission backoff is exponential: 5, 10, 20, … ms.
            let mut delivered = false;
            let mut extra_delay: SimTime = 0;
            for attempt in 0..=self.config.retries {
                sink.record_tx(from, bytes, kind);
                sink.emit(now, || TraceEvent::Send {
                    from,
                    to,
                    kind,
                    bytes,
                    attempt,
                });
                if p > 0.0 && self.rngs[from_i].gen_f64() < p {
                    sink.record_loss(kind, attempt_reason);
                    extra_delay += 5u64 << attempt.min(5);
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
                sink.emit(now, || TraceEvent::Drop {
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
                &mut self.send_hists[from_i].hop_delay,
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
                    sink.record_tx(from, bytes, kind);
                    sink.emit(now, || TraceEvent::Send {
                        from,
                        to,
                        kind,
                        bytes,
                        attempt: 0,
                    });
                    dups.push((to, now + ddelay + extra_delay, queued_bytes, msg.clone()));
                }
            }
            // Ties are minted in send order, so two sends that land on one
            // link at one tick pop in the order they were sent.
            let tie = self.next_tie(from);
            sink.push(
                at,
                tie,
                Event::Deliver {
                    to,
                    from,
                    bytes: queued_bytes,
                    msg,
                },
            );
        }
        for (to, at, bytes, msg) in dups {
            let tie = self.next_tie(from);
            sink.push(
                at,
                tie,
                Event::Deliver {
                    to,
                    from,
                    bytes,
                    msg,
                },
            );
        }
        let epoch = self.epochs[from.index()];
        for (delay, tag) in timers.drain(..) {
            let tie = self.next_tie(from);
            sink.push(
                now + delay,
                tie,
                Event::Timer {
                    node: from,
                    tag,
                    epoch,
                },
            );
        }
    }

    /// Process one popped event at time `now` — the dispatch shared
    /// verbatim by [`Simulator::step`] and the shard workers.
    pub(crate) fn dispatch<S: LaneSink<A::Msg>>(
        &mut self,
        sink: &mut S,
        now: SimTime,
        event: Event<A::Msg>,
    ) {
        match event {
            Event::Start(node) => {
                *self.events_processed += 1;
                if !self.failed[node.index()] {
                    sink.emit(now, || TraceEvent::Start { node });
                }
                self.invoke(sink, now, node, |app, ctx| app.on_start(ctx));
            }
            Event::Deliver {
                to,
                from,
                bytes,
                msg,
            } => {
                *self.events_processed += 1;
                let kind = msg.kind();
                if self.failed[to.index()] {
                    sink.record_loss(kind, DropReason::DeadNode);
                    sink.emit(now, || TraceEvent::Drop {
                        from,
                        to,
                        kind,
                        reason: DropReason::DeadNode,
                    });
                } else {
                    let _span = self.telemetry.span("sim.deliver");
                    let bytes = bytes as usize;
                    sink.record_rx(to, bytes, kind);
                    sink.emit(now, || TraceEvent::Deliver {
                        from,
                        to,
                        kind,
                        bytes,
                    });
                    self.invoke(sink, now, to, |app, ctx| app.on_message(ctx, from, msg));
                }
            }
            Event::Timer { node, tag, epoch } => {
                *self.events_processed += 1;
                if self.epochs[node.index()] != epoch {
                    return; // armed by a previous incarnation: swallow
                }
                let _span = self.telemetry.span("sim.timer");
                if !self.failed[node.index()] {
                    sink.emit(now, || TraceEvent::Timer { node, tag });
                }
                self.invoke(sink, now, node, |app, ctx| app.on_timer(ctx, tag));
            }
        }
    }
}

/// The serial sink: outputs go straight to the global queue, journal, and
/// metrics registry.
pub(crate) struct MainSink<'a, M> {
    queue: &'a mut EventQueue<M>,
    trace: &'a mut Option<Box<dyn TraceSink>>,
    trace_seq: &'a mut u64,
    metrics: &'a mut Metrics,
    max_queue_depth: &'a mut usize,
    pushes: &'a mut u64,
}

impl<M> LaneSink<M> for MainSink<'_, M> {
    fn push(&mut self, at: SimTime, tie: u64, event: Event<M>) {
        self.queue.push(at, tie, event);
        *self.pushes += 1;
        *self.max_queue_depth = (*self.max_queue_depth).max(self.queue.len());
    }

    fn emit(&mut self, now: SimTime, event: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = self.trace.as_mut() {
            sink.record(TraceRecord {
                seq: *self.trace_seq,
                at: now,
                event: event(),
            });
            *self.trace_seq += 1;
        }
    }

    fn record_tx(&mut self, node: NodeId, bytes: usize, kind: &'static str) {
        self.metrics.record_tx(node, bytes, kind);
    }

    fn record_rx(&mut self, node: NodeId, bytes: usize, kind: &'static str) {
        self.metrics.record_rx(node, bytes, kind);
    }

    fn record_loss(&mut self, kind: &'static str, reason: DropReason) {
        self.metrics.record_loss(kind, reason);
    }
}

/// Node-application factory: builds an app at boot and on restart.
type MakeApp<A> = Box<dyn FnMut(NodeId, &Topology) -> A + Send>;

/// The simulator: topology + per-node apps + event queue + metrics.
pub struct Simulator<A: App> {
    pub(crate) topo: Topology,
    pub(crate) apps: Vec<A>,
    pub(crate) queue: EventQueue<A::Msg>,
    pub(crate) now: SimTime,
    /// Per-origin tie counters (`tie = origin << 32 | counter`).
    pub(crate) counters: Vec<u32>,
    pub(crate) pushes: u64,
    /// Callback output buffers of the serial lane (see [`Scratch`]).
    pub(crate) scratch: Scratch<A::Msg>,
    pub(crate) skew: Vec<SimTime>,
    /// Crashed nodes: deliver nothing, fire no timers, send nothing.
    pub(crate) failed: Vec<bool>,
    /// Per-node boot epoch: bumped on restart so stale timers from a
    /// previous incarnation are swallowed instead of firing.
    pub(crate) epochs: Vec<u32>,
    /// Link-level fault condition driven by the fault schedule.
    pub(crate) links: LinkState,
    /// Pending fault schedule (sorted) and application cursor.
    pub(crate) faults: Vec<FaultEvent>,
    pub(crate) fault_cursor: usize,
    /// Rebuilds a node's application on restart (full volatile state
    /// loss); also used during construction.
    make_app: MakeApp<A>,
    /// Per-node RNG streams for the message path (loss + jitter draws).
    pub(crate) rngs: Vec<NodeRng>,
    pub config: SimConfig,
    pub metrics: Metrics,
    pub(crate) events_processed: u64,
    /// Optional event journal (see [`crate::trace`]). `None` costs one
    /// branch per event and never constructs a record.
    pub(crate) trace: Option<Box<dyn TraceSink>>,
    pub(crate) trace_seq: u64,
    pub(crate) max_queue_depth: usize,
    /// Optional telemetry handle (spans + histograms). Disabled costs one
    /// branch per use, same contract as `trace`. Telemetry is an observer:
    /// it never touches the RNGs or the event queue, so enabling it cannot
    /// change a run's journal.
    pub(crate) telemetry: Telemetry,
    /// Per-node histogram ids in `telemetry`'s registry.
    pub(crate) send_hists: Vec<SendHists>,
    /// Shard backend: use worker threads for lockstep windows (default).
    /// Off = the same windows run inline on the calling thread.
    pub(crate) shard_threads: bool,
    /// Shard backend: below this many pending events, fall back to serial
    /// single-event stepping (identical global order, no barrier costs).
    pub(crate) shard_threshold: usize,
}

impl<A: App> Simulator<A> {
    /// Build a simulator; `make_app` constructs each node's application.
    /// Start events for every node are queued at t = 0.
    pub fn new(
        topo: Topology,
        config: SimConfig,
        make_app: impl FnMut(NodeId, &Topology) -> A + Send + 'static,
    ) -> Simulator<A> {
        let mut make_app: MakeApp<A> = Box::new(make_app);
        if let Sched::Shard { workers } = config.sched {
            assert!(workers >= 1, "Sched::Shard requires at least one worker");
            assert!(
                config.hop_delay.0 >= 1,
                "Sched::Shard requires hop_delay.0 ≥ 1: the minimum hop \
                 delay is the conservative-PDES lookahead bound"
            );
        }
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
        let metrics = Metrics::new(topo.len());
        let failed = vec![false; apps.len()];
        let epochs = vec![0u32; apps.len()];
        let counters = vec![0u32; apps.len()];
        let send_hists = vec![SendHists::default(); apps.len()];
        let queue = EventQueue::new(config.sched, topo.len());
        let mut sim = Simulator {
            topo,
            apps,
            queue,
            now: 0,
            counters,
            pushes: 0,
            scratch: Scratch::default(),
            skew,
            failed,
            epochs,
            links: LinkState::default(),
            faults: Vec::new(),
            fault_cursor: 0,
            make_app,
            rngs,
            config,
            metrics,
            events_processed: 0,
            trace: None,
            trace_seq: 0,
            max_queue_depth: 0,
            telemetry: Telemetry::disabled(),
            send_hists,
            shard_threads: true,
            shard_threshold: crate::shard::PAR_THRESHOLD,
        };
        for id in sim.topo.nodes() {
            sim.push_from(id, 0, Event::Start(id));
        }
        sim
    }

    /// Direct push used during construction; all event-path pushes go
    /// through a [`LaneSink`].
    fn push_from(&mut self, origin: NodeId, at: SimTime, event: Event<A::Msg>) {
        let c = self.counters[origin.index()];
        self.counters[origin.index()] = c + 1;
        let tie = ((origin.0 as u64) << 32) | c as u64;
        self.queue.push(at, tie, event);
        self.pushes += 1;
        self.max_queue_depth = self.max_queue_depth.max(self.queue.len());
    }

    /// Split borrow: the shared processing core plus the serial sink. Both
    /// views borrow disjoint fields, so they coexist for one dispatch.
    pub(crate) fn lane_parts(&mut self) -> (Lane<'_, A>, MainSink<'_, A::Msg>) {
        (
            Lane {
                topo: &self.topo,
                config: &self.config,
                telemetry: &self.telemetry,
                skew: &self.skew,
                failed: &self.failed,
                epochs: &self.epochs,
                links: &self.links,
                apps: &mut self.apps,
                rngs: &mut self.rngs,
                counters: &mut self.counters,
                send_hists: &mut self.send_hists,
                base: 0,
                events_processed: &mut self.events_processed,
                scratch: &mut self.scratch,
            },
            MainSink {
                queue: &mut self.queue,
                trace: &mut self.trace,
                trace_seq: &mut self.trace_seq,
                metrics: &mut self.metrics,
                max_queue_depth: &mut self.max_queue_depth,
                pushes: &mut self.pushes,
            },
        )
    }

    /// Attach a trace sink (e.g. [`crate::trace::SharedJournal`]); every
    /// subsequent event is journaled. Pass-by-`Box` so callers keep a
    /// shared handle if they need the data back afterwards.
    pub fn set_trace(&mut self, sink: Box<dyn TraceSink>) {
        self.trace = Some(sink);
    }

    /// Detach the current trace sink, if any.
    pub fn clear_trace(&mut self) -> Option<Box<dyn TraceSink>> {
        self.trace.take()
    }

    /// Attach a telemetry handle; the caller keeps a clone to read results
    /// back. Spans cover routing, delivery, and timer dispatch; histograms
    /// cover per-node message sizes and hop delays.
    pub fn set_telemetry(&mut self, tele: Telemetry) {
        self.telemetry = tele;
        self.send_hists.fill(SendHists::default());
    }

    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Shard backend: toggle worker threads for lockstep windows (default
    /// on). Off runs the identical windows inline on the calling thread —
    /// the `shard` bench uses this to measure the window critical path
    /// without host-core noise. No effect on results (the schedule is
    /// byte-identical either way), and none at all under `Sched::Heap`.
    pub fn set_shard_threading(&mut self, on: bool) {
        self.shard_threads = on;
    }

    /// Shard backend: set the pending-event count below which the scheduler
    /// pops the least region head serially instead of opening a window
    /// (test/bench knob; no effect under `Sched::Heap`).
    pub fn set_shard_threshold(&mut self, min_pending: usize) {
        self.shard_threshold = min_pending;
    }

    /// Journal an event outside the lane path (failure injection).
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
        let mut s = SchedStats {
            pushes: self.pushes,
            ..SchedStats::default()
        };
        if let EventQueue::Shard(sq) = &self.queue {
            sq.fill_stats(&mut s);
        }
        s
    }

    pub fn now(&self) -> SimTime {
        self.now
    }

    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    pub fn local_time(&self, node: NodeId) -> SimTime {
        self.now + self.skew[node.index()]
    }

    pub fn node(&self, id: NodeId) -> &A {
        &self.apps[id.index()]
    }

    pub fn node_mut(&mut self, id: NodeId) -> &mut A {
        &mut self.apps[id.index()]
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

    /// Restart a crashed node: a fresh application instance (volatile
    /// state lost), a bumped boot epoch (stale timers swallowed), and an
    /// immediate [`App::on_restart`] callback. RNG streams, tie counters,
    /// and clock skew persist across incarnations — determinism depends
    /// on it. No-op on live nodes.
    pub fn restart_node(&mut self, id: NodeId) {
        if !self.failed[id.index()] {
            return;
        }
        self.failed[id.index()] = false;
        self.epochs[id.index()] += 1;
        self.apps[id.index()] = (self.make_app)(id, &self.topo);
        self.emit(|| TraceEvent::NodeRestart { node: id });
        let now = self.now;
        let (mut lane, mut sink) = self.lane_parts();
        lane.invoke(&mut sink, now, id, |app, ctx| app.on_restart(ctx));
    }

    pub fn is_failed(&self, id: NodeId) -> bool {
        self.failed[id.index()]
    }

    /// Attach a fault schedule. Faults are applied at their exact tick,
    /// interleaved with event processing under every backend: a fault at
    /// time `t` strikes before any event scheduled at `t` runs.
    pub fn set_fault_schedule(&mut self, schedule: FaultSchedule) {
        self.faults = schedule.sorted().events().to_vec();
        self.fault_cursor = 0;
    }

    /// True when a fault schedule was attached or a node was ever failed
    /// manually — the "fault plane active" flag checks key off.
    pub fn faults_injected(&self) -> bool {
        !self.faults.is_empty() || self.failed.iter().any(|&f| f)
    }

    /// Faults not yet applied (scheduled beyond the time drained so far).
    pub fn pending_faults(&self) -> usize {
        self.faults.len() - self.fault_cursor
    }

    /// Current link-level fault condition (read-only).
    pub fn link_state(&self) -> &LinkState {
        &self.links
    }

    /// Time of the next unapplied fault at or before `limit`.
    pub(crate) fn next_fault_at(&self, limit: SimTime) -> Option<SimTime> {
        self.faults
            .get(self.fault_cursor)
            .map(|f| f.at)
            .filter(|&t| t <= limit)
    }

    /// Apply every fault scheduled at exactly `t`, advancing `now` to `t`.
    pub(crate) fn apply_faults_at(&mut self, t: SimTime) {
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
            FaultKind::SetLinkLoss(a, b, ppm) => {
                self.links.set_loss(a, b, ppm);
                self.emit(|| TraceEvent::LinkLoss { a, b, ppm });
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
    pub fn invoke(&mut self, node: NodeId, f: impl FnOnce(&mut A, &mut Ctx<A::Msg>)) {
        let now = self.now;
        let (mut lane, mut sink) = self.lane_parts();
        lane.invoke(&mut sink, now, node, f);
    }

    /// Process one queue event; false when the queue is empty.
    pub fn step(&mut self) -> bool {
        let (at, _tie, event) = match self.queue.pop() {
            Some(e) => e,
            None => return false,
        };
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        let now = self.now;
        let (mut lane, mut sink) = self.lane_parts();
        lane.dispatch(&mut sink, now, event);
        true
    }

    /// True when no events remain.
    pub fn is_quiescent(&self) -> bool {
        self.queue.is_empty()
    }
}

/// The run loop. `Send` bounds let the sharded backend fan windows out to
/// scoped worker threads; the serial heap ignores them. (Apps are plain
/// state machines — all workspace apps are `Send`.)
impl<A: App + Send> Simulator<A>
where
    A::Msg: Send,
{
    /// Step through every event scheduled at or before `limit`. The single
    /// head-draining loop shared by [`Self::run_to_quiescence`] and
    /// [`Self::run_until`]; a no-op on an empty queue.
    fn drain_ready(&mut self, limit: SimTime) {
        if matches!(self.queue, EventQueue::Shard(_)) {
            self.drain_sharded(limit);
            return;
        }
        // Interleave scheduled faults with event processing: a fault at
        // time t strikes before any event at t (so a crash at an event's
        // exact tick kills that event's handler), and pending faults are
        // applied even when the queue is empty (a restart can revive a
        // quiesced network).
        loop {
            let next_fault = self.next_fault_at(limit);
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

    /// The per-message path holds pre-resolved metric ids: however many
    /// messages a run delivers, `sim.metrics` walks its registry's key map
    /// the same number of times (4 per node in `Metrics::new`, one per
    /// kind for its first tx and first rx). A keyed `bump` in `record_tx` /
    /// `record_rx` would add two walks per delivery.
    #[test]
    fn keyed_registry_walks_do_not_grow_with_traffic() {
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
        let run = |per_node: usize| {
            let mut sim = Simulator::new(Topology::square_grid(6), SimConfig::default(), {
                move |_, _| Chatty { per_node }
            });
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
        assert_eq!(light_walks, 4 * 36 + 2);
        assert_eq!(heavy_walks, light_walks);
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
    fn popped_tag(q: &mut EventQueue<()>) -> Option<(SimTime, u64)> {
        match q.pop()? {
            (at, _, Event::Timer { tag, .. }) => Some((at, tag)),
            _ => unreachable!("only timers are queued"),
        }
    }

    fn push_tagged(q: &mut EventQueue<()>, at: SimTime, tie: u64, tag: u64) {
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
        let mut q = EventQueue::new(Sched::Heap, 1);
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
        let mut q = EventQueue::new(Sched::Heap, 1);
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
        for sched in [Sched::Heap, Sched::Shard { workers: 1 }] {
            let cfg = SimConfig {
                sched,
                ..SimConfig::default()
            };
            let mut sim = Simulator::new(Topology::grid(1, 1), cfg, |_, _| Bursts);
            sim.run_to_quiescence(2 * TICKS);
            assert_eq!(sim.events_processed(), 1 + BURST * TICKS, "{sched:?}");
            let peak = sim.max_queue_depth();
            assert!(peak < 2 * BURST as usize, "{sched:?}: peak {peak}");
            let retained = sim.queue.capacity();
            assert!(
                retained <= 4 * peak,
                "{sched:?}: room for {retained} events kept after a peak of {peak}"
            );
        }
    }

    #[test]
    fn shard_journal_matches_serial_oracle() {
        // The sharded backend's merged journal must be byte-identical to the
        // serial heap's for any worker count, with windows forced on
        // (threshold 0) and under both inline and threaded execution.
        let oracle = journaled_flood(lossy_cfg());
        for threads in [false, true] {
            for workers in [1usize, 2, 3, 4, 16, 64] {
                let cfg = SimConfig {
                    sched: Sched::Shard { workers },
                    ..lossy_cfg()
                };
                let shared = crate::trace::SharedJournal::new(cfg.seed);
                let mut sim = flood_sim(cfg);
                sim.set_shard_threading(threads);
                sim.set_shard_threshold(0); // force lockstep windows
                sim.set_trace(Box::new(shared.clone()));
                sim.run_to_quiescence(100_000);
                let j = shared.take();
                assert_eq!(
                    oracle.first_divergence(&j),
                    None,
                    "workers={workers} threads={threads} diverged: {:?} vs {:?}",
                    oracle.first_divergence(&j).map(|i| &oracle.records[i]),
                    oracle.first_divergence(&j).and_then(|i| j.records.get(i)),
                );
                assert_eq!(oracle.content_hash(), j.content_hash());
                let stats = sim.sched_stats();
                if workers > 1 {
                    assert!(stats.shard_windows > 0, "windows never opened");
                    assert!(stats.shard_regions > 1);
                }
            }
        }
        // Default threshold on a 16-node flood: the queue never reaches it,
        // so this exercises the pure serial-fallback path.
        let fallback = journaled_flood(SimConfig {
            sched: Sched::Shard { workers: 2 },
            ..lossy_cfg()
        });
        assert_eq!(oracle.content_hash(), fallback.content_hash());
    }

    #[test]
    fn shard_backend_agrees_on_outcomes_and_metrics() {
        let mut a = flood_sim(lossy_cfg());
        a.fail_node(NodeId(9));
        a.run_to_quiescence(100_000);
        let mut b = flood_sim(SimConfig {
            sched: Sched::Shard { workers: 4 },
            ..lossy_cfg()
        });
        b.fail_node(NodeId(9));
        b.set_shard_threshold(0);
        b.run_to_quiescence(100_000);
        assert_eq!(a.metrics.total_tx(), b.metrics.total_tx());
        assert_eq!(a.metrics.total_rx(), b.metrics.total_rx());
        assert_eq!(a.metrics.kind_balance(), b.metrics.kind_balance());
        assert_eq!(a.events_processed(), b.events_processed());
        assert_eq!(a.now(), b.now());
        assert_eq!(a.sched_stats().pushes, b.sched_stats().pushes);
        let ta: Vec<_> = a.nodes().map(|n| n.received_at).collect();
        let tb: Vec<_> = b.nodes().map(|n| n.received_at).collect();
        assert_eq!(ta, tb);
        // The heaviest per-node loads agree too (accumulated via the
        // window-barrier scratch flush rather than per-call recording).
        assert_eq!(a.metrics.max_node_load(), b.metrics.max_node_load());
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
    /// origin: they pop in send order under every backend.
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
        let run = |sched: Sched| {
            let cfg = SimConfig {
                hop_delay: (10, 10), // zero jitter: both sends arrive together
                sched,
                ..SimConfig::default()
            };
            let shared = crate::trace::SharedJournal::new(cfg.seed);
            let mut sim = Simulator::new(Topology::grid(2, 1), cfg, |id, _| DoubleSend {
                id,
                heard: Vec::new(),
            });
            sim.set_shard_threshold(0); // force lockstep windows
            sim.set_trace(Box::new(shared.clone()));
            sim.run_to_quiescence(1_000);
            assert_eq!(sim.node(NodeId(1)).heard, [1, 2], "{sched:?}");
            let stats = sim.sched_stats();
            assert_eq!(stats.pushes, 2 + 2, "two starts, one push per send");
            assert_eq!(stats.batched_msgs, 0);
            assert_eq!(sim.events_processed(), 2 + 2);
            shared.take()
        };
        let heap = run(Sched::Heap);
        assert_eq!(heap.summary().sends, 2);
        let shard = run(Sched::Shard { workers: 2 });
        assert_eq!(heap.to_text(), shard.to_text());
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

    #[test]
    fn crash_and_restart_loses_state_and_reboots() {
        let mut sim = chatter_sim(Topology::grid(2, 1), SimConfig::default(), 2_000);
        sim.set_fault_schedule(
            FaultSchedule::new()
                .crash(500, NodeId(1))
                .restart(1_000, NodeId(1)),
        );
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

    #[test]
    fn restart_revives_a_quiesced_network() {
        // All chatter stops by t=200; the scheduled restart at t=5000 hits
        // an empty queue and must still fire, re-seeding traffic.
        let mut sim = chatter_sim(Topology::grid(2, 1), SimConfig::default(), 200);
        sim.set_fault_schedule(
            FaultSchedule::new()
                .crash(50, NodeId(1))
                .restart(5_000, NodeId(1)),
        );
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
        let mut sim = Simulator::new(Topology::grid(1, 1), SimConfig::default(), |_, _| OneShot {
            fired: Vec::new(),
        });
        // Crash at 500 (before the boot timer lands at 1000), restart at
        // 600. The incarnation-0 timer must be swallowed; only the
        // incarnation-1 timer (armed at 600, fires at 1600) runs.
        sim.set_fault_schedule(
            FaultSchedule::new()
                .crash(500, NodeId(0))
                .restart(600, NodeId(0)),
        );
        sim.run_to_quiescence(100_000);
        assert_eq!(sim.node(NodeId(0)).fired, vec![1_600]);
    }

    #[test]
    fn link_down_partitions_and_link_up_heals() {
        let mut sim = chatter_sim(Topology::grid(2, 1), SimConfig::default(), 4_000);
        sim.set_fault_schedule(
            FaultSchedule::new()
                .link_down(1_000, NodeId(0), NodeId(1))
                .link_up(2_000, NodeId(1), NodeId(0)),
        );
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
        let mut sim = chatter_sim(Topology::grid(2, 1), SimConfig::default(), 0);
        sim.set_fault_schedule(FaultSchedule::new().dup_window(0, 10_000, 1_000_000));
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
            let mut sim = chatter_sim(
                Topology::square_grid(3),
                SimConfig {
                    seed: 9,
                    ..SimConfig::default()
                },
                1_000,
            );
            if jitter > 0 {
                sim.set_fault_schedule(FaultSchedule::new().reorder_window(0, 2_000, jitter));
            }
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

    /// Satellite regression: a crash scheduled at an arbitrary mid-window
    /// tick takes effect at exactly that tick under `Sched::Shard` — the
    /// lockstep window is clamped at the fault, so shard journals stay
    /// byte-identical to the serial heap's.
    #[test]
    fn shard_matches_heap_under_exact_tick_crash_schedule() {
        // 137/1201 are deliberately not multiples of the 30-tick lookahead
        // (hop_delay.0) so an unclamped window would straddle the fault.
        let schedule = FaultSchedule::new()
            .crash(137, NodeId(4))
            .restart(1_201, NodeId(4))
            .link_down(433, NodeId(0), NodeId(1))
            .link_up(977, NodeId(1), NodeId(0));
        let run = |sched: Sched| {
            let cfg = SimConfig {
                sched,
                loss_prob: 0.1,
                seed: 21,
                ..SimConfig::default()
            };
            let shared = SharedJournal::new(cfg.seed);
            let mut sim = chatter_sim(Topology::square_grid(4), cfg, 3_000);
            sim.set_shard_threshold(0); // force lockstep windows
            sim.set_fault_schedule(schedule.clone());
            sim.set_trace(Box::new(shared.clone()));
            sim.run_to_quiescence(100_000);
            shared.take()
        };
        let oracle = run(Sched::Heap);
        for workers in [1usize, 2, 3, 4] {
            let j = run(Sched::Shard { workers });
            assert_eq!(
                oracle.first_divergence(&j),
                None,
                "workers={workers} diverged: {:?} vs {:?}",
                oracle.first_divergence(&j).map(|i| &oracle.records[i]),
                oracle.first_divergence(&j).and_then(|i| j.records.get(i)),
            );
            assert_eq!(oracle.content_hash(), j.content_hash());
        }
        assert!(!oracle.records.is_empty());
    }
}
