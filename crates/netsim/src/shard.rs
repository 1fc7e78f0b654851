//! Region-sharded conservative-PDES scheduler backend.
//!
//! The node space splits into `workers` contiguous regions, each owning a
//! private [`EventHeap`] — the serial backend's queue, one per region. The
//! scheduler alternates two modes:
//!
//! * **Serial fallback** — below [`PAR_THRESHOLD`] pending events the main
//!   loop pops the globally minimal `(at, tie)` head across regions and
//!   steps exactly like the serial heap (no barrier overhead on sparse
//!   phases).
//! * **Lockstep windows** — otherwise every region concurrently drains its
//!   own heap over `[t, t + L)`, where `t` is the global minimum pending
//!   timestamp and the lookahead `L = hop_delay.0` is the *minimum* per-hop
//!   delay. Any message generated inside the window arrives at
//!   `≥ now + L ≥ t + L`, so no region can receive work for the current
//!   window from another region — the classic conservative-PDES safety
//!   argument, here with the radio's bounded delay model as the lookahead
//!   source. Timers always target their own node (same region) and may fire
//!   within the window.
//!
//! Cross-region sends are appended to per-`(src, dst)` mailboxes during the
//! window (a `debug_assert` enforces `at ≥ window end`) and flushed into the
//! destination heaps at the barrier, in region order — deterministic
//! because the heaps key strictly on `(at, tie)` regardless of push order.
//!
//! **Determinism / oracle equivalence.** Ties are origin-keyed
//! (`origin << 32 | counter`), every random draw comes from the sender's
//! private stream, and a region processes its window events in local
//! `(at, tie)` order — which is exactly the serial global order restricted
//! to that region, because concurrent windows contain no cross-region
//! dependencies. Journal records are tagged with the key of the event that
//! produced them and k-way merged by `(at, key)` at each barrier, yielding a
//! byte-identical journal to the serial heap's
//! (`tests/trace_stability.rs` pins both backends to one hash).
//! Telemetry remains observational: workers record into the thread-safe
//! registry, but nothing on the event path reads it.

use crate::faults::LinkState;
use crate::metrics::{kind_reason, Metrics, KIND_LOST, KIND_RX, KIND_SLOTS, KIND_TX};
use crate::sim::{
    App, Event, EventHeap, EventQueue, Lane, LaneSink, NodeRng, SchedStats, Scratch, SendHists,
    SimConfig,
};
use crate::sim::{SimTime, Simulator};
use crate::topology::{NodeId, Topology};
use crate::trace::{DropReason, TraceEvent, TraceRecord};
use sensorlog_telemetry::Telemetry;

/// Pending-event count below which the shard backend steps serially instead
/// of opening a lockstep window (barrier costs dominate tiny windows).
pub(crate) const PAR_THRESHOLD: usize = 256;

/// Contiguous equal-split partition of `n` nodes into `regions` regions
/// (the first `n % regions` regions get one extra node). Contiguity matters:
/// grid topologies number nodes row-major, so contiguous ranges are spatial
/// strips and most radio traffic stays region-local.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Partition {
    n: u32,
    regions: u32,
}

impl Partition {
    fn new(n_nodes: usize, workers: usize) -> Partition {
        let n = n_nodes as u32;
        Partition {
            n,
            regions: (workers.max(1) as u32).min(n.max(1)),
        }
    }

    pub(crate) fn regions(&self) -> usize {
        self.regions as usize
    }

    #[inline]
    pub(crate) fn region_of(&self, node: NodeId) -> usize {
        let q = self.n / self.regions;
        let r = self.n % self.regions;
        let cut = (q + 1) * r;
        if node.0 < cut {
            (node.0 / (q + 1)) as usize
        } else {
            (r + (node.0 - cut) / q) as usize
        }
    }

    /// `(first node, node count)` of `region`.
    pub(crate) fn range(&self, region: usize) -> (u32, u32) {
        let q = self.n / self.regions;
        let r = self.n % self.regions;
        let region = region as u32;
        let start = region.min(r) * (q + 1) + region.saturating_sub(r) * q;
        let len = if region < r { q + 1 } else { q };
        (start, len)
    }
}

/// Per-region metric accumulation: workers count into plain vectors during
/// a window; the main thread merges them into the registry-backed
/// [`Metrics`] after each drain. Node vectors are region-local (indexed from
/// `base`); per-kind rows are a tiny linear-scanned list (simulations use a
/// handful of kinds).
pub(crate) struct LaneMetrics {
    base: u32,
    tx: Vec<u64>,
    txb: Vec<u64>,
    rx: Vec<u64>,
    rxb: Vec<u64>,
    /// Nodes with nonzero deltas since the last flush, in first-touch order.
    touched: Vec<u32>,
    dirty: Vec<bool>,
    /// Per-kind deltas since the last flush, in [`Metrics`]' slot layout.
    kinds: Vec<(&'static str, [u64; KIND_SLOTS])>,
}

impl LaneMetrics {
    fn new(base: u32, len: u32) -> LaneMetrics {
        let len = len as usize;
        LaneMetrics {
            base,
            tx: vec![0; len],
            txb: vec![0; len],
            rx: vec![0; len],
            rxb: vec![0; len],
            touched: Vec::new(),
            dirty: vec![false; len],
            kinds: Vec::new(),
        }
    }

    #[inline]
    fn touch(&mut self, i: usize) {
        if !self.dirty[i] {
            self.dirty[i] = true;
            self.touched.push(i as u32);
        }
    }

    #[inline]
    fn kind_slot(&mut self, kind: &'static str) -> &mut [u64; KIND_SLOTS] {
        if let Some(pos) = self.kinds.iter().position(|(k, _)| *k == kind) {
            return &mut self.kinds[pos].1;
        }
        self.kinds.push((kind, [0; KIND_SLOTS]));
        &mut self.kinds.last_mut().expect("just pushed").1
    }

    fn tx(&mut self, node: NodeId, bytes: usize, kind: &'static str) {
        let i = (node.0 - self.base) as usize;
        self.tx[i] += 1;
        self.txb[i] += bytes as u64;
        self.touch(i);
        self.kind_slot(kind)[KIND_TX] += 1;
    }

    fn rx(&mut self, node: NodeId, bytes: usize, kind: &'static str) {
        let i = (node.0 - self.base) as usize;
        self.rx[i] += 1;
        self.rxb[i] += bytes as u64;
        self.touch(i);
        self.kind_slot(kind)[KIND_RX] += 1;
    }

    fn loss(&mut self, kind: &'static str, reason: DropReason) {
        let slot = self.kind_slot(kind);
        slot[KIND_LOST] += 1;
        slot[kind_reason(reason)] += 1;
    }

    /// Merge accumulated deltas into `m` and reset to empty.
    fn flush_into(&mut self, m: &mut Metrics) {
        for &i in &self.touched {
            let i = i as usize;
            let node = NodeId(self.base + i as u32);
            if self.tx[i] > 0 || self.txb[i] > 0 {
                m.add_node_tx(node, self.tx[i], self.txb[i]);
            }
            if self.rx[i] > 0 || self.rxb[i] > 0 {
                m.add_node_rx(node, self.rx[i], self.rxb[i]);
            }
            self.tx[i] = 0;
            self.txb[i] = 0;
            self.rx[i] = 0;
            self.rxb[i] = 0;
            self.dirty[i] = false;
        }
        self.touched.clear();
        for (kind, counts) in self.kinds.drain(..) {
            m.add_kind(kind, counts);
        }
    }
}

/// A region worker's window-local output buffers.
pub(crate) struct LaneScratch<M> {
    /// Cross-region mailboxes: `out[dst]` holds events bound for region
    /// `dst`, flushed into its heap at the window barrier.
    out: Vec<Vec<(SimTime, u64, Event<M>)>>,
    /// Journal records tagged `(at, key-of-producing-event)`; k-way merged
    /// into the global journal at the barrier. Internally sorted because the
    /// worker processes events in `(at, tie)` order and emission order
    /// within one event is the serial emission order.
    trace: Vec<(SimTime, u64, TraceEvent)>,
    metrics: LaneMetrics,
    /// Callback output buffers of this region's lane.
    ctx: Scratch<M>,
}

/// Shard-specific operation counters (surfaced through
/// [`crate::sim::SchedStats`] as `sched.shard.*` gauges).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ShardStats {
    pub(crate) windows: u64,
    pub(crate) cross_msgs: u64,
    pub(crate) serial_events: u64,
    /// Summed per-region busy time across windows (ns).
    pub(crate) work_ns: u64,
    /// Summed per-window critical path: the max busy region (ns).
    pub(crate) crit_ns: u64,
}

/// The [`Sched::Shard`](crate::sim::Sched) event-queue state: one heap +
/// scratch per region. Pops (used by the serial fallback) select the
/// globally minimal `(at, tie)` head across regions, so the queue is
/// observationally identical to a single heap.
pub(crate) struct ShardQueues<M> {
    pub(crate) part: Partition,
    pub(crate) heaps: Vec<EventHeap<M>>,
    lanes: Vec<LaneScratch<M>>,
    pub(crate) stats: ShardStats,
}

impl<M> ShardQueues<M> {
    pub(crate) fn new(n_nodes: usize, workers: usize) -> ShardQueues<M> {
        let part = Partition::new(n_nodes, workers);
        let regions = part.regions();
        let lanes = (0..regions)
            .map(|r| {
                let (base, len) = part.range(r);
                LaneScratch {
                    out: (0..regions).map(|_| Vec::new()).collect(),
                    trace: Vec::new(),
                    metrics: LaneMetrics::new(base, len),
                    ctx: Scratch::default(),
                }
            })
            .collect();
        ShardQueues {
            part,
            heaps: (0..regions).map(|_| EventHeap::default()).collect(),
            lanes,
            stats: ShardStats::default(),
        }
    }

    pub(crate) fn push(&mut self, at: SimTime, tie: u64, event: Event<M>) {
        let region = self.part.region_of(event.handler());
        self.heaps[region].push(at, tie, event);
    }

    pub(crate) fn pop(&mut self) -> Option<(SimTime, u64, Event<M>)> {
        let (_, region) = self
            .heaps
            .iter()
            .enumerate()
            .filter_map(|(i, h)| Some((h.peek()?, i)))
            .min()?;
        self.heaps[region].pop()
    }

    pub(crate) fn next_at(&self) -> Option<SimTime> {
        self.heaps
            .iter()
            .filter_map(|h| h.peek())
            .min()
            .map(|(at, _)| at)
    }

    pub(crate) fn len(&self) -> usize {
        self.heaps.iter().map(EventHeap::len).sum()
    }

    pub(crate) fn fill_stats(&self, s: &mut SchedStats) {
        s.shard_windows = self.stats.windows;
        s.shard_cross_msgs = self.stats.cross_msgs;
        s.shard_serial_events = self.stats.serial_events;
        s.shard_work_ns = self.stats.work_ns;
        s.shard_crit_ns = self.stats.crit_ns;
        s.shard_regions = self.part.regions() as u64;
    }
}

/// The region worker's [`LaneSink`]: local events go to the region heap,
/// cross-region events to the mailbox for their destination, journal records
/// to the window-local buffer.
struct RegionSink<'a, M> {
    heap: &'a mut EventHeap<M>,
    out: &'a mut [Vec<(SimTime, u64, Event<M>)>],
    trace: Option<&'a mut Vec<(SimTime, u64, TraceEvent)>>,
    metrics: &'a mut LaneMetrics,
    part: Partition,
    region: usize,
    wend: SimTime,
    /// Key of the event currently dispatching: journal records it produces
    /// are tagged with it so the barrier merge can reconstruct serial order.
    cur_key: u64,
    pushes: u64,
    cross: u64,
}

impl<M> LaneSink<M> for RegionSink<'_, M> {
    fn push(&mut self, at: SimTime, tie: u64, event: Event<M>) {
        self.pushes += 1;
        let dst = self.part.region_of(event.handler());
        if dst == self.region {
            self.heap.push(at, tie, event);
        } else {
            // The conservative-PDES invariant: anything bound for another
            // region arrives at or after the window end (delay ≥ lookahead),
            // so flushing at the barrier can never deliver late.
            debug_assert!(
                at >= self.wend,
                "cross-region event inside the lookahead window"
            );
            self.cross += 1;
            self.out[dst].push((at, tie, event));
        }
    }

    fn emit(&mut self, now: SimTime, event: impl FnOnce() -> TraceEvent) {
        if let Some(buf) = self.trace.as_mut() {
            buf.push((now, self.cur_key, event()));
        }
    }

    fn record_tx(&mut self, node: NodeId, bytes: usize, kind: &'static str) {
        self.metrics.tx(node, bytes, kind);
    }

    fn record_rx(&mut self, node: NodeId, bytes: usize, kind: &'static str) {
        self.metrics.rx(node, bytes, kind);
    }

    fn record_loss(&mut self, kind: &'static str, reason: DropReason) {
        self.metrics.loss(kind, reason);
    }
}

/// Read-only environment shared by every region worker in one window.
struct Shared<'a> {
    topo: &'a Topology,
    config: &'a SimConfig,
    telemetry: &'a Telemetry,
    skew: &'a [SimTime],
    failed: &'a [bool],
    epochs: &'a [u32],
    links: &'a LinkState,
    part: Partition,
    wend: SimTime,
    tracing: bool,
}

impl Clone for Shared<'_> {
    fn clone(&self) -> Self {
        *self
    }
}
impl Copy for Shared<'_> {}

/// One region's mutable state for one window.
struct RegionTask<'a, A: App> {
    region: usize,
    base: u32,
    heap: &'a mut EventHeap<A::Msg>,
    scratch: &'a mut LaneScratch<A::Msg>,
    apps: &'a mut [A],
    rngs: &'a mut [NodeRng],
    counters: &'a mut [u32],
    send_hists: &'a mut [SendHists],
}

struct WindowResult {
    last_at: Option<SimTime>,
    events: u64,
    pushes: u64,
    cross: u64,
    work_ns: u64,
}

/// Drain one region's heap over `[window start, wend)`. Runs on a worker
/// thread (or inline when threading is off — identical behavior).
fn run_window<A: App>(task: RegionTask<'_, A>, shared: Shared<'_>) -> WindowResult {
    let t0 = std::time::Instant::now();
    let mut events = 0u64;
    let LaneScratch {
        out,
        trace,
        metrics,
        ctx,
    } = task.scratch;
    let mut lane = Lane {
        topo: shared.topo,
        config: shared.config,
        telemetry: shared.telemetry,
        skew: shared.skew,
        failed: shared.failed,
        epochs: shared.epochs,
        links: shared.links,
        apps: task.apps,
        rngs: task.rngs,
        counters: task.counters,
        send_hists: task.send_hists,
        base: task.base,
        events_processed: &mut events,
        scratch: ctx,
    };
    let mut sink = RegionSink {
        heap: task.heap,
        out,
        trace: shared.tracing.then_some(trace),
        metrics,
        part: shared.part,
        region: task.region,
        wend: shared.wend,
        cur_key: 0,
        pushes: 0,
        cross: 0,
    };
    let mut last_at = None;
    while sink.heap.peek().is_some_and(|(at, _)| at < shared.wend) {
        let (at, tie, event) = sink.heap.pop().expect("peeked head");
        sink.cur_key = tie;
        last_at = Some(at);
        lane.dispatch(&mut sink, at, event);
    }
    let (pushes, cross) = (sink.pushes, sink.cross);
    WindowResult {
        last_at,
        events,
        pushes,
        cross,
        work_ns: t0.elapsed().as_nanos() as u64,
    }
}

impl<A: App + Send> Simulator<A>
where
    A::Msg: Send,
{
    /// The shard backend's drain loop: serial fallback below the threshold,
    /// lockstep windows above it. Worker metric scratch is flushed before
    /// returning so callers observe registry totals identical to a serial
    /// run.
    pub(crate) fn drain_sharded(&mut self, limit: SimTime) {
        // Same fault interleave as the serial drain: a fault at time t
        // strikes before any event at t (windows are clamped so none spans
        // a fault tick — see run_shard_window), and pending faults apply
        // even on an empty queue.
        loop {
            let next_fault = self.next_fault_at(limit);
            let next_event = self.queue.next_at().filter(|&t| t <= limit);
            match (next_fault, next_event) {
                (Some(f), Some(t)) if f <= t => self.apply_faults_at(f),
                (_, Some(t)) => {
                    if self.queue.len() < self.shard_threshold {
                        if let EventQueue::Shard(sq) = &mut self.queue {
                            sq.stats.serial_events += 1;
                        }
                        self.step();
                    } else {
                        self.run_shard_window(t, limit);
                    }
                }
                (Some(f), None) => self.apply_faults_at(f),
                (None, None) => break,
            }
        }
        if let EventQueue::Shard(sq) = &mut self.queue {
            for lane in sq.lanes.iter_mut() {
                lane.metrics.flush_into(&mut self.metrics);
            }
        }
    }

    /// Execute one lockstep window `[t, min(t + lookahead, limit + 1))`,
    /// then run the barrier: flush mailboxes, merge journals, account stats.
    fn run_shard_window(&mut self, t: SimTime, limit: SimTime) {
        let lookahead = self.config.hop_delay.0.max(1);
        let mut wend = t.saturating_add(lookahead).min(limit.saturating_add(1));
        // Never let a window span a scheduled fault: events at or past the
        // fault tick wait until the fault has been applied on the main
        // thread, so a mid-window crash takes effect at its exact event
        // tick — identically to the serial heap.
        if let Some(f) = self.next_fault_at(limit) {
            debug_assert!(f > t, "drain loop applies due faults first");
            wend = wend.min(f);
        }
        let tracing = self.trace.is_some();
        let EventQueue::Shard(sq) = &mut self.queue else {
            unreachable!("run_shard_window on a non-shard queue")
        };
        let part = sq.part;
        let nregions = part.regions();
        let shared = Shared {
            topo: &self.topo,
            config: &self.config,
            telemetry: &self.telemetry,
            skew: &self.skew,
            failed: &self.failed,
            epochs: &self.epochs,
            links: &self.links,
            part,
            wend,
            tracing,
        };
        // Split the per-node state into disjoint contiguous region slices.
        let mut apps: &mut [A] = &mut self.apps;
        let mut rngs: &mut [NodeRng] = &mut self.rngs;
        let mut counters: &mut [u32] = &mut self.counters;
        let mut send_hists: &mut [SendHists] = &mut self.send_hists;
        let mut tasks = Vec::with_capacity(nregions);
        for (region, (heap, scratch)) in sq.heaps.iter_mut().zip(sq.lanes.iter_mut()).enumerate() {
            let (base, len) = part.range(region);
            let (a, rest) = std::mem::take(&mut apps).split_at_mut(len as usize);
            apps = rest;
            let (r, rest) = std::mem::take(&mut rngs).split_at_mut(len as usize);
            rngs = rest;
            let (c, rest) = std::mem::take(&mut counters).split_at_mut(len as usize);
            counters = rest;
            let (h, rest) = std::mem::take(&mut send_hists).split_at_mut(len as usize);
            send_hists = rest;
            tasks.push(RegionTask {
                region,
                base,
                heap,
                scratch,
                apps: a,
                rngs: r,
                counters: c,
                send_hists: h,
            });
        }
        let results: Vec<WindowResult> = if self.shard_threads && nregions > 1 {
            std::thread::scope(|s| {
                let handles: Vec<_> = tasks
                    .into_iter()
                    .map(|task| s.spawn(move || run_window(task, shared)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("region worker panicked"))
                    .collect()
            })
        } else {
            tasks
                .into_iter()
                .map(|task| run_window(task, shared))
                .collect()
        };

        // ---- Barrier (main thread) ----
        sq.stats.windows += 1;
        let mut max_at: Option<SimTime> = None;
        let mut crit = 0u64;
        for r in &results {
            self.events_processed += r.events;
            self.pushes += r.pushes;
            sq.stats.cross_msgs += r.cross;
            sq.stats.work_ns += r.work_ns;
            crit = crit.max(r.work_ns);
            if let Some(a) = r.last_at {
                max_at = Some(max_at.map_or(a, |m| m.max(a)));
            }
        }
        sq.stats.crit_ns += crit;
        // Flush cross-region mailboxes into the destination heaps. Push
        // order across sources is irrelevant: heaps key on (at, tie).
        for src in 0..nregions {
            for dst in 0..nregions {
                if src == dst || sq.lanes[src].out[dst].is_empty() {
                    continue;
                }
                let mailbox = std::mem::take(&mut sq.lanes[src].out[dst]);
                for (at, tie, event) in mailbox {
                    sq.heaps[dst].push(at, tie, event);
                }
            }
        }
        // Merge the window's journal buffers by (at, key): keys are globally
        // unique and journal-record order within one key follows buffer
        // order, so this reproduces the serial journal exactly.
        if tracing {
            let mut iters: Vec<_> = sq
                .lanes
                .iter_mut()
                .map(|l| std::mem::take(&mut l.trace).into_iter().peekable())
                .collect();
            loop {
                let mut best: Option<(SimTime, u64, usize)> = None;
                for (i, it) in iters.iter_mut().enumerate() {
                    if let Some(&(at, key, _)) = it.peek() {
                        if best.is_none_or(|(bat, bkey, _)| (at, key) < (bat, bkey)) {
                            best = Some((at, key, i));
                        }
                    }
                }
                let Some((_, _, i)) = best else { break };
                let (at, _key, event) = iters[i].next().expect("peeked");
                if let Some(sink) = self.trace.as_mut() {
                    sink.record(TraceRecord {
                        seq: self.trace_seq,
                        at,
                        event,
                    });
                    self.trace_seq += 1;
                }
            }
        }
        if let Some(a) = max_at {
            self.now = self.now.max(a);
        }
        let depth = self.queue.len();
        self.max_queue_depth = self.max_queue_depth.max(depth);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_every_node_exactly_once() {
        for n in [0usize, 1, 2, 5, 7, 16, 100, 101] {
            for workers in [1usize, 2, 3, 4, 8, 200] {
                let p = Partition::new(n, workers);
                let mut seen = 0u32;
                for r in 0..p.regions() {
                    let (base, len) = p.range(r);
                    assert_eq!(base, seen, "ranges must be contiguous");
                    for node in base..base + len {
                        assert_eq!(p.region_of(NodeId(node)), r);
                    }
                    seen += len;
                }
                assert_eq!(seen as usize, n, "n={n} workers={workers}");
                if n > 0 {
                    assert!(p.regions() <= n && p.regions() >= 1);
                }
            }
        }
    }

    #[test]
    fn partition_balance_within_one() {
        let p = Partition::new(103, 4);
        let lens: Vec<u32> = (0..p.regions()).map(|r| p.range(r).1).collect();
        let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
        assert!(max - min <= 1, "lens={lens:?}");
    }

    #[test]
    fn lane_metrics_flush_matches_direct_recording() {
        let mut direct = Metrics::new(6);
        let mut via = Metrics::new(6);
        let mut lm = LaneMetrics::new(2, 4); // region covers nodes 2..6
        for (node, bytes, kind) in [(2u32, 10, "a"), (3, 20, "b"), (2, 5, "a")] {
            direct.record_tx(NodeId(node), bytes, kind);
            lm.tx(NodeId(node), bytes, kind);
        }
        direct.record_rx(NodeId(5), 7, "a");
        lm.rx(NodeId(5), 7, "a");
        direct.record_loss("b", DropReason::Loss);
        lm.loss("b", DropReason::Loss);
        lm.flush_into(&mut via);
        assert_eq!(direct.node(NodeId(2)), via.node(NodeId(2)));
        assert_eq!(direct.node(NodeId(5)), via.node(NodeId(5)));
        assert_eq!(direct.kind_balance(), via.kind_balance());
        // Flush resets: a second flush adds nothing.
        lm.flush_into(&mut via);
        assert_eq!(direct.kind_balance(), via.kind_balance());
    }
}
