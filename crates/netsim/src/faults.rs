//! Deterministic fault-injection plane.
//!
//! A [`FaultSchedule`] is a seeded, sorted script of [`FaultEvent`]s —
//! node crashes and restarts, link partitions, and duplication/reordering
//! windows — applied by the simulator at exact event ticks: a fault at `t`
//! strikes before any event at `t`. Each applied fault is journaled as a
//! [`TraceEvent`](crate::TraceEvent), so a chaotic run is exactly as
//! replayable as a clean one: same seed, same schedule, byte-identical
//! journal.
//!
//! [`LinkState`] is the mutable network condition the schedule drives:
//! which links are down, and whether a duplication or reordering window
//! is open. The simulator owns one and the send path consults it
//! read-only; faults mutate it only between events, never inside a
//! callback.

use crate::sim::SimTime;
use crate::topology::{NodeId, Topology};
use std::collections::HashSet;

/// One kind of injected fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Crash a node: it stops processing events and loses all volatile
    /// state. Idempotent on an already-dead node.
    Crash(NodeId),
    /// Restart a crashed node with a fresh application instance (full
    /// volatile state loss; what survives is what the app's
    /// [`App::on_restart`](crate::App::on_restart) takes from the crashed
    /// instance). No-op on a live node.
    Restart(NodeId),
    /// Take the bidirectional link `a<->b` down.
    LinkDown(NodeId, NodeId),
    /// Bring the bidirectional link `a<->b` back up.
    LinkUp(NodeId, NodeId),
    /// Open a duplication window: until `until`, each delivered message
    /// is duplicated with probability `ppm / 1e6`.
    DupWindow { until: SimTime, ppm: u32 },
    /// Open a reordering window: until `until`, each delivery gets extra
    /// uniform jitter in `[0, jitter)`, letting later sends overtake
    /// earlier ones.
    ReorderWindow { until: SimTime, jitter: SimTime },
}

/// A fault and the simulated time at which it strikes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    pub at: SimTime,
    pub kind: FaultKind,
}

/// A seeded, scriptable fault schedule. Build one with the fluent
/// methods or generate a random-but-reproducible one with
/// [`FaultSchedule::random`]; schedule it as [`crate::SimConfig::faults`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    pub fn new() -> FaultSchedule {
        FaultSchedule::default()
    }

    pub fn crash(mut self, at: SimTime, node: NodeId) -> FaultSchedule {
        self.events.push(FaultEvent {
            at,
            kind: FaultKind::Crash(node),
        });
        self
    }

    pub fn restart(mut self, at: SimTime, node: NodeId) -> FaultSchedule {
        self.events.push(FaultEvent {
            at,
            kind: FaultKind::Restart(node),
        });
        self
    }

    pub fn link_down(mut self, at: SimTime, a: NodeId, b: NodeId) -> FaultSchedule {
        self.events.push(FaultEvent {
            at,
            kind: FaultKind::LinkDown(a, b),
        });
        self
    }

    pub fn link_up(mut self, at: SimTime, a: NodeId, b: NodeId) -> FaultSchedule {
        self.events.push(FaultEvent {
            at,
            kind: FaultKind::LinkUp(a, b),
        });
        self
    }

    pub fn dup_window(mut self, at: SimTime, until: SimTime, ppm: u32) -> FaultSchedule {
        self.events.push(FaultEvent {
            at,
            kind: FaultKind::DupWindow { until, ppm },
        });
        self
    }

    pub fn reorder_window(mut self, at: SimTime, until: SimTime, jitter: SimTime) -> FaultSchedule {
        self.events.push(FaultEvent {
            at,
            kind: FaultKind::ReorderWindow { until, jitter },
        });
        self
    }

    /// The widest jitter any of its reorder windows adds to a hop (0 with
    /// none).
    pub fn reorder_jitter(&self) -> SimTime {
        (self.events.iter())
            .filter_map(|e| match e.kind {
                FaultKind::ReorderWindow { jitter, .. } => Some(jitter),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Time of the last scheduled fault — the instant the network has
    /// "healed" (no further injected disturbance). 0 for an empty
    /// schedule.
    pub fn heal_time(&self) -> SimTime {
        self.events.iter().map(|e| e.at).max().unwrap_or(0)
    }

    /// True when every crashed node is restarted again by the end of the
    /// schedule and every downed link is brought back up — i.e. the
    /// schedule heals completely.
    pub fn heals(&self) -> bool {
        let mut down_nodes: HashSet<NodeId> = HashSet::new();
        let mut down_links: HashSet<(u32, u32)> = HashSet::new();
        for ev in self.sorted().events {
            match ev.kind {
                FaultKind::Crash(n) => {
                    down_nodes.insert(n);
                }
                FaultKind::Restart(n) => {
                    down_nodes.remove(&n);
                }
                FaultKind::LinkDown(a, b) => {
                    down_links.insert(link_key(a, b));
                }
                FaultKind::LinkUp(a, b) => {
                    down_links.remove(&link_key(a, b));
                }
                _ => {}
            }
        }
        down_nodes.is_empty() && down_links.is_empty()
    }

    /// Stable sort by time (schedule order breaks ties, so a crash
    /// scripted before a restart at the same tick applies first).
    pub fn sorted(&self) -> FaultSchedule {
        let mut events = self.events.clone();
        events.sort_by_key(|e| e.at);
        FaultSchedule { events }
    }

    /// A random but fully seed-determined healing schedule over `topo`:
    /// `crashes` crash→restart pairs and `link_flaps` down→up pairs on
    /// real radio links, all within `[start, heal_by)` with every
    /// recovery scheduled before `heal_by`. Never crashes node 0 (the
    /// usual sink/centroid anchor) and never crashes two nodes at
    /// overlapping times, so the surviving network keeps a meaningful
    /// workload.
    pub fn random(seed: u64, topo: &Topology, opts: RandomFaults) -> FaultSchedule {
        let mut rng = SplitMix(seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut s = FaultSchedule::new();
        let span = opts.heal_by.saturating_sub(opts.start).max(2);
        let n = topo.len() as u64;
        let mut crashed: HashSet<NodeId> = HashSet::new();
        for _ in 0..opts.crashes {
            // Pick a victim other than node 0, not already scheduled.
            let mut victim = NodeId(0);
            for _ in 0..32 {
                let v = NodeId((1 + rng.next(n.saturating_sub(1).max(1))) as u32);
                if v.0 < n as u32 && !crashed.contains(&v) {
                    victim = v;
                    break;
                }
            }
            if victim == NodeId(0) {
                continue;
            }
            crashed.insert(victim);
            let down_at = opts.start + rng.next(span / 2).max(1);
            let up_at = down_at + 1 + rng.next((opts.heal_by.saturating_sub(down_at)).max(2) - 1);
            s = s
                .crash(down_at, victim)
                .restart(up_at.min(opts.heal_by), victim);
        }
        for _ in 0..opts.link_flaps {
            let a = NodeId(rng.next(n) as u32);
            let nbrs = topo.neighbors(a);
            if nbrs.is_empty() {
                continue;
            }
            let b = nbrs[rng.next(nbrs.len() as u64) as usize];
            let down_at = opts.start + rng.next(span / 2).max(1);
            let up_at = down_at + 1 + rng.next((opts.heal_by.saturating_sub(down_at)).max(2) - 1);
            s = s
                .link_down(down_at, a, b)
                .link_up(up_at.min(opts.heal_by), a, b);
        }
        s.sorted()
    }
}

/// Parameters for [`FaultSchedule::random`].
#[derive(Clone, Copy, Debug)]
pub struct RandomFaults {
    /// Number of crash→restart pairs.
    pub crashes: usize,
    /// Number of link down→up pairs (on actual radio links).
    pub link_flaps: usize,
    /// Earliest fault time.
    pub start: SimTime,
    /// All recoveries land at or before this time.
    pub heal_by: SimTime,
}

impl Default for RandomFaults {
    fn default() -> RandomFaults {
        RandomFaults {
            crashes: 1,
            link_flaps: 1,
            start: 1_000,
            heal_by: 30_000,
        }
    }
}

fn link_key(a: NodeId, b: NodeId) -> (u32, u32) {
    if a.0 <= b.0 {
        (a.0, b.0)
    } else {
        (b.0, a.0)
    }
}

/// Current link-level network condition, driven by the fault schedule
/// and consulted (read-only) by the send path. Inert by default: an
/// untouched `LinkState` adds zero RNG draws and zero behavior change.
#[derive(Clone, Debug, Default)]
pub struct LinkState {
    down: HashSet<(u32, u32)>,
    dup_until: SimTime,
    dup_ppm: u32,
    reorder_until: SimTime,
    reorder_jitter: SimTime,
}

impl LinkState {
    pub fn set_down(&mut self, a: NodeId, b: NodeId, down: bool) {
        if down {
            self.down.insert(link_key(a, b));
        } else {
            self.down.remove(&link_key(a, b));
        }
    }

    pub fn is_down(&self, a: NodeId, b: NodeId) -> bool {
        !self.down.is_empty() && self.down.contains(&link_key(a, b))
    }

    pub fn open_dup_window(&mut self, until: SimTime, ppm: u32) {
        self.dup_until = until;
        self.dup_ppm = ppm;
    }

    /// Duplication probability if a window is open at `now`.
    pub fn dup_prob(&self, now: SimTime) -> Option<f64> {
        (now < self.dup_until && self.dup_ppm > 0).then(|| self.dup_ppm as f64 / 1_000_000.0)
    }

    pub fn open_reorder_window(&mut self, until: SimTime, jitter: SimTime) {
        self.reorder_until = until;
        self.reorder_jitter = jitter;
    }

    /// Extra-jitter bound if a reordering window is open at `now`.
    pub fn reorder_jitter(&self, now: SimTime) -> Option<SimTime> {
        (now < self.reorder_until && self.reorder_jitter > 0).then_some(self.reorder_jitter)
    }
}

/// Tiny splitmix64 for schedule generation only — the simulator's own
/// per-node streams are never touched by fault scripting.
struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`; 0 when `bound == 0`.
    fn next(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        self.next_u64() % bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_sorts_and_reports_heal_time() {
        let s = FaultSchedule::new()
            .restart(500, NodeId(3))
            .crash(100, NodeId(3))
            .link_down(200, NodeId(0), NodeId(1))
            .link_up(400, NodeId(1), NodeId(0));
        let sorted = s.sorted();
        let times: Vec<_> = sorted.events().iter().map(|e| e.at).collect();
        assert_eq!(times, vec![100, 200, 400, 500]);
        assert_eq!(s.heal_time(), 500);
        assert!(s.heals());
        assert!(!FaultSchedule::new().crash(10, NodeId(1)).heals());
    }

    #[test]
    fn random_schedules_are_deterministic_and_heal() {
        let topo = Topology::square_grid(4);
        let opts = RandomFaults {
            crashes: 2,
            link_flaps: 2,
            start: 1_000,
            heal_by: 20_000,
        };
        let a = FaultSchedule::random(42, &topo, opts);
        let b = FaultSchedule::random(42, &topo, opts);
        assert_eq!(a, b, "same seed must give the same schedule");
        assert!(a.heals(), "random schedules must heal: {a:?}");
        assert!(a.heal_time() <= 20_000);
        let c = FaultSchedule::random(43, &topo, opts);
        assert_ne!(a, c, "different seeds should differ");
        // Node 0 is never crashed.
        for ev in a.events() {
            if let FaultKind::Crash(n) = ev.kind {
                assert_ne!(n, NodeId(0));
            }
        }
        // Link flaps ride real radio links.
        for ev in a.events() {
            if let FaultKind::LinkDown(x, y) = ev.kind {
                assert!(topo.are_neighbors(x, y));
            }
        }
    }

    #[test]
    fn link_state_round_trips() {
        let mut ls = LinkState::default();
        assert!(!ls.is_down(NodeId(1), NodeId(2)));
        ls.set_down(NodeId(1), NodeId(2), true);
        assert!(ls.is_down(NodeId(2), NodeId(1)), "links are bidirectional");
        ls.set_down(NodeId(2), NodeId(1), false);
        assert!(!ls.is_down(NodeId(1), NodeId(2)));

        ls.open_dup_window(100, 500_000);
        assert!(ls.dup_prob(99).is_some());
        assert!(ls.dup_prob(100).is_none());
        ls.open_reorder_window(50, 7);
        assert_eq!(ls.reorder_jitter(10), Some(7));
        assert_eq!(ls.reorder_jitter(50), None);
    }
}
