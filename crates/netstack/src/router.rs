//! Multi-hop routing: the workspace's one next-hop oracle.
//!
//! Grids route along coordinates (x first, then y — exactly the "route in x
//! then y" behaviour PA needs for its perpendicular walks). Every other
//! topology routes along the BFS tree rooted at the destination, one table
//! per destination, built the first time something is routed there (our
//! substitution for GPSR-style greedy + perimeter routing — see DESIGN.md).

use sensorlog_netsim::{NodeId, Topology};
use sensorlog_telemetry::{CounterId, Scope, Telemetry};
use std::sync::OnceLock;

/// Next-hop oracle over a topology. Holds nothing for grids; off-grid it
/// holds one BFS parent table per destination routed to so far. Shared by
/// reference: every node of a deployment (on any scheduler thread) asks the
/// same router.
#[derive(Debug)]
pub struct Router {
    /// `tables[dest][node]` = next hop from `node` toward `dest`
    /// (`u32::MAX` = `node` is `dest` or cannot reach it). Built on first
    /// use and kept: 4·n bytes per destination, nothing evicted.
    tables: Vec<OnceLock<Box<[u32]>>>,
    tele: Telemetry,
    /// Registry ids of the hop counters ([`Hop`]), each resolved by the
    /// first hop that moves it.
    hop_ids: [OnceLock<CounterId>; 3],
}

const NONE: u32 = u32::MAX;

/// How a hop decision was made: the per-hop counters of `layer:netstack`.
#[derive(Clone, Copy)]
enum Hop {
    Grid,
    Bfs,
    Unreachable,
}

impl Router {
    pub fn new(topo: &Topology) -> Router {
        let tables = match topo.grid_dims() {
            Some(_) => 0,
            None => topo.len(),
        };
        Router {
            tables: (0..tables).map(|_| OnceLock::new()).collect(),
            tele: Telemetry::disabled(),
            hop_ids: Default::default(),
        }
    }

    /// Attach a telemetry handle: hop decisions and BFS-table builds are
    /// counted under `Scope::Layer("netstack")`.
    pub fn with_telemetry(mut self, tele: Telemetry) -> Router {
        self.tele = tele;
        self
    }

    /// Next hop from `from` toward `dest`. `None` when `from == dest` or
    /// when `dest` is unreachable from `from` (disconnected topologies
    /// route nothing across a partition — callers drop the message).
    pub fn next_hop(&self, topo: &Topology, from: NodeId, dest: NodeId) -> Option<NodeId> {
        if from == dest {
            return None;
        }
        // Grid: decrease the x difference first, then y.
        if let (Some((fx, fy)), Some((dx, dy))) = (topo.grid_coords(from), topo.grid_coords(dest)) {
            let (nx, ny) = if fx != dx {
                (if dx > fx { fx + 1 } else { fx - 1 }, fy)
            } else {
                (fx, if dy > fy { fy + 1 } else { fy - 1 })
            };
            self.count(Hop::Grid);
            return topo.node_at(nx, ny);
        }
        // Off-grid: fully table-driven. (Mixing greedy geographic steps
        // with a BFS fallback per hop is not loop-free: the two can
        // live-lock at a local minimum.)
        let table = self.tables[dest.index()].get_or_init(|| {
            self.tele.bump(Scope::Layer("netstack"), "bfs_tables_built");
            // Whoever BFS from `dest` first reached a node from is that
            // node's first hop back toward `dest`.
            let parents = topo.bfs(dest).parent;
            parents.iter().map(|p| p.map_or(NONE, |p| p.0)).collect()
        });
        match table[from.index()] {
            NONE => {
                self.count(Hop::Unreachable);
                None
            }
            hop => {
                self.count(Hop::Bfs);
                Some(NodeId(hop))
            }
        }
    }

    /// One registry lock and one `Vec` index per hop with telemetry on;
    /// one branch with it off.
    fn count(&self, hop: Hop) {
        if let Some(mut reg) = self.tele.registry() {
            let name = ["grid_hops", "bfs_hops", "unreachable"][hop as usize];
            let id = self.hop_ids[hop as usize]
                .get_or_init(|| reg.counter(Scope::Layer("netstack"), name));
            reg.inc(*id);
        }
    }
}

/// One greedy geographic step that detours around blocked nodes: the
/// unblocked neighbor strictly closer to `dest`. Route repair for the
/// fault plane — `blocked` is the caller's belief about which nodes are
/// dead. `None` when every strictly-closer neighbor is blocked (the
/// caller falls back to its primary hop and lets the refresh plane retry
/// after the belief changes): strictly-closer is required so a repaired
/// route can never loop.
pub fn next_hop_avoiding(
    topo: &Topology,
    from: NodeId,
    dest: NodeId,
    blocked: &dyn Fn(NodeId) -> bool,
) -> Option<NodeId> {
    let d0 = topo.distance(from, dest);
    let mut best: Option<(NodeId, f64)> = None;
    for &n in topo.neighbors(from) {
        if blocked(n) {
            continue;
        }
        if n == dest {
            return Some(dest);
        }
        let d = topo.distance(n, dest);
        if d < d0 && best.is_none_or(|(_, bd)| d < bd) {
            best = Some((n, d));
        }
    }
    best.map(|(n, _)| n)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full multi-hop path from `from` to `dest` (inclusive of both
    /// ends), or `None` when `dest` is unreachable from `from`.
    fn route_path(
        router: &Router,
        topo: &Topology,
        from: NodeId,
        dest: NodeId,
    ) -> Option<Vec<NodeId>> {
        let mut path = vec![from];
        let mut cur = from;
        while cur != dest {
            let nxt = router.next_hop(topo, cur, dest)?;
            assert!(topo.are_neighbors(cur, nxt), "{cur}->{nxt} not a link");
            assert!(
                !path.contains(&nxt),
                "routing loop {from}->{dest} via {nxt}"
            );
            path.push(nxt);
            cur = nxt;
        }
        Some(path)
    }

    fn netstack_count(tele: &Telemetry, name: &str) -> u64 {
        tele.snapshot().counter("layer:netstack", name)
    }

    #[test]
    fn grid_routes_x_then_y() {
        let topo = Topology::square_grid(5);
        let tele = Telemetry::enabled();
        let r = Router::new(&topo).with_telemetry(tele.clone());
        let from = topo.node_at(0, 0).unwrap();
        let dest = topo.node_at(3, 2).unwrap();
        let path = route_path(&r, &topo, from, dest).unwrap();
        // 3 x-steps then 2 y-steps = 6 nodes.
        assert_eq!(path.len(), 6);
        let coords: Vec<_> = path.iter().map(|&n| topo.grid_coords(n).unwrap()).collect();
        assert_eq!(coords[0], (0, 0));
        assert_eq!(coords[3], (3, 0));
        assert_eq!(coords[5], (3, 2));
        // Five decisions, all by coordinate; no table exists to build.
        assert_eq!(netstack_count(&tele, "grid_hops"), 5);
        assert_eq!(netstack_count(&tele, "bfs_tables_built"), 0);
        assert!(r.tables.is_empty());
    }

    #[test]
    fn self_route_is_none() {
        let topo = Topology::square_grid(3);
        let r = Router::new(&topo);
        assert_eq!(r.next_hop(&topo, NodeId(4), NodeId(4)), None);
    }

    #[test]
    fn geometric_routes_reach() {
        for (n, side, seed) in [(40, 6.0, 1), (20, 4.0, 5)] {
            let topo = Topology::random_geometric(n, side, 1.7, seed).unwrap();
            let tele = Telemetry::enabled();
            let r = Router::new(&topo).with_telemetry(tele.clone());
            let mut hops = 0;
            for a in [0u32, 5, 17] {
                for b in [3u32, 12, n as u32 - 1] {
                    // Every hop is a radio link and no path loops
                    // (`route_path` checks both).
                    let path = route_path(&r, &topo, NodeId(a), NodeId(b)).unwrap();
                    assert_eq!(*path.first().unwrap(), NodeId(a));
                    assert_eq!(*path.last().unwrap(), NodeId(b));
                    // BFS parents are shortest paths.
                    assert_eq!(
                        path.len() - 1,
                        topo.hop_distance(NodeId(a), NodeId(b)).unwrap()
                    );
                    hops += path.len() as u64 - 1;
                }
            }
            // One table per destination, however many sources and hops.
            assert_eq!(netstack_count(&tele, "bfs_tables_built"), 3);
            assert_eq!(netstack_count(&tele, "bfs_hops"), hops);
            assert_eq!(netstack_count(&tele, "grid_hops"), 0);
        }
    }

    #[test]
    fn disconnected_is_none_and_counted_not_a_panic() {
        // Two 2-node islands far apart: cross-island routes must be None.
        let topo = Topology::from_positions(
            vec![(0.0, 0.0), (1.0, 0.0), (100.0, 0.0), (101.0, 0.0)],
            1.5,
        );
        assert!(!topo.is_connected());
        let tele = Telemetry::enabled();
        let r = Router::new(&topo).with_telemetry(tele.clone());
        assert_eq!(r.next_hop(&topo, NodeId(0), NodeId(1)), Some(NodeId(1)));
        assert_eq!(r.next_hop(&topo, NodeId(0), NodeId(2)), None);
        assert_eq!(r.next_hop(&topo, NodeId(3), NodeId(1)), None);
        assert_eq!(r.next_hop(&topo, NodeId(2), NodeId(3)), Some(NodeId(3)));
        assert_eq!(route_path(&r, &topo, NodeId(1), NodeId(3)), None);
        assert_eq!(netstack_count(&tele, "unreachable"), 3);
        assert_eq!(netstack_count(&tele, "bfs_hops"), 2);
        // Destinations 1, 2 and 3 were routed to; 0 never was.
        assert_eq!(netstack_count(&tele, "bfs_tables_built"), 3);
        assert!(r.tables[0].get().is_none());
    }

    #[test]
    fn a_disabled_handle_counts_nothing_and_resolves_no_id() {
        let topo = Topology::random_geometric(20, 4.0, 1.7, 5).unwrap();
        let r = Router::new(&topo);
        route_path(&r, &topo, NodeId(0), NodeId(19)).unwrap();
        assert!(r.hop_ids.iter().all(|id| id.get().is_none()));
        // Enabled: a counter's key is walked once, by the hop that first
        // moves it; 40 more hops walk nothing.
        let tele = Telemetry::enabled();
        let r = Router::new(&topo).with_telemetry(tele.clone());
        r.next_hop(&topo, NodeId(0), NodeId(19));
        let walks = tele.registry().unwrap().keyed_walks();
        for _ in 0..40 {
            r.next_hop(&topo, NodeId(0), NodeId(19));
        }
        assert_eq!(tele.registry().unwrap().keyed_walks(), walks);
        assert_eq!(netstack_count(&tele, "bfs_hops"), 41);
    }

    /// Eight threads route every pair through one shared router: each hop
    /// equals a single-threaded router's, and each destination's table is
    /// built exactly once however many threads ask for it first.
    #[test]
    fn threads_share_one_router_and_build_each_table_once() {
        let topo = Topology::random_geometric(200, 10.0, 1.5, 7).unwrap();
        let alone = Router::new(&topo);
        let want: Vec<Vec<Option<NodeId>>> = topo
            .nodes()
            .map(|dest| {
                topo.nodes()
                    .map(|from| alone.next_hop(&topo, from, dest))
                    .collect()
            })
            .collect();
        let tele = Telemetry::enabled();
        let shared = Router::new(&topo).with_telemetry(tele.clone());
        // All eight leave the barrier together and ask for the destinations
        // in the same order, so each table's first requests collide.
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    start.wait();
                    for dest in topo.nodes() {
                        for from in topo.nodes() {
                            assert_eq!(
                                shared.next_hop(&topo, from, dest),
                                want[dest.index()][from.index()]
                            );
                        }
                    }
                });
            }
        });
        assert_eq!(netstack_count(&tele, "bfs_tables_built"), 200);
        assert_eq!(netstack_count(&tele, "bfs_hops"), 8 * 200 * 199);
        assert_eq!(netstack_count(&tele, "unreachable"), 0);
    }

    #[test]
    fn avoiding_detours_around_dead_nodes_without_looping() {
        let topo = Topology::square_grid(4);
        let from = topo.node_at(0, 0).unwrap();
        let dest = topo.node_at(3, 3).unwrap();
        // With nothing blocked it is the plain greedy step: east to (1,0),
        // strictly closer to dest. With that node dead the repair steps
        // north to (0,1) — still strictly closer.
        let dead = topo.node_at(1, 0).unwrap();
        assert_eq!(next_hop_avoiding(&topo, from, dest, &|_| false), Some(dead));
        let step = next_hop_avoiding(&topo, from, dest, &|n| n == dead).unwrap();
        assert_eq!(step, topo.node_at(0, 1).unwrap());
        assert!(topo.distance(step, dest) < topo.distance(from, dest));
        // A fully walled-off corner has no strictly-closer unblocked hop.
        let wall = [topo.node_at(1, 0).unwrap(), topo.node_at(0, 1).unwrap()];
        assert_eq!(
            next_hop_avoiding(&topo, from, dest, &|n| wall.contains(&n)),
            None
        );
        // Repaired routes terminate: walk hop by hop around the dead node.
        let mut cur = from;
        let mut hops = 0;
        while cur != dest {
            let next = next_hop_avoiding(&topo, cur, dest, &|n| n == dead)
                .expect("grid interior always has a detour");
            assert!(topo.are_neighbors(cur, next));
            cur = next;
            hops += 1;
            assert!(hops <= topo.len(), "routing loop");
        }
    }

    #[test]
    fn path_length_matches_hop_distance_on_grid() {
        let topo = Topology::square_grid(6);
        let r = Router::new(&topo);
        let a = topo.node_at(1, 1).unwrap();
        let b = topo.node_at(4, 5).unwrap();
        let path = route_path(&r, &topo, a, b).unwrap();
        assert_eq!(path.len() - 1, topo.hop_distance(a, b).unwrap());
    }
}
