//! Network topologies: 2D grids (the paper's primary evaluation setting,
//! Sec. III-A) and connected random geometric graphs (for the "PA in
//! General Networks" extension).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::fmt;

/// Node identifier: index into the topology's node list.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Sampling a connected random geometric graph failed: the requested
/// density (`n` nodes, square side, radius) never produced a connected
/// graph within the attempt budget.
#[derive(Clone, Debug, PartialEq)]
pub struct ConnectivityError {
    pub n: usize,
    pub side: f64,
    pub radius: f64,
    pub attempts: u32,
}

impl fmt::Display for ConnectivityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "could not sample a connected geometric graph in {} attempts \
             (n={}, side={}, radius={}): raise the radius or density",
            self.attempts, self.n, self.side, self.radius
        )
    }
}

impl std::error::Error for ConnectivityError {}

/// Topology kinds (used by routing to pick strategies).
#[derive(Clone, Debug, PartialEq)]
pub enum TopologyKind {
    /// `cols × rows` grid, unit spacing, unit transmission radius
    /// (4-neighborhood: diagonal distance √2 exceeds the unit radius).
    Grid { cols: u32, rows: u32 },
    /// Random geometric graph in a `[0, side] × [0, side]` square.
    Geometric { side: f64, radius: f64 },
}

/// An immutable network topology: node positions plus the unit-disk
/// adjacency.
#[derive(Clone, Debug)]
pub struct Topology {
    pub kind: TopologyKind,
    positions: Vec<(f64, f64)>,
    adjacency: Vec<Vec<NodeId>>,
}

/// Breadth-first tree from one root ([`Topology::bfs`]).
#[derive(Clone, Debug)]
pub struct Bfs {
    /// The node each node was first reached from: `None` for the root and
    /// for every node the root cannot reach.
    pub parent: Vec<Option<NodeId>>,
    /// Hop distance from the root; `u32::MAX` when unreachable.
    pub dist: Vec<u32>,
}

impl Topology {
    /// `cols × rows` grid with unit spacing. Node `(x, y)` has id
    /// `y * cols + x` — x grows rightward, y upward.
    pub fn grid(cols: u32, rows: u32) -> Topology {
        assert!(cols > 0 && rows > 0, "empty grid");
        let n = (cols * rows) as usize;
        let mut positions = Vec::with_capacity(n);
        for y in 0..rows {
            for x in 0..cols {
                positions.push((x as f64, y as f64));
            }
        }
        let mut adjacency = vec![Vec::new(); n];
        let id = |x: u32, y: u32| NodeId(y * cols + x);
        for y in 0..rows {
            for x in 0..cols {
                let mut neigh = Vec::new();
                if x > 0 {
                    neigh.push(id(x - 1, y));
                }
                if x + 1 < cols {
                    neigh.push(id(x + 1, y));
                }
                if y > 0 {
                    neigh.push(id(x, y - 1));
                }
                if y + 1 < rows {
                    neigh.push(id(x, y + 1));
                }
                adjacency[id(x, y).index()] = neigh;
            }
        }
        Topology {
            kind: TopologyKind::Grid { cols, rows },
            positions,
            adjacency,
        }
    }

    /// Square grid `m × m`.
    pub fn square_grid(m: u32) -> Topology {
        Topology::grid(m, m)
    }

    /// Connected random geometric graph: `n` nodes uniform in a square of
    /// side `side`, connected iff within `radius`. Re-samples (up to 200
    /// attempts) until connected; returns [`ConnectivityError`] if the
    /// density is hopeless, so callers can report a usable diagnosis
    /// instead of crashing mid-experiment.
    pub fn random_geometric(
        n: usize,
        side: f64,
        radius: f64,
        seed: u64,
    ) -> Result<Topology, ConnectivityError> {
        assert!(n > 0);
        const ATTEMPTS: u32 = 200;
        let mut rng = StdRng::seed_from_u64(seed);
        for _attempt in 0..ATTEMPTS {
            let positions = (0..n)
                .map(|_| (rng.gen::<f64>() * side, rng.gen::<f64>() * side))
                .collect();
            let topo = Topology::unit_disk(side, positions, radius);
            if topo.is_connected() {
                return Ok(topo);
            }
        }
        Err(ConnectivityError {
            n,
            side,
            radius,
            attempts: ATTEMPTS,
        })
    }

    /// Geometric topology from explicit node positions with unit-disk
    /// adjacency at `radius`. Unlike [`Topology::random_geometric`] this
    /// does *not* require connectivity — testbed layouts and
    /// partition/fault experiments need disconnected graphs.
    pub fn from_positions(positions: Vec<(f64, f64)>, radius: f64) -> Topology {
        let side = positions
            .iter()
            .flat_map(|&(x, y)| [x, y])
            .fold(0.0f64, f64::max);
        Topology::unit_disk(side, positions, radius)
    }

    fn unit_disk(side: f64, positions: Vec<(f64, f64)>, radius: f64) -> Topology {
        let n = positions.len();
        let mut adjacency = vec![Vec::new(); n];
        for i in 0..n {
            for j in (i + 1)..n {
                let (x1, y1) = positions[i];
                let (x2, y2) = positions[j];
                if (x1 - x2).powi(2) + (y1 - y2).powi(2) <= radius * radius {
                    adjacency[i].push(NodeId(j as u32));
                    adjacency[j].push(NodeId(i as u32));
                }
            }
        }
        Topology {
            kind: TopologyKind::Geometric { side, radius },
            positions,
            adjacency,
        }
    }

    pub fn len(&self) -> usize {
        self.positions.len()
    }

    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.positions.len() as u32).map(NodeId)
    }

    pub fn position(&self, id: NodeId) -> (f64, f64) {
        self.positions[id.index()]
    }

    pub fn neighbors(&self, id: NodeId) -> &[NodeId] {
        &self.adjacency[id.index()]
    }

    pub fn are_neighbors(&self, a: NodeId, b: NodeId) -> bool {
        self.adjacency[a.index()].contains(&b)
    }

    /// Grid coordinates of a node (grid topologies only).
    pub fn grid_coords(&self, id: NodeId) -> Option<(u32, u32)> {
        match self.kind {
            TopologyKind::Grid { cols, .. } => Some((id.0 % cols, id.0 / cols)),
            _ => None,
        }
    }

    /// Node at grid coordinates (grid topologies only).
    pub fn node_at(&self, x: u32, y: u32) -> Option<NodeId> {
        match self.kind {
            TopologyKind::Grid { cols, rows } => {
                if x < cols && y < rows {
                    Some(NodeId(y * cols + x))
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    pub fn grid_dims(&self) -> Option<(u32, u32)> {
        match self.kind {
            TopologyKind::Grid { cols, rows } => Some((cols, rows)),
            _ => None,
        }
    }

    /// Euclidean distance between two nodes.
    pub fn distance(&self, a: NodeId, b: NodeId) -> f64 {
        let (x1, y1) = self.position(a);
        let (x2, y2) = self.position(b);
        ((x1 - x2).powi(2) + (y1 - y2).powi(2)).sqrt()
    }

    /// Breadth-first search from `root`, neighbors in adjacency order — the
    /// one graph traversal every routing table, gathering tree, depth and
    /// connectivity answer is read from. A `root` outside the topology
    /// (any root of an empty one) reaches nothing.
    pub fn bfs(&self, root: NodeId) -> Bfs {
        let mut parent = vec![None; self.len()];
        let mut dist = vec![u32::MAX; self.len()];
        let mut queue = VecDeque::new();
        if let Some(d) = dist.get_mut(root.index()) {
            *d = 0;
            queue.push_back(root);
        }
        while let Some(v) = queue.pop_front() {
            for &w in self.neighbors(v) {
                if dist[w.index()] == u32::MAX {
                    dist[w.index()] = dist[v.index()] + 1;
                    parent[w.index()] = Some(v);
                    queue.push_back(w);
                }
            }
        }
        Bfs { parent, dist }
    }

    /// Whether node 0 reaches every node (vacuously true when empty).
    pub fn is_connected(&self) -> bool {
        self.bfs(NodeId(0)).dist.iter().all(|&d| d != u32::MAX)
    }

    /// Hop distance; `None` if unreachable.
    pub fn hop_distance(&self, a: NodeId, b: NodeId) -> Option<usize> {
        let d = self.bfs(a).dist[b.index()];
        (d != u32::MAX).then_some(d as usize)
    }

    /// The node whose position is closest to `(x, y)` (geographic-hash
    /// target resolution).
    pub fn closest_node(&self, x: f64, y: f64) -> NodeId {
        let mut best = NodeId(0);
        let mut best_d = f64::INFINITY;
        for id in self.nodes() {
            let (px, py) = self.position(id);
            let d = (px - x).powi(2) + (py - y).powi(2);
            if d < best_d {
                best_d = d;
                best = id;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `hop_distance` as it was before [`Topology::bfs`]: its own loop with
    /// an early exit at `b`.
    fn old_hop_distance(t: &Topology, a: NodeId, b: NodeId) -> Option<usize> {
        if a == b {
            return Some(0);
        }
        let mut dist = vec![usize::MAX; t.len()];
        dist[a.index()] = 0;
        let mut queue = VecDeque::from([a]);
        while let Some(v) = queue.pop_front() {
            for &w in t.neighbors(v) {
                if dist[w.index()] == usize::MAX {
                    dist[w.index()] = dist[v.index()] + 1;
                    if w == b {
                        return Some(dist[w.index()]);
                    }
                    queue.push_back(w);
                }
            }
        }
        None
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Grid, connected geometric and (mostly) disconnected inputs: the
        /// one traversal gives the old per-pair answers, and its parents
        /// are links one hop closer to the root.
        #[test]
        fn bfs_agrees_with_the_old_hop_distance(
            kind in 0u32..3,
            n in 1usize..36,
            seed in 0u64..10_000,
            root in 0usize..36,
        ) {
            let topo = match kind {
                0 => Topology::grid(1 + n as u32 % 6, 1 + n as u32 / 6),
                1 => Topology::random_geometric(n, 4.0, 1.8, seed).unwrap(),
                _ => {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let at = |rng: &mut StdRng| rng.gen::<f64>() * 10.0;
                    Topology::from_positions((0..n).map(|_| (at(&mut rng), at(&mut rng))).collect(), 1.5)
                }
            };
            let root = NodeId((root % topo.len()) as u32);
            let bfs = topo.bfs(root);
            for v in topo.nodes() {
                let d = bfs.dist[v.index()];
                let want = old_hop_distance(&topo, root, v);
                prop_assert_eq!((d != u32::MAX).then_some(d as usize), want);
                prop_assert_eq!(topo.hop_distance(root, v), want);
                match bfs.parent[v.index()] {
                    Some(p) => {
                        prop_assert!(topo.are_neighbors(p, v));
                        prop_assert_eq!(bfs.dist[p.index()] + 1, d);
                    }
                    None => prop_assert!(v == root || want.is_none()),
                }
            }
            let all_reached = topo.nodes().all(|v| old_hop_distance(&topo, NodeId(0), v).is_some());
            prop_assert_eq!(topo.is_connected(), all_reached);
            if kind < 2 {
                prop_assert!(all_reached);
            }
        }
    }

    #[test]
    fn bfs_is_safe_without_a_root() {
        let empty = Topology::from_positions(vec![], 1.0);
        let bfs = empty.bfs(NodeId(0));
        assert!(bfs.parent.is_empty() && bfs.dist.is_empty());
        assert!(empty.is_connected());
        // A root outside a non-empty topology reaches nothing either.
        let line = Topology::grid(3, 1);
        assert!(line.bfs(NodeId(9)).dist.iter().all(|&d| d == u32::MAX));
        // Two islands: the far one is unreachable, not a panic.
        let split = Topology::from_positions(vec![(0.0, 0.0), (1.0, 0.0), (9.0, 0.0)], 1.5);
        assert!(!split.is_connected());
        assert_eq!(split.hop_distance(NodeId(0), NodeId(2)), None);
        assert_eq!(split.bfs(NodeId(0)).parent, [None, Some(NodeId(0)), None]);
    }

    #[test]
    fn grid_shape() {
        let t = Topology::grid(4, 3);
        assert_eq!(t.len(), 12);
        assert_eq!(t.grid_coords(NodeId(0)), Some((0, 0)));
        assert_eq!(t.grid_coords(NodeId(5)), Some((1, 1)));
        assert_eq!(t.node_at(1, 1), Some(NodeId(5)));
        assert_eq!(t.node_at(4, 0), None);
        assert_eq!(t.position(NodeId(5)), (1.0, 1.0));
    }

    #[test]
    fn grid_neighbors_four_connected() {
        let t = Topology::square_grid(3);
        // corner has 2, edge 3, center 4
        assert_eq!(t.neighbors(NodeId(0)).len(), 2);
        assert_eq!(t.neighbors(NodeId(1)).len(), 3);
        assert_eq!(t.neighbors(NodeId(4)).len(), 4);
        assert!(t.are_neighbors(NodeId(0), NodeId(1)));
        assert!(!t.are_neighbors(NodeId(0), NodeId(4))); // diagonal
    }

    #[test]
    fn grid_connected_and_hops() {
        let t = Topology::square_grid(5);
        assert!(t.is_connected());
        // Manhattan distance in a grid.
        assert_eq!(t.hop_distance(NodeId(0), NodeId(24)), Some(8));
        assert_eq!(t.hop_distance(NodeId(7), NodeId(7)), Some(0));
    }

    #[test]
    fn random_geometric_connected_deterministic() {
        let t1 = Topology::random_geometric(30, 5.0, 1.6, 42).unwrap();
        let t2 = Topology::random_geometric(30, 5.0, 1.6, 42).unwrap();
        assert!(t1.is_connected());
        assert_eq!(t1.position(NodeId(7)), t2.position(NodeId(7)));
        // Unit-disk property.
        for id in t1.nodes() {
            for &n in t1.neighbors(id) {
                assert!(t1.distance(id, n) <= 1.6 + 1e-9);
            }
        }
    }

    #[test]
    fn hopeless_density_is_an_error_not_a_panic() {
        // 40 nodes in a 100×100 square with radius 0.5 can essentially
        // never be connected: the sampler must report, not crash.
        let err = Topology::random_geometric(40, 100.0, 0.5, 1).unwrap_err();
        assert_eq!(err.attempts, 200);
        assert!(err.to_string().contains("radius=0.5"));
    }

    #[test]
    fn closest_node_resolution() {
        let t = Topology::square_grid(4);
        assert_eq!(t.closest_node(0.1, 0.2), NodeId(0));
        assert_eq!(t.closest_node(2.9, 3.1), t.node_at(3, 3).unwrap());
    }

    #[test]
    fn distance_metric() {
        let t = Topology::square_grid(3);
        assert!((t.distance(NodeId(0), NodeId(8)) - 8f64.sqrt()).abs() < 1e-9);
    }
}
