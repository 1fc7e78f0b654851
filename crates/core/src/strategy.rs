//! GPA strategies (Sec. III-A).
//!
//! "The core idea … is that of intersecting storage and join-computation
//! regions … such regions can be arbitrary as long as every storage region
//! intersects with every join-computation region." The four instances the
//! paper names:
//!
//! | strategy        | storage region  | join-computation region |
//! |-----------------|-----------------|-------------------------|
//! | Perpendicular   | row / h-band    | column / v-band         |
//! | NaiveBroadcast  | whole network   | local node              |
//! | LocalStorage    | local node      | whole network           |
//! | Centroid        | — (central server runs the centralized engine) |
//! | *neighbourhood plane* | local node + neighbours that read it | local node |
//! | *no partner*    | none            | local node              |
//! | *spatial radius* | the strategy's, cut to the radius | the strategy's, cut to the radius |
//!
//! The last three rows are not strategies but a predicate's place, inferred
//! from the program by one walk (`logic::xy::locate`). A deployment turns
//! the strategy and the places into one `plan::Reach` per predicate, which
//! the runtime matches once per update; only PA's and LocalStorage's
//! regions are ever walked, so `Strategy::walks` lists only theirs, each
//! once. The deployment keeps that list: it prices every wait from it and
//! the runtime sends every storage walk and probe along it
//! (`plan::DistProgram::walks_of`).
//!
//! A predicate of the neighbourhood plane gets its own regions — the node
//! it is about plus the radio neighbours its rules read it at
//! (`plan::store_targets`) — under every strategy but Centroid, unless its
//! links lose more than one hop in ten. A predicate no rule joins with a
//! partner is never probed for: it is stored nowhere and joins where it
//! stands at once.
//!
//! A spatial join constraint (`dist(L1, L2) <= r`, Sec. III-A) cuts the
//! storage and join walks of an update to its predicate's radius around
//! the node holding it (`netstack::regions::Walk::kept`): the widest such
//! bound of the rules reading the predicate, stated once, in the program.
//! On a grid the row of `a` and the column of `b` cross at `(x_b, y_a)`,
//! within `dist(a, b)` of both, so the cut keeps the crossing of every pair
//! the bound admits. Off the grid the bands can cross at a detour node
//! (`regions::augment_with_detours`) that nothing keeps within reach, so
//! nothing is cut there. The cut measures from the node, so it holds only
//! while each tuple sits at its node's position: `Deployment::schedule`
//! stops cutting at the first event that does not.

use sensorlog_netsim::{NodeId, Topology, TopologyKind};
use sensorlog_netstack::regions::{self, Walk};

/// One-pass vs multiple-pass join computation (Sec. III-A).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum PassMode {
    /// Single traversal carrying all partial-result subsets (Fig. 1).
    #[default]
    OnePass,
    /// One traversal per remaining stream, joining one stream per pass.
    MultiPass,
}

/// GPA instance.
#[derive(Copy, Clone, PartialEq, Debug)]
pub enum Strategy {
    /// Rows store, columns join (bands off-grid with the given width).
    Perpendicular { band_width: f64 },
    /// Flood every tuple everywhere; join locally.
    NaiveBroadcast,
    /// Store locally; join traverses the entire network.
    LocalStorage,
    /// Ship every tuple to the central server (no in-network processing) —
    /// the baseline the paper calls prohibitive (Sec. III-A).
    Centroid,
}

impl Strategy {
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Perpendicular { .. } => "perpendicular",
            Strategy::NaiveBroadcast => "naive-broadcast",
            Strategy::LocalStorage => "local-storage",
            Strategy::Centroid => "centroid",
        }
    }

    /// Every distinct storage region and every distinct join region once,
    /// uncut, with the nodes whose region it is: PA's rows and columns or
    /// bands, LocalStorage's one walk over every node. A node stored alone
    /// walks nothing and is not listed.
    pub(crate) fn walks(&self, topo: &Topology) -> [Vec<Walk>; 2] {
        match *self {
            Strategy::Perpendicular { band_width } => regions::walks(topo, band_width),
            Strategy::LocalStorage => [Vec::new(), vec![Walk::line(all_nodes_snake(topo))]],
            _ => Default::default(),
        }
    }

    /// The central server for Centroid: the node closest to the deployment
    /// centroid. O(n); `NetInfo::new` computes it once and everything on a
    /// deployment reads `NetInfo::center`.
    pub fn center(topo: &Topology) -> NodeId {
        let (sx, sy) = topo
            .nodes()
            .map(|n| topo.position(n))
            .fold((0.0, 0.0), |(ax, ay), (x, y)| (ax + x, ay + y));
        let n = topo.len() as f64;
        topo.closest_node(sx / n, sy / n)
    }
}

/// All nodes in a traversal-friendly order: serpentine rows on grids
/// (consecutive nodes are radio neighbors), id order elsewhere (the router
/// bridges gaps).
pub fn all_nodes_snake(topo: &Topology) -> Vec<NodeId> {
    match topo.kind {
        TopologyKind::Grid { cols, rows } => {
            let mut out = Vec::with_capacity((cols * rows) as usize);
            for y in 0..rows {
                let xs: Vec<u32> = if y % 2 == 0 {
                    (0..cols).collect()
                } else {
                    (0..cols).rev().collect()
                };
                for x in xs {
                    out.push(topo.node_at(x, y).expect("in range"));
                }
            }
            out
        }
        _ => topo.nodes().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{compile_source, DistProgram, PlanTiming};
    use sensorlog_logic::builtin::BuiltinRegistry;
    use std::sync::Arc;

    /// A two-stream join deployed under `strategy` on `topo`: the table of
    /// walks its runtime reads.
    fn deployed(topo: &Topology, strategy: Strategy) -> DistProgram {
        let src = ".output q.\nq(X, Y) :- r1(X, K), r2(Y, K).";
        let p = compile_source(src, BuiltinRegistry::standard(), PlanTiming).unwrap();
        p.with_reach(strategy, false, true, topo)
    }

    /// Every node's storage walk meets every node's join walk, in the table
    /// the runtime reads: on a 6×6 grid and on Fig. 16's three graphs.
    #[test]
    fn pa_regions_intersect_pairwise() {
        let geometric = |n, side| Topology::random_geometric(n, side, 1.7, 97).unwrap();
        for (topo, band_width) in [
            (Topology::square_grid(6), 1.0),
            (geometric(25, 4.0), 1.7),
            (geometric(50, 5.5), 1.7),
            (geometric(100, 8.0), 1.7),
        ] {
            let p = deployed(&topo, Strategy::Perpendicular { band_width });
            let path = |n: NodeId, kind: usize| &p.walks_of(n)[kind].as_ref().unwrap().0.path;
            for a in topo.nodes() {
                for b in topo.nodes() {
                    let join = path(b, 1);
                    assert!(
                        path(a, 0).iter().any(|m| join.contains(m)),
                        "GPA invariant violated for {a}/{b}"
                    );
                }
            }
        }
    }

    /// LocalStorage stores at the node and joins over the whole network, one
    /// walk every node shares; NaiveBroadcast's storage is a flood, not a
    /// region, and it joins at the node.
    #[test]
    fn degenerate_strategies_intersect() {
        let topo = Topology::square_grid(4);
        let p = deployed(&topo, Strategy::LocalStorage);
        let [store, join] = p.walks_of(NodeId(3));
        assert!(store.is_none());
        let (all, at) = join.as_ref().unwrap();
        assert_eq!((all.path.len(), all.path[*at]), (16, NodeId(3)));
        let shared = |n: NodeId| Arc::ptr_eq(&p.walks_of(n)[1].as_ref().unwrap().0, all);
        assert!(topo.nodes().all(shared));
        assert_eq!(Strategy::NaiveBroadcast.walks(&topo), [vec![], vec![]]);
    }

    #[test]
    fn center_is_central() {
        let topo = Topology::square_grid(5);
        let c = Strategy::center(&topo);
        assert_eq!(topo.grid_coords(c), Some((2, 2)));
    }

    #[test]
    fn snake_order_is_radio_adjacent_on_grid() {
        let topo = Topology::square_grid(4);
        let snake = all_nodes_snake(&topo);
        assert_eq!(snake.len(), 16);
        for w in snake.windows(2) {
            assert!(topo.are_neighbors(w[0], w[1]));
        }
    }
}
