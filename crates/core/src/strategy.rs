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

use sensorlog_netsim::{NodeId, Topology, TopologyKind};
use sensorlog_netstack::regions;

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

    /// Ordered storage region for a tuple generated at `node`;
    /// `None` for Centroid (which has no replication).
    pub fn storage_region(
        &self,
        topo: &Topology,
        node: NodeId,
        spatial_radius: Option<f64>,
    ) -> Option<Vec<NodeId>> {
        let region = match self {
            Strategy::Perpendicular { band_width } => {
                regions::storage_region(topo, node, *band_width)
            }
            Strategy::NaiveBroadcast => all_nodes_snake(topo),
            Strategy::LocalStorage => vec![node],
            Strategy::Centroid => return None,
        };
        Some(within(topo, region, node, spatial_radius))
    }

    /// Ordered join-computation region for an update at `node`.
    pub fn join_region(
        &self,
        topo: &Topology,
        node: NodeId,
        spatial_radius: Option<f64>,
    ) -> Option<Vec<NodeId>> {
        let region = match self {
            Strategy::Perpendicular { band_width } => regions::join_region(topo, node, *band_width),
            Strategy::NaiveBroadcast => vec![node],
            Strategy::LocalStorage => all_nodes_snake(topo),
            Strategy::Centroid => return None,
        };
        Some(within(topo, region, node, spatial_radius))
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

/// `region` cut down to the spatial-constraint radius around `node`, when
/// there is one (Fig. 7 experiments); never empty — `node` itself is the
/// region of last resort.
fn within(topo: &Topology, region: Vec<NodeId>, node: NodeId, radius: Option<f64>) -> Vec<NodeId> {
    let Some(r) = radius else {
        return region;
    };
    let t = regions::truncate(topo, &region, node, r);
    if t.is_empty() {
        vec![node]
    } else {
        t
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

    #[test]
    fn pa_regions_intersect_pairwise() {
        let topo = Topology::square_grid(6);
        let s = Strategy::Perpendicular { band_width: 1.0 };
        for a in topo.nodes() {
            let store = s.storage_region(&topo, a, None).unwrap();
            for b in topo.nodes() {
                let join = s.join_region(&topo, b, None).unwrap();
                assert!(
                    store.iter().any(|m| join.contains(m)),
                    "GPA invariant violated for {a}/{b}"
                );
            }
        }
    }

    #[test]
    fn degenerate_strategies_intersect() {
        let topo = Topology::square_grid(4);
        for s in [Strategy::NaiveBroadcast, Strategy::LocalStorage] {
            let store = s.storage_region(&topo, NodeId(3), None).unwrap();
            let join = s.join_region(&topo, NodeId(9), None).unwrap();
            assert!(store.iter().any(|m| join.contains(m)));
        }
    }

    #[test]
    fn centroid_has_no_regions() {
        let topo = Topology::square_grid(4);
        assert!(Strategy::Centroid
            .storage_region(&topo, NodeId(0), None)
            .is_none());
        assert!(Strategy::Centroid
            .join_region(&topo, NodeId(0), None)
            .is_none());
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

    #[test]
    fn spatial_truncation_shrinks_regions() {
        let topo = Topology::square_grid(9);
        let s = Strategy::Perpendicular { band_width: 1.0 };
        let mid = topo.node_at(4, 4).unwrap();
        let full = s.storage_region(&topo, mid, None).unwrap();
        let cut = s.storage_region(&topo, mid, Some(2.0)).unwrap();
        assert!(cut.len() < full.len());
        assert!(cut.contains(&mid));
        // Radius 0 degenerates to the local node.
        let local = s.join_region(&topo, mid, Some(0.0)).unwrap();
        assert_eq!(local, vec![mid]);
    }
}
