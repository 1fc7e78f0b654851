//! Procedural shortest-path-tree baseline (the Kairos comparator for
//! Example 3 / Fig. 8).
//!
//! The ~20-line procedural program the paper contrasts `logicH` against: a
//! BFS beacon flood where each node adopts the best parent heard so far and
//! re-broadcasts on improvement. Functionally equivalent to `logicH`'s
//! output; the experiments compare the *communication* of the deductive
//! in-network evaluation against this hand-written protocol.

use sensorlog_netsim::{App, Ctx, MsgMeta, NodeId, SimConfig, Simulator, Topology};

#[derive(Clone, Debug)]
pub struct DistBeacon {
    pub dist: u32,
}

impl MsgMeta for DistBeacon {
    fn size_bytes(&self) -> usize {
        4
    }
    fn kind(&self) -> &'static str {
        "flood"
    }
}

pub struct FloodNode {
    pub id: NodeId,
    pub root: NodeId,
    pub dist: Option<u32>,
    pub parent: Option<NodeId>,
}

impl App for FloodNode {
    type Msg = DistBeacon;

    fn on_start(&mut self, ctx: &mut Ctx<DistBeacon>) {
        if self.id == self.root {
            self.dist = Some(0);
            ctx.broadcast(DistBeacon { dist: 0 });
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<DistBeacon>, from: NodeId, msg: DistBeacon) {
        let d = msg.dist + 1;
        if self.dist.is_none_or(|cur| d < cur) {
            self.dist = Some(d);
            self.parent = Some(from);
            ctx.broadcast(DistBeacon { dist: d });
        }
    }
}

/// Result of a flood run.
pub struct FloodResult {
    /// `(parent, dist)` per node; root has no parent.
    pub tree: Vec<(Option<NodeId>, Option<u32>)>,
    pub total_messages: u64,
    pub converged_at: u64,
}

/// Run the procedural baseline; deterministic for a given config seed.
pub fn run_flood(topo: &Topology, root: NodeId, config: SimConfig) -> FloodResult {
    let mut sim = Simulator::new(topo.clone(), config, move |id, _| FloodNode {
        id,
        root,
        dist: None,
        parent: None,
    });
    let converged_at = sim.run_to_quiescence(100_000_000);
    FloodResult {
        tree: sim.nodes().map(|n| (n.parent, n.dist)).collect(),
        total_messages: sim.metrics.total_tx(),
        converged_at,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::GatherTree;

    /// Loss-free, the protocol settles on the BFS tree's depths: on a grid
    /// (Manhattan distance from the corner) and off it, every node reached.
    #[test]
    fn flood_computes_bfs_distances() {
        for topo in [
            Topology::square_grid(5),
            Topology::random_geometric(30, 5.0, 1.7, 9).unwrap(),
        ] {
            let res = run_flood(&topo, NodeId(0), SimConfig::default());
            let oracle = GatherTree::bfs(&topo, NodeId(0));
            for id in topo.nodes() {
                assert_eq!(res.tree[id.index()].1, Some(oracle.depth[id.index()]));
                if let Some((x, y)) = topo.grid_coords(id) {
                    assert_eq!(res.tree[id.index()].1, Some(x + y));
                }
            }
            assert!(res.total_messages > 0);
        }
    }

    #[test]
    fn flood_parents_form_tree() {
        let topo = Topology::square_grid(4);
        let res = run_flood(&topo, NodeId(5), SimConfig::default());
        // Every non-root has a parent one hop closer.
        for id in topo.nodes() {
            if id == NodeId(5) {
                assert!(res.tree[id.index()].0.is_none());
                continue;
            }
            let (p, d) = res.tree[id.index()];
            let p = p.unwrap();
            assert_eq!(res.tree[p.index()].1.unwrap() + 1, d.unwrap());
            assert!(topo.are_neighbors(id, p));
        }
    }

    #[test]
    fn flood_on_lossy_network_may_degrade() {
        let topo = Topology::square_grid(5);
        let res = run_flood(
            &topo,
            NodeId(0),
            SimConfig {
                loss_prob: 0.5,
                seed: 3,
                ..SimConfig::default()
            },
        );
        // With heavy loss some nodes may be unreached or have non-optimal
        // distances; the run must still terminate.
        let reached = res.tree.iter().filter(|(_, d)| d.is_some()).count();
        assert!(reached >= 1);
        assert!(reached <= topo.len());
    }

    #[test]
    fn message_count_scales_linearly() {
        // O(n) broadcasts in the loss-free case (each node broadcasts at
        // least once, rarely more due to delay races).
        let m8 = run_flood(&Topology::square_grid(8), NodeId(0), SimConfig::default());
        let m4 = run_flood(&Topology::square_grid(4), NodeId(0), SimConfig::default());
        let per_node8 = m8.total_messages as f64 / 64.0;
        let per_node4 = m4.total_messages as f64 / 16.0;
        assert!(per_node8 < per_node4 * 2.0);
    }
}
