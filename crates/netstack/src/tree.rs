//! Data-gathering spanning tree (the substrate for TAG-style aggregation,
//! Sec. IV-C "We can use specialized distributed techniques such as TAG").
//!
//! [`GatherTree`] is [`Topology::bfs`] rooted at the sink. The protocol that
//! builds the same tree in-network — a beacon flood — is [`crate::flood`].

use sensorlog_netsim::{Bfs, NodeId, Topology};

/// A rooted spanning tree: parent pointers + depth per node (`u32::MAX`
/// for nodes the root cannot reach).
#[derive(Clone, Debug)]
pub struct GatherTree {
    pub root: NodeId,
    pub parent: Vec<Option<NodeId>>,
    pub depth: Vec<u32>,
}

impl GatherTree {
    /// BFS tree from `root`.
    pub fn bfs(topo: &Topology, root: NodeId) -> GatherTree {
        let Bfs { parent, dist } = topo.bfs(root);
        GatherTree {
            root,
            parent,
            depth: dist,
        }
    }

    /// Number of children of every node, in one pass over `parent`.
    pub(crate) fn child_counts(&self) -> Vec<usize> {
        let mut counts = vec![0; self.parent.len()];
        for p in self.parent.iter().flatten() {
            counts[p.index()] += 1;
        }
        counts
    }

    /// Depth of the deepest reachable node (0 for an empty or single-node
    /// tree).
    pub fn max_depth(&self) -> u32 {
        self.depth
            .iter()
            .copied()
            .filter(|&d| d != u32::MAX)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bfs_tree_depths() {
        let topo = Topology::square_grid(5);
        let t = GatherTree::bfs(&topo, NodeId(0));
        // Depth = Manhattan distance from corner.
        for id in topo.nodes() {
            let (x, y) = topo.grid_coords(id).unwrap();
            assert_eq!(t.depth[id.index()], x + y);
        }
        assert_eq!(t.max_depth(), 8);
        assert!(t.parent[0].is_none());
    }

    #[test]
    fn children_partition() {
        let topo = Topology::square_grid(4);
        let t = GatherTree::bfs(&topo, NodeId(0));
        let counts = t.child_counts();
        // Every non-root has exactly one parent.
        assert_eq!(counts.iter().sum::<usize>(), topo.len() - 1);
        for id in topo.nodes() {
            let children = t.parent.iter().filter(|p| **p == Some(id)).count();
            assert_eq!(counts[id.index()], children);
        }
    }

    #[test]
    fn unreachable_nodes_have_no_depth_and_count_for_nobody() {
        let topo = Topology::from_positions(vec![(0.0, 0.0), (1.0, 0.0), (9.0, 0.0)], 1.5);
        let t = GatherTree::bfs(&topo, NodeId(0));
        assert_eq!(t.depth, [0, 1, u32::MAX]);
        assert_eq!(t.child_counts(), [1, 0, 0]);
        assert_eq!(t.max_depth(), 1);
        assert_eq!(
            GatherTree::bfs(&Topology::from_positions(vec![], 1.0), NodeId(0)).max_depth(),
            0
        );
    }
}
