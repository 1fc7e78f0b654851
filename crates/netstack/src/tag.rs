//! TAG-style in-network aggregation (cited as \[32\] in the paper):
//! partial aggregates combine up a gathering tree, so the root receives one
//! value per epoch at O(n) total messages instead of O(n·depth) for naive
//! per-reading forwarding.

use crate::tree::GatherTree;
use sensorlog_netsim::{App, Ctx, MsgMeta, NodeId, SimConfig, Simulator, Topology};

/// Aggregate operators with distributive/algebraic partial states.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum TagOp {
    Min,
    Max,
    Sum,
    Count,
    Avg,
}

/// Partial aggregate state: (sum, count, min, max) covers all five ops.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Partial {
    pub sum: f64,
    pub count: u64,
    pub min: f64,
    pub max: f64,
}

impl Partial {
    pub fn of(v: f64) -> Partial {
        Partial {
            sum: v,
            count: 1,
            min: v,
            max: v,
        }
    }

    pub fn merge(self, o: Partial) -> Partial {
        Partial {
            sum: self.sum + o.sum,
            count: self.count + o.count,
            min: self.min.min(o.min),
            max: self.max.max(o.max),
        }
    }

    pub fn finish(self, op: TagOp) -> f64 {
        match op {
            TagOp::Min => self.min,
            TagOp::Max => self.max,
            TagOp::Sum => self.sum,
            TagOp::Count => self.count as f64,
            TagOp::Avg => {
                if self.count == 0 {
                    f64::NAN
                } else {
                    self.sum / self.count as f64
                }
            }
        }
    }
}

#[derive(Clone, Debug)]
pub struct PartialMsg {
    pub partial: Partial,
}

impl MsgMeta for PartialMsg {
    fn size_bytes(&self) -> usize {
        28
    }
    fn kind(&self) -> &'static str {
        "tag"
    }
}

/// One TAG epoch: leaves send immediately; interior nodes wait for all
/// children, merge, and forward (synchronized by child counting — the
/// loss-free case; synopsis diffusion would handle losses, future work as
/// in the paper).
pub struct TagNode {
    pub id: NodeId,
    pub parent: Option<NodeId>,
    pub expected_children: usize,
    pub reading: f64,
    acc: Option<Partial>,
    received: usize,
    pub result: Option<Partial>,
}

impl TagNode {
    fn maybe_forward(&mut self, ctx: &mut Ctx<PartialMsg>) {
        if self.received == self.expected_children {
            // No accumulator yet means a child's partial beat our own
            // start event; wait for on_start to fold in our reading.
            let Some(partial) = self.acc else { return };
            match self.parent {
                Some(p) => ctx.send(p, PartialMsg { partial }),
                None => self.result = Some(partial),
            }
        }
    }
}

impl App for TagNode {
    type Msg = PartialMsg;

    fn on_start(&mut self, ctx: &mut Ctx<PartialMsg>) {
        let own = Partial::of(self.reading);
        self.acc = Some(match self.acc {
            Some(acc) => acc.merge(own), // children that raced our start
            None => own,
        });
        self.maybe_forward(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<PartialMsg>, _from: NodeId, msg: PartialMsg) {
        // A child's partial can, in principle, arrive before our own start
        // event: merge into whatever we have instead of panicking.
        self.acc = Some(match self.acc {
            Some(acc) => acc.merge(msg.partial),
            None => msg.partial,
        });
        self.received += 1;
        self.maybe_forward(ctx);
    }
}

/// Run one TAG epoch over `readings` (indexed by node); returns the root's
/// partial and the total message count. The partial is `None` when the root
/// never heard from every child — child counting has no answer to a lost
/// partial: the parent waits, and so does every ancestor. It covers the
/// root's component only: nodes the tree does not reach have no parent to
/// send to.
pub fn run_epoch(
    topo: &Topology,
    tree: &GatherTree,
    readings: &[f64],
    config: SimConfig,
) -> (Option<Partial>, u64) {
    assert_eq!(readings.len(), topo.len());
    let parent = tree.parent.clone();
    let children = tree.child_counts();
    let readings = readings.to_vec();
    let mut sim = Simulator::new(topo.clone(), config, move |id, _| TagNode {
        id,
        parent: parent[id.index()],
        expected_children: children[id.index()],
        reading: readings[id.index()],
        acc: None,
        received: 0,
        result: None,
    });
    sim.run_to_quiescence(10_000_000);
    (sim.node(tree.root).result, sim.metrics.total_tx())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::GatherTree;

    #[test]
    fn epoch_aggregates_exactly() {
        let topo = Topology::square_grid(4);
        let tree = GatherTree::bfs(&topo, NodeId(0));
        let readings: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let (p, msgs) = run_epoch(&topo, &tree, &readings, SimConfig::default());
        let p = p.expect("loss-free epoch on a connected grid");
        assert_eq!(p.finish(TagOp::Sum), 120.0);
        assert_eq!(p.finish(TagOp::Count), 16.0);
        assert_eq!(p.finish(TagOp::Min), 0.0);
        assert_eq!(p.finish(TagOp::Max), 15.0);
        assert!((p.finish(TagOp::Avg) - 7.5).abs() < 1e-9);
        // TAG sends exactly one message per non-root node.
        assert_eq!(msgs, 15);
    }

    #[test]
    fn tag_beats_naive_forwarding() {
        let topo = Topology::square_grid(6);
        let tree = GatherTree::bfs(&topo, NodeId(0));
        let readings = vec![1.0; 36];
        let (_, tag_msgs) = run_epoch(&topo, &tree, &readings, SimConfig::default());
        // Naive: each reading travels depth hops to the root.
        let naive: u64 = topo.nodes().map(|n| tree.depth[n.index()] as u64).sum();
        assert!(tag_msgs < naive, "TAG {tag_msgs} !< naive {naive}");
    }

    /// Regression: both used to panic in `run_epoch` ("root must finish in
    /// a loss-free epoch") instead of reporting that the epoch has no answer.
    #[test]
    fn an_epoch_the_root_cannot_finish_is_none_not_a_panic() {
        let topo = Topology::square_grid(3);
        let tree = GatherTree::bfs(&topo, NodeId(0));
        let lossy = SimConfig {
            loss_prob: 1.0,
            ..SimConfig::default()
        };
        let (p, msgs) = run_epoch(&topo, &tree, &[1.0; 9], lossy);
        assert_eq!(p, None);
        assert!(msgs > 0, "leaves still transmit; every partial is lost");
        // Two components: the epoch answers for the root's side only (nodes
        // the tree does not reach have no parent to send to).
        let topo = Topology::from_positions(
            vec![(0.0, 0.0), (1.0, 0.0), (100.0, 0.0), (101.0, 0.0)],
            1.5,
        );
        for (root, want) in [(NodeId(0), Some(3.0)), (NodeId(2), Some(7.0))] {
            let tree = GatherTree::bfs(&topo, root);
            let (p, msgs) = run_epoch(&topo, &tree, &[1.0, 2.0, 3.0, 4.0], SimConfig::default());
            assert_eq!(p.map(|p| p.finish(TagOp::Sum)), want);
            assert_eq!(msgs, 1);
        }
    }

    #[test]
    fn partial_merge_laws() {
        let a = Partial::of(3.0);
        let b = Partial::of(5.0).merge(Partial::of(1.0));
        let ab = a.merge(b);
        let ba = b.merge(a);
        assert_eq!(ab, ba); // commutative
        assert_eq!(ab.count, 3);
        assert_eq!(ab.min, 1.0);
        assert_eq!(ab.max, 5.0);
        assert_eq!(ab.sum, 9.0);
    }
}
