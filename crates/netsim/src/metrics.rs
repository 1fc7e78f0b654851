//! Communication accounting: the paper's evaluation currency.
//!
//! Two stores behind one set of accessors. A node's traffic (`tx`, `rx`,
//! `tx_bytes`, `rx_bytes`) is a dense [`NodeCounters`] row indexed by node
//! id: [`Metrics::new`] allocates every row at once and `record_tx` /
//! `record_rx` add to it, so neither construction nor delivery looks up a
//! key. Per-kind counters live in a [`MetricsRegistry`] and resolve their
//! ids the first time a kind moves them; after that they too are a
//! `Vec`-indexed add. The registry holds no node rows: [`Metrics::export`]
//! writes the `node:n/*` rows into a [`Snapshot`] when a reader asks, in
//! the registry's key order and with idle nodes' all-zero rows, so the
//! export is the one a registry with every node's four counters would
//! give. "Communication cost" in the experiment harness still means
//! `total_tx` unless stated otherwise; "load balance" compares
//! `max_node_load` against the mean.

use crate::topology::NodeId;
use crate::trace::DropReason;
use sensorlog_telemetry::{CounterId, CounterRow, MetricsRegistry, Scope, Snapshot};
use std::collections::BTreeMap;

/// Counters kept per message kind: `tx`, `rx`, `lost`, then one per
/// [`DropReason`] from `KIND_REASON0` on, in [`DropReason::index`] order.
/// The plain "lost" counter stays the all-reasons total so the conservation
/// invariant (`tx == rx + lost`) and every pre-fault-plane accessor are
/// unchanged.
const KIND_SLOTS: usize = KIND_REASON0 + DropReason::COUNT;
const KIND_TX: usize = 0;
const KIND_RX: usize = 1;
const KIND_LOST: usize = 2;
const KIND_REASON0: usize = 3;

/// Registry counter name of each slot (reasons in [`DropReason::index`]
/// order).
const KIND_COUNTERS: [&str; KIND_SLOTS] = [
    "tx",
    "rx",
    "lost",
    "lost_air",
    "lost_dead",
    "lost_retries",
    "lost_partition",
];

// Radio energy model, loosely after mica2-class motes: sending is ~1.5×
// the cost of receiving, with a fixed per-packet overhead (µJ).
const TX_PER_BYTE_UJ: f64 = 0.6;
const RX_PER_BYTE_UJ: f64 = 0.4;
const TX_BASE_UJ: f64 = 10.0;
const RX_BASE_UJ: f64 = 7.0;

/// One node's traffic counters: the row [`Metrics`] stores per node and
/// adds to on every transmission and delivery.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NodeCounters {
    pub tx: u64,
    pub rx: u64,
    pub tx_bytes: u64,
    pub rx_bytes: u64,
}

/// Whole-run metrics: dense per-node rows beside a deterministic registry
/// of per-kind counters.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    /// Per-kind counters only; node rows are `per_node`.
    reg: MetricsRegistry,
    per_node: Vec<NodeCounters>,
    /// Registry ids of each kind's counters, resolved the first time the
    /// counter moves — so a kind only gets a "tx" key if it ever
    /// transmitted, etc. Linear-scanned: simulations use a handful of kinds.
    per_kind: Vec<(&'static str, [Option<CounterId>; KIND_SLOTS])>,
}

impl Metrics {
    pub fn new(n_nodes: usize) -> Metrics {
        Metrics {
            reg: MetricsRegistry::new(),
            per_node: vec![NodeCounters::default(); n_nodes],
            per_kind: Vec::new(),
        }
    }

    /// Bump `kind`'s counter in `slot`; the registry's key map is walked
    /// only the first time this (kind, slot) pair is seen.
    #[inline]
    fn bump_kind(&mut self, kind: &'static str, slot: usize) {
        let pos = match self.per_kind.iter().position(|(k, _)| *k == kind) {
            Some(pos) => pos,
            None => {
                self.per_kind.push((kind, [None; KIND_SLOTS]));
                self.per_kind.len() - 1
            }
        };
        let id = match self.per_kind[pos].1[slot] {
            Some(id) => id,
            None => {
                let id = self.reg.counter(Scope::Kind(kind), KIND_COUNTERS[slot]);
                self.per_kind[pos].1[slot] = Some(id);
                id
            }
        };
        self.reg.inc(id);
    }

    pub fn record_tx(&mut self, node: NodeId, bytes: usize, kind: &'static str) {
        let c = &mut self.per_node[node.index()];
        c.tx += 1;
        c.tx_bytes += bytes as u64;
        self.bump_kind(kind, KIND_TX);
    }

    pub fn record_rx(&mut self, node: NodeId, bytes: usize, kind: &'static str) {
        let c = &mut self.per_node[node.index()];
        c.rx += 1;
        c.rx_bytes += bytes as u64;
        self.bump_kind(kind, KIND_RX);
    }

    pub fn record_loss(&mut self, kind: &'static str, reason: DropReason) {
        self.bump_kind(kind, KIND_LOST);
        self.bump_kind(kind, KIND_REASON0 + reason.index());
    }

    pub fn node(&self, id: NodeId) -> NodeCounters {
        self.per_node[id.index()]
    }

    fn nodes(&self) -> impl Iterator<Item = NodeCounters> + '_ {
        self.per_node.iter().copied()
    }

    /// Message kinds seen on the wire so far, with tx counts — the old
    /// `tx_by_kind` field, now computed from the registry.
    pub fn tx_by_kind(&self) -> BTreeMap<&'static str, u64> {
        self.by_kind("tx")
    }

    fn by_kind(&self, name: &'static str) -> BTreeMap<&'static str, u64> {
        self.reg
            .counters()
            .filter_map(|(key, v)| match key.scope {
                Scope::Kind(k) if key.name == name => Some((k, v)),
                _ => None,
            })
            .collect()
    }

    pub fn tx_of(&self, kind: &'static str) -> u64 {
        self.reg.count(Scope::Kind(kind), "tx")
    }

    pub fn rx_of(&self, kind: &'static str) -> u64 {
        self.reg.count(Scope::Kind(kind), "rx")
    }

    pub fn lost_of(&self, kind: &'static str) -> u64 {
        self.reg.count(Scope::Kind(kind), "lost")
    }

    /// Total messages lost on air (all kinds) — the old `lost` field.
    pub fn lost(&self) -> u64 {
        self.by_kind("lost").values().sum()
    }

    /// Losses broken down by [`DropReason`], summed over kinds. Indexed by
    /// [`DropReason::index`]; entries always sum to [`Metrics::lost`].
    pub fn lost_by_reason(&self) -> [u64; DropReason::COUNT] {
        let mut out = [0u64; DropReason::COUNT];
        for (i, total) in out.iter_mut().enumerate() {
            *total = self.by_kind(KIND_COUNTERS[KIND_REASON0 + i]).values().sum();
        }
        out
    }

    /// Total messages delivered (all kinds) — the old `delivered` field.
    pub fn delivered(&self) -> u64 {
        self.by_kind("rx").values().sum()
    }

    /// Per-kind `(kind, tx, rx, lost)` rows for the message-conservation
    /// invariant: at quiescence every transmission was either delivered or
    /// lost, so `tx == rx + lost` must hold per kind.
    pub fn kind_balance(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let tx = self.by_kind("tx");
        let rx = self.by_kind("rx");
        let lost = self.by_kind("lost");
        let mut kinds: Vec<&'static str> = tx
            .keys()
            .chain(rx.keys())
            .chain(lost.keys())
            .copied()
            .collect();
        kinds.sort_unstable();
        kinds.dedup();
        kinds
            .into_iter()
            .map(|k| {
                (
                    k,
                    tx.get(k).copied().unwrap_or(0),
                    rx.get(k).copied().unwrap_or(0),
                    lost.get(k).copied().unwrap_or(0),
                )
            })
            .collect()
    }

    /// The per-kind counter registry. It holds no `node:n/*` rows; read
    /// those through [`Self::node`], or [`Self::export`] for all of them.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.reg
    }

    /// Append every counter to `snap`: each node's four rows (idle nodes'
    /// zeros included), then the per-kind registry. Node scopes sort before
    /// kind scopes and a node's names sort `rx` < `rx_bytes` < `tx` <
    /// `tx_bytes`, so the rows come out in registry key order, as if each
    /// node's counters were registry entries.
    pub fn export(&self, snap: &mut Snapshot) {
        snap.counters.reserve(4 * self.per_node.len());
        for (n, c) in self.per_node.iter().enumerate() {
            let scope = Scope::Node(n as u32).to_string();
            for (name, value) in [
                ("rx", c.rx),
                ("rx_bytes", c.rx_bytes),
                ("tx", c.tx),
                ("tx_bytes", c.tx_bytes),
            ] {
                snap.counters.push(CounterRow {
                    scope: scope.clone(),
                    name: name.to_string(),
                    value,
                });
            }
        }
        snap.absorb_registry(&self.reg);
    }

    /// Total messages transmitted.
    pub fn total_tx(&self) -> u64 {
        self.nodes().map(|c| c.tx).sum()
    }

    pub fn total_tx_bytes(&self) -> u64 {
        self.nodes().map(|c| c.tx_bytes).sum()
    }

    pub fn total_rx(&self) -> u64 {
        self.nodes().map(|c| c.rx).sum()
    }

    /// Heaviest node's message load (tx + rx): the hotspot metric.
    pub fn max_node_load(&self) -> u64 {
        self.nodes().map(|c| c.tx + c.rx).max().unwrap_or(0)
    }

    /// Mean node message load.
    pub fn mean_node_load(&self) -> f64 {
        if self.per_node.is_empty() {
            return 0.0;
        }
        self.nodes().map(|c| (c.tx + c.rx) as f64).sum::<f64>() / self.per_node.len() as f64
    }

    /// Load imbalance factor: max / mean (1.0 = perfectly balanced).
    pub fn imbalance(&self) -> f64 {
        let mean = self.mean_node_load();
        if mean == 0.0 {
            return 1.0;
        }
        self.max_node_load() as f64 / mean
    }

    /// Total radio energy in microjoules under the energy model.
    pub fn total_energy_uj(&self) -> f64 {
        self.nodes()
            .map(|c| {
                c.tx as f64 * TX_BASE_UJ
                    + c.tx_bytes as f64 * TX_PER_BYTE_UJ
                    + c.rx as f64 * RX_BASE_UJ
                    + c.rx_bytes as f64 * RX_PER_BYTE_UJ
            })
            .sum()
    }

    /// Delivery ratio = delivered / (delivered + lost).
    pub fn delivery_ratio(&self) -> f64 {
        let (delivered, lost) = (self.delivered(), self.lost());
        let attempts = delivered + lost;
        if attempts == 0 {
            1.0
        } else {
            delivered as f64 / attempts as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new(3);
        m.record_tx(NodeId(0), 100, "storage");
        m.record_tx(NodeId(0), 50, "join");
        m.record_rx(NodeId(1), 100, "storage");
        m.record_loss("join", DropReason::Loss);
        assert_eq!(m.total_tx(), 2);
        assert_eq!(m.total_tx_bytes(), 150);
        assert_eq!(m.total_rx(), 1);
        assert_eq!(m.node(NodeId(0)).tx, 2);
        assert_eq!(m.tx_by_kind()["storage"], 1);
        assert_eq!(m.lost(), 1);
        assert_eq!(m.lost_of("join"), 1);
        assert_eq!(m.rx_of("storage"), 1);
        assert!((m.delivery_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn load_metrics() {
        let mut m = Metrics::new(4);
        for _ in 0..9 {
            m.record_tx(NodeId(2), 10, "x");
        }
        m.record_tx(NodeId(0), 10, "x");
        // loads: 10 tx total; node2 = 9, mean = 2.5
        assert_eq!(m.max_node_load(), 9);
        assert!((m.mean_node_load() - 2.5).abs() < 1e-9);
        assert!((m.imbalance() - 3.6).abs() < 1e-9);
    }

    #[test]
    fn energy_model() {
        let mut m = Metrics::new(1);
        m.record_tx(NodeId(0), 10, "x");
        let e = m.total_energy_uj();
        assert!((e - (10.0 + 6.0)).abs() < 1e-9);
    }

    #[test]
    fn empty_metrics_sane() {
        let m = Metrics::new(0);
        assert_eq!(m.total_tx(), 0);
        assert_eq!(m.max_node_load(), 0);
        assert!((m.delivery_ratio() - 1.0).abs() < 1e-9);
        assert!((m.imbalance() - 1.0).abs() < 1e-9);
        assert_eq!(m.mean_node_load(), 0.0);
        assert_eq!(m.total_energy_uj(), 0.0);
    }

    #[test]
    fn all_loss_delivery_ratio_is_zero() {
        let mut m = Metrics::new(2);
        for _ in 0..5 {
            m.record_tx(NodeId(0), 8, "x");
            m.record_loss("x", DropReason::Loss);
        }
        assert_eq!(m.delivered(), 0);
        assert_eq!(m.lost(), 5);
        assert!((m.delivery_ratio() - 0.0).abs() < 1e-9);
        // tx happened even though nothing arrived: energy/load still count.
        assert_eq!(m.total_tx(), 5);
        assert!(m.total_energy_uj() > 0.0);
    }

    #[test]
    fn nodes_but_no_traffic() {
        let m = Metrics::new(8);
        // No activity at all: mean 0 must not divide-by-zero imbalance.
        assert!((m.imbalance() - 1.0).abs() < 1e-9);
        assert!((m.delivery_ratio() - 1.0).abs() < 1e-9);
        assert_eq!(m.node(NodeId(7)), NodeCounters::default());
    }

    #[test]
    fn perfectly_balanced_imbalance_is_one() {
        let mut m = Metrics::new(4);
        for i in 0..4 {
            m.record_tx(NodeId(i), 10, "x");
        }
        assert!((m.imbalance() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rx_energy_counts_receiver_side() {
        let mut m = Metrics::new(2);
        m.record_rx(NodeId(1), 10, "x");
        // rx_base 7.0 + 10 bytes * 0.4
        assert!((m.total_energy_uj() - 11.0).abs() < 1e-9);
        assert_eq!(m.total_rx(), 1);
        assert_eq!(m.total_tx(), 0);
        assert!((m.delivery_ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn kind_balance_reports_every_kind() {
        let mut m = Metrics::new(2);
        m.record_tx(NodeId(0), 8, "ping");
        m.record_rx(NodeId(1), 8, "ping");
        m.record_tx(NodeId(0), 8, "pong");
        m.record_loss("pong", DropReason::Retries);
        let rows = m.kind_balance();
        assert_eq!(rows, vec![("ping", 1, 1, 0), ("pong", 1, 0, 1)]);
        for (_, tx, rx, lost) in rows {
            assert_eq!(tx, rx + lost);
        }
    }

    #[test]
    fn loss_reasons_partition_the_total() {
        let mut m = Metrics::new(2);
        m.record_loss("x", DropReason::Loss);
        m.record_loss("x", DropReason::Loss);
        m.record_loss("x", DropReason::DeadNode);
        m.record_loss("y", DropReason::Partition);
        m.record_loss("y", DropReason::Retries);
        let by = m.lost_by_reason();
        assert_eq!(by[DropReason::Loss.index()], 2);
        assert_eq!(by[DropReason::DeadNode.index()], 1);
        assert_eq!(by[DropReason::Retries.index()], 1);
        assert_eq!(by[DropReason::Partition.index()], 1);
        assert_eq!(by.iter().sum::<u64>(), m.lost());
    }
}
