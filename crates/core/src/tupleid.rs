//! Tuple identity (Definition 2).
//!
//! "We use (I, τ) as the ID of a tuple t, where I is its source node and τ
//! is its generation-timestamp (local time at I when t was generated)." A
//! sequence number disambiguates multiple generations within one local
//! millisecond.

use sensorlog_eval::UpdateKind;
use sensorlog_logic::{Symbol, Tuple};
use sensorlog_netsim::{NodeId, SimTime};
use std::fmt;

/// Unique tuple identifier: source node + generation timestamp + sequence.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TupleId {
    pub node: NodeId,
    pub ts: SimTime,
    pub seq: u32,
}

impl fmt::Display for TupleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}#{}", self.node, self.ts, self.seq)
    }
}

/// An update traveling through the network: the paper's storage-phase and
/// join-phase payload. For deletions, `id` is the *original* insertion's
/// tuple ID (derivations are keyed by it) and `tau` the deletion event's
/// local timestamp.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FactRecord {
    pub pred: Symbol,
    pub tuple: Tuple,
    pub id: TupleId,
    pub kind: UpdateKind,
    /// Event (update) timestamp: generation ts for inserts, deletion ts for
    /// deletes.
    pub tau: SimTime,
}

impl FactRecord {
    pub fn insert(pred: Symbol, tuple: Tuple, id: TupleId) -> FactRecord {
        FactRecord {
            pred,
            tuple,
            id,
            kind: UpdateKind::Insert,
            tau: id.ts,
        }
    }

    pub fn delete(pred: Symbol, tuple: Tuple, id: TupleId, tau: SimTime) -> FactRecord {
        FactRecord {
            pred,
            tuple,
            id,
            kind: UpdateKind::Delete,
            tau,
        }
    }

    /// Approximate wire size: tuple bytes + id + header.
    pub fn byte_size(&self) -> usize {
        self.tuple.byte_size() + 16 + 2 + self.pred.as_str().len()
    }
}

/// The rule id of a derivation no rule fired: the key a static fact
/// (an empty-body rule's head, injected at its owner) is booked under.
pub const EDB_RULE: usize = usize::MAX;

/// Derivation identity as shipped to owner nodes: the rule plus the
/// participating tuple IDs keyed by body literal index ("a derivation of a
/// derived tuple t is the list of the tuple-IDs that join to yield t, one
/// from each of the data streams corresponding to the non-negated subgoals
/// … we also include the ID of the rule", Definition 2).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct DerivationKey {
    pub rule_id: usize,
    pub inputs: Vec<(u16, TupleId)>,
}

impl DerivationKey {
    /// Canonicalize (sort by literal index) so identity is independent of
    /// the order in which the join bound the subgoals.
    pub fn new(rule_id: usize, mut inputs: Vec<(u16, TupleId)>) -> DerivationKey {
        inputs.sort();
        DerivationKey { rule_id, inputs }
    }

    pub fn byte_size(&self) -> usize {
        4 + self.inputs.len() * 18
    }
}

/// The owner-side clamp: does a ledger already holding `stored` for a
/// derivation key absorb one more delta of `sign`? Per-key counts live in
/// `[-1, 1]` — a source-driven refresh re-announces live facts with their
/// original ids, so the same derivation (same key: keys embed input ids) can
/// legitimately arrive more than once, and repeated tombstone replays can
/// over-deliver the matching delete. Skipping the add when the stored count
/// already equals the sign makes both idempotent while still letting a
/// delete overtake its insert (transient -1) and letting the structural
/// checker catch genuine underflow on fault-free runs. The one statement of
/// the rule: owners and the provenance DAG's replay of their records both
/// ask it before they count.
pub fn clamp_absorbs(stored: i64, sign: i8) -> bool {
    stored == i64::from(sign)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensorlog_logic::Term;

    #[test]
    fn ids_order_by_node_time_seq() {
        let a = TupleId {
            node: NodeId(1),
            ts: 5,
            seq: 0,
        };
        let b = TupleId {
            node: NodeId(1),
            ts: 5,
            seq: 1,
        };
        assert!(a < b);
        assert_eq!(a.to_string(), "n1@5#0");
    }

    #[test]
    fn derivation_key_canonical() {
        let id1 = TupleId {
            node: NodeId(0),
            ts: 1,
            seq: 0,
        };
        let id2 = TupleId {
            node: NodeId(2),
            ts: 3,
            seq: 0,
        };
        let a = DerivationKey::new(7, vec![(1, id2), (0, id1)]);
        let b = DerivationKey::new(7, vec![(0, id1), (1, id2)]);
        assert_eq!(a, b);
    }

    #[test]
    fn fact_record_roundtrip() {
        let id = TupleId {
            node: NodeId(3),
            ts: 42,
            seq: 1,
        };
        let t = Tuple::new(vec![Term::Int(1), Term::str("enemy")]);
        let ins = FactRecord::insert(Symbol::intern("veh"), t.clone(), id);
        assert_eq!(ins.tau, 42);
        assert_eq!(ins.kind, UpdateKind::Insert);
        let del = FactRecord::delete(Symbol::intern("veh"), t, id, 99);
        assert_eq!(del.tau, 99);
        assert_eq!(del.id, id);
        assert!(del.byte_size() > 16);
    }
}
