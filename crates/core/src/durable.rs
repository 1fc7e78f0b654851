//! Per-node durable storage for crash–recovery.
//!
//! A sensor node's volatile state (replicas, owned derivations, in-flight
//! probes) is rebuilt by the network after a restart; what cannot be
//! rebuilt is the node's *own* base facts — nobody else knows what this
//! node sensed. [`DurableStore`] models the node's flash log: one map of
//! the live local facts, updated in place by every generate/retract.
//!
//! Recovery ([`DurableStore::recover`]) returns that map: the facts that
//! were live at crash time (with their ORIGINAL tuple ids, so
//! re-announcement is idempotent at replicas and owners), a bounded window
//! of recent deletions (so tombstones a dying node failed to finish
//! propagating get re-sent), and the sequence-number high-water mark (so
//! the new incarnation never re-mints an id the old one used).
//!
//! The store is deliberately tiny and single-purpose: it is *not* a
//! database, just the minimal durable substrate Theorem 3's retraction
//! semantics need to survive a crash.

use crate::tupleid::{FactRecord, TupleId};
use sensorlog_logic::intern::IdHashMap;
use sensorlog_logic::{Symbol, Tuple};

/// Most recent deletions retained for replay at recovery. A restarted
/// node re-propagates these tombstones; anything older has long since
/// finished its delete walk (bounded by τs + τj).
const RECENT_DELETES_CAP: usize = 64;

/// What `recover()` hands the new incarnation.
#[derive(Clone, Debug, Default)]
pub struct Recovered {
    /// Facts live at crash time, with their original ids.
    pub facts: Vec<(Symbol, Tuple, TupleId)>,
    /// Recent deletions whose tombstone propagation may have been cut
    /// short by the crash.
    pub recent_deletes: Vec<FactRecord>,
    /// Sequence high-water mark: the new incarnation starts above it.
    pub next_seq: u32,
}

/// Live-fact durable store for one node.
#[derive(Debug, Default)]
pub struct DurableStore {
    /// The node's live facts, with their ids.
    live: IdHashMap<(Symbol, Tuple), TupleId>,
    /// Ring of recent deletions (newest last), capped.
    recent_deletes: Vec<FactRecord>,
    /// Highest sequence number ever logged.
    seq_high_water: u32,
}

impl DurableStore {
    /// Log a locally generated fact.
    pub fn log_insert(&mut self, pred: Symbol, tuple: Tuple, id: TupleId) {
        self.note_seq(id.seq);
        self.live.insert((pred, tuple), id);
    }

    /// Log a retraction of a locally generated fact.
    pub fn log_delete(&mut self, pred: Symbol, tuple: Tuple, id: TupleId, tau: u64) {
        self.live.remove(&(pred, tuple.clone()));
        if self.recent_deletes.len() == RECENT_DELETES_CAP {
            self.recent_deletes.remove(0);
        }
        self.recent_deletes
            .push(FactRecord::delete(pred, tuple, id, tau));
    }

    /// Record that a sequence number was consumed (ids minted for derived
    /// tuples at owners, not just base facts).
    pub fn note_seq(&mut self, seq: u32) {
        self.seq_high_water = self.seq_high_water.max(seq.saturating_add(1));
    }

    /// Recover after a crash: returns the live facts (sorted for
    /// determinism), the recent-deletion window, and the seq high-water.
    pub fn recover(&self) -> Recovered {
        let mut facts: Vec<(Symbol, Tuple, TupleId)> = (self.live.iter())
            .map(|((p, t), &id)| (*p, t.clone(), id))
            .collect();
        facts.sort();
        Recovered {
            facts,
            recent_deletes: self.recent_deletes.clone(),
            next_seq: self.seq_high_water,
        }
    }

    /// The retained window of recent deletions (oldest first), for
    /// source-driven tombstone refresh.
    pub fn recent_deletes(&self) -> &[FactRecord] {
        &self.recent_deletes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensorlog_logic::Term;
    use sensorlog_netsim::NodeId;

    fn id(ts: u64, seq: u32) -> TupleId {
        TupleId {
            node: NodeId(3),
            ts,
            seq,
        }
    }

    fn tup(v: i64) -> Tuple {
        Tuple::new(vec![Term::Int(v)])
    }

    #[test]
    fn recover_returns_the_live_facts() {
        let p = Symbol::intern("s");
        let mut d = DurableStore::default();
        d.log_insert(p, tup(1), id(10, 0));
        d.log_insert(p, tup(2), id(20, 1));
        d.log_delete(p, tup(1), id(10, 0), 30);
        d.log_insert(p, tup(3), id(40, 2));
        let r = d.recover();
        let live: Vec<i64> = r
            .facts
            .iter()
            .map(|(_, t, _)| match t.get(0) {
                Term::Int(v) => v,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(live, vec![2, 3]);
        assert_eq!(r.next_seq, 3);
        assert_eq!(r.recent_deletes.len(), 1);
        assert_eq!(r.recent_deletes[0].id, id(10, 0));
        // Original ids survive.
        assert!(r.facts.iter().any(|&(_, _, i)| i == id(40, 2)));
    }

    #[test]
    fn recent_deletes_are_capped() {
        let p = Symbol::intern("s");
        let mut d = DurableStore::default();
        for i in 0..(RECENT_DELETES_CAP as i64 + 10) {
            d.log_insert(p, tup(i), id(i as u64, i as u32));
            d.log_delete(p, tup(i), id(i as u64, i as u32), i as u64 + 1);
        }
        let r = d.recover();
        assert_eq!(r.recent_deletes.len(), RECENT_DELETES_CAP);
        assert!(r.facts.is_empty());
        // The cap drops the *oldest* deletes.
        assert_eq!(
            r.recent_deletes.last().unwrap().tau,
            RECENT_DELETES_CAP as u64 + 10
        );
    }

    #[test]
    fn seq_high_water_survives_recovery() {
        let p = Symbol::intern("s");
        let mut d = DurableStore::default();
        d.log_insert(p, tup(1), id(5, 7));
        d.note_seq(42);
        let r = d.recover();
        assert_eq!(r.next_seq, 43);
        // A second crash recovers the same facts again.
        let r2 = d.recover();
        assert_eq!(r2.next_seq, 43);
        assert_eq!(r2.facts, r.facts);
    }
}
