//! Per-node durable storage for crash–recovery.
//!
//! A sensor node's volatile state (replicas, owned derivations, in-flight
//! probes) is rebuilt by the network after a restart; what cannot be
//! rebuilt is the node's *own* base facts — nobody else knows what this
//! node sensed. [`DurableStore`] models the node's flash log: every
//! generate/retract of a local fact is appended to a journal tail, and the
//! tail is periodically folded into a checkpoint (the live-fact map) so
//! recovery replays a bounded suffix instead of the whole history.
//!
//! Recovery ([`DurableStore::recover`]) returns the fold of checkpoint +
//! tail: the facts that were live at crash time (with their ORIGINAL
//! tuple ids, so re-announcement is idempotent at replicas and owners), a
//! bounded window of recent deletions (so tombstones a dying node failed
//! to finish propagating get re-sent), and the sequence-number high-water
//! mark (so the new incarnation never re-mints an id the old one used).
//!
//! The store is deliberately tiny and single-purpose: it is *not* a
//! database, just the minimal durable substrate Theorem 3's retraction
//! semantics need to survive a crash.

use crate::tupleid::{FactRecord, TupleId};
use sensorlog_eval::UpdateKind;
use sensorlog_logic::intern::IdHashMap;
use sensorlog_logic::{Symbol, Tuple};

/// Most recent deletions retained for replay at recovery. A restarted
/// node re-propagates these tombstones; anything older has long since
/// finished its delete walk (bounded by τs + τj).
const RECENT_DELETES_CAP: usize = 64;

/// One journaled operation on the node's own facts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DurableOp {
    pub pred: Symbol,
    pub tuple: Tuple,
    pub id: TupleId,
    pub kind: UpdateKind,
    /// Deletion timestamp (deletes only; inserts carry it as `id.ts`).
    pub tau: u64,
}

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
    /// How many times this store has been recovered (0 on first boot).
    pub boots: u32,
}

/// Checkpoint + journal-tail durable store for one node.
#[derive(Debug, Default)]
pub struct DurableStore {
    /// Folded checkpoint: live facts as of the last fold.
    checkpoint: IdHashMap<(Symbol, Tuple), TupleId>,
    /// Operations since the last fold, in order.
    tail: Vec<DurableOp>,
    /// Fold the tail into the checkpoint once it reaches this length.
    checkpoint_every: usize,
    /// Ring of recent deletions (newest last), capped.
    recent_deletes: Vec<FactRecord>,
    /// Highest sequence number ever logged.
    seq_high_water: u32,
    /// Completed recoveries.
    boots: u32,
}

impl DurableStore {
    pub fn new(checkpoint_every: usize) -> DurableStore {
        DurableStore {
            checkpoint_every: checkpoint_every.max(1),
            ..DurableStore::default()
        }
    }

    /// Log a locally generated fact.
    pub fn log_insert(&mut self, pred: Symbol, tuple: Tuple, id: TupleId) {
        self.seq_high_water = self.seq_high_water.max(id.seq.saturating_add(1));
        self.tail.push(DurableOp {
            pred,
            tuple,
            id,
            kind: UpdateKind::Insert,
            tau: id.ts,
        });
        self.maybe_fold();
    }

    /// Log a retraction of a locally generated fact.
    pub fn log_delete(&mut self, pred: Symbol, tuple: Tuple, id: TupleId, tau: u64) {
        self.tail.push(DurableOp {
            pred,
            tuple: tuple.clone(),
            id,
            kind: UpdateKind::Delete,
            tau,
        });
        if self.recent_deletes.len() == RECENT_DELETES_CAP {
            self.recent_deletes.remove(0);
        }
        self.recent_deletes
            .push(FactRecord::delete(pred, tuple, id, tau));
        self.maybe_fold();
    }

    /// Record that a sequence number was consumed (ids minted for derived
    /// tuples at owners, not just base facts).
    pub fn note_seq(&mut self, seq: u32) {
        self.seq_high_water = self.seq_high_water.max(seq.saturating_add(1));
    }

    fn maybe_fold(&mut self) {
        if self.tail.len() >= self.checkpoint_every {
            for op in self.tail.drain(..) {
                match op.kind {
                    UpdateKind::Insert => {
                        self.checkpoint.insert((op.pred, op.tuple), op.id);
                    }
                    UpdateKind::Delete => {
                        self.checkpoint.remove(&(op.pred, op.tuple));
                    }
                }
            }
        }
    }

    /// Fold checkpoint + tail into the live-fact view without consuming
    /// anything (what a crash at this instant would recover).
    fn fold(&self) -> IdHashMap<(Symbol, Tuple), TupleId> {
        let mut live = self.checkpoint.clone();
        for op in &self.tail {
            match op.kind {
                UpdateKind::Insert => {
                    live.insert((op.pred, op.tuple.clone()), op.id);
                }
                UpdateKind::Delete => {
                    live.remove(&(op.pred, op.tuple.clone()));
                }
            }
        }
        live
    }

    /// Recover after a crash: returns the live facts (sorted for
    /// determinism), the recent-deletion window, and the seq high-water.
    /// Bumps the boot counter.
    pub fn recover(&mut self) -> Recovered {
        self.boots += 1;
        let mut facts: Vec<(Symbol, Tuple, TupleId)> = self
            .fold()
            .into_iter()
            .map(|((p, t), id)| (p, t, id))
            .collect();
        facts.sort();
        Recovered {
            facts,
            recent_deletes: self.recent_deletes.clone(),
            next_seq: self.seq_high_water,
            boots: self.boots,
        }
    }

    /// Completed recoveries so far (0 = this node never crashed).
    pub fn boots(&self) -> u32 {
        self.boots
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
    fn recover_folds_checkpoint_and_tail() {
        let p = Symbol::intern("s");
        let mut d = DurableStore::new(2); // fold every 2 ops
        d.log_insert(p, tup(1), id(10, 0));
        d.log_insert(p, tup(2), id(20, 1)); // fold happens here
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
        assert_eq!(r.boots, 1);
        assert_eq!(r.recent_deletes.len(), 1);
        assert_eq!(r.recent_deletes[0].id, id(10, 0));
        // Original ids survive the fold.
        assert!(r.facts.iter().any(|&(_, _, i)| i == id(40, 2)));
    }

    #[test]
    fn recent_deletes_are_capped() {
        let p = Symbol::intern("s");
        let mut d = DurableStore::new(1_000);
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
    fn seq_high_water_survives_checkpointing() {
        let p = Symbol::intern("s");
        let mut d = DurableStore::new(1);
        d.log_insert(p, tup(1), id(5, 7));
        d.note_seq(42);
        let r = d.recover();
        assert_eq!(r.next_seq, 43);
        // A second crash recovers the same facts again.
        let r2 = d.recover();
        assert_eq!(r2.boots, 2);
        assert_eq!(r2.facts, r.facts);
    }
}
