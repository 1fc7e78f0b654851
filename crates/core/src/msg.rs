//! Wire messages of the distributed engine.
//!
//! Everything multi-hop travels inside a [`Payload::Routed`] envelope; the
//! radio layer only ever delivers to neighbors (see `sensorlog_netsim`).
//! What a node hands the radio is a [`Msg`] — a shared pointer to the
//! payload, so a relay forwards the allocation it received.
//! Message kinds map onto the paper's phases: `store` (storage phase,
//! Sec. III-A), `probe` (join-computation phase), `result` (derived-tuple
//! deltas to owner nodes, Sec. III-B), `centroid` (the central-server
//! baseline's upload traffic).

use crate::partial::Partial;
use crate::tupleid::{DerivationKey, FactRecord, TupleId};
use sensorlog_logic::{Symbol, Tuple};
use sensorlog_netsim::{MsgMeta, NodeId, SimTime, Topology};
use sensorlog_netstack::regions::Walk;
use std::sync::Arc;

/// Where a storage walk or a probe stands on one of its deployment's walks
/// (`plan::DistProgram::walks_of`): the walk itself, shared with the table
/// and every other message on it, and its place there. Its members are
/// fixed when it starts, as a deployment may stop cutting mid-run.
#[derive(Clone, Debug, Default)]
pub struct OnWalk {
    /// The deployment's walk; `None` (the default): the one node the
    /// message is at — the probe of an update that joins where it stands, or
    /// a plane tuple's copy for one neighbour.
    pub walk: Option<Arc<Walk>>,
    /// Position on the walk of the member headed to / being processed at.
    pub pos: u32,
    /// Position of the member the update started at.
    pub from: u32,
    /// Whether the walk is cut to its predicate's radius around `from`.
    pub cut: bool,
    /// Even passes walk toward the walk's end, odd ones back toward its
    /// start: a probe's pass of its work items' pass plans
    /// ([`crate::plan::PassPlan`]), which U-turns at the end of a pass
    /// while some partial can still complete on the next; a storage walk's
    /// two sides from its node are passes 0 and 1.
    pub pass: u8,
}

impl OnWalk {
    /// A storage walk's side from `walk`'s member at `from`, cut to
    /// `radius` around it when there is one: pass 0 toward the walk's end,
    /// 1 toward its start.
    pub fn side(walk: &Arc<Walk>, from: usize, radius: Option<f64>, pass: u8) -> OnWalk {
        OnWalk {
            walk: Some(Arc::clone(walk)),
            pos: from as u32,
            from: from as u32,
            cut: radius.is_some(),
            pass,
        }
    }

    /// A probe's walk of `walk` for its member at `from`, cut to `radius`
    /// around it when there is one: from the first member the cut keeps
    /// (`from` itself when it keeps none).
    pub fn probe(topo: &Topology, walk: &Arc<Walk>, from: usize, radius: Option<f64>) -> OnWalk {
        let first = walk.kept(topo, from, radius, 0..walk.path.len()).next();
        OnWalk {
            pos: first.unwrap_or(from) as u32,
            ..OnWalk::side(walk, from, radius, 0)
        }
    }

    /// The member headed to; `None`: no walk, only the node it is at.
    pub fn at(&self) -> Option<NodeId> {
        Some(self.walk.as_ref()?.path[self.pos as usize])
    }

    /// The position of the next member on this pass (`behind`: the one
    /// before), on the walk cut to `radius` around `from` when it is cut.
    pub fn next(&self, topo: &Topology, radius: Option<f64>, behind: bool) -> Option<u32> {
        let walk = self.walk.as_ref()?;
        let radius = radius.filter(|_| self.cut);
        let kept = |range| walk.kept(topo, self.from as usize, radius, range);
        let pos = self.pos as usize;
        let next = if (self.pass % 2 == 1) != behind {
            kept(0..pos).next_back()
        } else {
            kept(pos + 1..walk.path.len()).next()
        };
        next.map(|k| k as u32)
    }
}

/// Join-probe state carried along the join-computation region.
#[derive(Clone, Debug)]
pub struct ProbeMsg {
    pub update: FactRecord,
    /// Where it stands on its join walk, and on which pass.
    pub on: OnWalk,
    /// Per-rule work: partial-result sets.
    pub work: Vec<RuleWork>,
}

/// Partial results of one rule inside a probe.
#[derive(Clone, Debug)]
pub struct RuleWork {
    pub rule_idx: u16,
    pub occ: u16,
    pub negated: bool,
    pub partials: Vec<Partial>,
}

impl ProbeMsg {
    pub fn byte_size(&self) -> usize {
        self.update.byte_size()
            + 8
            + self
                .work
                .iter()
                .map(|w| 6 + w.partials.iter().map(Partial::byte_size).sum::<usize>())
                .sum::<usize>()
    }
}

/// What is queued per hop: one pointer. The origin allocates the payload
/// (and, for a multi-hop journey, its envelope) once; a relay forwards the
/// `Arc` it received, a flood re-broadcasts it, and the consumer takes the
/// payload out with `Arc::unwrap_or_clone` — a move unless the fault
/// plane's duplication window shared it.
pub type Msg = Arc<Payload>;

/// Application payload.
#[derive(Clone, Debug)]
pub enum Payload {
    /// Multi-hop envelope: forwarded as is until the hop before `dest`,
    /// which sends `inner` alone.
    Routed { dest: NodeId, inner: Msg },
    /// Storage-phase walk: store a replica (or tombstone) and pass along.
    StoreWalk { fact: FactRecord, on: OnWalk },
    /// NaiveBroadcast storage: flood a replica everywhere.
    FloodStore { fact: FactRecord },
    /// Neighbourhood plane: an update sensed away from the node it is
    /// about, on its way to start there.
    Relocate { fact: FactRecord },
    /// Join-computation probe.
    Probe(ProbeMsg),
    /// Derivation delta to the derived tuple's owner node.
    DerivDelta {
        pred: Symbol,
        tuple: Tuple,
        key: DerivationKey,
        sign: i8,
        tau: SimTime,
        /// Id of the update whose probe emitted this delta — lets lineage
        /// compose across nodes into the provenance plane's causal DAG.
        /// Already determined by `key` + `tau` on the wire, so it is
        /// modeled inside the fixed `size_bytes` header, not billed extra.
        origin: TupleId,
    },
    /// Centroid baseline: raw fact upload to the central server.
    ToCenter { fact: FactRecord },
    /// Fault plane: 1-hop aliveness beacon. `version` is the sender's
    /// local time at send, `boot_ts` the local time of its current
    /// incarnation's boot (distinguishes a restarted node from the one
    /// that crashed).
    Heartbeat { version: SimTime, boot_ts: SimTime },
    /// Fault plane: flooded liveness transition for `subject`. Higher
    /// `version` wins; on a tie, dead wins.
    Liveness {
        subject: NodeId,
        version: SimTime,
        alive: bool,
        boot_ts: SimTime,
    },
    /// Fault plane: 1-hop anti-entropy digest of non-default liveness
    /// entries, exchanged on the refresh tick so a healed partition
    /// relearns deaths/reboots it missed.
    LivenessDigest {
        entries: Vec<(NodeId, SimTime, bool, SimTime)>,
    },
}

// The largest variant sizes every message allocation: a probe's walk state
// rides in the bytes its pointer and position took.
const _: () = assert!(std::mem::size_of::<Payload>() <= 96);

impl MsgMeta for Payload {
    fn size_bytes(&self) -> usize {
        match self {
            Payload::Routed { inner, .. } => 4 + inner.size_bytes(),
            Payload::StoreWalk { fact, .. } => fact.byte_size() + 6,
            Payload::FloodStore { fact } | Payload::Relocate { fact } => fact.byte_size(),
            Payload::Probe(p) => p.byte_size(),
            Payload::DerivDelta { tuple, key, .. } => tuple.byte_size() + key.byte_size() + 12,
            Payload::ToCenter { fact } => fact.byte_size(),
            Payload::Heartbeat { .. } => 12,
            Payload::Liveness { .. } => 18,
            Payload::LivenessDigest { entries } => 4 + entries.len() * 18,
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Payload::Routed { inner, .. } => inner.kind(),
            Payload::StoreWalk { .. } | Payload::FloodStore { .. } | Payload::Relocate { .. } => {
                "store"
            }
            Payload::Probe(_) => "probe",
            Payload::DerivDelta { .. } => "result",
            Payload::ToCenter { .. } => "centroid",
            Payload::Heartbeat { .. } => "hb",
            Payload::Liveness { .. } | Payload::LivenessDigest { .. } => "live",
        }
    }
}

impl Payload {
    /// The predicate this payload is about (the stream being stored or
    /// probed, or the derived predicate being delta'd). Used for telemetry's
    /// per-predicate traffic accounting; envelopes report their inner
    /// payload's predicate.
    pub fn pred(&self) -> Symbol {
        match self {
            Payload::Routed { inner, .. } => inner.pred(),
            Payload::StoreWalk { fact, .. }
            | Payload::FloodStore { fact }
            | Payload::Relocate { fact }
            | Payload::ToCenter { fact } => fact.pred,
            Payload::Probe(p) => p.update.pred,
            Payload::DerivDelta { pred, .. } => *pred,
            Payload::Heartbeat { .. }
            | Payload::Liveness { .. }
            | Payload::LivenessDigest { .. } => Symbol::intern("_sys"),
        }
    }

    /// The originating tuple id this payload's traffic is causally charged
    /// to (provenance hop attribution): the fact being stored/uploaded, the
    /// update being probed, or a delta's origin. `None` for fault-plane
    /// payloads, which have no single causal tuple.
    pub fn origin_id(&self) -> Option<crate::tupleid::TupleId> {
        match self {
            Payload::Routed { inner, .. } => inner.origin_id(),
            Payload::StoreWalk { fact, .. }
            | Payload::FloodStore { fact }
            | Payload::Relocate { fact }
            | Payload::ToCenter { fact } => Some(fact.id),
            Payload::Probe(p) => Some(p.update.id),
            Payload::DerivDelta { origin, .. } => Some(*origin),
            Payload::Heartbeat { .. }
            | Payload::Liveness { .. }
            | Payload::LivenessDigest { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tupleid::TupleId;
    use sensorlog_logic::Term;

    fn fact() -> FactRecord {
        FactRecord::insert(
            Symbol::intern("veh"),
            Tuple::new(vec![Term::Int(1)]),
            TupleId {
                node: NodeId(0),
                ts: 1,
                seq: 0,
            },
        )
    }

    /// Every pending event is one entry of the simulator's event heap, whose
    /// buffer is as big as the most events it ever held pending, so the
    /// run's peak heap scales with this size. `netsim` queues an app's
    /// message by value, so an `App` whose message
    /// is bigger than a pointer boxes or `Arc`s it: the node's is an `Arc`,
    /// and a queued delivery is two node ids, the carried size and that
    /// pointer.
    #[test]
    fn queued_event_stays_payload_independent() {
        use sensorlog_netsim::App;
        assert_eq!(
            std::mem::size_of::<<crate::SensorlogNode as App>::Msg>(),
            std::mem::size_of::<usize>(),
            "the node's wire message is no longer one pointer"
        );
        let bytes = sensorlog_netsim::Simulator::<crate::SensorlogNode>::queued_event_bytes();
        assert!(
            bytes <= 24,
            "a queued event grew to {bytes} B (Payload is {} B)",
            std::mem::size_of::<Payload>()
        );
    }

    /// A fact record is in every store, flood and center message, and the
    /// largest `Payload` variant sizes every message allocation. Both carry
    /// a `Tuple` (16 bytes: three ids inline, wider tuples behind one
    /// pointer); at 32 bytes it made them 64 and 112 B.
    #[test]
    fn tuple_bearing_messages_stay_small() {
        let record = std::mem::size_of::<FactRecord>();
        assert!(record <= 48, "FactRecord grew to {record} B");
        let payload = std::mem::size_of::<Payload>();
        assert!(payload <= 96, "Payload grew to {payload} B");
    }

    #[test]
    fn kinds_and_sizes() {
        let walk = Walk::line(vec![NodeId(0), NodeId(1)]);
        let store = Payload::StoreWalk {
            fact: fact(),
            on: OnWalk {
                walk: Some(Arc::new(walk)),
                ..OnWalk::default()
            },
        };
        assert_eq!(store.kind(), "store");
        assert!(store.size_bytes() > 0);
        let routed = Payload::Routed {
            dest: NodeId(5),
            inner: Arc::new(store),
        };
        // Envelope preserves the inner kind for accounting.
        assert_eq!(routed.kind(), "store");
        let center = Payload::ToCenter { fact: fact() };
        assert_eq!(center.kind(), "centroid");
    }
}

#[cfg(test)]
mod sizing_tests {
    use super::*;
    use crate::partial::Partial;
    use crate::tupleid::TupleId;
    use sensorlog_logic::flat::FlatSubst;
    use sensorlog_logic::intern::intern_int;
    use sensorlog_logic::Term;

    #[test]
    fn probe_size_grows_with_partials() {
        let id = TupleId {
            node: NodeId(0),
            ts: 1,
            seq: 0,
        };
        let update = FactRecord::insert(Symbol::intern("r1"), Tuple::new(vec![Term::Int(1)]), id);
        let mk_partial = |n_bindings: usize| {
            let mut bindings = FlatSubst::new();
            for i in 0..n_bindings {
                bindings.bind(Symbol::intern(&format!("V{i}")), intern_int(i as i64));
            }
            Partial {
                bindings,
                bound: 0b01,
                lits: 2,
                inputs: vec![(0, id)],
            }
        };
        let small = ProbeMsg {
            update: update.clone(),
            on: OnWalk::default(),
            work: vec![RuleWork {
                rule_idx: 0,
                occ: 0,
                negated: false,
                partials: vec![mk_partial(1)],
            }],
        };
        let big = ProbeMsg {
            work: vec![RuleWork {
                rule_idx: 0,
                occ: 0,
                negated: false,
                partials: (0..10).map(|_| mk_partial(5)).collect(),
            }],
            ..small.clone()
        };
        assert!(big.byte_size() > small.byte_size());
        assert_eq!(Payload::Probe(small).kind(), "probe");
    }

    #[test]
    fn deriv_delta_sizing() {
        let id = TupleId {
            node: NodeId(2),
            ts: 9,
            seq: 1,
        };
        let d = Payload::DerivDelta {
            pred: Symbol::intern("q"),
            tuple: Tuple::new(vec![Term::Int(1), Term::Int(2)]),
            key: DerivationKey::new(0, vec![(0, id), (1, id)]),
            sign: 1,
            tau: 5,
            origin: id,
        };
        assert_eq!(d.kind(), "result");
        assert!(d.size_bytes() > 16);
        assert_eq!(d.origin_id(), Some(id));
        let hb = Payload::Heartbeat {
            version: 1,
            boot_ts: 0,
        };
        assert_eq!(hb.origin_id(), None);
    }
}
