//! Cross-node provenance recording: the provenance plane's records, from
//! every node of a deployment. A Centroid center turns its engine's
//! ledger transitions (`sensorlog_eval::Firing`) into the same records.
//!
//! A [`Provenance`] handle is shared by every node of a deployment, exactly
//! like the telemetry handle: disabled by default (one branch per recording
//! site, no allocation), and a **pure observer** when enabled — recording
//! never touches timers, messages, counters, or the RNG, so the netsim
//! journal of a run is byte-identical with the plane on or off.
//!
//! Four record kinds compose into the global causal DAG keyed by
//! [`TupleId`]:
//!
//! * [`ProvRecord::Edb`] — a base fact generated/retracted at its source
//!   (or a static fact injected at its owner): the proof **leaves**;
//! * [`ProvRecord::Deriv`] — a derivation delta landing at the owner of the
//!   derived tuple, carrying the [`DerivationKey`] whose input ids are the
//!   proof edges, plus the originating update's id for latency attribution;
//! * [`ProvRecord::Mint`] — the owner propagating a liveness transition
//!   after holddown: binds the derived tuple to the [`TupleId`] that
//!   downstream derivations will reference;
//! * [`ProvRecord::Hop`] — one delivered hop of a payload that carries an
//!   originating tuple id (store walks and floods, probes, result deltas,
//!   centroid uploads), recorded by the node it lands at, which charges
//!   the traffic to the tuple that caused it. A transmission that is lost
//!   leaves no hop; the netsim journal's `Drop` records it. Fault-plane
//!   payloads (heartbeats, liveness) carry no causal origin and no hop.
//!
//! Records serialize to JSONL (one object per line) with the workspace's
//! one line codec (`sensorlog_telemetry::jsonl`, which `netsim` journals
//! use too), so per-node logs can be shipped out-of-band and re-ingested by
//! `sensorlog-provenance`.

use crate::tupleid::{DerivationKey, TupleId};
use sensorlog_eval::UpdateKind;
use sensorlog_logic::{parse_fact, Symbol, Tuple};
use sensorlog_netsim::trace::intern_kind;
use sensorlog_netsim::{NodeId, SimTime};
use sensorlog_telemetry::jsonl::{escape, field_i64, field_str, field_u64};
use std::fmt;
use std::sync::{Arc, Mutex};

/// One provenance event observed by the distributed runtime.
#[derive(Clone, Debug, PartialEq)]
pub enum ProvRecord {
    /// A base (or static) fact entering/leaving the network at `node`.
    Edb {
        node: NodeId,
        pred: Symbol,
        tuple: Tuple,
        id: TupleId,
        kind: UpdateKind,
        tau: SimTime,
    },
    /// A derivation delta applied at the derived tuple's owner.
    Deriv {
        owner: NodeId,
        pred: Symbol,
        tuple: Tuple,
        key: DerivationKey,
        sign: i8,
        /// Event timestamp of the originating update (the delta's τ).
        tau: SimTime,
        /// Id of the update whose probe emitted this delta.
        origin: TupleId,
        /// Owner-local arrival time.
        at: SimTime,
    },
    /// The owner finalizing a liveness transition (post-holddown) and
    /// propagating the derived fact under `id`.
    Mint {
        owner: NodeId,
        pred: Symbol,
        tuple: Tuple,
        id: TupleId,
        kind: UpdateKind,
        at: SimTime,
    },
    /// One delivered hop of an origin-carrying payload, recorded at `to`
    /// (`kind` is the wire kind: `store`, `probe`, `result`, `centroid`;
    /// `dest` is a routed envelope's destination, otherwise `to`; `at` is
    /// `to`'s local arrival time).
    Hop {
        from: NodeId,
        to: NodeId,
        dest: NodeId,
        kind: &'static str,
        origin: TupleId,
        at: SimTime,
    },
}

/// Shared recording handle (clone-per-node, telemetry-style).
#[derive(Clone, Debug, Default)]
pub struct Provenance {
    inner: Option<Arc<Mutex<Vec<ProvRecord>>>>,
}

impl Provenance {
    /// The no-op handle: recording sites cost one branch.
    pub fn disabled() -> Provenance {
        Provenance { inner: None }
    }

    /// A live handle backed by a shared record log.
    pub fn enabled() -> Provenance {
        Provenance {
            inner: Some(Arc::new(Mutex::new(Vec::new()))),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Record one event. The closure only runs when the plane is enabled,
    /// so disabled handles never construct (or clone into) a record.
    pub fn record_with(&self, f: impl FnOnce() -> ProvRecord) {
        if let Some(log) = &self.inner {
            log.lock().unwrap().push(f());
        }
    }

    /// Copy out the records captured so far.
    pub fn snapshot(&self) -> Vec<ProvRecord> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |l| l.lock().unwrap().clone())
    }
}

// ----------------------------------------------------------------------
// JSONL round-trip
// ----------------------------------------------------------------------

/// Parse failure for [`from_jsonl`], with a 1-based line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProvParseError {
    pub line: usize,
    pub msg: String,
}

impl fmt::Display for ProvParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "provenance line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ProvParseError {}

fn atom_str(pred: Symbol, tuple: &Tuple) -> String {
    format!("{pred}{tuple}")
}

fn id_str(id: TupleId) -> String {
    format!("{}@{}#{}", id.node.0, id.ts, id.seq)
}

fn parse_id(s: &str) -> Option<TupleId> {
    let (node, rest) = s.split_once('@')?;
    let (ts, seq) = rest.split_once('#')?;
    Some(TupleId {
        node: NodeId(node.parse().ok()?),
        ts: ts.parse().ok()?,
        seq: seq.parse().ok()?,
    })
}

fn key_str(key: &DerivationKey) -> String {
    let inputs: Vec<String> = key
        .inputs
        .iter()
        .map(|(lit, id)| format!("{lit}:{}", id_str(*id)))
        .collect();
    format!("{}|{}", key.rule_id, inputs.join(","))
}

fn parse_key(s: &str) -> Option<DerivationKey> {
    let (rule, rest) = s.split_once('|')?;
    let mut inputs = Vec::new();
    if !rest.is_empty() {
        for part in rest.split(',') {
            let (lit, id) = part.split_once(':')?;
            inputs.push((lit.parse().ok()?, parse_id(id)?));
        }
    }
    Some(DerivationKey::new(rule.parse().ok()?, inputs))
}

fn update_kind(s: &str) -> Option<UpdateKind> {
    match s {
        "ins" => Some(UpdateKind::Insert),
        "del" => Some(UpdateKind::Delete),
        _ => None,
    }
}

fn kind_str(k: UpdateKind) -> &'static str {
    match k {
        UpdateKind::Insert => "ins",
        UpdateKind::Delete => "del",
    }
}

/// Serialize records to JSONL, one object per line.
pub fn to_jsonl(records: &[ProvRecord]) -> String {
    use fmt::Write;
    let mut s = String::with_capacity(records.len() * 96);
    for r in records {
        match r {
            ProvRecord::Edb {
                node,
                pred,
                tuple,
                id,
                kind,
                tau,
            } => {
                let _ = writeln!(
                    s,
                    r#"{{"type":"edb","node":{},"atom":{},"id":{},"kind":"{}","tau":{}}}"#,
                    node.0,
                    escape(&atom_str(*pred, tuple)),
                    escape(&id_str(*id)),
                    kind_str(*kind),
                    tau
                );
            }
            ProvRecord::Deriv {
                owner,
                pred,
                tuple,
                key,
                sign,
                tau,
                origin,
                at,
            } => {
                let _ = writeln!(
                    s,
                    r#"{{"type":"deriv","owner":{},"atom":{},"key":{},"sign":{},"tau":{},"origin":{},"at":{}}}"#,
                    owner.0,
                    escape(&atom_str(*pred, tuple)),
                    escape(&key_str(key)),
                    sign,
                    tau,
                    escape(&id_str(*origin)),
                    at
                );
            }
            ProvRecord::Mint {
                owner,
                pred,
                tuple,
                id,
                kind,
                at,
            } => {
                let _ = writeln!(
                    s,
                    r#"{{"type":"mint","owner":{},"atom":{},"id":{},"kind":"{}","at":{}}}"#,
                    owner.0,
                    escape(&atom_str(*pred, tuple)),
                    escape(&id_str(*id)),
                    kind_str(*kind),
                    at
                );
            }
            ProvRecord::Hop {
                from,
                to,
                dest,
                kind,
                origin,
                at,
            } => {
                let _ = writeln!(
                    s,
                    r#"{{"type":"hop","from":{},"to":{},"dest":{},"kind":{},"origin":{},"at":{}}}"#,
                    from.0,
                    to.0,
                    dest.0,
                    escape(kind),
                    escape(&id_str(*origin)),
                    at
                );
            }
        }
    }
    s
}

/// Parse a JSONL provenance log produced by [`to_jsonl`].
pub fn from_jsonl(text: &str) -> Result<Vec<ProvRecord>, ProvParseError> {
    let err = |line: usize, msg: &str| ProvParseError {
        line: line + 1,
        msg: msg.to_string(),
    };
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let ty = field_str(line, "type").ok_or_else(|| err(lineno, "missing type"))?;
        let atom = |key: &str| -> Result<(Symbol, Tuple), ProvParseError> {
            let s = field_str(line, key).ok_or_else(|| err(lineno, "missing atom"))?;
            let (pred, terms) =
                parse_fact(&s).map_err(|e| err(lineno, &format!("bad atom `{s}`: {e}")))?;
            Ok((pred, Tuple::new(terms)))
        };
        let id_field = |key: &str| -> Result<TupleId, ProvParseError> {
            let s = field_str(line, key).ok_or_else(|| err(lineno, &format!("missing {key}")))?;
            parse_id(&s).ok_or_else(|| err(lineno, &format!("bad tuple id `{s}`")))
        };
        let node_field = |key: &str| -> Result<NodeId, ProvParseError> {
            let n = field_u64(line, key).ok_or_else(|| err(lineno, &format!("missing {key}")))?;
            let n =
                u32::try_from(n).map_err(|_| err(lineno, &format!("{key} {n} out of range")))?;
            Ok(NodeId(n))
        };
        let rec = match ty.as_str() {
            "edb" => {
                let (pred, tuple) = atom("atom")?;
                let kind = field_str(line, "kind")
                    .and_then(|k| update_kind(&k))
                    .ok_or_else(|| err(lineno, "missing or bad kind"))?;
                ProvRecord::Edb {
                    node: node_field("node")?,
                    pred,
                    tuple,
                    id: id_field("id")?,
                    kind,
                    tau: field_u64(line, "tau").ok_or_else(|| err(lineno, "missing tau"))?,
                }
            }
            "deriv" => {
                let (pred, tuple) = atom("atom")?;
                let key_s = field_str(line, "key").ok_or_else(|| err(lineno, "missing key"))?;
                let key = parse_key(&key_s)
                    .ok_or_else(|| err(lineno, &format!("bad derivation key `{key_s}`")))?;
                let sign = field_i64(line, "sign").ok_or_else(|| err(lineno, "missing sign"))?;
                let sign = i8::try_from(sign)
                    .map_err(|_| err(lineno, &format!("sign {sign} out of range")))?;
                ProvRecord::Deriv {
                    owner: node_field("owner")?,
                    pred,
                    tuple,
                    key,
                    sign,
                    tau: field_u64(line, "tau").ok_or_else(|| err(lineno, "missing tau"))?,
                    origin: id_field("origin")?,
                    at: field_u64(line, "at").ok_or_else(|| err(lineno, "missing at"))?,
                }
            }
            "mint" => {
                let (pred, tuple) = atom("atom")?;
                let kind = field_str(line, "kind")
                    .and_then(|k| update_kind(&k))
                    .ok_or_else(|| err(lineno, "missing or bad kind"))?;
                ProvRecord::Mint {
                    owner: node_field("owner")?,
                    pred,
                    tuple,
                    id: id_field("id")?,
                    kind,
                    at: field_u64(line, "at").ok_or_else(|| err(lineno, "missing at"))?,
                }
            }
            "hop" => ProvRecord::Hop {
                from: node_field("from")?,
                to: node_field("to")?,
                dest: node_field("dest")?,
                kind: intern_kind(
                    &field_str(line, "kind").ok_or_else(|| err(lineno, "missing kind"))?,
                ),
                origin: id_field("origin")?,
                at: field_u64(line, "at").ok_or_else(|| err(lineno, "missing at"))?,
            },
            other => return Err(err(lineno, &format!("unknown record type `{other}`"))),
        };
        out.push(rec);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensorlog_logic::Term;

    fn tid(n: u32, ts: SimTime, seq: u32) -> TupleId {
        TupleId {
            node: NodeId(n),
            ts,
            seq,
        }
    }

    fn sample() -> Vec<ProvRecord> {
        let pred = Symbol::intern("q");
        let tuple = Tuple::new(vec![Term::Int(1), Term::str("a\"b")]);
        vec![
            ProvRecord::Edb {
                node: NodeId(3),
                pred: Symbol::intern("r1"),
                tuple: Tuple::new(vec![Term::Int(1)]),
                id: tid(3, 10, 0),
                kind: UpdateKind::Insert,
                tau: 10,
            },
            ProvRecord::Deriv {
                owner: NodeId(5),
                pred,
                tuple: tuple.clone(),
                key: DerivationKey::new(2, vec![(0, tid(3, 10, 0)), (1, tid(7, 20, 1))]),
                sign: -1,
                tau: 20,
                origin: tid(7, 20, 1),
                at: 1_900,
            },
            ProvRecord::Mint {
                owner: NodeId(5),
                pred,
                tuple,
                id: tid(5, 2_000, 4),
                kind: UpdateKind::Delete,
                at: 2_000,
            },
            ProvRecord::Hop {
                from: NodeId(3),
                to: NodeId(4),
                dest: NodeId(5),
                kind: "result",
                origin: tid(7, 20, 1),
                at: 1_850,
            },
        ]
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let p = Provenance::disabled();
        let mut called = false;
        p.record_with(|| {
            called = true;
            sample().remove(0)
        });
        assert!(!called, "closure must not run when disabled");
        assert!(p.snapshot().is_empty());
    }

    #[test]
    fn enabled_handle_is_shared_across_clones() {
        let p = Provenance::enabled();
        let q = p.clone();
        p.record_with(|| sample().remove(0));
        assert_eq!(q.snapshot(), [sample().remove(0)]);
    }

    #[test]
    fn jsonl_round_trip_is_exact() {
        let recs = sample();
        let text = to_jsonl(&recs);
        let back = from_jsonl(&text).unwrap();
        assert_eq!(recs, back);
    }

    #[test]
    fn jsonl_errors_carry_line_numbers() {
        assert!(from_jsonl(r#"{"type":"warp"}"#).is_err());
        let e = from_jsonl("{\"type\":\"edb\",\"node\":1}\n").unwrap_err();
        assert_eq!(e.line, 1);
        let good = to_jsonl(&sample());
        let mut garbled = good.clone();
        garbled.push_str("{\"type\":\"hop\",\"from\":0}\n");
        let e = from_jsonl(&garbled).unwrap_err();
        assert_eq!(e.line, good.lines().count() + 1);
    }

    #[test]
    fn jsonl_unknown_kind_is_interned_once() {
        let hop = |at| ProvRecord::Hop {
            from: NodeId(0),
            to: NodeId(1),
            dest: NodeId(2),
            kind: "exotic",
            origin: tid(0, 1, 0),
            at,
        };
        let back = from_jsonl(&to_jsonl(&[hop(5), hop(6)])).unwrap();
        assert_eq!(back, [hop(5), hop(6)]);
        let (ProvRecord::Hop { kind: k0, .. }, ProvRecord::Hop { kind: k1, .. }) =
            (&back[0], &back[1])
        else {
            panic!("unexpected records");
        };
        // Same leaked allocation reused, not one leak per record.
        assert!(std::ptr::eq(*k0, *k1));
    }

    #[test]
    fn key_and_id_strings_round_trip() {
        let key = DerivationKey::new(crate::tupleid::EDB_RULE, Vec::new());
        assert_eq!(parse_key(&key_str(&key)).unwrap(), key);
        let id = tid(9, u64::MAX, 42);
        assert_eq!(parse_id(&id_str(id)).unwrap(), id);
        assert!(parse_id("nonsense").is_none());
        assert!(parse_key("1:2").is_none());
    }
}
