//! Round-trip and error-path coverage for the two JSONL log dialects of
//! the observability planes: the netsim journal (`Journal::from_jsonl`)
//! and the provenance record log (`sensorlog_core::prov`).

use proptest::prelude::*;
use proptest::strategy::Strategy;
use sensorlog::core::prov::{from_jsonl, to_jsonl};
use sensorlog::core::{DerivationKey, ProvRecord, TupleId};
use sensorlog::prelude::*;
use sensorlog_netsim::{Journal, TraceEvent, TraceRecord};

// ---------------------------------------------------------------------
// Journal::from_jsonl error paths
// ---------------------------------------------------------------------

fn small_journal() -> Journal {
    Journal {
        seed: 7,
        records: vec![
            TraceRecord {
                seq: 0,
                at: 0,
                event: TraceEvent::Start { node: NodeId(0) },
            },
            TraceRecord {
                seq: 1,
                at: 10,
                event: TraceEvent::Send {
                    from: NodeId(0),
                    to: NodeId(1),
                    kind: "store",
                    bytes: 30,
                    attempt: 0,
                },
            },
            TraceRecord {
                seq: 2,
                at: 14,
                event: TraceEvent::Deliver {
                    from: NodeId(0),
                    to: NodeId(1),
                    kind: "store",
                    bytes: 30,
                },
            },
        ],
    }
}

#[test]
fn journal_jsonl_round_trip_is_exact() {
    let j = small_journal();
    let restored = Journal::from_jsonl(&j.to_jsonl()).unwrap();
    assert_eq!(restored.seed, j.seed);
    assert_eq!(restored.records, j.records);
}

#[test]
fn journal_from_jsonl_rejects_truncated_line() {
    let text = small_journal().to_jsonl();
    // Cut the final line mid-object: the record loses its closing fields.
    let cut = &text[..text.len() - 20];
    let err = Journal::from_jsonl(cut).expect_err("truncated line must not parse");
    assert!(err.line > 1, "error should point at a record line: {err:?}");
}

#[test]
fn journal_from_jsonl_rejects_unknown_record_kind() {
    let mut text = String::from("{\"type\":\"journal\",\"seed\":1,\"records\":1}\n");
    text.push_str("{\"type\":\"rec\",\"seq\":0,\"at\":0,\"ev\":\"teleport\",\"node\":0}\n");
    let err = Journal::from_jsonl(&text).expect_err("unknown ev kind must not parse");
    assert_eq!(err.line, 2, "error is on the record line: {err:?}");
}

#[test]
fn journal_from_jsonl_rejects_missing_header_and_fields() {
    assert!(Journal::from_jsonl("").is_err(), "empty input");
    assert!(
        Journal::from_jsonl("{\"type\":\"rec\",\"seq\":0}").is_err(),
        "record without header"
    );
    let mut text = String::from("{\"type\":\"journal\",\"seed\":1,\"records\":1}\n");
    text.push_str("{\"type\":\"rec\",\"seq\":0,\"at\":0,\"ev\":\"send\",\"from\":0}\n");
    assert!(
        Journal::from_jsonl(&text).is_err(),
        "send without to/kind/bytes"
    );
}

/// The header's record count is checked against the file, never used to
/// size anything: a hostile count is the `declared` error, not a
/// capacity-overflow panic or a request for tens of terabytes.
#[test]
fn journal_from_jsonl_does_not_trust_the_header_count() {
    for declared in [u64::MAX, 1_000_000_000_000] {
        let text = format!("{{\"type\":\"journal\",\"seed\":0,\"records\":{declared}}}\n");
        let err = Journal::from_jsonl(&text).expect_err("a count the file does not hold");
        assert_eq!(err.line, 1, "{err}");
        assert!(
            err.msg
                .contains(&format!("header declared {declared} records")),
            "{err}"
        );
    }
}

/// A value that does not fit its field is a line-numbered error, not a
/// wrapped one: node ids, attempts and loss rates above `u32::MAX` in a
/// journal, node ids above it and signs outside `i8` in a provenance log
/// (`"sign":255` narrowed with `as i8` reads as `-1`, a retraction).
#[test]
fn from_jsonl_rejects_out_of_range_numbers() {
    let big = u64::from(u32::MAX) + 1;
    let header = "{\"type\":\"journal\",\"seed\":1,\"records\":1}\n";
    for rec in [
        format!(r#"{{"type":"rec","seq":0,"at":0,"ev":"start","node":{big}}}"#),
        format!(
            r#"{{"type":"rec","seq":0,"at":0,"ev":"send","from":0,"to":1,"kind":"store","bytes":1,"attempt":{big}}}"#
        ),
        format!(r#"{{"type":"rec","seq":0,"at":0,"ev":"linkloss","a":0,"b":1,"ppm":{big}}}"#),
    ] {
        let err = Journal::from_jsonl(&format!("{header}{rec}\n")).expect_err(&rec);
        assert_eq!(err.line, 2, "{err}");
        assert!(err.msg.contains("out of range"), "{err}");
    }

    let deriv = |owner: u64, sign: i64| {
        format!(
            r#"{{"type":"deriv","owner":{owner},"atom":"q(1)","key":"0|0:3@10#0","sign":{sign},"tau":10,"origin":"3@10#0","at":12}}"#
        )
    };
    let good = deriv(5, -1);
    assert!(matches!(
        from_jsonl(&good).unwrap()[..],
        [ProvRecord::Deriv { sign: -1, .. }]
    ));
    for bad in [deriv(5, 255), deriv(5, -129), deriv(big, 1)] {
        let err = from_jsonl(&format!("{good}\n{bad}\n")).expect_err(&bad);
        assert_eq!(err.line, 2, "{err}");
        assert!(err.msg.contains("out of range"), "{err}");
    }
}

// ---------------------------------------------------------------------
// Journal::first_divergence
// ---------------------------------------------------------------------

#[test]
fn first_divergence_finds_the_earliest_mismatch() {
    let a = small_journal();
    let mut b = small_journal();
    assert_eq!(a.first_divergence(&b), None, "identical journals agree");

    // Divergence at index zero.
    b.records[0].at = 999;
    assert_eq!(a.first_divergence(&b), Some(0));

    // A strict prefix diverges at the shorter length.
    let mut c = small_journal();
    c.records.pop();
    assert_eq!(a.first_divergence(&c), Some(2));
    assert_eq!(c.first_divergence(&a), Some(2), "symmetric");
}

// ---------------------------------------------------------------------
// Provenance record JSONL round-trip (proptest)
// ---------------------------------------------------------------------

fn arb_id() -> impl Strategy<Value = TupleId> {
    (0u32..40, 0u64..100_000, 0u32..8).prop_map(|(node, ts, seq)| TupleId {
        node: NodeId(node),
        ts,
        seq,
    })
}

fn arb_tuple() -> impl Strategy<Value = Tuple> {
    prop::collection::vec(-1000i64..1000, 1..4)
        .prop_map(|vals| Tuple::new(vals.into_iter().map(Term::Int).collect::<Vec<_>>()))
}

fn arb_pred() -> impl Strategy<Value = Symbol> {
    "[a-z][a-z0-9_]{0,6}".prop_map(|s| Symbol::intern(&s))
}

fn arb_kind() -> impl Strategy<Value = UpdateKind> {
    prop_oneof![
        (0u8..1).prop_map(|_| UpdateKind::Insert),
        (0u8..1).prop_map(|_| UpdateKind::Delete),
    ]
}

fn arb_record() -> impl Strategy<Value = ProvRecord> {
    let edb = (arb_pred(), arb_tuple(), arb_id(), arb_kind(), 0u64..100_000).prop_map(
        |(pred, tuple, id, kind, tau)| ProvRecord::Edb {
            node: id.node,
            pred,
            tuple,
            id,
            kind,
            tau,
        },
    );
    let deriv = (
        arb_pred(),
        arb_tuple(),
        (0usize..6, prop::collection::vec(arb_id(), 1..4)),
        prop_oneof![(0u8..1).prop_map(|_| 1i8), (0u8..1).prop_map(|_| -1i8)],
        (0u64..100_000, arb_id(), 0u32..30),
    )
        .prop_map(|(pred, tuple, (rule, ids), sign, (tau, origin, owner))| {
            let inputs = ids
                .into_iter()
                .enumerate()
                .map(|(i, id)| (i as u16, id))
                .collect();
            ProvRecord::Deriv {
                owner: NodeId(owner),
                pred,
                tuple,
                key: DerivationKey::new(rule, inputs),
                sign,
                tau,
                origin,
                at: tau + 5,
            }
        });
    let mint = (arb_pred(), arb_tuple(), arb_id(), arb_kind(), 0u64..100_000).prop_map(
        |(pred, tuple, id, kind, at)| ProvRecord::Mint {
            owner: id.node,
            pred,
            tuple,
            id,
            kind,
            at,
        },
    );
    let hop = (
        0u32..40,
        0u32..40,
        0u32..40,
        0usize..4,
        arb_id(),
        0u64..100_000,
    )
        .prop_map(|(from, to, dest, kind, origin, at)| ProvRecord::Hop {
            from: NodeId(from),
            to: NodeId(to),
            dest: NodeId(dest),
            kind: ["store", "probe", "result", "centroid"][kind],
            origin,
            at,
        });
    prop_oneof![edb, deriv, mint, hop]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any mix of the four record kinds survives the JSONL round trip
    /// exactly — including derivation keys with multiple inputs.
    #[test]
    fn prov_records_round_trip_jsonl(records in prop::collection::vec(arb_record(), 0..20)) {
        let text = to_jsonl(&records);
        let restored = from_jsonl(&text)
            .unwrap_or_else(|e| panic!("reparse failed at line {}: {}\n{text}", e.line, e.msg));
        prop_assert_eq!(restored, records);
    }
}

#[test]
fn prov_from_jsonl_errors_name_the_line() {
    let records = vec![ProvRecord::Hop {
        from: NodeId(0),
        to: NodeId(1),
        dest: NodeId(2),
        kind: "store",
        origin: TupleId {
            node: NodeId(0),
            ts: 1,
            seq: 0,
        },
        at: 5,
    }];
    let mut text = to_jsonl(&records);
    text.push_str("{\"type\":\"prov\",\"rec\":\"warp\"}\n");
    let err = from_jsonl(&text).expect_err("unknown prov record kind");
    assert_eq!(err.line, 2);
}
