//! Property tests: index maintenance is equivalent to rebuild, and probes
//! equal fresh scans under interleaved insert/delete.
//!
//! After every random batch of inserts and deletes, the contents of a
//! maintained index (registered once, updated through `insert`/`remove`)
//! must equal those of a fresh `Relation` given the same tuples and the
//! same registrations — same tuples, same canonical order. This is the
//! invariant that lets `Relation::select` serve probes from long-lived
//! ordered maps without ever re-scanning.

use proptest::collection::vec;
use proptest::prelude::*;
use sensorlog_eval::relation::{Relation, TupleMeta};
use sensorlog_logic::intern::{self, ConstId};
use sensorlog_logic::{Symbol, Term, Tuple};

fn tup(a: i64, b: i64, c: i64) -> Tuple {
    Tuple::from_ids(vec![
        intern::intern_int(a),
        intern::intern_int(b),
        intern::intern_int(c),
    ])
}

fn id(n: i64) -> ConstId {
    intern::intern_int(n)
}

/// One random mutation: insert (true) or delete (false) of a small tuple.
fn op() -> impl Strategy<Value = (bool, i64, i64, i64)> {
    (any::<bool>(), 0i64..6, 0i64..6, 0i64..6)
}

/// Rebuild-from-scratch reference: a fresh relation with `r`'s tuples
/// inserted and `cols` registered.
fn fresh_contents(r: &Relation, cols: &[usize]) -> Vec<Tuple> {
    let mut f = Relation::new();
    f.register_index(cols);
    for t in r.tuples() {
        f.insert(t.clone(), TupleMeta::default());
    }
    f.index_contents(cols)
        .expect("a registered index is built at registration")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn maintained_index_equals_fresh_rebuild(batches in vec(vec(op(), 1..20), 1..8)) {
        let mut r = Relation::new();
        r.register_index(&[0]);
        r.register_index(&[1, 2]);

        for batch in &batches {
            for &(ins, a, b, c) in batch {
                if ins {
                    r.insert(tup(a, b, c), TupleMeta::default());
                } else {
                    r.remove(&tup(a, b, c));
                }
            }
            for cols in [&[0usize][..], &[1usize, 2][..]] {
                let maintained = r.index_contents(cols)
                    .expect("a registered index stays built across mutations");
                let rebuilt = fresh_contents(&r, cols);
                prop_assert_eq!(&maintained, &rebuilt);
            }
            // Canonical order: within any probe (permuted columns fixed),
            // results come back in Tuple order.
            for key in 0i64..6 {
                let mut probed = Vec::new();
                r.select(&[1, 2], &[id(key), id(key)], &mut probed);
                let mut sorted = probed.clone();
                sorted.sort();
                prop_assert_eq!(probed, sorted);
            }
        }
    }

    /// The borrowing probe, `select` and the filtered scan agree row for
    /// row — tuple and metadata — under interleaved inserts, removes and
    /// tombstones, on a prefix signature, a registered non-prefix one and an
    /// unregistered one.
    #[test]
    fn probe_results_match_scan(ops in vec(op(), 0..60), key in 0i64..6) {
        let mut r = Relation::new();
        r.register_index(&[1]);
        for (i, &(ins, a, b, c)) in ops.iter().enumerate() {
            if ins {
                r.insert(tup(a, b, c), TupleMeta::at(i as u64));
            } else if c % 2 == 0 {
                r.remove(&tup(a, b, c));
            } else {
                r.mark_deleted(&tup(a, b, c), i as u64);
            }
        }
        for col in 0..3 {
            let (mut probed, mut selected, mut scanned) = (Vec::new(), Vec::new(), Vec::new());
            r.probe(&[col], &[id(key)], |t, m| probed.push((t.clone(), *m)));
            r.select(&[col], &[id(key)], &mut selected);
            r.scan_into(&[col], &[id(key)], &mut scanned);
            let filtered: Vec<(Tuple, TupleMeta)> = r
                .iter()
                .filter(|(t, _)| t.id(col) == id(key))
                .map(|(t, m)| (t.clone(), *m))
                .collect();
            prop_assert_eq!(&selected, &scanned, "select must equal the filtered scan");
            prop_assert_eq!(
                filtered.iter().map(|(t, _)| t.clone()).collect::<Vec<_>>(),
                scanned
            );
            prop_assert_eq!(probed, filtered, "the probe hands over each row's own metadata");
        }
        let s = r.index_stats();
        prop_assert_eq!((s.hits, s.scans), (4, 2), "[0] and [1] are ranges, [2] walks");
    }

    /// Mixed value sorts (ints, strings, compound terms) and mixed arities
    /// share one ordered map: probes must still equal fresh scans.
    #[test]
    fn mixed_sort_probe_matches_scan(
        ops in vec((any::<bool>(), 0u8..3, 0i64..4), 0..50),
        kind in 0u8..3,
        key in 0i64..4,
    ) {
        let mk = |kind: u8, v: i64| -> Term {
            match kind {
                0 => Term::Int(v),
                1 => Term::Str(Symbol::intern(&format!("s{v}"))),
                _ => Term::App(Symbol::intern("p"), vec![Term::Int(v)].into()),
            }
        };
        let mut r = Relation::new();
        r.register_index(&[0]);
        for &(ins, k, v) in &ops {
            let t = Tuple::new(vec![mk(k, v), Term::Int(v)]);
            if ins {
                r.insert(t, TupleMeta::default());
            } else {
                r.remove(&t);
            }
        }
        let kt = mk(kind, key);
        let kid = intern::intern_term(&kt).expect("ground key interns");
        let mut probed = Vec::new();
        r.select(&[0], &[kid], &mut probed);
        let scanned: Vec<Tuple> = r
            .tuples()
            .filter(|t| t.id(0) == kid)
            .cloned()
            .collect();
        prop_assert_eq!(probed, scanned);
    }
}
