//! Independent reference results. None of these call the program's `eval`
//! (or anything else of the program): they work on the benchmark's own
//! [`Fact`]s and produce rows of integers, so a bug shared by the
//! distributed runtime and its centralized oracle still shows.

use crate::inputs::{Event, Fact};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// One result tuple; every output predicate of the six workloads is
/// all-integer.
pub type Row = Vec<i64>;

/// The base facts left after applying `events` in order (inserts minus
/// deletes). Valid as the final EDB because every run ends before the
/// shortest sliding window does.
pub fn net_facts(events: &[Event]) -> BTreeSet<Fact> {
    let mut net = BTreeSet::new();
    for e in events {
        if e.insert {
            net.insert(e.fact);
        } else {
            net.remove(&e.fact);
        }
    }
    net
}

/// logicH (Example 3): `h(parent, node, depth)` for the root `h(0, 0, 0)`
/// and, for every other reachable node, one tuple per in-neighbour that is
/// one BFS level closer to node 0 — all shortest-path parents.
pub fn sptree(net: &BTreeSet<Fact>) -> BTreeSet<Row> {
    let mut out_links: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for f in net {
        if let Fact::Link { from, to } = *f {
            out_links.entry(from).or_default().push(to);
        }
    }
    let mut depth: BTreeMap<u32, i64> = BTreeMap::from([(0, 0)]);
    let mut queue = VecDeque::from([0u32]);
    while let Some(x) = queue.pop_front() {
        let d = depth[&x];
        for &y in out_links.get(&x).map_or(&[][..], Vec::as_slice) {
            if let std::collections::btree_map::Entry::Vacant(slot) = depth.entry(y) {
                slot.insert(d + 1);
                queue.push_back(y);
            }
        }
    }
    let mut rows = BTreeSet::from([vec![0, 0, 0]]);
    for (&x, ys) in &out_links {
        let Some(&dx) = depth.get(&x) else { continue };
        for &y in ys {
            if depth[&y] == dx + 1 {
                rows.insert(vec![x as i64, y as i64, dx + 1]);
            }
        }
    }
    rows
}

/// `q(X, Y) :- r1(_, X, K), r2(_, Y, K)`: brute-force hash join on the key.
pub fn join(net: &BTreeSet<Fact>) -> BTreeSet<Row> {
    let mut by_key: BTreeMap<i64, (Vec<i64>, Vec<i64>)> = BTreeMap::new();
    for f in net {
        if let Fact::Reading {
            stream, value, key, ..
        } = *f
        {
            let sides = by_key.entry(key).or_default();
            if stream == 0 {
                sides.0.push(value);
            } else {
                sides.1.push(value);
            }
        }
    }
    let mut rows = BTreeSet::new();
    for (xs, ys) in by_key.values() {
        for &x in xs {
            for &y in ys {
                rows.insert(vec![x, y]);
            }
        }
    }
    rows
}

/// Example 1: `uncov(L, T)` for every enemy sighting with no friendly
/// sighting of the same instant within `radius` (`dist` on two integers is
/// their absolute difference).
pub fn battlefield(net: &BTreeSet<Fact>, radius: u32) -> BTreeSet<Row> {
    let mut rows = BTreeSet::new();
    for f in net {
        let Fact::Veh {
            friendly: false,
            loc,
            t,
        } = *f
        else {
            continue;
        };
        let covered = net.iter().any(|g| {
            matches!(*g, Fact::Veh { friendly: true, loc: at, t: when }
                if when == t && at.abs_diff(loc) <= radius)
        });
        if !covered {
            rows.insert(vec![loc as i64, t as i64]);
        }
    }
    rows
}

/// How a result set differs from the reference.
#[derive(Clone, Debug, Default)]
pub struct Verdict {
    pub expected: usize,
    pub found: usize,
    pub missing: Vec<Row>,
    pub spurious: Vec<Row>,
}

impl Verdict {
    pub fn of(expected: &BTreeSet<Row>, found: &BTreeSet<Row>) -> Verdict {
        Verdict {
            expected: expected.len(),
            found: found.len(),
            missing: expected.difference(found).cloned().collect(),
            spurious: found.difference(expected).cloned().collect(),
        }
    }

    /// Result tuples that are wrong either way — the failed operations.
    pub fn failed(&self) -> usize {
        self.missing.len() + self.spurious.len()
    }
}
