//! Storage and join-computation regions (Sec. III-A).
//!
//! PA uses the tuple's grid row as the storage region and its column as the
//! join-computation region — every vertical line intersects every
//! horizontal line, the GPA intersection invariant. In general topologies
//! rows/columns generalize to coordinate *bands* whose width guarantees a
//! connected walk (the banded scheme standing in for \[44\]'s construction).
//! Spatial join constraints truncate regions to the constraint radius
//! (Sec. III-A "Function Symbols and Spatial Constraints").
//!
//! [`walks`] lists each distinct region once, as the [`Walk`] the runtime
//! takes, with the nodes whose region it is: a grid's rows and columns, one
//! band per node elsewhere. A deployment
//! prices its waits from them (`core::plan`), so each wait bounds the
//! walk it waits for on every topology.

use sensorlog_netsim::{NodeId, Topology, TopologyKind};
use std::ops::Range;

/// The ordered list of nodes in `node`'s grid row (left → right). Falls
/// back to a unit-width horizontal band on non-grid topologies rather
/// than panicking.
pub fn grid_row(topo: &Topology, node: NodeId) -> Vec<NodeId> {
    match (topo.grid_coords(node), topo.grid_dims()) {
        (Some((_, y)), Some((cols, _))) => (0..cols).filter_map(|x| topo.node_at(x, y)).collect(),
        _ => horizontal_band(topo, node, 1.0),
    }
}

/// The ordered list of nodes in `node`'s grid column (bottom → top).
/// Falls back to a unit-width vertical band on non-grid topologies.
pub fn grid_col(topo: &Topology, node: NodeId) -> Vec<NodeId> {
    match (topo.grid_coords(node), topo.grid_dims()) {
        (Some((x, _)), Some((_, rows))) => (0..rows).filter_map(|y| topo.node_at(x, y)).collect(),
        _ => vertical_band(topo, node, 1.0),
    }
}

/// Horizontal band: nodes with `|y − y(node)| ≤ width/2`, ordered by x.
/// With `width ≥` the radio radius, consecutive members are mutually
/// reachable through the band (walked via the router).
pub fn horizontal_band(topo: &Topology, node: NodeId, width: f64) -> Vec<NodeId> {
    let (_, y0) = topo.position(node);
    let mut members: Vec<NodeId> = topo
        .nodes()
        .filter(|&n| (topo.position(n).1 - y0).abs() <= width / 2.0)
        .collect();
    members.sort_by(|&a, &b| {
        topo.position(a)
            .0
            .partial_cmp(&topo.position(b).0)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    members
}

/// Vertical band: nodes with `|x − x(node)| ≤ width/2`, ordered by y.
pub fn vertical_band(topo: &Topology, node: NodeId, width: f64) -> Vec<NodeId> {
    let (x0, _) = topo.position(node);
    let mut members: Vec<NodeId> = topo
        .nodes()
        .filter(|&n| (topo.position(n).0 - x0).abs() <= width / 2.0)
        .collect();
    members.sort_by(|&a, &b| {
        topo.position(a)
            .1
            .partial_cmp(&topo.position(b).1)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    members
}

/// One region as the runtime walks it, listed once, and where on it the
/// nodes whose region it is stand (each node lies on its own region).
#[derive(Clone, Debug, PartialEq)]
pub struct Walk {
    /// The members in walk order.
    pub path: Vec<NodeId>,
    /// The positions on `path` of the nodes whose region it is.
    pub starts: Range<usize>,
}

impl Walk {
    /// A line every member of which has it as its region: a grid's row or
    /// column, or a walk over every node.
    pub fn line(path: Vec<NodeId>) -> Walk {
        let starts = 0..path.len();
        Walk { path, starts }
    }

    /// The region of `node` alone.
    fn of(path: Vec<NodeId>, node: NodeId) -> Walk {
        let starts = match path.iter().position(|&n| n == node) {
            Some(i) => i..i + 1,
            None => 0..0,
        };
        Walk { path, starts }
    }
}

/// Every distinct PA storage region and every distinct join region once
/// ([`storage_region`], [`join_region`]): a grid's rows and columns, one
/// band of each kind per node elsewhere.
pub fn walks(topo: &Topology, band_width: f64) -> [Vec<Walk>; 2] {
    match topo.kind {
        TopologyKind::Grid { cols, rows } => [
            (0..rows)
                .filter_map(|y| topo.node_at(0, y))
                .map(|n| Walk::line(grid_row(topo, n)))
                .collect(),
            (0..cols)
                .filter_map(|x| topo.node_at(x, 0))
                .map(|n| Walk::line(grid_col(topo, n)))
                .collect(),
        ],
        TopologyKind::Geometric { .. } => [storage_region, join_region].map(|region| {
            let own = |n| Walk::of(region(topo, n, band_width), n);
            topo.nodes().map(own).collect()
        }),
    }
}

/// Storage region for PA: row on grids, horizontal band elsewhere.
pub fn storage_region(topo: &Topology, node: NodeId, band_width: f64) -> Vec<NodeId> {
    match topo.kind {
        TopologyKind::Grid { .. } => grid_row(topo, node),
        TopologyKind::Geometric { .. } => horizontal_band(topo, node, band_width),
    }
}

/// Join-computation region for PA: column on grids, vertical band elsewhere.
///
/// On geometric topologies the plain vertical band can miss a storage band
/// entirely — when no band member's y-coordinate falls within `width/2` of
/// some node `a`'s, the crossing cell `J(b) ∩ H(a)` is empty and `a`'s
/// tuples silently never meet the join (the Fig. 16 completeness gap, at
/// 0.95–0.99 before this fix). The band is therefore augmented with the
/// \[44\]-style detour rule (see [`augment_with_detours`]), which restores
/// the GPA intersection invariant: every join region intersects every
/// storage region.
pub fn join_region(topo: &Topology, node: NodeId, band_width: f64) -> Vec<NodeId> {
    match topo.kind {
        TopologyKind::Grid { .. } => grid_col(topo, node),
        TopologyKind::Geometric { .. } => {
            let mut band = vertical_band(topo, node, band_width);
            augment_with_detours(topo, node, band_width, &mut band);
            band
        }
    }
}

/// The detour rule: for every node `a` whose horizontal storage band the
/// vertical band misses entirely (no member within `width/2` of `y(a)`),
/// add the storage-band member closest in x to this join region's spine
/// (ties to the smaller id). The walk detours through that member, so
/// `J(b) ∩ H(a) ≠ ∅` holds for *every* `a`: the detour node lies in `H(a)`
/// by construction and is appended to `J(b)`. Each added node also covers
/// every other uncovered node within `width/2` of its own y, so the
/// augmentation stays small (one detour per uncovered y-stratum).
fn augment_with_detours(topo: &Topology, node: NodeId, width: f64, band: &mut Vec<NodeId>) {
    let (x0, _) = topo.position(node);
    let half = width / 2.0;
    let mut extra: Vec<NodeId> = Vec::new();
    for a in topo.nodes() {
        let ya = topo.position(a).1;
        let covered = band
            .iter()
            .chain(extra.iter())
            .any(|&v| (topo.position(v).1 - ya).abs() <= half);
        if covered {
            continue;
        }
        let detour = horizontal_band(topo, a, width)
            .into_iter()
            .min_by(|&u, &v| {
                let du = (topo.position(u).0 - x0).abs();
                let dv = (topo.position(v).0 - x0).abs();
                du.partial_cmp(&dv)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(u.cmp(&v))
            })
            .expect("a node is always in its own storage band");
        extra.push(detour);
    }
    if extra.is_empty() {
        return;
    }
    band.extend(extra);
    // Restore walk order (bottom → top, ids breaking coordinate ties so
    // duplicates are adjacent) and drop duplicates.
    band.sort_by(|&a, &b| {
        topo.position(a)
            .1
            .partial_cmp(&topo.position(b).1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    band.dedup();
}

/// Truncate a region to the nodes within Euclidean `radius` of `center`,
/// preserving order — the spatial-constraint optimization: "store each
/// tuple over only an appropriate part of the horizontal path, and
/// similarly traverse only an appropriate part of the vertical path".
pub fn truncate(topo: &Topology, region: &[NodeId], center: NodeId, radius: f64) -> Vec<NodeId> {
    let center = topo.position(center);
    (region.iter().copied())
        .filter(|&n| within(topo, center, n, radius))
        .collect()
}

/// The first and last positions of `path` that [`truncate`] keeps cutting
/// it to `radius` around its member `path[i]` (`None`: uncut, all of it);
/// none when it keeps nothing. What it keeps is a subsequence, and the walk along `path`
/// between these ends bounds its walk: a route is no longer than the
/// routes through the members it skips.
pub fn cut_ends(
    topo: &Topology,
    path: &[NodeId],
    i: usize,
    radius: Option<f64>,
) -> Option<(usize, usize)> {
    let Some(r) = radius else {
        return Some((0, path.len() - 1));
    };
    let center = topo.position(path[i]);
    let keeps = |&n: &NodeId| within(topo, center, n, r);
    Some((path.iter().position(keeps)?, path.iter().rposition(keeps)?))
}

/// Whether [`truncate`] keeps `n` in a region cut to `radius` around the
/// point `(cx, cy)`.
fn within(topo: &Topology, (cx, cy): (f64, f64), n: NodeId, radius: f64) -> bool {
    let (x, y) = topo.position(n);
    ((x - cx).powi(2) + (y - cy).powi(2)).sqrt() <= radius
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_and_cols() {
        let topo = Topology::square_grid(4);
        let n = topo.node_at(2, 1).unwrap();
        let row = grid_row(&topo, n);
        assert_eq!(row.len(), 4);
        assert!(row.iter().all(|&m| topo.grid_coords(m).unwrap().1 == 1));
        let col = grid_col(&topo, n);
        assert_eq!(col.len(), 4);
        assert!(col.iter().all(|&m| topo.grid_coords(m).unwrap().0 == 2));
        // Every row intersects every column (the GPA invariant).
        for y in 0..4 {
            let r = grid_row(&topo, topo.node_at(0, y).unwrap());
            for x in 0..4 {
                let c = grid_col(&topo, topo.node_at(x, 0).unwrap());
                assert!(r.iter().any(|m| c.contains(m)));
            }
        }
    }

    #[test]
    fn bands_cover_and_intersect() {
        let topo = Topology::random_geometric(50, 6.0, 1.8, 3).unwrap();
        let w = 1.8;
        for &a in &[NodeId(0), NodeId(10), NodeId(25)] {
            let h = horizontal_band(&topo, a, w);
            assert!(h.contains(&a));
            for &b in &[NodeId(5), NodeId(30), NodeId(49)] {
                let v = vertical_band(&topo, b, w);
                assert!(v.contains(&b));
                // Bands of sufficient width always intersect in a bounded
                // deployment (the crossing cell is nonempty whp; assert on
                // these seeds).
                assert!(
                    h.iter().any(|m| v.contains(m)),
                    "band intersection empty for {a}/{b}"
                );
            }
        }
    }

    #[test]
    fn geometric_join_regions_meet_every_storage_band() {
        // The Fig. 16 regression: on sparse geometric layouts the plain
        // vertical band can miss a storage band entirely; the detour rule
        // must guarantee a non-empty intersection for EVERY pair.
        for seed in [3u64, 5, 7, 13, 97] {
            let topo = Topology::random_geometric(50, 5.5, 1.7, seed).unwrap();
            let w = 1.7;
            for b in topo.nodes() {
                let j = join_region(&topo, b, w);
                assert!(j.contains(&b), "join region must contain its owner");
                for a in topo.nodes() {
                    let h = storage_region(&topo, a, w);
                    assert!(
                        j.iter().any(|m| h.contains(m)),
                        "seed {seed}: empty intersection J({b}) ∩ H({a})"
                    );
                }
            }
        }
    }

    #[test]
    fn detour_augmented_band_stays_ordered_and_deduped() {
        let topo = Topology::random_geometric(50, 5.5, 1.7, 97).unwrap();
        for b in topo.nodes() {
            let j = join_region(&topo, b, 1.7);
            for w in j.windows(2) {
                assert!(topo.position(w[0]).1 <= topo.position(w[1]).1);
                assert_ne!(w[0], w[1]);
            }
            let mut ids: Vec<NodeId> = j.clone();
            ids.sort();
            ids.dedup();
            assert_eq!(ids.len(), j.len(), "duplicates in join region");
        }
    }

    #[test]
    fn band_ordering() {
        let topo = Topology::random_geometric(30, 5.0, 1.6, 7).unwrap();
        let band = horizontal_band(&topo, NodeId(3), 2.0);
        for w in band.windows(2) {
            assert!(topo.position(w[0]).0 <= topo.position(w[1]).0);
        }
    }

    #[test]
    fn truncation_filters_by_radius() {
        let topo = Topology::square_grid(8);
        let center = topo.node_at(4, 4).unwrap();
        let row = grid_row(&topo, center);
        let t = truncate(&topo, &row, center, 2.0);
        // x ∈ {2..6} at distance ≤ 2 from x=4.
        assert_eq!(t.len(), 5);
        assert!(t.len() < row.len());
        let t0 = truncate(&topo, &row, center, 0.0);
        assert_eq!(t0, vec![center]);
    }

    /// Every node starts on exactly one listed walk of each kind, and that
    /// walk is its region.
    #[test]
    fn walks_list_each_region_once() {
        type Region = fn(&Topology, NodeId, f64) -> Vec<NodeId>;
        let geometric = Topology::random_geometric(30, 5.0, 1.7, 7).unwrap();
        for topo in [Topology::grid(5, 3), geometric] {
            let regions: [Region; 2] = [storage_region, join_region];
            for (walks, region) in walks(&topo, 1.7).into_iter().zip(regions) {
                let mut starts = Vec::new();
                for walk in &walks {
                    for i in walk.starts.clone() {
                        assert_eq!(region(&topo, walk.path[i], 1.7), walk.path);
                        starts.push(walk.path[i]);
                    }
                }
                starts.sort();
                assert_eq!(starts, topo.nodes().collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn storage_join_dispatch() {
        let grid = Topology::square_grid(4);
        assert_eq!(storage_region(&grid, NodeId(5), 1.0).len(), 4);
        assert_eq!(join_region(&grid, NodeId(5), 1.0).len(), 4);
        let geo = Topology::random_geometric(20, 4.0, 1.6, 5).unwrap();
        assert!(!storage_region(&geo, NodeId(2), 1.6).is_empty());
        assert!(!join_region(&geo, NodeId(2), 1.6).is_empty());
    }
}
