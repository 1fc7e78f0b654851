//! Storage and join-computation regions (Sec. III-A).
//!
//! PA uses the tuple's grid row as the storage region and its column as the
//! join-computation region — every vertical line intersects every
//! horizontal line, the GPA intersection invariant. In general topologies
//! rows/columns generalize to coordinate *bands* whose width guarantees a
//! connected walk (the banded scheme standing in for \[44\]'s construction).
//!
//! [`walks`] lists each distinct region once, as the [`Walk`] the runtime
//! takes, with the nodes whose region it is: a grid's rows and columns, one
//! band per node elsewhere. A deployment keeps that list, prices its waits
//! from it and sends every storage walk and probe along it (`core::plan`),
//! so each wait bounds the walk it waits for by construction. A spatial
//! join constraint cuts a walk to the members within its radius of the node
//! the update starts at (Sec. III-A "Function Symbols and Spatial
//! Constraints", [`Walk::kept`]); no region is built per update.

use sensorlog_netsim::{NodeId, Topology, TopologyKind};
use std::ops::Range;

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

    /// The positions in `range` of the members this walk keeps cut to
    /// `radius` around its member `path[from]` (`None`: uncut, every
    /// member), in walk order — the spatial-constraint optimization: "store
    /// each tuple over only an appropriate part of the horizontal path, and
    /// similarly traverse only an appropriate part of the vertical path". A
    /// member past the radius is skipped and the walk goes on: a snake over
    /// every node cut to a radius keeps a stretch of each of several rows.
    pub fn kept<'a>(
        &'a self,
        topo: &'a Topology,
        from: usize,
        radius: Option<f64>,
        range: Range<usize>,
    ) -> impl DoubleEndedIterator<Item = usize> + 'a {
        let center = topo.position(self.path[from]);
        range.filter(move |&k| radius.is_none_or(|r| within(topo, center, self.path[k], r)))
    }
}

/// Every distinct PA storage region and every distinct join region once: a
/// grid's rows (left → right) and columns (bottom → top), and elsewhere one
/// horizontal band and one detour-augmented vertical band (`join_band`)
/// per node.
pub fn walks(topo: &Topology, band_width: f64) -> [Vec<Walk>; 2] {
    match topo.kind {
        TopologyKind::Grid { cols, rows } => {
            let row = |y| Walk::line((0..cols).filter_map(|x| topo.node_at(x, y)).collect());
            let col = |x| Walk::line((0..rows).filter_map(|y| topo.node_at(x, y)).collect());
            [(0..rows).map(row).collect(), (0..cols).map(col).collect()]
        }
        TopologyKind::Geometric { .. } => [horizontal_band, join_band].map(|region| {
            let own = |n| Walk::of(region(topo, n, band_width), n);
            topo.nodes().map(own).collect()
        }),
    }
}

/// PA's join-computation region off the grid: `node`'s vertical band.
///
/// On geometric topologies the plain vertical band can miss a storage band
/// entirely — when no band member's y-coordinate falls within `width/2` of
/// some node `a`'s, the crossing cell `J(b) ∩ H(a)` is empty and `a`'s
/// tuples silently never meet the join (the Fig. 16 completeness gap, at
/// 0.95–0.99 before this fix). The band is therefore augmented with the
/// \[44\]-style detour rule (see [`augment_with_detours`]), which restores
/// the GPA intersection invariant: every join region intersects every
/// storage region.
fn join_band(topo: &Topology, node: NodeId, band_width: f64) -> Vec<NodeId> {
    let mut band = vertical_band(topo, node, band_width);
    augment_with_detours(topo, node, band_width, &mut band);
    band
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

/// Whether a walk cut to `radius` around the point `(cx, cy)` keeps `n`.
fn within(topo: &Topology, (cx, cy): (f64, f64), n: NodeId, radius: f64) -> bool {
    let (x, y) = topo.position(n);
    ((x - cx).powi(2) + (y - cy).powi(2)).sqrt() <= radius
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A grid's storage walks are its rows and its join walks its columns,
    /// every member the start of its own, and every row meets every column
    /// (the GPA invariant).
    #[test]
    fn rows_and_cols() {
        let topo = Topology::square_grid(4);
        let [rows, cols] = walks(&topo, 1.0);
        assert_eq!((rows.len(), cols.len()), (4, 4));
        let at = |walk: &Walk| -> Vec<(u32, u32)> {
            (walk.path.iter())
                .map(|&m| topo.grid_coords(m).unwrap())
                .collect()
        };
        for (y, row) in (0..).zip(&rows) {
            assert_eq!(at(row), (0..4).map(|x| (x, y)).collect::<Vec<_>>());
            assert_eq!(row.starts, 0..4);
        }
        for (x, col) in (0..).zip(&cols) {
            assert_eq!(at(col), (0..4).map(|y| (x, y)).collect::<Vec<_>>());
            for row in &rows {
                assert!(row.path.iter().any(|m| col.path.contains(m)));
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

    /// The Fig. 16 regression: on sparse geometric layouts the plain
    /// vertical band can miss a storage band entirely; the detour rule must
    /// guarantee that every listed join walk meets every listed storage
    /// walk — on the 50-node layouts of five seeds and on Fig. 16's three
    /// graphs.
    #[test]
    fn geometric_join_regions_meet_every_storage_band() {
        let layouts = [(50, 5.5, 3), (50, 5.5, 5), (50, 5.5, 7), (50, 5.5, 13)];
        let fig16 = [(25, 4.0, 97), (50, 5.5, 97), (100, 8.0, 97)];
        for (n, side, seed) in layouts.into_iter().chain(fig16) {
            let topo = Topology::random_geometric(n, side, 1.7, seed).unwrap();
            let [stores, joins] = walks(&topo, 1.7);
            for j in &joins {
                let owner = j.path[j.starts.start];
                assert_eq!(j.starts.len(), 1, "{n} nodes, seed {seed}: {owner}");
                for h in &stores {
                    assert!(
                        j.path.iter().any(|m| h.path.contains(m)),
                        "{n} nodes, seed {seed}: empty intersection J({owner}) ∩ H({})",
                        h.path[h.starts.start]
                    );
                }
            }
        }
    }

    #[test]
    fn detour_augmented_band_stays_ordered_and_deduped() {
        let topo = Topology::random_geometric(50, 5.5, 1.7, 97).unwrap();
        for b in topo.nodes() {
            let j = join_band(&topo, b, 1.7);
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

    /// A row cut to a radius keeps one stretch around its member; a snake
    /// cut to one skips the members of each row past it and goes on; a
    /// radius of 0 keeps the member alone, and a negative one keeps none.
    #[test]
    fn a_cut_walk_keeps_the_members_within_its_radius() {
        let topo = Topology::square_grid(8);
        let [rows, _] = walks(&topo, 1.0);
        let row = &rows[4];
        let all = 0..row.path.len();
        let kept = |r: Option<f64>| row.kept(&topo, 4, r, all.clone()).collect::<Vec<_>>();
        assert_eq!(kept(Some(2.0)), vec![2, 3, 4, 5, 6]);
        assert_eq!(kept(None), all.clone().collect::<Vec<_>>());
        assert_eq!(kept(Some(0.0)), vec![4]);
        assert_eq!(kept(Some(-1.0)), Vec::<usize>::new());
        // From the middle, toward the end and back toward the start.
        assert_eq!(row.kept(&topo, 4, Some(2.0), 5..8).next(), Some(5));
        assert_eq!(row.kept(&topo, 4, Some(2.0), 0..2).next_back(), None);

        let snake = [(0, 0), (1, 0), (2, 0), (2, 1), (1, 1), (0, 1)];
        let snake = Walk::line(snake.map(|(x, y)| topo.node_at(x, y).unwrap()).to_vec());
        let kept: Vec<usize> = snake.kept(&topo, 0, Some(1.0), 0..6).collect();
        assert_eq!(kept, vec![0, 1, 5], "(2, 0) and two of row 1 skipped");
    }

    /// Every node starts on exactly one listed walk of each kind, at its own
    /// position; off the grid that walk is its band.
    #[test]
    fn walks_list_each_region_once() {
        type Region = fn(&Topology, NodeId, f64) -> Vec<NodeId>;
        let geometric = Topology::random_geometric(30, 5.0, 1.7, 7).unwrap();
        for topo in [Topology::grid(5, 3), geometric] {
            let regions: [Region; 2] = [horizontal_band, join_band];
            for (walks, region) in walks(&topo, 1.7).into_iter().zip(regions) {
                let mut starts = Vec::new();
                for walk in &walks {
                    for i in walk.starts.clone() {
                        let node = walk.path[i];
                        if topo.grid_dims().is_none() {
                            assert_eq!(region(&topo, node, 1.7), walk.path);
                        }
                        starts.push(node);
                    }
                }
                starts.sort();
                assert_eq!(starts, topo.nodes().collect::<Vec<_>>());
            }
        }
    }
}
