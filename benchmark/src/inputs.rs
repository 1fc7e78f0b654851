//! The benchmark's own seeded input generators.
//!
//! Nothing here calls the program's `core::workload` generators or its
//! vendored `rand`, so a later edit there cannot change what the benchmark
//! feeds the program. Every generator is a pure function of its shape and
//! the seed; the program only ever sees the resulting events.

/// SplitMix64 (Steele, Lea & Flood): 64 bits of state, full period, and
/// well-mixed streams from consecutive seeds — which is how `--seed` is used.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; `n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// One ground base fact, in the benchmark's own terms. `workloads.rs` turns
/// it into the program's `Tuple`; `reference.rs` never does.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Fact {
    /// `g(from, to)`: a directed radio link.
    Link { from: u32, to: u32 },
    /// `r1(node, value, key)` / `r2(node, value, key)`.
    Reading {
        stream: u8,
        node: u32,
        value: i64,
        key: i64,
    },
    /// `veh("friendly" | "enemy", loc, t)`.
    Veh { friendly: bool, loc: u32, t: u64 },
}

/// An insert or delete of one fact, sensed at `node` at simulated `at` ms.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    pub at: u64,
    pub node: u32,
    pub fact: Fact,
    pub insert: bool,
}

/// What a workload's inputs look like. Grid node `(x, y)` has id
/// `y * cols + x`, the simulator's own numbering.
#[derive(Clone, Copy, Debug)]
pub enum Shape {
    /// Every directed link of the grid except those into the root (node 0,
    /// the sink, which needs no parent), by hop distance of the sending end
    /// from the sink and seed-shuffled within one distance, 1 ms apart from
    /// t = 100 ms — all inside the 2.1 s finalize-holddown, which is the
    /// arrival pattern Theorems 1–3 cover.
    Sptree { cols: u32, rows: u32 },
    /// Two reading streams, one reading per node per stream per `interval`,
    /// start jittered per node, uniformly random join key in `0..groups`;
    /// a `delete_share` of the readings is deleted `delete_lag` later.
    Join {
        cols: u32,
        rows: u32,
        interval_ms: u64,
        duration_ms: u64,
        groups: u32,
        delete_share: f64,
        delete_lag_ms: u64,
    },
    /// Random-walking vehicles sighted every `interval`; a friendly
    /// vehicle's previous sighting is deleted when the next one is made.
    Battle {
        cols: u32,
        rows: u32,
        enemy: u32,
        friendly: u32,
        interval_ms: u64,
        duration_ms: u64,
    },
}

impl Shape {
    pub fn grid(&self) -> (u32, u32) {
        match *self {
            Shape::Sptree { cols, rows }
            | Shape::Join { cols, rows, .. }
            | Shape::Battle { cols, rows, .. } => (cols, rows),
        }
    }

    /// The same workload on a grid with a quarter of the nodes (`--quick`).
    pub fn quick(mut self) -> Shape {
        let half = |n: &mut u32| *n = n.div_ceil(2).max(2);
        let quarter = |n: &mut u32| *n = (*n / 4).max(1);
        match &mut self {
            Shape::Sptree { cols, rows } => {
                half(cols);
                half(rows);
            }
            Shape::Join {
                cols, rows, groups, ..
            } => {
                half(cols);
                half(rows);
                quarter(groups);
            }
            Shape::Battle {
                cols,
                rows,
                enemy,
                friendly,
                ..
            } => {
                half(cols);
                half(rows);
                quarter(enemy);
                quarter(friendly);
            }
        }
        self
    }

    /// One-line description for `results.json`.
    pub fn describe(&self) -> String {
        match *self {
            Shape::Sptree { cols, rows } => format!("{cols}x{rows} grid, every link as a g fact"),
            Shape::Join {
                cols,
                rows,
                interval_ms,
                duration_ms,
                groups,
                delete_share,
                delete_lag_ms,
            } => format!(
                "{cols}x{rows} sources, 2 streams, one reading per {interval_ms} ms for \
                 {duration_ms} ms, {groups} key groups, {delete_share} deleted after {delete_lag_ms} ms"
            ),
            Shape::Battle {
                cols,
                rows,
                enemy,
                friendly,
                interval_ms,
                duration_ms,
            } => format!(
                "{cols}x{rows} grid, {enemy} enemy + {friendly} friendly vehicles sighted every \
                 {interval_ms} ms for {duration_ms} ms"
            ),
        }
    }
}

/// The 4-neighbourhood of grid node `n`, in the simulator's order.
fn grid_neighbors(cols: u32, rows: u32, n: u32) -> Vec<u32> {
    let (x, y) = (n % cols, n / cols);
    let mut out = Vec::with_capacity(4);
    if x > 0 {
        out.push(n - 1);
    }
    if x + 1 < cols {
        out.push(n + 1);
    }
    if y > 0 {
        out.push(n - cols);
    }
    if y + 1 < rows {
        out.push(n + cols);
    }
    out
}

/// Generate `shape`'s events for `seed`, sorted by time (stable, so events
/// of one instant keep generation order).
pub fn generate(shape: &Shape, seed: u64) -> Vec<Event> {
    let mut rng = Rng::new(seed);
    let mut out = match *shape {
        Shape::Sptree { cols, rows } => sptree(cols, rows, &mut rng),
        Shape::Join {
            cols,
            rows,
            interval_ms,
            duration_ms,
            groups,
            delete_share,
            delete_lag_ms,
        } => join(
            cols * rows,
            interval_ms,
            duration_ms,
            groups,
            delete_share,
            delete_lag_ms,
            &mut rng,
        ),
        Shape::Battle {
            cols,
            rows,
            enemy,
            friendly,
            interval_ms,
            duration_ms,
        } => battle(
            cols,
            rows,
            enemy,
            friendly,
            interval_ms,
            duration_ms,
            &mut rng,
        ),
    };
    out.sort_by_key(|e| e.at);
    out
}

fn sptree(cols: u32, rows: u32, rng: &mut Rng) -> Vec<Event> {
    let mut links = Vec::new();
    for from in 0..cols * rows {
        for to in grid_neighbors(cols, rows, from) {
            if to != 0 {
                links.push((from, to));
            }
        }
    }
    // Links come up outward from the sink, in random order within one hop
    // distance: the cost of maintaining the tree depends heavily on arrival
    // order (a fully random order varies the Centroid engine's work 3.5x
    // between seeds), and this family of orders keeps it within a few percent
    // while every seed still gives a different order.
    rng.shuffle(&mut links);
    links.sort_by_key(|&(from, _)| from % cols + from / cols);
    links
        .into_iter()
        .enumerate()
        .map(|(i, (from, to))| Event {
            at: 100 + i as u64,
            node: from,
            fact: Fact::Link { from, to },
            insert: true,
        })
        .collect()
}

fn join(
    nodes: u32,
    interval_ms: u64,
    duration_ms: u64,
    groups: u32,
    delete_share: f64,
    delete_lag_ms: u64,
    rng: &mut Rng,
) -> Vec<Event> {
    let mut out = Vec::new();
    let mut value = 0i64;
    for node in 0..nodes {
        for stream in 0..2u8 {
            let mut at = 1 + rng.below(interval_ms);
            while at < duration_ms {
                value += 1;
                let fact = Fact::Reading {
                    stream,
                    node,
                    value,
                    key: rng.below(groups as u64) as i64,
                };
                out.push(Event {
                    at,
                    node,
                    fact,
                    insert: true,
                });
                if rng.unit() < delete_share {
                    out.push(Event {
                        at: at + delete_lag_ms,
                        node,
                        fact,
                        insert: false,
                    });
                }
                at += interval_ms;
            }
        }
    }
    out
}

fn battle(
    cols: u32,
    rows: u32,
    enemy: u32,
    friendly: u32,
    interval_ms: u64,
    duration_ms: u64,
    rng: &mut Rng,
) -> Vec<Event> {
    struct Vehicle {
        friendly: bool,
        at_node: u32,
        last: Option<Fact>,
    }
    let n = cols * rows;
    let mut vehicles: Vec<Vehicle> = (0..enemy + friendly)
        .map(|i| Vehicle {
            friendly: i >= enemy,
            at_node: rng.below(n as u64) as u32,
            last: None,
        })
        .collect();
    // Two vehicles of one side at one node and instant are one sighting
    // (facts are a set): insert on 0 -> 1, delete on 1 -> 0 only.
    let mut live: std::collections::BTreeMap<Fact, u32> = std::collections::BTreeMap::new();
    let mut out = Vec::new();
    let mut t = interval_ms;
    while t < duration_ms {
        for v in vehicles.iter_mut() {
            if let Some(prev) = v.last.take() {
                let count = live.get_mut(&prev).expect("sighting is live");
                *count -= 1;
                if *count == 0 {
                    live.remove(&prev);
                    let Fact::Veh { loc, .. } = prev else {
                        unreachable!("vehicles only make Veh facts")
                    };
                    out.push(Event {
                        at: t,
                        node: loc,
                        fact: prev,
                        insert: false,
                    });
                }
            }
            if rng.unit() < 0.5 {
                let neigh = grid_neighbors(cols, rows, v.at_node);
                v.at_node = neigh[rng.below(neigh.len() as u64) as usize];
            }
            let fact = Fact::Veh {
                friendly: v.friendly,
                loc: v.at_node,
                t,
            };
            let count = live.entry(fact).or_insert(0);
            *count += 1;
            if *count == 1 {
                out.push(Event {
                    at: t,
                    node: v.at_node,
                    fact,
                    insert: true,
                });
            }
            if v.friendly {
                v.last = Some(fact);
            }
        }
        t += interval_ms;
    }
    out
}
