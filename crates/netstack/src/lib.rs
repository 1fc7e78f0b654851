//! # sensorlog-netstack
//!
//! Network services layered on the simulator, used by the distributed
//! deductive engine and the baselines:
//!
//! * [`router`] — the one next-hop oracle: x-then-y on grids, a lazily
//!   built BFS parent table per destination everywhere else, plus the fault
//!   plane's greedy detour step;
//! * [`ght`] — geographic hashing: derived tuples meet at their owner node
//!   (Sec. III-B);
//! * [`regions`] — PA storage/join regions: grid rows & columns, coordinate
//!   bands for general topologies, spatial-constraint truncation
//!   (Sec. III-A);
//! * [`tree`] — data-gathering spanning trees (`Topology::bfs` rooted at
//!   the sink);
//! * [`tag`] — TAG-style in-network aggregation (the paper's citation \[32\]);
//! * [`flood`] — the hand-written procedural shortest-path-tree protocol
//!   (the Kairos-style comparator for Example 3; also how such a tree is
//!   built in-network).

#![forbid(unsafe_code)]

pub mod flood;
pub mod ght;
pub mod regions;
pub mod router;
pub mod tag;
pub mod tree;

pub use router::Router;
pub use tree::GatherTree;
