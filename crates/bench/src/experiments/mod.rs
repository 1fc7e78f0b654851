//! The reconstructed Section-VI experiment suite (see DESIGN.md for the
//! provenance of each figure/table id): one `bench` case per figure or
//! table, or per sweep two of them share (`fig4_5`, `table4_5`).

pub mod ablation;
pub mod aggregates;
pub mod failures;
pub mod geometric;
pub mod holddown;
pub mod joins;
pub mod memory;
pub mod negation;
pub mod robustness;
pub mod sptree;
pub mod telemetry;
pub mod tracesum;
