//! The constant pool is process-global and append-only, so what a run leaves
//! in it is a leak for the life of the process. This file holds one test —
//! alone in its process, so the pool length is this run's and nobody
//! else's.

use sensorlog_core::workload::VehicleWorkload;
use sensorlog_core::{DeployConfig, Deployment};
use sensorlog_logic::builtin::BuiltinRegistry;
use sensorlog_logic::intern::{pool_len, resolve_counts, ConstId};
use sensorlog_logic::Symbol;
use sensorlog_netsim::{SimConfig, Topology};
use std::collections::BTreeSet;

/// Example 1 on a 6×6 PA grid tests `dist(L, F) <= 8` once per candidate
/// pair of vehicles. The comparison only reads the distance, so the run
/// leaves in the pool what it found there plus the constants of tuples some
/// node still stores — here none: every derived column is a column of a
/// sighting. Interning each distance to compare it left this run's 35
/// distinct distances behind. Nor does a test resolve its arguments.
#[test]
fn a_run_adds_only_stored_constants_to_the_pool() {
    let src = r#"
        .window veh 60000.
        .output uncov.
        cov(L, T)   :- veh("enemy", L, T), veh("friendly", F, T), dist(L, F) <= 8.
        uncov(L, T) :- not cov(L, T), veh("enemy", L, T).
    "#;
    let topo = Topology::square_grid(6);
    let config = DeployConfig {
        sim: SimConfig {
            seed: 17,
            ..SimConfig::default()
        },
        ..DeployConfig::default()
    };
    let mut d = Deployment::new(src, BuiltinRegistry::standard(), topo.clone(), config).unwrap();
    let sightings = VehicleWorkload {
        n_enemy: 8,
        n_friendly: 8,
        interval: 1_000,
        duration: 20_000,
        seed: 17,
    };
    d.schedule_all(sightings.events(&topo)).unwrap();
    // Program and sightings are interned: the run starts from here.
    let before = pool_len();
    let resolves = resolve_counts();
    d.run(40_000);
    let after = resolve_counts();
    assert!(d.results(Symbol::intern("uncov")).len() > 50);
    let tested: u64 = d.node_stats().iter().map(|s| s.probes_processed).sum();
    assert!(tested > 1_000, "{tested} probes");

    let minted = before as ConstId..pool_len() as ConstId;
    let stored: BTreeSet<ConstId> = (d.sim.nodes())
        .flat_map(|n| n.id_bindings())
        .flat_map(|(_, _, t)| t.ids().to_vec())
        .filter(|id| minted.contains(id))
        .collect();
    assert_eq!(minted.len(), stored.len(), "constants nobody stores");

    // The kernel evaluates `dist` on interned values: the run's only
    // boundary resolves are the geographic hash of each emitted result's
    // owner. Resolving both arguments of every `dist` test came to 3,390
    // here against 1,380 emitted results.
    let emitted: u64 = d.node_stats().iter().map(|s| s.results_emitted).sum();
    assert_eq!(after.hot, resolves.hot, "the fixpoint resolves nothing");
    assert!(
        after.boundary - resolves.boundary <= emitted,
        "{} boundary resolves for {emitted} emitted results",
        after.boundary - resolves.boundary
    );
}
