#!/usr/bin/env bash
# Repo CI gate: formatting, lints, full test suite.
#
#   ./ci.sh            # everything
#   ./ci.sh --fast     # skip the release build
#
# Mirrors what reviewers run by hand; keep it boring and fast. All steps
# are offline (vendored deps only).

set -euo pipefail
cd "$(dirname "$0")"

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== cargo test (workspace) =="
cargo test --workspace -q

# Count gates on the per-message path, named here so that renaming or
# filtering one away fails CI instead of passing silently. They compare
# counts, not timings, so they run under --fast too:
#  - netsim: `Metrics` must not walk its registry's key map per node or
#    per delivery (construction makes no walk, and a run with 20x the
#    traffic makes the same two: first tx and first rx of its one kind),
#    and the `node:n/*` rows it writes on export are the 4 per node an
#    eagerly registered registry would hold, idle nodes' zeros included;
#  - core: a queued simulator event must stay 24 bytes whatever `Payload`
#    is, and the node's wire message one pointer (`netsim` queues an app's
#    message by value in a heap whose buffer is its peak pending count);
#  - logic / core: a `Tuple` is 16 bytes (three ids inline, wider tuples
#    behind one pointer), and both forms agree on ids, equality, hash, byte
#    size and value order at arities 0..=9; the records that carry one stay
#    at `FactRecord` <= 48 B and `Payload` <= 96 B (64 and 112 B when a
#    tuple held seven ids inline);
#  - eval: no engine may make a keyed probe on a signature it did not
#    register (an unplanned evaluation order is a filtered scan per probe);
#  - core: a node's join looks its fragments up through `Relation::probe`,
#    so prefix signatures are ranges of the fragment map (pinned hits /
#    scans of a 5x5 logicH run; the old whole-fragment scan counted nothing
#    and reads 0 / 0), and pass plans open every literal keyed (its full
#    scans are 0 by name; the parent's one-pass walk made 354);
#  - core: every next hop of a deployment is decided by `netstack::Router`
#    (its hop counters add up to the per-predicate sent counters `route()`
#    bumps, and off-grid it built one table per destination routed to; a
#    second router in `core` reads 0 here);
#  - logic: the id table under both interners (`pages::Pages`) is read
#    without a lock while it grows — the one concurrency test of the table
#    every tuple comparison reads through;
#  - logic: reading every small int (`0..4096`, its own id) mints no row in
#    the constant pool's value -> id map, and `pool_len` still counts them
#    in the next id (earlier trees pre-seeded 4,096 rows on first touch);
#  - core: a node's pending expiries are its predicates' queues with the
#    earliest head armed, so the simulator never holds as many events as the
#    network holds windowed replicas (a timer per replica does), each
#    generation still leaves at
#    exactly tau + retention, and — the two regressions beside it — an
#    expiry drops only the generation it was queued for, replica or owned;
#  - core: a hop moves a pointer — a relay queues the `Arc` it received
#    (`inner` alone on the last hop), a flood shares one allocation among
#    its links and drops a duplicate through the pointer, and a walk message
#    the dup window queued twice is consumed as two copies;
#  - netsim: two sends on one link at one tick are two queue operations and
#    pop in send order (what same-tick batching used to guarantee by riding
#    one event);
#  - netsim: the event queue retains room for what it held pending, not for
#    every tick it ever saw (5,000 ticks of 8-event bursts leave the heap
#    sized for 16 events at a peak of 15; the timer wheel it replaced kept
#    room for 32,768);
#  - core: `pred:* sent_*` equals the simulator's tx count, partitioned or
#    not (a payload with no route is a routing drop, not a send);
#  - a Centroid center's provenance is its engine's ledger transitions: the
#    JSONL of a 5x5 logicH run with provenance on is pinned byte for byte
#    (657 records, FNV-1a 80da1ca9cc0191eb), and the proofs check;
#  - a provenance hop is recorded where it lands: under loss and a dup
#    window, the `Hop` records are the journal's `Deliver` records of the
#    four routed kinds, as a multiset of (from, to, kind, at);
#  - the JSONL readers trust no declared or narrowed number: a journal
#    header's record count sizes nothing, and a value too wide for its
#    field (a node id, a sign) is a line-numbered error;
#  - a run with clock skew keeps its journal: Table 2's 4x4 testbed run
#    (50 ms skew, jittered delays, seeded per-link loss) is pinned by
#    record count, content hash and tx, the one pin that exercises τc;
#  - core: a plane tuple is stored only where a rule reads it — on 5x5
#    logicH a `g` link goes to the one end it names (80 sends; sending it to
#    every neighbour made 268), `h` / `hp` keep their 136 / 78, and the run
#    is oracle-exact;
#  - eval: a derivation ledger's support takes one slot for its first
#    derivation (`Vec::insert` into an empty vector reserves four) and
#    doubles from there.
#  - core: a node is born small — under Centroid no node but the center
#    allocates a storage part (replicas, owned tuples, timers), a run with
#    the fault plane off allocates no fault part anywhere, and a
#    deployment's router and simulator share one `Arc<Topology>` (earlier
#    trees built every part inline in every node, 584 B each, and cloned
#    the topology for the router).
#  - logic / eval / core: `neg` and `abs` of `i64::MIN` are the kernel's
#    error on every path — `flat_eval`, both engines, and a PA node, which
#    drops the head and counts it in `eval_errors` (earlier trees checked
#    them only in a boxed copy no engine ran: a release build derived a
#    negative `abs`, a debug build panicked);
#  - core: a `dist` test resolves nothing — a 6x6 Example 1 run makes at
#    most one boundary resolve per emitted result (its owner's geographic
#    hash); resolving both arguments of every test made 3,390 for 1,380.
#  - netsim / core: what survives a crash is taken from the instance that
#    crashed — `App::on_restart` is handed it, a node restarted twice holds
#    the facts and ids of a never-crashed run and mints no seq twice, with
#    the fault plane off it keeps nothing (a retraction of a pre-crash
#    reading sends nothing), and it replays its 64 newest tombstones.
#  - core: every wait bounds the walk it waits for — at every node the
#    priced storage and join legs cover the route hops of the storage walk
#    and of every pass of the join walk the runtime reads from the
#    deployment's table, on 10x5 and 20x20 grids (20x20 cut to r = 8 too)
#    and on Fig. 16's geometric graphs, under PA and LocalStorage (a leg
#    priced one hop short fails it);
#  - core: a walk message carries the deployment's walk — a PA update's
#    two storage walks and its probe hold the table's `Arc` (earlier trees
#    built, cloned and reversed a region per update);
#  - core: LocalStorage cut to a radius, the one cut walk that skips
#    members (Fig. 7's located join, r = 4 on 8x8): exact, with tx, store
#    and probe sends and probe steps pinned (14,055 / 0 / 4,714 / 3,928).
# Each gate names its crate, its test target (`--lib` or `--test=<file>`)
# and the test. The boundary-resolve cap (tests/boundary_sites.rs) ran with
# the workspace tests above.
echo "== count gates (keyed registry walks, exported node rows, queued event size, tuple size, unplanned probes, node probe ranges, router hops, id table race, small-int pool rows, expiry queue, message ownership, send order, queue memory, sent counters, Centroid provenance, hops are deliveries, JSONL numbers, skewed journal, plane store targets, first ledger slot, storage part, fault part, one topology, least int, unresolved dist, crash records, walk soundness) =="
for gate in \
    "sensorlog-netsim --lib sim::tests::keyed_registry_walks_do_not_grow_with_traffic" \
    "sensorlog-netsim --lib sim::tests::exported_node_rows_match_an_eagerly_registered_registry" \
    "sensorlog-core --lib msg::tests::queued_event_stays_payload_independent" \
    "sensorlog-logic --lib term::tests::inline_and_heap_tuples_agree" \
    "sensorlog-core --lib msg::tests::tuple_bearing_messages_stay_small" \
    "sensorlog-eval --lib planner::tests::engines_probe_only_planned_signatures" \
    "sensorlog-core --lib deploy::tests::node_probes_are_ranges_of_the_fragment_map" \
    "sensorlog-core --lib deploy::tests::deployment_hops_are_router_hops" \
    "sensorlog-logic --lib pages::tests::lock_free_reads_race_with_publishing" \
    "sensorlog-logic --lib intern::tests::small_ints_mint_no_pool_rows" \
    "sensorlog-core --lib deploy::tests::windowed_replicas_do_not_queue_a_timer_each" \
    "sensorlog-core --lib runtime::tests::an_older_generations_expiry_leaves_the_newer_replica" \
    "sensorlog-core --lib runtime::tests::an_earlier_deltas_expiry_leaves_the_rearmed_owned_entry" \
    "sensorlog-core --lib runtime::tests::a_relay_forwards_the_envelope_it_received" \
    "sensorlog-core --lib runtime::tests::a_flood_shares_one_allocation_among_neighbours" \
    "sensorlog-core --lib runtime::tests::a_duplicated_walk_message_is_processed_as_two_copies" \
    "sensorlog-netsim --lib sim::tests::same_link_same_tick_sends_deliver_in_send_order" \
    "sensorlog-netsim --lib sim::tests::queue_memory_follows_pending_events" \
    "sensorlog-core --lib deploy::tests::sent_counters_equal_transmissions_under_partition" \
    "sensorlog --test=explain_e2e centroid_provenance_jsonl_is_pinned" \
    "sensorlog --test=explain_e2e hops_are_the_journals_deliveries" \
    "sensorlog --test=journal_roundtrip journal_from_jsonl_does_not_trust_the_header_count" \
    "sensorlog --test=journal_roundtrip from_jsonl_rejects_out_of_range_numbers" \
    "sensorlog --test=trace_stability skewed_trace_is_pinned" \
    "sensorlog-core --lib deploy::tests::plane_stores_go_where_rules_read_them" \
    "sensorlog-eval --lib incremental::tests::a_first_derivation_takes_one_slot" \
    "sensorlog-core --lib runtime::tests::centroid_nodes_but_the_center_allocate_no_store" \
    "sensorlog-core --lib runtime::tests::only_the_fault_plane_allocates_a_fault_part" \
    "sensorlog-core --lib deploy::tests::netinfo_and_simulator_share_one_topology" \
    "sensorlog-logic --lib flat::tests::neg_and_abs_of_the_least_int_are_errors" \
    "sensorlog-eval --lib incremental::tests::the_least_ints_abs_is_an_error_in_both_engines" \
    "sensorlog-core --lib invariants::tests::the_least_ints_abs_is_dropped_and_reported" \
    "sensorlog-core --test=comparison_pool a_run_adds_only_stored_constants_to_the_pool" \
    "sensorlog-netsim --lib sim::fault_plane_tests::restart_hands_the_crashed_instance_to_on_restart" \
    "sensorlog --test=chaos restarted_source_state_matches_never_crashed_run" \
    "sensorlog --test=chaos with_the_plane_off_a_restarted_node_keeps_nothing" \
    "sensorlog --test=chaos a_restart_replays_the_64_newest_tombstones" \
    "sensorlog-core --lib plan::tests::priced_legs_cover_every_walk_the_runtime_takes" \
    "sensorlog-core --lib runtime::tests::walk_messages_carry_the_deployments_walks" \
    "sensorlog-core --test=distributed local_storage_cut_to_a_radius_is_exact_and_pinned"; do
    read -r crate target name <<<"$gate"
    out=$(cargo test -q -p "$crate" "$target" -- --exact "$name" 2>&1) || { echo "$out"; exit 1; }
    grep -q "test result: ok. 1 passed" <<<"$out" || {
        echo "count gate $name did not run (renamed or filtered out?)"; exit 1; }
done

# One set-of-derivations ledger: `eval::Support`, stored by the incremental
# engine and by `core::runtime::Owned`. A second one would start like this.
echo "== one derivation ledger (no HashMap<DerivationKey under crates/) =="
if grep -rn 'HashMap<DerivationKey' crates/; then
    echo "a second derivation ledger: count derivation keys in eval::Support"; exit 1
fi

# Maps keyed by process-minted ids hash with `intern::IdHashMap` (one
# multiply per id word): a std `HashMap` keyed by `(Symbol, Tuple)` pays
# SipHash per probe and `RandomState::new` per map, once per node.
echo "== id-keyed maps (no std HashMap<(Symbol, Tuple) or HashSet<(Symbol, Tuple) under crates/*/src) =="
if grep -rnE '\bHash(Map|Set)<\(Symbol, Tuple\)' crates/*/src; then
    echo "a (Symbol, Tuple) key is process-minted ids: use intern::IdHashMap / IdHashSet"; exit 1
fi

# One ledger in eval: counting is `IncrementalEngine<()>` (the derivation
# projected out of the ledger's key), and a Centroid center proves its
# results from the engine's own `Firing` log. Earlier trees kept a second
# count map (`CountingEngine`), a third liveness set for lineage
# (`LineageLog`), batch and DRed lineage capture nothing read, and an owned
# copy of every solution's inputs to feed it. One Sec. V bound walk:
# `absint::frontier` keeps the paper's `S·Σ` bound as `Frontier::paper`,
# where `diag::memory_bounds` walked the same SCCs a second time. One JSONL
# line codec: `telemetry::jsonl`, where `netsim` and `core` each kept a
# drifted copy, and `diag` and `bench` each a JSON string escaper. One
# traffic model: `absint::comm_envelopes`, whose rows `cost.comm-estimate`
# prints; earlier trees also labelled each rule local / neighbor-broadcast /
# tree-routed, a plane no runtime path reads, priced it with unchecked walk
# factors, and suggested a rule split that added traffic. One hop record:
# `ProvRecord::Hop`, written where the hop lands, where earlier trees wrote
# it at the sender and paired it FIFO with the journal's sends. One per-link
# loss override: `SimConfig::link_loss`, where a fault kind no schedule
# built kept a second one in `LinkState`.
echo "== one ledger in eval (no counting engine, lineage log or owned inputs; one bound walk; one JSONL codec; one traffic model; one hop record; one loss override; one pricing path) =="
if grep -rn 'CountingEngine\|LineageLog\|record_lineage\|run_with_lineage\|owned_inputs\|memory_bounds' crates src tests; then
    echo "a second ledger, lineage copy or bound walk is back: use IncrementalEngine::counting / take_firings / Frontier::paper"; exit 1
fi
if grep -rn 'comm_planes\|rule_plane\|split_suggestion\|comm_costs\|CommCost\|comm\.widen\|comm\.plane' crates src tests; then
    echo "a second traffic model is back: report xy::locate and absint::comm_envelopes rows"; exit 1
fi
if grep -rnwE 'build_with_journal|hop_seq|delivered_at|SetLinkLoss|LinkLoss|loss_override' crates src tests; then
    echo "one hop record, one per-link loss override: record ProvRecord::Hop where it lands, override loss in SimConfig::link_loss"; exit 1
fi
# One pricing path: a wait is priced from the walks the deployment's
# regions take (`plan::Walks`, `netstack::RouteHops`), on every topology.
# Earlier trees read a grid's dimensions in `plan.rs` and priced off-grid
# walks from the widest band, hundreds of hops past the walks they bound.
if grep -n 'grid_dims\|widest_band' crates/core/src/plan.rs; then
    echo "a second pricing path is back: price every walk through plan::Walks"; exit 1
fi
# One region list: the runtime sends every storage walk and probe along the
# walks the deployment prices (`DistProgram::walks_of`), cut as it steps
# (`regions::Walk::kept`). Earlier trees built each update's regions anew
# (`Strategy::storage_region` / `join_region`) and cut them with
# `regions::truncate`, a second listing and a second cut.
if grep -rn 'storage_region\|join_region\|truncate(' crates/core/src; then
    echo "a region is built per update again: read the deployment's walks (DistProgram::walks_of)"; exit 1
fi
if [[ $(grep -rn 'fn field_raw' crates src | wc -l) -ne 1 ]]; then
    grep -rn 'fn field_raw' crates src
    echo "a second JSONL field reader: use sensorlog_telemetry::jsonl"; exit 1
fi
if grep -rn 'fn json_str' crates src; then
    echo "a second JSON string escaper: use sensorlog_telemetry::jsonl::escape"; exit 1
fi

# One implementation of each built-in: the system functions are
# `builtin::Op`s, evaluated by one `match` in `logic::flat`, and
# `flat_compare` is the one comparison. Earlier trees wrote each function
# twice — boxed closures built from `num2` / `arith` that only tests ran,
# and a name-dispatched mirror in the kernel (`arith_syms`, `arith2`,
# `minmax2`) that fell back to them through `call_func` — and the copies
# disagreed on `neg` / `abs` of `i64::MIN`.
echo "== one implementation of each built-in (no second copy of the system functions or of comparison under crates/logic/src) =="
if grep -rnE 'arith_syms|fn arith2|fn minmax2|fn num2|Num2|fn call_func|pub fn compare' crates/logic/src; then
    echo "a second implementation of a built-in is back: register a builtin::Op and evaluate it in flat::apply_interpreted"; exit 1
fi

# One ground matcher and evaluator: the kernel (`flat_match_args`,
# `flat_eval`) matches and evaluates every ground term, aggregates and the
# incremental engine's group seed included. Earlier trees kept a boxed copy
# beside it — `unify::match_term`, `BuiltinRegistry::eval_term` and the
# `FlatSubst::from_subst` that brought their bindings back — and the copies
# disagreed: the syntactic `match_term` could not seed a group keyed by
# `X + 1`, so `IncrementalEngine` never derived it.
echo "== one ground matcher (no match_term(, eval_term( or from_subst( under crates/ src/ tests/ examples/) =="
if grep -rnE '\b(match_term|eval_term|from_subst)\(' crates src tests examples; then
    echo "a boxed copy of the ground matcher or evaluator is back: use flat::flat_match_args / flat::flat_eval"; exit 1
fi

# DESIGN.md's "System inventory" names each crate's key modules. Every
# backticked name in a `crates/<c>` row's last column must be a module
# (`crates/<c>/src/<name>.rs`), a directory under `src/`, or the path it
# spells there (`experiments/*`, `bin/bench.rs`); a module the table names
# that the tree lacks is a stale row.
echo "== design inventory (every key module DESIGN.md names exists) =="
python3 - <<'PY'
import glob, os, re, sys
missing = []
for line in open("DESIGN.md"):
    row = re.match(r"\| `(crates/[\w-]+)`", line)
    if not row:
        continue
    src = os.path.join(row.group(1), "src")
    for name in re.findall(r"`([^`]+)`", line.rstrip().rstrip("|").rsplit("|", 1)[-1]):
        if not (os.path.exists(os.path.join(src, name + ".rs"))
                or glob.glob(os.path.join(src, name))):
            missing.append(f"{row.group(1)}: {name}")
if missing:
    print("DESIGN.md's inventory names modules that do not exist:")
    print("\n".join(f"  {m}" for m in missing))
    sys.exit(1)
PY

# One owner rule: `DistProgram::owner_of` (crates/core/src/plan.rs) places
# a placed predicate's tuple at the node its owner column names and hashes
# everything else. A call of the hash anywhere else is a second rule.
echo "== one owner rule (no ght::owner_of( under crates/ or src/ outside core/src/plan.rs) =="
if grep -rn 'ght::owner_of(' crates src | grep -v '^crates/core/src/plan.rs:'; then
    echo "a second owner rule: ask DistProgram::owner_of (or Deployment::owner)"; exit 1
fi

# One record of a replica: its entry in the node's fragment store, whose
# metadata carries the stored generation's id. The parent kept the ids in a
# second map beside it, under this name.
echo "== one replica store (no frag_ids under crates/ or src/) =="
if grep -rn 'frag_ids' crates src; then
    echo "a second record of a replica: keep its id in the fragment store's TupleMeta"; exit 1
fi

# A stored tuple costs its key: a registered non-prefix index is a set of
# permuted keys, each of which is the whole tuple, and an engine row keeps
# only its generation timestamp; the deletion timestamp is a replica's
# (`core::partial::Replica`). Earlier trees kept a second copy of every
# tuple as its index entry's value and a 16-byte `del_ts` in every row.
echo "== a stored tuple costs its key (no BTreeMap<Tuple, Tuple> or del_ts under crates/eval) =="
if grep -rn 'BTreeMap<Tuple, Tuple>\|del_ts' crates/eval; then
    echo "a second copy of a stored tuple is back: index by permuted keys, tombstone in core's Replica"; exit 1
fi

# One event queue and one run loop: a binary heap keyed (at, tie), drained
# by `Simulator::drain_ready`. Earlier trees also shipped a 4,096-slot timer
# wheel (slower on every workload, and it kept each slot's high-water
# buffer) and a region-sharded conservative-PDES backend (a wall speedup of
# 0.95-1.09x over the heap on a 4,000-node grid, its only benchmark).
echo "== one event queue (no timer wheel or sharded scheduler under crates/ src/ tests/) =="
if grep -rn 'TimerWheel\|Sched::Wheel\|wheel\.rs\|Sched::Shard\|ShardQueues\|set_shard_\|shard\.rs\|sched\.shard\.' \
    crates src tests; then
    echo "a second event queue is back: schedule on the heap (netsim::sim::EventHeap)"; exit 1
fi

# A message is allocated at its origin and queued inline: the parent boxed
# the payload per hop (`Box<Payload>`) and queued every delivery in a fresh
# `Vec` (`msgs: Vec<M>`, `vec![msg]`) for a batching rule that carried at
# most 10 messages of a workload.
echo "== a hop moves a pointer (no Box<Payload>, msgs: Vec<, vec![msg] under crates/ or src/) =="
if grep -rn 'Box<Payload>\|msgs: Vec<\|vec!\[msg\]' crates src; then
    echo "a per-hop allocation is back: queue the message inline and forward the Arc"; exit 1
fi

# One statement of the spatial radius: the rule's `dist` bound, inferred by
# `logic::xy::locate`. Earlier trees also took it as a runtime setting that
# silently won over the rule (radius 2 against a rule's 4 found 2,916 of
# 5,244 results, and every bound check passed).
echo "== one spatial radius (no spatial_radius under crates/ src/ tests/) =="
if grep -rn 'spatial_radius' crates src tests; then
    echo "a second statement of the radius is back: state it once, in the rule's dist bound"; exit 1
fi

# One placement walk: `logic::xy::locate` infers each predicate's owner
# column, plane store set and spatial radius, the plane and the radius
# through one greatest-fixpoint routine, and `DistProgram::places` keeps the
# answer. Earlier trees walked the rules' location terms three times, in
# `xy::placement`, `xy::neighbourhood` and `xy::radius` (with `xy::location`
# between them), and kept three maps.
echo "== one placement walk (no xy::placement, xy::neighbourhood, xy::radius or xy::location under crates/ src/ tests/) =="
if grep -rnE 'xy::(placement|neighbourhood|radius|location)\b' crates src tests; then
    echo "a second placement walk is back: ask xy::locate (DistProgram::places)"; exit 1
fi

# One reach: where an update goes is one `plan::Reach` per predicate,
# decided once per deployment from the strategy and the program's places
# (`DistProgram::with_reach`) and matched once per update. Earlier trees
# tested the strategy in the update pipeline (an unread-predicate pre-check,
# a Centroid early return, a match on the reach and the strategy together),
# asked `Strategy` for regions behind an `Option` and an `expect`, and stored
# and walked an update no rule joins (a 10x10 selection sent 2,596 messages
# under PA; 313 results once nothing is walked).
echo "== one reach (no Strategy:: in runtime.rs's update pipeline, no 'non-centroid strategy has regions') =="
if grep -rn 'non-centroid strategy has regions' crates src tests; then
    echo "a strategy without regions is asked for them: match plan::Reach instead"; exit 1
fi
pipeline=$(sed -n '/^    \/\/ Update pipeline$/,/^    \/\/ Fault plane/p' crates/core/src/runtime.rs)
grep -q 'fn initiate_update' <<<"$pipeline" && grep -q 'fn start_join' <<<"$pipeline" || {
    echo "runtime.rs's update pipeline section not found (renamed?)"; exit 1; }
if grep -n 'Strategy::' <<<"$pipeline"; then
    echo "the update pipeline tests a strategy: decide it once in plan::Reach (DistProgram::with_reach)"; exit 1
fi

# One value order: `intern::cmp_ids` compares two constants' values, as
# `Term`'s derived `Ord` does. Earlier trees also kept a memcmp-ordered byte
# sort key in every pool entry (a second definition of the order, built for
# byte tries long gone), and a replica-store trait no runtime path called
# whose re-insert cleared a tombstone the runtime refuses to clear.
echo "== one value order (no sort_key, sort_bits or ReplicaStore under crates/ or src/) =="
if grep -rnE 'sort_key|sort_bits|ReplicaStore' crates src; then
    echo "a second value order or replica store is back: compare values in intern::cmp_ids, write replicas through Relation::update"; exit 1
fi

# One record of a flooded tuple: a node re-broadcasts a `FloodStore` copy
# exactly when storing it changed its replica store. Earlier trees also kept
# a never-pruned `(TupleId, UpdateKind)` set per node only to stop the flood,
# 27.5 % of `join_bcast`'s peak heap.
echo "== one flood record (no flood_seen under crates/ or src/) =="
if grep -rn 'flood_seen' crates src; then
    echo "a second record of flooded tuples is back: forward a FloodStore copy when store_replica reports a change"; exit 1
fi

# One timing source: every wait of the runtime (τs, τj, a replica's
# retention, an owner's holddown and its XY stagger) is derived per
# deployment from the plan, the topology and SimConfig
# (`DistProgram::with_reach`, priced by `NetInfo::wait`). Earlier trees
# carried four settable constants, ~10-15x too long on the neighbourhood
# plane and too short on a 20-wide PA grid, where a stage's retraction chain
# outran the stagger and the run never settled.
echo "== one timing source (no settable τs, τj, holddown base or XY stagger under crates/ src/ tests/ examples/) =="
if grep -rnE 'tau_s|tau_j|holddown_base|xy_stagger|DEFAULT_HOLDDOWN_BASE_MS|DEFAULT_XY_STAGGER_MS' crates src tests examples; then
    echo "a settable timing constant is back: derive the wait from the deployment's delay bound (plan::Delay)"; exit 1
fi

# An expiry names its replica once: a queue entry is `{ due, tag, tuple }`,
# and a pop drops whichever generation is stored once
# that one is past its own retention (`runtime::past_retention`, the rule
# `store_replica` refuses a late copy by). Earlier trees queued an
# `Expiring::Replica(pred, tuple, id)` that repeated the stored generation's
# id: 64 B an entry, ~30 % of `battlefield_pa`'s peak heap.
echo "== an expiry names its replica once (no Expiring under crates/core/src) =="
if grep -rn 'Expiring' crates/core/src; then
    echo "an expiry entry repeats its replica again: name the replica by pred and tuple, and pop by past_retention"; exit 1
fi

# One record per predicate: everything a node keeps of a predicate is one
# entry of its fragment store's vector (`eval::relation::Database`): the
# predicate's replicas, and beside them, as the entry's extension, its
# `runtime::PredRecord` — the expiry queues of its replicas and of its owned
# entries, its owned entries keyed by tuple alone, and its stored peak. An
# expiry entry is `{ due, tag, tuple }` (32 B), its queue naming the
# predicate and the kind, and the node keeps the few tags with a timer in
# flight. Earlier trees kept each fragment store in a `BTreeMap` (an 11-slot
# leaf for one or two predicates), a peak map and an owned-count map beside
# it, and one node-wide queue of 40 B entries that named their predicate and
# carried an `armed` flag each: together about a seventh of
# `battlefield_pa`'s peak heap. After that a second `Symbol`-sorted vector of
# records (`preds: Vec<PredRecord>`) still stood beside the store, each
# record naming its predicate, and the owned entries were one node-wide map
# keyed `(Symbol, Tuple)`, repeating the predicate in every key.
echo "== one record per predicate (no predicate vector, predicate-keyed peak or owned-count map, or (Symbol, Tuple)-keyed owned map under crates/core/src; no BTreeMap<Symbol, Relation in eval's relation.rs; no pred field in PredRecord, no pred or armed field in Expiry) =="
expiry=$(sed -n '/^struct Expiry {$/,/^}$/p' crates/core/src/runtime.rs)
grep -q 'due' <<<"$expiry" || { echo "runtime.rs's struct Expiry not found (renamed?)"; exit 1; }
record=$(sed -n '/^struct PredRecord {$/,/^}$/p' crates/core/src/runtime.rs)
grep -q 'peak' <<<"$record" || { echo "runtime.rs's struct PredRecord not found (renamed?)"; exit 1; }
found=0
grep -rnE 'peak_pred_stored: BTreeMap|per_pred:|^ +preds: Vec<|\(Symbol, Tuple\), Owned>' crates/core/src && found=1
grep -n 'BTreeMap<Symbol, Relation' crates/eval/src/relation.rs && found=1
grep -nE '^ +pred:' <<<"$record" && found=1
grep -nE '^ +(pred|armed):' <<<"$expiry" && found=1
if [[ "$found" -ne 0 ]]; then
    echo "a second per-predicate structure beside the store, a record or expiry naming its predicate, or an expiry naming its timer: keep it in the predicate's Database entry (its PredRecord)"; exit 1
fi

# One crash record: what a node keeps across a crash (its facts, sequence
# and recent tombstones) is taken from the crashed instance by
# `App::on_restart`. Earlier trees kept a second copy of it in a
# `core::durable::DurableStore` behind an `Arc<Mutex>`, logged beside every
# write of the node's own facts and every id it minted.
echo "== one crash record (no DurableStore, with_durable, durable_store or core::durable under crates/ src/ tests/) =="
if grep -rnE 'DurableStore|with_durable|durable_store|core::durable' crates src tests; then
    echo "a second record of what survives a crash is back: take it from the crashed instance in on_restart"; exit 1
fi

# ROADMAP item 8's repro (crates/bench/tests/staggered_arrivals.rs): the tree
# programs on the neighbourhood plane are oracle-exact (the 6x6 logicH run
# that was the repro included), and so is logicH over a ternary link, which
# keeps hashed owners and PA walks — its 6x6 witness, and a sweep over grids,
# link spacings and link orders with Centroid as the control. The witness
# failed until a probe whose pin leaves a negated literal unbound walked its
# region once more to check it (`boundness::Negations::Repass`). The same program
# on a 20x20 grid, links 1 ms apart, must settle exact within 500,000
# messages: under a constant XY stagger it never settled.
echo "== staggered arrivals (the plane is exact, and so is item 8's ternary witness and sweep off it) =="
for name in tree_programs_are_oracle_exact_where_arrivals_settle \
    logich_6x6_links_200ms_apart_is_oracle_exact \
    ternary_logich_6x6_links_200ms_apart_is_oracle_exact \
    ternary_logich_is_oracle_exact_over_grids_spacings_and_link_orders \
    ternary_logich_20x20_links_1ms_apart_settles_oracle_exact; do
    out=$(cargo test -q -p sensorlog-bench --test staggered_arrivals -- --exact "$name" 2>&1) ||
        { echo "$out"; exit 1; }
    grep -q "test result: ok. 1 passed" <<<"$out" || {
        echo "staggered_arrivals $name did not run (renamed or filtered out?)"; exit 1; }
done

# The pinned bench case and gate lists (checked against a fresh run below).
# The committed BENCH.json must report every pinned gate: a gate the file
# lacks was added to the bench without regenerating it.
bench_cases="fig4_5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14 fig15 fig16 table1 table2 table3 table4_5 smoke micro grid4k chaos prov intern diag scale"
bench_gates="fig4_5.runs_with_results fig4_5.runs_oracle_exact fig4_5.pa_tx fig4_5.centroid_tx
    fig4_5.broadcast_tx fig4_5.localstore_tx
    fig6.runs_with_results fig6.runs_oracle_exact
    fig7.runs_with_results fig7.runs_oracle_exact fig7.tx
    fig8.trees_correct fig8.logicH_tx fig8.logicJ_tx
    fig8.logicH_settle_ms fig8.logicJ_settle_ms fig8.flood_settle_ms
    fig8.logicH_flat_settle_ms fig8.logicJ_flat_settle_ms
    fig9.loss_free_runs_oracle_exact fig9.spurious_results
    fig9.pa_found fig9.pa_arq_found fig9.centroid_found fig9.centroid_arq_found
    fig10.runs_with_results fig10.runs_oracle_exact fig10.tx
    fig11.counting_agrees_with_set_of_derivations fig11.rederive_agrees_with_set_of_derivations
    fig12.magic_applied fig12.magic_answers_equal_full
    fig13.spurious_results fig13.pa_found fig13.centroid_found
    fig14.tag_equals_oracle fig14.central_equals_oracle
    fig15.staggered fig15.flat_100ms fig15.none_1ms
    fig16.runs_with_results fig16.runs_oracle_exact
    fig16.pa_settle_ms_25_nodes fig16.pa_settle_ms_50_nodes fig16.pa_settle_ms_100_nodes
    table1.peaks_within_static_bound table1.logicJ_static_bounds_hold
    table1.logicJ_tree_correct table1.runs_with_results table1.runs_oracle_exact
    table2.spurious_results table2.found
    table3.trace_sends_equal_metrics_tx table3.loss_free_sends_all_delivered
    table3.loss_free_runs_oracle_exact table3.lossy_attempts_cover_deliveries_and_drops
    table3.lossy_runs_drop table3.lossy_drops
    table4_5.trees_correct table4_5.runs_with_results table4_5.runs_oracle_exact
    table4_5.runs_with_pred_traffic table4_5.runs_with_deliveries
    smoke.snapshot_schema_is_golden smoke.snapshot_plausible smoke.pa_join_at_hop_bound_exact
    micro.inc_ledger_keys_equal_live_tuples micro.inc_support_bytes_per_derivation
    grid4k.heap_journal_pin
    chaos.heap_journal_pin
    chaos.convergence_violations
    prov.journal_pin prov.journal_identical_off_vs_on prov.records_when_disabled
    prov.sampled_critical_path_is_causal
    intern.engine_hot_resolves intern.journal_pin intern.deploy_hot_resolves
    intern.boundary_resolves_le_journal_records
    diag.logicH_5x5_h_pin diag.logicH_5x5_hp_pin diag.frontier_unbounded
    diag.frontier_looser_than_legacy diag.frontier_unsound diag.frontier_over_10x_live
    diag.mirror_legacy_frontier
    scale.tx_50_nodes scale.tx_98_nodes
    scale.logicJ_tx_50_nodes scale.logicJ_tx_98_nodes
    scale.settle_ms_50_nodes scale.settle_ms_98_nodes
    scale.logicJ_settle_ms_50_nodes scale.logicJ_settle_ms_98_nodes
    scale.flood_settle_ms_50_nodes scale.flood_settle_ms_98_nodes
    scale.results_equal_oracle_50_nodes scale.results_equal_oracle_98_nodes
    scale.logicJ_results_equal_oracle_50_nodes scale.logicJ_results_equal_oracle_98_nodes"
echo "== BENCH.json reports every pinned bench gate =="
python3 - BENCH.json $bench_gates <<'PY'
import json, sys
have = {f'{r["case"]}.{g["name"]}' for r in json.load(open(sys.argv[1])) for g in r["gates"]}
missing = [g for g in sys.argv[2:] if g not in have]
if missing:
    sys.exit(f"BENCH.json lacks pinned gates {missing}: regenerate those cases' blocks")
PY

if [[ "$fast" -eq 0 ]]; then
    echo "== cargo build --release (workspace, timed) =="
    build_start=$SECONDS
    cargo build --release -q --workspace
    echo "release build took $((SECONDS - build_start))s"

    # Static analyzer gate: every example program must pass `sensorlog
    # check` with zero errors and zero warnings (bounds derivable, no
    # cartesian joins, no stage rescans, no dead rules, windows declared).
    echo "== sensorlog check (examples, deny warnings) =="
    for f in examples/programs/*.dl; do
        cargo run -q --release --bin sensorlog -- check "$f" --deny-warnings
    done

    # Rewrite gate: `sensorlog fix --dry-run` must find nothing left to
    # apply on any committed example — machine-applicable suggestions are
    # either already folded into the sources or the lint above would have
    # fired. Exit code 2 means pending fixes; 1 means non-convergence.
    echo "== sensorlog fix --dry-run (examples, must be clean) =="
    for f in examples/programs/*.dl; do
        cargo run -q --release --bin sensorlog -- fix "$f" --dry-run
    done

    # Every bench case at CI size, in one process, into one report schema.
    # The paper's figures and tables run at full size (they ignore --quick),
    # so their gates hold the numbers EXPERIMENTS.md quotes. `bench`
    # checks its own gates (oracle exactness, tree shape, engines agreeing,
    # journal pins, resolve counts, bound soundness, convergence, message
    # and result counts) and exits non-zero naming any that fail, and prints
    # each case's elapsed time. What is checked here is that no gate went
    # missing: the names it printed must be exactly this list, so deleting
    # or renaming a gate fails CI, and every case must gate something.
    # `bench_cases` must equal
    # `bench --list` (crates/bench/tests/parallel_driver.rs).
    echo "== bench --quick (all cases; gate set pinned) =="
    bench_out=$(mktemp /tmp/bench.XXXXXX.json)
    cargo run -q --release -p sensorlog-bench --bin bench -- --quick $bench_cases --out "$bench_out"
    python3 - "$bench_out" $bench_gates <<'PY'
import json, sys
reports, want = json.load(open(sys.argv[1])), sys.argv[2:]
for r in reports:
    assert list(r) == ["host", "case", "quick", "rows", "gates"] and r["quick"] is True, r["case"]
    assert r["gates"], f'{r["case"]} gates nothing'
    assert all(list(g) == ["name", "want", "got", "ok"] and g["ok"] for g in r["gates"]), r["case"]
got = [f'{r["case"]}.{g["name"]}' for r in reports for g in r["gates"]]
if sorted(got) != sorted(want):
    sys.exit(f"bench gate set changed: missing {sorted(set(want) - set(got))}, "
             f"unlisted {sorted(set(got) - set(want))}")
PY
    rm -f "$bench_out"

    # The repo benchmark's self-check: BENCHMARK.json equals the binary's
    # declaration, `--quick` runs all six workloads reference-exact, and
    # benchmark/src still compiles against the frozen API surface. PRs may
    # not edit benchmark/, so this is where breaking it shows.
    echo "== benchmark self-check (declaration, --quick, frozen API surface) =="
    benchmark/check.sh

    # `sensorlog explain` end-to-end: a recursive 3-link chain whose proof
    # tree must span the grid and name the EDB leaf, with the latency-
    # critical chain attached.
    echo "== sensorlog explain smoke (recursive cross-node proof) =="
    explain_out=$(cargo run -q --release --bin sensorlog -- explain \
        examples/explain/reach.dl --grid 4 \
        --events examples/explain/chain_events.txt --why 'reach(1, 4)')
    for needle in 'reach(1, 4)' 'edge(1, 2)' 'critical path' 'sim-ms'; do
        grep -qF "$needle" <<<"$explain_out" || {
            echo "explain smoke: missing \`$needle\` in output:"; echo "$explain_out"; exit 1; }
    done

    # Programs the network cannot run are refused before they run: a
    # Centroid center whose engine cannot evaluate the ground facts is an
    # `error:` line and exit 1 (it used to panic building the node), and a
    # rule no update starts fails `sensorlog check` (`maint.unseeded-rule`).
    # Under PA the same program runs, and its oracle line names the engine's
    # error (the oracle used to panic on it). `sensorlog check` evaluates the
    # ground facts too: the engine's error is a check error (it used to
    # report 0 errors). Ground facts that feed a predicate `check` calls
    # unbounded are not evaluated: their cascade ran to the centralized
    # engine's limit, seconds of a release build, only to warn again.
    echo "== refused programs (Centroid engine error, PA oracle error, check eval error, unseeded rule) =="
    refused=$(mktemp -d)
    printf '.output m.\nn(0).\nm(X / 0) :- n(X).\n' >"$refused/div0.dl"
    printf '+100 @1 n(5).\n' >"$refused/div0_events.txt"
    printf '.output t.\nt :- not r0(1).\n' >"$refused/unseeded.dl"
    printf 'n(0).\nn(X + 1) :- n(X), X < 2000000.\n' >"$refused/cascade.dl"
    code=0
    out=$(cargo run -q --release --bin sensorlog -- deploy "$refused/div0.dl" \
        --grid 3 --strategy centroid 2>&1) || code=$?
    if [[ "$code" -ne 1 ]] || grep -q panicked <<<"$out" ||
        ! grep -qF "error: the Centroid center's engine: builtin error: div(0, 0) failed" <<<"$out"; then
        echo "centroid deploy of m(X / 0) exited $code:"; echo "$out"; exit 1
    fi
    code=0
    out=$(cargo run -q --release --bin sensorlog -- deploy "$refused/div0.dl" \
        --grid 3 --events "$refused/div0_events.txt" 2>&1) || code=$?
    if [[ "$code" -ne 0 ]] || grep -q panicked <<<"$out" ||
        ! grep -qF -- "-- oracle: FAILED, the centralized engine: builtin error: div(0, 0) failed" <<<"$out"; then
        echo "PA deploy of m(X / 0) exited $code:"; echo "$out"; exit 1
    fi
    code=0
    out=$(cargo run -q --release --bin sensorlog -- check "$refused/div0.dl" 2>&1) || code=$?
    if [[ "$code" -ne 1 ]] || ! grep -q "error: \[eval.ground-facts\].*div(0, 0) failed" <<<"$out"; then
        echo "check of m(X / 0) exited $code:"; echo "$out"; exit 1
    fi
    code=0
    out=$(cargo run -q --release --bin sensorlog -- check "$refused/cascade.dl" 2>&1) || code=$?
    if [[ "$code" -ne 0 ]] || ! grep -qF "warning: [mem.unbounded]" <<<"$out" ||
        grep -q "eval.ground-facts" <<<"$out"; then
        echo "check of the 2M-step cascade exited $code:"; echo "$out"; exit 1
    fi
    code=0
    out=$(cargo run -q --release --bin sensorlog -- check "$refused/unseeded.dl" 2>&1) || code=$?
    if [[ "$code" -eq 0 ]] || ! grep -q "maint.unseeded-rule" <<<"$out"; then
        echo "check of t :- not r0(1). exited $code:"; echo "$out"; exit 1
    fi
    rm -rf "$refused"
fi

echo "CI OK"
