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

echo "== cargo test (workspace) =="
cargo test --workspace -q

# Count gates on the per-message path, named here so that renaming or
# filtering one away fails CI instead of passing silently. They compare
# counts, not timings, so they run under --fast too:
#  - netsim: `Metrics` must not walk its registry's key map per delivery
#    (the same flood with 20x the traffic performs the same number of walks);
#  - core: a queued simulator event must stay 32 bytes whatever `Payload`
#    is (an inline message grew sptree_centroid's heap 27.4 -> 44.0 MB);
#  - eval: no engine may make a keyed probe on a signature it did not
#    register (an unplanned evaluation order is a filtered scan per probe).
# The boundary-resolve cap (tests/boundary_sites.rs) ran with the workspace
# tests above.
echo "== count gates (keyed registry walks, queued event size, unplanned probes) =="
for gate in \
    "sensorlog-netsim sim::tests::keyed_registry_walks_do_not_grow_with_traffic" \
    "sensorlog-core msg::tests::queued_event_stays_payload_independent" \
    "sensorlog-eval planner::tests::engines_probe_only_planned_signatures"; do
    read -r crate name <<<"$gate"
    out=$(cargo test -q -p "$crate" --lib -- --exact "$name" 2>&1) || { echo "$out"; exit 1; }
    grep -q "test result: ok. 1 passed" <<<"$out" || {
        echo "count gate $name did not run (renamed or filtered out?)"; exit 1; }
done

if [[ "$fast" -eq 0 ]]; then
    echo "== cargo build --release (workspace, timed) =="
    build_start=$SECONDS
    cargo build --release -q --workspace
    echo "release build took $((SECONDS - build_start))s"

    # Static analyzer gate: every example program must pass `sensorlog
    # check` with zero errors and zero warnings (bounds derivable, no
    # cartesian joins, no dead rules, windows declared) — including the
    # cost lints (`comm.widen`, `cost.holddown-implicit`) introduced by
    # the frontier-width pass.
    echo "== sensorlog check (examples, deny warnings incl. cost lints) =="
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

    # Frontier-bound tightness smoke: the 5x5 sweep must keep every
    # finite bound sound (>= live tuples, >= per-node peak), no looser
    # than the legacy S·Σ bound, and within 10x of the live count (the
    # bin exits non-zero on any gate breach). The pinned worst-case
    # tightness ratios anchor the quick artifact across processes; the
    # committed BENCH_diag.json is the full-budget run.
    echo "== diag smoke (--quick, tightness ratios pinned) =="
    diag_out=$(mktemp /tmp/bench_diag.XXXXXX.json)
    cargo run -q --release -p sensorlog-bench --bin diag -- --quick --out "$diag_out"
    python3 -m json.tool "$diag_out" > /dev/null
    grep -q '"pred": "h", "legacy": 4186, "frontier": 161, "live": 41, "peak_node": 21, "tightness": 3' "$diag_out" || {
        echo "diag smoke: logicH-5x5 h tightness drifted from the pin"; exit 1; }
    grep -q '"pred": "hp", "legacy": 2080, "frontier": 240, "live": 24, "peak_node": 10, "tightness": 10' "$diag_out" || {
        echo "diag smoke: logicH-5x5 hp tightness drifted from the pin"; exit 1; }
    grep -q '"mirror": {"legacy": "unbounded", "frontier": 4800}' "$diag_out" || {
        echo "diag smoke: windowed mirror recursion no longer gets its finite frontier bound"; exit 1; }
    rm -f "$diag_out"

    # Telemetry pipeline end-to-end + snapshot-schema golden check; writes
    # BENCH_smoke.json (gitignored) as the inspectable artifact.
    echo "== bench smoke (--quick) =="
    cargo run -q --release -p sensorlog-bench --bin smoke -- --quick

    # Scheduler/index microbench on a tiny budget: must exit 0 and emit
    # parseable JSON. The committed BENCH_sched.json is the full-budget
    # artifact; the smoke run writes to a scratch path and is discarded.
    echo "== sched microbench smoke (--quick) =="
    sched_out=$(mktemp /tmp/bench_sched.XXXXXX.json)
    cargo run -q --release -p sensorlog-bench --bin sched -- --quick --out "$sched_out"
    python3 -m json.tool "$sched_out" > /dev/null
    rm -f "$sched_out"

    # Region-sharded scheduler smoke: a 2-worker quick run whose journal
    # must match the single-wheel oracle hash computed in the same process
    # (the bin exits non-zero on any divergence), plus the pinned quick
    # trace hash as a cross-process regression anchor.
    echo "== shard scaling smoke (--quick, 2-worker journal pinned) =="
    shard_out=$(mktemp /tmp/bench_shard.XXXXXX.json)
    cargo run -q --release -p sensorlog-bench --bin shard -- --quick --out "$shard_out"
    python3 -m json.tool "$shard_out" > /dev/null
    grep -q '"hash": "454242ed8c28a208"' "$shard_out" || {
        echo "shard smoke: quick trace hash drifted (journal no longer matches the pin)"; exit 1; }
    rm -f "$shard_out"

    # Fault-plane chaos smoke: a scripted crash/partition scenario under
    # heap, wheel, and 2-worker shard whose journals must agree in-process
    # (the bin exits non-zero on divergence or on any convergence-to-oracle
    # violation), plus the pinned cross-backend journal hash as the
    # cross-process regression anchor. The same scenario produces the
    # committed BENCH_chaos.json, which pins the identical hash.
    echo "== chaos smoke (--quick, fault-plane journal pinned) =="
    chaos_out=$(mktemp /tmp/bench_chaos.XXXXXX.json)
    cargo run -q --release -p sensorlog-bench --bin chaos -- --quick --out "$chaos_out"
    python3 -m json.tool "$chaos_out" > /dev/null
    grep -q '"hash": "bc026db128c91410"' "$chaos_out" || {
        echo "chaos smoke: quick journal hash drifted (fault-plane trace no longer matches the pin)"; exit 1; }
    rm -f "$chaos_out"

    # Provenance overhead smoke: a 50-node logicH run, provenance off vs
    # on. The bin exits non-zero unless the two journals are identical
    # (pure-observer contract) and a sampled derived tuple proves
    # end-to-end; the pinned hash anchors the disabled-provenance trace
    # across processes.
    echo "== provenance smoke (--quick, pure-observer journal pinned) =="
    prov_out=$(mktemp /tmp/bench_prov.XXXXXX.json)
    cargo run -q --release -p sensorlog-bench --bin prov -- --quick --out "$prov_out"
    python3 -m json.tool "$prov_out" > /dev/null
    grep -q '"hash": "3c1ec08c6289dba4"' "$prov_out" || {
        echo "prov smoke: quick journal hash drifted (provenance plane perturbed the trace, or the sim changed)"; exit 1; }
    rm -f "$prov_out"

    # Intern smoke: the flat-tuple representation must be invisible in the
    # trace (deployment journal matches the pre-refactor pin) and the
    # fixpoint loop must run resolve-free — `intern.hot.resolves` counts
    # any id -> Term materialization outside an `intern::boundary` scope,
    # and the bin exits non-zero if either gate fails. The greps re-check
    # the emitted JSON so a silent bin regression can't pass. Boundary
    # scopes can hide a boxed hot path from that counter (the PA probe did
    # 1.5M boundary resolves here before it moved onto ids), so resolves
    # inside them are capped too: fewer than one per journal record.
    echo "== intern smoke (journal pinned + resolve gates) =="
    intern_out=$(mktemp /tmp/bench_intern.XXXXXX.json)
    cargo run -q --release -p sensorlog-bench --bin intern -- --out "$intern_out"
    python3 -m json.tool "$intern_out" > /dev/null
    grep -q '"hash": "3c1ec08c6289dba4"' "$intern_out" || {
        echo "intern smoke: journal hash drifted (flat representation is visible in the trace)"; exit 1; }
    grep -q '"engine_hot": 0' "$intern_out" || {
        echo "intern smoke: hot-path resolves in the engine fixpoint loop"; exit 1; }
    grep -q '"deploy_hot": 0' "$intern_out" || {
        echo "intern smoke: hot-path resolves in the deployment loop"; exit 1; }
    python3 - "$intern_out" <<'PY' || { echo "intern smoke: deploy_boundary exceeds the journal record count (a boxed path is hiding in a boundary scope)"; exit 1; }
import json, sys
r = json.load(open(sys.argv[1]))
sys.exit(r["resolves"]["deploy_boundary"] > r["journal"]["records"])
PY
    rm -f "$intern_out"

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
fi

echo "CI OK"
