#!/usr/bin/env bash
# Self-check of the benchmark package. Run from anywhere:
#
#   benchmark/check.sh
#
# 1. BENCHMARK.json is exactly what the binary declares (workloads, metric
#    names, units, bounds), and stays inside the driver's schema limits.
# 2. `--quick` runs every workload correctly in < 20 s; results.json parses;
#    the printed workload and metric names equal the declared sets.
# 3. benchmark/src reaches the program only through the frozen API surface
#    (later PRs may not edit benchmark/, so they must keep this compiling).
set -euo pipefail
cd "$(dirname "$0")/.."

run=(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --)
out=benchmark/out/check
mkdir -p "$out"

echo "== BENCHMARK.json equals the binary's declaration"
"${run[@]}" --declare | diff -u BENCHMARK.json -

echo "== --quick run"
start=$(date +%s)
"${run[@]}" --quick --out "$out" >"$out/stdout.txt"
took=$(($(date +%s) - start))
echo "   took ${took}s"
[ "$took" -lt 20 ] || { echo "FAIL: --quick took ${took}s (limit 20s)"; exit 1; }

echo "== declared names, schema limits, results.json"
python3 - "$out" <<'EOF'
import json, re, sys
out = sys.argv[1]
decl = json.load(open("BENCHMARK.json"))
assert set(decl) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}, set(decl)
name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
workloads = [w["name"] for w in decl["workloads"]]
metrics = [m["name"] for m in decl["end_to_end"] + decl["per_layer"]]
names = workloads + metrics
assert len(names) == len(set(names)), "a name is declared twice"
for n in names:
    assert name_re.match(n), f"bad name {n!r}"
for m in decl["end_to_end"] + decl["per_layer"]:
    assert unit_re.match(m["unit"]), f"bad unit {m['unit']!r}"
    assert m["better"] in ("lower", "higher")
for m in decl["end_to_end"]:
    assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25, m
for m in decl["per_layer"]:
    assert set(m) == {"name", "unit", "better"}, m
for w in decl["workloads"]:
    assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"], w
assert 2 <= len(workloads) <= 8 and 1 <= len(decl["end_to_end"]) <= 16 and 1 <= len(decl["per_layer"]) <= 128
assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower" for m in decl["end_to_end"])

results = json.load(open(f"{out}/results.json"))
assert results["correct"] is True, "a workload is incorrect"
assert [w["name"] for w in results["workloads"]] == workloads
for w in results["workloads"]:
    assert w["correct"] and w["failed"] == 0 and w["attempted"] >= 1, w["name"]
    assert list(w["end_to_end"]) == [m["name"] for m in decl["end_to_end"]], w["name"]
    assert list(w["per_layer"]) == [m["name"] for m in decl["per_layer"]], w["name"]
    for k in ("seed", "shape", "cols", "rows", "inserts", "deletes", "why"):
        assert k in w, (w["name"], k)
    for name, m in w["end_to_end"].items():
        assert m["value"] > 0, (w["name"], name)

# What was printed: `<workload> <metric> <value> <unit> ...` rows (`#` lines
# are remarks).
printed = {}
for line in open(f"{out}/stdout.txt"):
    parts = line.split()
    if len(parts) >= 4 and parts[0] in workloads:
        assert parts[1] != "PROBLEM", line
        printed.setdefault(parts[0], set()).add(parts[1])
assert set(printed) == set(workloads), set(workloads) ^ set(printed)
for w, got in printed.items():
    assert got == set(metrics), (w, got ^ set(metrics))
for w in workloads:
    spans = [json.loads(l) for l in open(f"{out}/{w}.trace.jsonl")]
    assert any(s["type"] == "span" and s["name"] == "run" for s in spans), w
print(f"   {len(workloads)} workloads x {len(metrics)} metrics printed and declared")
EOF

echo "== frozen API surface"
allowed='use sensorlog::prelude::*;
use sensorlog::core::{compile_source, NetInfo};
use sensorlog::logic::absint::frontier;
use sensorlog::logic::intern::{pool_len, resolve_counts};
use sensorlog::netstack::flood::run_flood;'
bad=$(grep -rhE '\bsensorlog::' benchmark/src --include='*.rs' \
    | sed -E 's/^[[:space:]]+//' | grep -vE '^//' | sort -u \
    | grep -vxF "$allowed" || true)
if [ -n "$bad" ]; then
    echo "FAIL: benchmark/src reaches the program outside the allow-list:"
    echo "$bad"
    exit 1
fi

echo "benchmark/check.sh: OK"
