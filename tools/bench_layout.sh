#!/usr/bin/env bash
# Data-layout benchmark gate: measures the no-allocation adjacency and
# flat-table hot paths against their legacy allocating / node-based
# counterparts and asserts the speedup bars.
#
#   * bench_adjacency: BM_VertexToRegions (allocating adjacent()) vs
#     BM_VertexToRegionsInto (adjacentInto() into a reused scratch vector)
#     at the 24^3 box (~83k tets). Gate: into >= 1.5x over legacy.
#   * bench_migration: BM_PlanApplyLegacy (std::unordered_map/set +
#     allocating adjacent()) vs BM_PlanApplyFlat (SIMD open-addressing
#     FlatMap/FlatSet + adjacentInto()) on the phase-A plan-application
#     workload. The binary itself verifies both variants fold to the same
#     checksum before timing. Gate: flat >= 1.5x over legacy.
#
# Usage: tools/bench_layout.sh <build-dir> [out.json]
# Build Release for meaningful numbers:
#   cmake -B build -S . -DCMAKE_BUILD_TYPE=Release && cmake --build build -j
set -euo pipefail

BUILD="${1:?usage: tools/bench_layout.sh <build-dir> [out.json]}"
OUT="${2:-BENCH_LAYOUT.json}"

if [[ ! -d "$BUILD" ]]; then
  echo "error: build dir '$BUILD' not found; configure and build first:" >&2
  echo "  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release && cmake --build build -j" >&2
  exit 1
fi
for bin in bench/bench_adjacency bench/bench_migration; do
  if [[ ! -x "$BUILD/$bin" ]]; then
    echo "error: missing binary '$BUILD/$bin'; rebuild: cmake --build \"$BUILD\" -j" >&2
    exit 1
  fi
done

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

REPS="${PUMI_BENCH_REPS:-5}"

"$BUILD/bench/bench_adjacency" \
  --benchmark_filter='BM_VertexToRegions(Into)?/24$' \
  --benchmark_repetitions="$REPS" \
  --benchmark_report_aggregates_only=true \
  --benchmark_format=json > "$TMP/adjacency.json"

"$BUILD/bench/bench_migration" \
  --benchmark_filter='BM_PlanApply(Legacy|Flat)$' \
  --benchmark_repetitions="$REPS" \
  --benchmark_report_aggregates_only=true \
  --benchmark_format=json > "$TMP/migration.json"

python3 - "$TMP/adjacency.json" "$TMP/migration.json" "$OUT" <<'EOF'
import json, sys

adj_path, mig_path, out = sys.argv[1], sys.argv[2], sys.argv[3]

def median_cpu(path, name):
    doc = json.load(open(path))
    rows = [b for b in doc["benchmarks"] if b["name"].startswith(name)]
    for b in rows:
        assert not b.get("error_occurred"), (
            f"{b['name']} errored: {b.get('error_message')}")
    med = [b for b in rows if b["name"] == name + "_median"]
    if not med:  # single-repetition runs emit no aggregates
        med = [b for b in rows if b["name"] == name]
    assert med, f"benchmark {name} missing from {path}"
    return float(med[0]["cpu_time"]), med[0]["time_unit"]

legacy, u0 = median_cpu(adj_path, "BM_VertexToRegions/24")
into, u1 = median_cpu(adj_path, "BM_VertexToRegionsInto/24")
assert u0 == u1, "adjacency benches use mixed time units"

plan_legacy, u3 = median_cpu(mig_path, "BM_PlanApplyLegacy")
plan_flat, u4 = median_cpu(mig_path, "BM_PlanApplyFlat")
assert u3 == u4, "migration benches use mixed time units"

into_speedup = legacy / into
plan_speedup = plan_legacy / plan_flat

summary = {
    "description": (
        "Hot-path data layout: no-allocation adjacentInto() + SIMD "
        "open-addressing tables vs the legacy allocating adjacent() and "
        "std::unordered containers. adjacency_* is per-query vertex->regions time on the "
        "24^3 box tet mesh (~83k tets, median of repeated runs); "
        "plan_apply_* is the migrate() phase-A plan-application workload "
        "on a 8-part 24.5k-tet mesh, checksum-verified equivalent inside "
        "the binary. Produced by tools/bench_layout.sh."),
    "adjacency": {
        "legacy_cpu": legacy, "into_cpu": into, "time_unit": u0,
        "into_speedup": into_speedup,
    },
    "plan_apply": {
        "legacy_cpu": plan_legacy, "flat_cpu": plan_flat, "time_unit": u3,
        "flat_speedup": plan_speedup,
    },
}

assert into_speedup >= 1.5, (
    f"adjacentInto speedup {into_speedup:.2f}x < required 1.5x")
assert plan_speedup >= 1.5, (
    f"flat plan-application speedup {plan_speedup:.2f}x < required 1.5x")

json.dump(summary, open(out, "w"), indent=2)
print(f"adjacency into {into_speedup:.2f}x, "
      f"plan apply {plan_speedup:.2f}x")
print(f"wrote {out}")
EOF
