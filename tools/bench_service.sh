#!/usr/bin/env bash
# Multi-tenant service benchmark smoke: runs the service acceptance demo
# and the svc isolation/overload test suites, and merges the results into
# one BENCH_SERVICE.json.
#
#   * service_demo measures the uncontended baseline p50/p99, replays the
#     tenant-isolation digest matrix (chaotic tenant A + clean tenant B,
#     concurrent, seeds replayed twice), runs the blast-radius incident
#     (rank killed inside one tenant), and offers ~2x sustained capacity.
#   * The merge script asserts the ISSUE acceptance lines: every clean-
#     tenant digest identical to its solo run with zero observed faults,
#     exactly one rank lost (and reclaimed) in the blast-radius incident,
#     no aborts under overload, the queue bound held, every shed job named,
#     and admitted p99 <= 3x the uncontended p99.
#   * test_svc's isolation + overload suites are replayed and their
#     pass/fail becomes suite_success_rate (asserted == 1.0).
#
# Usage: tools/bench_service.sh <build-dir> [out.json]
# The build dir must contain examples/service_demo and tests/test_svc
# (build with -DCMAKE_BUILD_TYPE=Release for meaningful numbers).
set -euo pipefail

BUILD="${1:?usage: tools/bench_service.sh <build-dir> [out.json]}"
OUT="${2:-BENCH_SERVICE.json}"

# Fail fast, clearly: a missing build tree or binary means "build first",
# not a python traceback halfway through the merge.
if [[ ! -d "$BUILD" ]]; then
  echo "error: build dir '$BUILD' not found; configure and build first:" >&2
  echo "  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release && cmake --build build -j" >&2
  exit 1
fi
for bin in examples/service_demo tests/test_svc; do
  if [[ ! -x "$BUILD/$bin" ]]; then
    echo "error: missing binary '$BUILD/$bin'; rebuild: cmake --build \"$BUILD\" -j" >&2
    exit 1
  fi
done

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# The acceptance scenario: one JSON object on stdout. The demo exits
# nonzero if any of its own invariants fail; keep its verdict.
DEMO_OK=1
"$BUILD/examples/service_demo" > "$TMP/service.json" || DEMO_OK=0

# The isolation digest matrix and the overload suite, replayed.
SUITE_OK=1
"$BUILD/tests/test_svc" --gtest_filter=\
'Isolation.ChaoticTenantNeverPerturbsCleanSiblingAcrossSeedMatrix:'\
'BlastRadius.RankFailureShrinksThePoolAndSparesTheSibling:'\
'Overload.TwoXCapacityDegradesStructurallyNotByAborting' >&2 || SUITE_OK=0

python3 - "$TMP/service.json" "$DEMO_OK" "$SUITE_OK" "$OUT" <<'EOF'
import json, sys

src, demo_ok, suite_ok, out = (
    sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4])
demo = json.load(open(src))
summary = {"description": (
    "Multi-tenant mesh service: tenant isolation, admission control and "
    "overload shedding. isolation replays a seed matrix with a chaotic "
    "tenant (drop+corrupt, tenant-scoped reliable delivery) concurrent "
    "with a clean tenant and compares the clean tenant's element digest "
    "against its solo run; blast_radius kills a rank inside one tenant; "
    "overload offers ~2x sustained capacity against the bounded queue. "
    "Produced by tools/bench_service.sh.")}

iso = demo["isolation"]
assert iso["digest_matches"] == iso["expected_matches"], (
    f"only {iso['digest_matches']}/{iso['expected_matches']} clean-tenant "
    "digests matched the solo run: tenant isolation is broken")
assert iso["clean_failovers"] == 0 and iso["clean_faults_recovered"] == 0, \
    "the clean tenant observed its sibling's faults"
assert iso["chaotic_completed"] == iso["expected_matches"], \
    "the chaotic tenant did not recover every seeded run"

blast = demo["blast_radius"]
assert blast["failovers"] == 1, \
    f"expected exactly 1 absorbed failover, saw {blast['failovers']}"
assert blast["ranks_dead"] == 1, \
    f"the ledger reclaimed {blast['ranks_dead']} ranks, expected 1"
assert blast["sibling_digest_match"], \
    "the bystander tenant was disturbed by the sibling's rank failure"

ov = demo["overload"]
assert ov["aborts"] == 0, f"{ov['aborts']} aborts under overload"
assert ov["completed"] + ov["shed"] + ov["rejected"] == ov["offered"], \
    "overload lost track of a job"
assert ov["peak_queue_depth"] <= ov["queue_capacity"], (
    f"queue bound broken: peak {ov['peak_queue_depth']} > "
    f"capacity {ov['queue_capacity']}")
assert len(ov["shed_jobs"]) == ov["shed"], \
    "shed jobs were not all named"
base_p99 = demo["uncontended"]["p99_ms"]
assert ov["admitted_p99_ms"] <= 3 * base_p99, (
    f"admitted p99 {ov['admitted_p99_ms']} ms > 3x uncontended "
    f"{base_p99} ms")

summary["uncontended"] = demo["uncontended"]
summary["isolation"] = iso
summary["blast_radius"] = blast
summary["overload"] = ov
summary["demo_success"] = 1.0 if demo_ok else 0.0
summary["suite_success_rate"] = 1.0 if suite_ok else 0.0
assert summary["demo_success"] == 1.0, \
    "service_demo reported a violated invariant"
assert summary["suite_success_rate"] == 1.0, \
    "the svc isolation/overload suites did not pass"

json.dump(summary, open(out, "w"), indent=2)
print(f"wrote {out}")
EOF
