#!/usr/bin/env bash
# Recovery benchmark smoke: measures the reliable-delivery (ARQ) tax, the
# end-to-end recovery success rate, and the rank-failure MTTR, and merges
# them into one BENCH_RECOVERY.json.
#
#   * BM_NetExchangeReliable/{payload}/{drop_permille} (bench_migration)
#     runs a bare two-part dist::Network exchange with reliable mode on;
#     comparing the 10-permille (1% drop) median against the 0-permille
#     median of the same payload yields the retransmit tax. The rows run
#     interleaved in random order, 60 repetitions each, so no row gains
#     from running first in the process. The merge script asserts the tax
#     stays under 10%, and that every lossy row recovered at least one
#     frame (a run that injected no loss measures no tax).
#   * The seeded chaos suites from test_recovery are replayed and their
#     pass/fail becomes success_rate (asserted == 1.0): every seeded
#     transient fault schedule must complete with zero aborts, with
#     sequential and with threaded delivery.
#   * failover_demo runs the rank-failure acceptance scenario (kill 1 of 16
#     mid-migrate, hang 1 of 16 mid-balance) and reports the measured
#     mean-time-to-recovery breakdown (detect + evacuate + rebalance) as
#     rank_failure_mttr. The merge asserts zero lost elements and that hang
#     detection stays within 3x the configured hang deadline.
#
# Usage: tools/bench_recovery.sh <build-dir> [out.json]
# The build dir must contain bench/bench_migration, tests/test_recovery,
# tests/test_threaded_delivery and examples/failover_demo (build with
# -DCMAKE_BUILD_TYPE=Release for meaningful numbers).
set -euo pipefail

BUILD="${1:?usage: tools/bench_recovery.sh <build-dir> [out.json]}"
OUT="${2:-BENCH_RECOVERY.json}"

# Fail fast, clearly: a missing build tree or binary means "build first",
# not a python traceback halfway through the merge.
if [[ ! -d "$BUILD" ]]; then
  echo "error: build dir '$BUILD' not found; configure and build first:" >&2
  echo "  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release && cmake --build build -j" >&2
  exit 1
fi
for bin in bench/bench_migration tests/test_recovery \
           tests/test_threaded_delivery examples/failover_demo; do
  if [[ ! -x "$BUILD/$bin" ]]; then
    echo "error: missing binary '$BUILD/$bin'; rebuild: cmake --build \"$BUILD\" -j" >&2
    exit 1
  fi
done
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# Note: this google-benchmark build takes --benchmark_min_time as a plain
# double (seconds), not the newer "0.05x"/"0.05s" suffixed forms.
"$BUILD/bench/bench_migration" \
  --benchmark_filter='BM_NetExchangeReliable' \
  --benchmark_min_time=0.05 \
  --benchmark_repetitions=60 \
  --benchmark_enable_random_interleaving=true \
  --benchmark_out="$TMP/reliable.json" --benchmark_out_format=json >&2

# The acceptance chaos matrix: 20 seeds of mixed transient faults on dist
# operations, plus the same chaos under threaded delivery, reliability on,
# zero aborts tolerated.
# A filter that selects no test passes vacuously, so each run must report
# at least one passed test.
SUCCESS=1
run_suite() {
  local log="$TMP/suite.log"
  "$BUILD/tests/$1" --gtest_filter="$2" > "$log" 2>&1 || SUCCESS=0
  cat "$log" >&2
  grep -Eq '^\[  PASSED  \] [1-9][0-9]* test' "$log" || SUCCESS=0
}
run_suite test_recovery 'DistReliable.TwentySeedsMixedChaosZeroAborts'
run_suite test_threaded_delivery '*ThreadCounts.ReliableChaosUnderThreadedDelivery/*'

# Rank-failure MTTR: the demo prints one JSON object on stdout with the
# detect/evacuate/rebalance breakdown for both incidents.
"$BUILD/examples/failover_demo" > "$TMP/failover.json"

python3 - "$TMP/reliable.json" "$SUCCESS" "$OUT" "$TMP/failover.json" <<'EOF'
import json, sys

src, success, out = sys.argv[1], int(sys.argv[2]), sys.argv[3]
failover_src = sys.argv[4]
summary = {"description": (
    "Reliable-delivery (ARQ) overhead and recovery success rate. "
    "retransmit_tax compares the median time of a reliable two-part "
    "dist::Network exchange phase at 1% message drop against the same run "
    "with no injected loss (60 randomly interleaved repetitions); "
    "success_rate is the fraction of seeded chaos suites that complete "
    "with zero aborts; rank_failure_mttr is the measured "
    "detect/evacuate/rebalance breakdown of the kill-1-of-16-mid-migrate "
    "and hang-1-of-16-mid-balance acceptance scenario. Produced by "
    "tools/bench_recovery.sh."),
    "net_exchange_reliable": [], "success_rate": None}

# With --benchmark_repetitions the JSON carries per-repetition rows plus
# aggregate rows; keep the medians.
rows = {}
for b in json.load(open(src))["benchmarks"]:
    if b.get("aggregate_name") != "median":
        continue
    # BM_NetExchangeReliable/<payload>/<permille>[/iterations:<n>]
    _, payload, permille = b["run_name"].split("/")[:3]
    rows[(int(payload), int(permille))] = b
    summary["net_exchange_reliable"].append({
        "payload_bytes": int(payload),
        "drop_permille": int(permille),
        "median_ns_per_op": round(b["real_time"], 1),
        "recovered": b.get("recovered", 0),
    })

# Interleaved repetitions arrive in random order; list rows by payload.
summary["net_exchange_reliable"].sort(
    key=lambda r: (r["payload_bytes"], r["drop_permille"]))

# The headline claim: <= 10% retransmit tax at 1% drop. Fail the smoke
# run if it ever stops holding.
for (payload, permille), b in sorted(rows.items()):
    if permille == 0:
        continue
    clean = rows.get((payload, 0))
    assert clean is not None, f"no clean baseline for payload {payload}"
    # A lossy row that recovered nothing injected no loss: its "tax" would
    # measure nothing.
    assert b.get("recovered", 0) > 0, (
        f"payload {payload} at {permille/10:.1f}% drop recovered no frame: "
        f"the run injected no loss")
    tax = b["real_time"] / clean["real_time"] - 1.0
    for row in summary["net_exchange_reliable"]:
        if (row["payload_bytes"], row["drop_permille"]) == (payload, permille):
            row["retransmit_tax_vs_clean"] = round(tax, 4)
    assert tax < 0.10, (
        f"payload {payload} at {permille/10:.1f}% drop: "
        f"retransmit tax {tax:.1%} >= 10%")

summary["success_rate"] = 1.0 if success else 0.0
assert summary["success_rate"] == 1.0, \
    "seeded chaos suites did not complete with zero aborts"

# Rank-failure MTTR: zero lost elements is the hard line; hang detection
# must not wildly overshoot the configured deadline either (3x covers CI
# scheduling noise, not a broken detection path).
mttr = json.load(open(failover_src))
assert mttr["elements_lost"] == 0, \
    f"rank-failure scenario lost {mttr['elements_lost']} elements"
deadline = mttr["deadline_ms"]
hang_detect = mttr["hang_mid_balance"]["detect_ms"]
assert hang_detect >= deadline, \
    f"hang detected in {hang_detect} ms, before the {deadline} ms deadline"
assert hang_detect <= 3 * deadline, \
    f"hang detection took {hang_detect} ms vs {deadline} ms deadline"
summary["rank_failure_mttr"] = mttr

json.dump(summary, open(out, "w"), indent=2)
print(f"wrote {out}")
EOF
