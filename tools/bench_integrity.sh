#!/usr/bin/env bash
# Memory-integrity benchmark smoke: the cost of wearing the
# silent-corruption armor, plus the seeded memflip repair matrix, merged
# into one BENCH_INTEGRITY.json.
#
#   * examples/integrity_demo runs the same svc-job-shaped rebalance
#     epochs (migrate + bounded balance + fixed-iteration solves) bare
#     and armored. The armor self-times its audit and seal passes on
#     every exit path, so the headline overhead is a direct measurement
#     — armor_self / (armored_total - armor_self) — not a noisy A/B
#     subtraction (the A/B delta is recorded alongside as a
#     cross-check). The merge asserts audit overhead <= 5%.
#   * The same binary replays the 20-seed memflip matrix (target family
#     and boundary phase cycled from the seed, flips planted in live
#     sealed state mid-workload): every injected flip must be detected
#     and repaired through the ladder to a digest-identical mesh. The
#     merge asserts success_rate == 1.0 with a nonzero injected count.
#
# Usage: tools/bench_integrity.sh <build-dir> [out.json]
# Build with -DCMAKE_BUILD_TYPE=Release for meaningful numbers.
set -euo pipefail

BUILD="${1:?usage: tools/bench_integrity.sh <build-dir> [out.json]}"
OUT="${2:-BENCH_INTEGRITY.json}"

if [[ ! -d "$BUILD" ]]; then
  echo "error: build dir '$BUILD' not found; configure and build first:" >&2
  echo "  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release && cmake --build build -j" >&2
  exit 1
fi
if [[ ! -x "$BUILD/examples/integrity_demo" ]]; then
  echo "error: missing binary '$BUILD/examples/integrity_demo'; rebuild: cmake --build \"$BUILD\" -j" >&2
  exit 1
fi
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

"$BUILD/examples/integrity_demo" > "$TMP/integrity.json"

python3 - "$TMP/integrity.json" "$OUT" <<'EOF'
import json, sys

src, out = sys.argv[1], sys.argv[2]
demo = json.load(open(src))
summary = {"description": (
    "Silent-corruption armor priced over svc-job-shaped rebalance epochs "
    "(one seeded migration, a two-round balance pass, then a block of "
    "fixed-iteration Poisson solves per epoch — adaptive codes solve "
    "every timestep and rebalance every ten-or-so). audit.overhead_pct "
    "is the armor's self-timed wall share: every auditAndRepair and "
    "sealAndMaybeInject accumulates its own time, so the number prices "
    "the version-gated incremental rehash, the canonical external "
    "streams, and the block-CRC ledgers directly; ab_delta_pct is the "
    "whole-run A/B subtraction, recorded as a cross-check only. "
    "full_armor adds the buddy-journal replica refresh at every seal "
    "(the tier-2 repair source; replication proper is priced by the "
    "failover bench). repair replays the 20-seed memflip matrix: "
    "deterministic flip bursts planted in live sealed state "
    "mid-workload, target family (pool/tag/remotes/any) and boundary "
    "phase cycled from the seed; every seed must end digest-identical "
    "to its pristine mesh with zero unrepaired parts. Produced by "
    "tools/bench_integrity.sh."),
    **demo}

# The headline claims, asserted rather than just recorded: wearing the
# armor costs <= 5% of the application's wall time, and the memflip
# matrix repairs every seed.
overhead = demo["audit"]["overhead_pct"]
assert overhead <= 5.0, \
    f"audit overhead {overhead:.2f}% > 5% of armored application time"
assert demo["audit"]["audits"] > 0 and demo["audit"]["seals"] > 0, \
    "the armored run crossed no commit points: nothing was measured"
assert demo["audit"]["bytes_hashed"] > 0, \
    "the ledgers hashed nothing: integrity was not actually active"

rep = demo["repair"]
assert rep["success_rate"] == 1.0, (
    f"memflip repair succeeded on only {rep['successes']}/{rep['seeds']} "
    "seeds")
assert rep["flips_injected"] > 0, \
    "the matrix injected no flips: the campaign tested nothing"
assert rep["mismatches"] > 0, \
    "flips were injected but never detected: silent corruption"

json.dump(summary, open(out, "w"), indent=2)
print(f"wrote {out}: audit overhead {overhead:.2f}%, "
      f"repair {rep['successes']}/{rep['seeds']}, "
      f"{rep['flips_injected']} flips injected")
EOF
