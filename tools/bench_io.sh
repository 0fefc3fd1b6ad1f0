#!/usr/bin/env bash
# Parallel-I/O benchmark smoke: chunked-image checkpoint vs the durable
# per-part-file baseline, plus the seeded read-repair matrix, merged into
# one BENCH_IO.json.
#
#   * examples/io_demo writes and restores the same 16-part mesh both
#     ways under a deterministic storage model (every File op pays a
#     fixed device latency via the iostall fault token, so the A/B
#     measures I/O-path structure — serialized per-part commits with a
#     post-write CRC read-back and a double-read restore vs 16
#     concurrent chunk writers, write-verify, two durability barriers
#     and a single-pass CRC-gated read — not the runner's page cache).
#     The merge asserts the headline claims: write, read and full-cycle
#     speedups >= 2x at 16 parts. Raw unmodeled wall clock is recorded
#     alongside.
#   * The same binary replays the 20-seed single-copy damage matrix (bit
#     flips on even seeds, torn chunk tails on odd): every seed must
#     read-repair to a fingerprint-identical mesh. The merge asserts
#     success_rate == 1.0.
#
# The JSON records the build it measured: CMake build type, online core
# count and whether asserts were compiled in (the top-level CMakeLists
# keeps them on in every build type).
#
# Usage: tools/bench_io.sh <build-dir> [out.json]
# Build with -DCMAKE_BUILD_TYPE=Release for meaningful numbers.
set -euo pipefail

BUILD="${1:?usage: tools/bench_io.sh <build-dir> [out.json]}"
OUT="${2:-BENCH_IO.json}"

if [[ ! -d "$BUILD" ]]; then
  echo "error: build dir '$BUILD' not found; configure and build first:" >&2
  echo "  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release && cmake --build build -j" >&2
  exit 1
fi
if [[ ! -x "$BUILD/examples/io_demo" ]]; then
  echo "error: missing binary '$BUILD/examples/io_demo'; rebuild: cmake --build \"$BUILD\" -j" >&2
  exit 1
fi
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

"$BUILD/examples/io_demo" > "$TMP/io.json"
BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' "$BUILD/CMakeCache.txt")"

python3 - "$TMP/io.json" "$OUT" "${BUILD_TYPE:-none}" "$(nproc)" <<'EOF'
import json, sys

src, out, build_type, cores = sys.argv[1:5]
demo = json.load(open(src))
build = {"build_type": build_type, "cores": int(cores),
         "asserts": demo.pop("asserts")}
summary = {"description": (
    "Chunked-image parallel checkpoint I/O vs the seed implementation's "
    "serialized per-part-file baseline at 16 parts, under a "
    "deterministic storage model (iostall: every File op pays a fixed "
    "device latency, making the A/B reproducible across machines). The "
    "baseline commits parts one at a time — each mesh stream written to "
    "its own durable file (temp + fdatasync + rename; 33 barriers "
    "including its MANIFEST) then read back for the manifest CRC — and "
    "restores in two serial passes (CRC-validate, then deserialize), "
    "reading every byte twice. pario streams 16 concurrent writers into "
    "one image (one fdatasync) with buddy-replicated chunks, verifies "
    "the written extents before committing the MANIFEST last (second "
    "fdatasync), and restores with 16 concurrent single-pass CRC-gated "
    "readers. repair replays the 20-seed single-copy damage matrix: one "
    "chunk copy bit-flipped (even seeds) or torn (odd seeds), restore "
    "must read-repair to a fingerprint-identical mesh. Produced by "
    "tools/bench_io.sh."),
    "build": build,
    **demo}

# The headline claims. These are asserted, not just recorded: the PR's
# acceptance bar is >= 2x parallel read and write speedup over the
# serialized per-part baseline at 16 parts, and repair success on every
# seed of the damage matrix.
write_speedup = demo["write"]["speedup"]
read_speedup = demo["read"]["speedup"]
cycle_speedup = demo["cycle"]["speedup"]
assert write_speedup >= 2.0, \
    f"write speedup {write_speedup:.2f}x < 2x over per-part baseline"
assert read_speedup >= 2.0, \
    f"read speedup {read_speedup:.2f}x < 2x over per-part baseline"
assert cycle_speedup >= 2.0, \
    f"cycle speedup {cycle_speedup:.2f}x < 2x over per-part baseline"

rep = demo["repair"]
assert rep["success_rate"] == 1.0, (
    f"read-repair succeeded on only {rep['successes']}/{rep['seeds']} "
    "seeds under single-copy loss")

# The baseline's restore reads every byte twice; the chunked image must
# not regress that reduction.
assert demo["bytes"]["pario_read"] < demo["bytes"]["baseline_read"], \
    "chunked restore no longer reads less than the double-pass baseline"

json.dump(summary, open(out, "w"), indent=2)
print(f"wrote {out}: write {write_speedup:.1f}x, cycle {cycle_speedup:.1f}x, "
      f"repair {rep['successes']}/{rep['seeds']}")
EOF
