#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see perfbench/NOTES.md).

    python3 perfbench/run.py --workload adapt_cycle --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The benchmark program and the library it
links are built from source into .bench_build/perfbench on first use;
later runs only re-check the build. Build output goes to standard error, so the last
line of standard output is the program's JSON result.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = BUILD / "run"
BINARY = BUILD / "e2e_bench"
WORKLOADS = ("adapt_cycle", "solve_fixed", "service_jobs")
RUN_TIMEOUT_S = 175


def build(env):
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, env=env, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "e2e_bench",
                    "-j", jobs], stdout=sys.stderr, env=env, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="prove every correctness gate fires when broken")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: library sources not found at %s" % (ROOT / "src"))
    # Compiler and library temporaries stay inside the checkout.
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    try:
        build(env)
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit("perfbench: build failed: %s" % e)

    cmd = [str(BINARY), "--out", str(OUT)]
    if args.selftest:
        cmd.append("--selftest")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
