#!/usr/bin/env python3
"""Build and run the end-to-end simulator benchmark.

    python3 e2ebench/run.py --workload fig08 --seed 20180324 \
        --seconds 20 --trace 0

Run from the root of a checkout. The first call configures and
builds the simulator and the benchmark binary under .bench_build/e2ebench
(CMake, RelWithDebInfo); later calls only re-check the build. The
binary's human-readable report goes to stderr, and the last line of
stdout is the result object, checked here against BENCHMARK.json's
metric lists. Each run is also appended, with its build type,
compiler, nproc and allowed CPUs, to .bench_build/e2ebench/runs.jsonl;
--trace 1 writes its spans to .bench_build/e2ebench/trace-*.json.

    python3 e2ebench/run.py --pin --workload crash --seed 7

prints the pin line for one (workload, seed); see e2ebench/README.md.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "e2ebench"
BUILD = OUT / "build"
BINARY = BUILD / "e2ebench"
# Time limit for one measured run; the first build is not in it.
RUN_TIMEOUT_S = 170


def fail(msg):
    print("e2ebench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then bring the binary up to date."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no simulator sources at %s/src" % ROOT)
    OUT.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(OUT / "build.lock", "w") as lock:
        # Concurrent first runs in one checkout build once.
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").is_file():
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(
                ["cmake", "-S", str(HERE), "-B", str(BUILD), *gen,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                stdout=sys.stderr, check=True)
        subprocess.run(
            ["cmake", "--build", str(BUILD), "--target", "e2ebench",
             "-j", jobs],
            stdout=sys.stderr, check=True)


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=20180324)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true",
                    help="print the pin line for (workload, seed)")
    args = ap.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        fail("build failed: %s" % e)

    cmd = [str(BINARY), "--workload", args.workload,
           "--seed", str(args.seed),
           "--pins", str(HERE / "pins.txt"), "--out", str(OUT)]
    if args.pin:
        sys.exit(subprocess.run(cmd + ["--pin"]).returncode)
    cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("e2ebench exited with %d" % proc.returncode)

    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    if sorted(result["metrics"]) != sorted(want):
        fail("metrics %s do not match BENCHMARK.json %s"
             % (sorted(result["metrics"]), sorted(want)))
    print(lines[-1])


if __name__ == "__main__":
    main()
