#!/usr/bin/env python3
"""Build and run the SATM benchmark; print its result as the last line.

Usage, from the repository root:

    python3 perfbench/run.py --workload stm_inproc --seed 1 --seconds 10 --trace 0

The driver program (perfbench/*.cpp) is built from this checkout's sources
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) on first
use. Its report lines pass through to stdout; the last line is one JSON
object {"correct", "attempted", "failed", "metrics"} carrying the metrics
BENCHMARK.json lists: the end_to_end ones with --trace 0, the per_layer ones
with --trace 1. A per-layer metric the workload does not exercise reads 0.

Exit status: 0 when the run passed its output checks, 1 when a check failed,
2 when the run was refused or could not be built or started.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850


def run_timeout_s(seconds):
    """A run measures for `seconds` plus a few seconds of set-up and
    recovery; a run still going at this point is stuck."""
    return 2 * seconds + 90


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_root):
    """Configure and build the driver; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no SATM source tree next to perfbench/ (expected src/)")
    out = os.path.join(build_root, "perfbench")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", out, "--target", "satm_perfbench",
                      "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            try:
                r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                   timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail("build timed out")
            if r.returncode != 0:
                fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(out, "satm_perfbench")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {a.workload}")

    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_root)
    scratch = os.path.join(build_root, "perfbench-out")
    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--scratch", scratch]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=run_timeout_s(a.seconds))
    except subprocess.TimeoutExpired:
        fail("run timed out")
    sys.stdout.write(r.stdout)

    measured, result = {}, None
    for line in r.stdout.splitlines():
        head, _, rest = line.partition(" ")
        if head == "metric":
            name, value, unit = rest.split(" ")
            measured[name] = (float(value), unit)
        elif head == "result":
            result = json.loads(rest)
    if result is None:
        fail(f"driver exited {r.returncode} without a result")

    wanted = spec["per_layer"] if a.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value, unit = measured.get(m["name"], (None, m["unit"]))
        if value is None:
            if not a.trace:
                fail(f"end-to-end metric {m['name']} was not measured")
            value = 0.0
        if unit != m["unit"]:
            fail(f"{m['name']} measured in {unit}, BENCHMARK.json says "
                 f"{m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}
    result["metrics"] = metrics
    print(json.dumps(result))
    sys.stdout.flush()
    sys.exit(0 if r.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
