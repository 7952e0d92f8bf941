#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
perfbench program (perfbench/CMakeLists.txt, which compiles the library
sources under src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later runs only re-check the build. The program's
notes are passed through, and the last line printed is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end ones of BENCHMARK.json, with
--trace 1 the per_layer ones; BENCHMARK.json supplies every unit. A
per-layer metric the workload does not exercise is reported as 0. Exits
non-zero without a result when the build or the program fails.
"""

import argparse
import fcntl
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found under src/; run from a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out = os.path.join(ROOT, target, "perfbench")
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", out, "--target", "perfbench",
                      "-j", jobs])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                fail("build step failed: " + " ".join(step))
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    known = {m["name"] for m in spec["per_layer"] + spec["end_to_end"]}

    out = build()
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("program did not finish within %d s" % RUN_TIMEOUT_S)
    result = None
    for line in done.stdout.splitlines():
        if line.startswith("PERFBENCH_RESULT "):
            result = json.loads(line[len("PERFBENCH_RESULT "):])
        else:
            print(line)
    if done.returncode != 0 or result is None:
        fail("program exited with code %d and %s result" %
             (done.returncode, "a" if result else "no"))

    measured = result["metrics"]
    unknown = sorted(set(measured) - known)
    if unknown:
        fail("program reported metrics BENCHMARK.json does not list: " +
             ", ".join(unknown))
    metrics = {}
    for m in wanted:
        if m["name"] not in measured and m in spec["end_to_end"]:
            fail("program did not report end-to-end metric " + m["name"])
        value = measured.get(m["name"], 0.0)
        if value is None or not math.isfinite(value):
            fail("metric %s is not a finite number" % m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    attempted = max(1, int(result["attempted"]))
    failed = int(result["failed"])
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
