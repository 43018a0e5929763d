#!/usr/bin/env python3
"""Builds and runs the ESA benchmark: one workload per invocation.

    python3 esabench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 esabench/run.py --self-test

Run from the root of a checkout.  The first run configures and builds
esabench/ (which links the root project's `prochlo` library target) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs only
re-check the build.  Build
and progress output go to stderr.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end metrics
of BENCHMARK.json untraced, its per-layer metrics traced (a layer the
workload does not reach reads 0).  Exits non-zero, without a result line,
when the build fails, and with status 1 when an output check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ingest_wal", "epoch_drain", "vocab_blinded", "cluster_merge")
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    build_root = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(build_root, "esabench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("build failed: " + " ".join(step))
            sys.exit(3)
    return os.path.join(build_dir, "esabench")


def load_metric_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="plant one fault per output check; each must be rejected")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    end_to_end, per_layer = load_metric_spec()
    binary = build()
    if args.self_test:
        sys.exit(subprocess.run([binary, "--self-test"]).returncode)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", os.path.join(ROOT, ".bench_out")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("workload timed out after %d s" % RUN_TIMEOUT_S)
        sys.exit(4)
    lines = done.stdout.strip().splitlines()
    if not lines:
        log("esabench printed no result (exit %d)" % done.returncode)
        sys.exit(done.returncode or 5)
    result = json.loads(lines[-1])

    spec = per_layer if args.trace else end_to_end
    units = {m["name"]: m["unit"] for m in spec}
    metrics = result["metrics"]
    unknown = sorted(set(metrics) - set(units))
    if unknown:
        log("metrics missing from BENCHMARK.json: " + ", ".join(unknown))
        sys.exit(6)
    for name, unit in units.items():
        if name not in metrics:
            if not args.trace:
                log("end-to-end metric not reported: " + name)
                sys.exit(6)
            metrics[name] = {"value": 0, "unit": unit}
        elif metrics[name]["unit"] != unit:
            log("unit mismatch for %s: %s vs %s" % (name, metrics[name]["unit"], unit))
            sys.exit(6)
    result["metrics"] = {name: metrics[name] for name in units}
    print(json.dumps(result), flush=True)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
