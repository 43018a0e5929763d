#!/usr/bin/env python3
"""Runs the benchmark over several seeds and records one result line per run.

    python3 esabench/sweep.py --out esabench/results/<name> [--workloads a,b]
                              [--seeds 1-10] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  --seconds defaults to BENCHMARK.json's
run_seconds.  Appends each run's result line (as printed by run.py) to
<out>/<workload>.jsonl, the layout compare.py reads.  Runs go one at a time,
workload by workload, so they never compete for the cores.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ingest_wal", "epoch_drain", "vocab_blinded", "cluster_merge")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args()
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            args.seconds = str(json.load(f)["run_seconds"])

    os.makedirs(args.out, exist_ok=True)
    failures = 0
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                failures += 1
                print("%s seed %d: exit %d" % (workload, seed, done.returncode), file=sys.stderr)
                if not lines:
                    continue
            result = json.loads(lines[-1])
            with open(os.path.join(args.out, workload + ".jsonl"), "a") as f:
                f.write(json.dumps(result) + "\n")
            print("%s seed %d: correct=%s attempted=%d" %
                  (workload, seed, result["correct"], result["attempted"]), flush=True)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
