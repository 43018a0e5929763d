#!/usr/bin/env python3
"""Compares two sets of benchmark result lines, workload by workload.

    python3 esabench/compare.py BASE [CHANGE]

BASE and CHANGE are directories in sweep.py's layout: one <workload>.jsonl
per workload, one run.py result line per run.  For each workload and metric
it prints each side's run count, median and quartiles (statistics.quantiles,
n=4) and the quartile spread as a share of the median.  With two sides it
prints the move of the median, marked `worse>bound` when the change is worse
than the base by more than the metric's bound (end-to-end metrics only) and
`>spread` when the move exceeds the base's own quartile spread.  With one
side it marks every end-to-end spread that exceeds its bound.  The share of
failed operations is printed per side.  Exits 1 if any end-to-end metric
got worse by more than its bound (two sides) or any spread exceeded its
bound (one side).  Standard library only.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_side(directory):
    side = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".jsonl"):
            with open(os.path.join(directory, name)) as f:
                side[name[:-len(".jsonl")]] = [json.loads(line) for line in f if line.strip()]
    return side


def summarize(values):
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / median if median else 0.0
    return median, q1, q3, spread


def failed_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def main():
    if len(sys.argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base = load_side(sys.argv[1])
    change = load_side(sys.argv[2]) if len(sys.argv) == 3 else None
    bad = False

    for workload in sorted(base):
        base_runs = base[workload]
        change_runs = change.get(workload, []) if change is not None else []
        header = "== %s  base: %d runs, failed share %.6f" % (
            workload, len(base_runs), failed_share(base_runs))
        if change is not None:
            header += "  change: %d runs, failed share %.6f" % (
                len(change_runs), failed_share(change_runs))
        print(header)
        names = [n for n in metrics if all(n in r["metrics"] for r in base_runs)]
        for name in names:
            spec_metric = metrics[name]
            bound = spec_metric.get("bound")
            b = summarize([r["metrics"][name]["value"] for r in base_runs])
            row = "  %-34s n=%-3d med %-12.6g q1 %-12.6g q3 %-12.6g spread %6.3f" % (
                name, len(base_runs), b[0], b[1], b[2], b[3])
            if change is None:
                if bound is not None and b[3] > bound:
                    row += "  spread>bound(%.2f)" % bound
                    bad = True
            elif change_runs and all(name in r["metrics"] for r in change_runs):
                c = summarize([r["metrics"][name]["value"] for r in change_runs])
                move = (c[0] - b[0]) / b[0] if b[0] else 0.0
                worse = move if spec_metric["better"] == "lower" else -move
                row += "  | n=%-3d med %-12.6g q1 %-12.6g q3 %-12.6g | move %+7.3f" % (
                    len(change_runs), c[0], c[1], c[2], move)
                if bound is not None and worse > bound:
                    row += "  worse>bound(%.2f)" % bound
                    bad = True
                if abs(move) > b[3]:
                    row += "  >spread"
            print(row)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
