#!/usr/bin/env python3
"""Compare two sets of benchmark result files.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by perfbench/run.py (--out).
Runs pair up by workload and seed. For every workload and end-to-end
metric the script prints each side's median and quartiles and a verdict,
using the bounds in BENCHMARK.json:

  better        the new side wins at least 9 in 10 seed pairs (ties count
                for neither) and the medians differ by more than the base
                runs' interquartile distance
  worse         the new median is worse than the base median by more than
                the metric's bound
  unresolved    the base runs spread (interquartile distance over median)
                wider than the bound, so a shift inside it cannot be told
                from noise -- unless every new run reads better than every
                base run
  within bound  otherwise

Per-layer metrics of traced runs get their medians and quartiles only:
they have no bound. Exits 1 when any verdict is "worse".
"""

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_results(directory):
    """{(workload, trace): {seed: metrics}} of the result files in a dir."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        if path.endswith(".trace.json"):
            continue
        with open(path) as f:
            result = json.load(f)
        if result.get("schema") != 1:
            continue
        facts = result["facts"]
        key = (facts["workload"], facts["trace"])
        runs.setdefault(key, {})[facts["seed"]] = {
            name: m["value"] for name, m in result["metrics"].items()}
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, new, better, bound):
    """Verdict for one metric; base/new map seed -> value."""
    sign = 1.0 if better == "lower" else -1.0  # > 0 means worse
    b_q1, b_med, b_q3 = quartiles(list(base.values()))
    _, n_med, _ = quartiles(list(new.values()))
    pairs = sorted(set(base) & set(new))
    wins = sum(1 for s in pairs if sign * (new[s] - base[s]) < 0)
    if (pairs and wins >= 0.9 * len(pairs) and sign * (n_med - b_med) < 0
            and abs(n_med - b_med) > b_q3 - b_q1):
        return "better"
    scale = abs(b_med) if b_med else 1.0
    all_better = all(sign * (n - b) < 0 for n in new.values()
                     for b in base.values())
    if (b_q3 - b_q1) / scale > bound and not all_better:
        return "unresolved"
    if sign * (n_med - b_med) / scale > bound:
        return "worse"
    return "within bound"


def describe(values):
    q1, med, q3 = quartiles(values)
    return "%.6g [%.6g, %.6g] n=%d" % (med, q1, q3, len(values))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, new = load_results(args.base), load_results(args.new)
    sections = [(0, spec["end_to_end"]), (1, spec["per_layer"])]

    any_worse = False
    print("%-16s %-26s %-8s %-40s %-40s %s" % (
        "workload", "metric", "unit", "base median [q1, q3]",
        "new median [q1, q3]", "verdict"))
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, metrics in sections:
            b_runs = base.get((workload, trace), {})
            n_runs = new.get((workload, trace), {})
            if not b_runs or not n_runs:
                print("%-16s (no %s runs on both sides)" % (
                    workload, "traced" if trace else "untraced"))
                continue
            for m in metrics:
                b = {s: v[m["name"]] for s, v in b_runs.items()
                     if m["name"] in v}
                n = {s: v[m["name"]] for s, v in n_runs.items()
                     if m["name"] in v}
                if not b or not n:
                    continue
                if "bound" in m:
                    v = verdict(b, n, m["better"], m["bound"])
                    any_worse = any_worse or v == "worse"
                else:
                    v = "-"
                print("%-16s %-26s %-8s %-40s %-40s %s" % (
                    workload, m["name"], m["unit"], describe(list(b.values())),
                    describe(list(n.values())), v))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
