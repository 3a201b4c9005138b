#!/usr/bin/env python3
"""Commit-over-commit diff of two BENCH_solver.json files.

Usage: solver_bench_diff.py PREVIOUS.json CURRENT.json [--summary PATH]

Compares the per-layer solve-time geomean and the schedule-cycles
geomean between the previous run's artifact and the current run, prints
a markdown report (appended to --summary when given, e.g.
$GITHUB_STEP_SUMMARY), and emits GitHub `::warning::` annotations on
regressions. At the same work_limit and presolve setting it also
compares the deterministic per-layer counters (DETERMINISTIC_FIELDS)
exactly and lists every layer/field that moved. Always exits 0 — the
trajectory is advisory; CI warns, it does not fail (per-commit noise on
shared runners would make a hard gate flaky).
"""

import argparse
import json
import math
import sys

# Thresholds for the warn annotations. Solve time is wall clock on a
# shared runner, so it gets a generous band; schedule cycles are fully
# deterministic at a fixed work limit, so any growth is real.
TIME_WARN_RATIO = 1.10
CYCLES_WARN_RATIO = 1.001

# Per-layer fields a fixed work budget makes deterministic: any
# difference means the pivot sequence (or the schedule) changed.
DETERMINISTIC_FIELDS = (
    "found",
    "lp_iterations",
    "mip_nodes",
    "warm_hint_installed",
    "warm_start_hits",
    "lu_factorizations",
    "lu_eta_updates",
    "cycles",
    "energy_pj",
)


def geomean(values):
    vals = [v for v in values if v and v > 0]
    if not vals:
        return float("nan")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def load(path):
    with open(path) as f:
        return json.load(f)


def layer_map(bench):
    return {l["layer"]: l for l in bench.get("layers", [])}


def counter_diffs(prev_layers, cur_layers, shared):
    """(layer, field, previous, current) for every deterministic counter
    that differs on a shared layer."""
    return [
        (n, f, prev_layers[n].get(f), cur_layers[n].get(f))
        for n in shared
        for f in DETERMINISTIC_FIELDS
        if prev_layers[n].get(f) != cur_layers[n].get(f)
    ]


def fmt_ratio(ratio):
    if math.isnan(ratio):
        return "n/a"
    sign = "+" if ratio >= 1 else ""
    return f"{ratio:.3f}x ({sign}{(ratio - 1) * 100:.1f}%)"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("previous")
    ap.add_argument("current")
    ap.add_argument("--summary", help="markdown file to append to")
    args = ap.parse_args()

    try:
        prev = load(args.previous)
    except (OSError, json.JSONDecodeError) as e:
        print(f"no usable previous artifact ({e}); skipping diff")
        return 0
    cur = load(args.current)

    lines = ["## Solver benchmark vs previous run", ""]
    warnings = []

    comparable = prev.get("work_limit") == cur.get("work_limit") and prev.get(
        "presolve"
    ) == cur.get("presolve")
    if not comparable:
        lines.append(
            f"previous run used work_limit={prev.get('work_limit')} "
            f"presolve={prev.get('presolve')}, current uses "
            f"work_limit={cur.get('work_limit')} "
            f"presolve={cur.get('presolve')} — geomeans not comparable."
        )
    else:
        prev_layers = layer_map(prev)
        cur_layers = layer_map(cur)
        shared = sorted(set(prev_layers) & set(cur_layers))

        time_ratio = geomean(
            [
                cur_layers[n]["solve_time_sec"]
                / max(prev_layers[n]["solve_time_sec"], 1e-9)
                for n in shared
            ]
        )
        cycles_ratio = geomean(
            [
                cur_layers[n]["cycles"] / max(prev_layers[n]["cycles"], 1e-9)
                for n in shared
                if cur_layers[n].get("found") and prev_layers[n].get("found")
            ]
        )

        lines += [
            "| metric | previous | current | ratio |",
            "| --- | --- | --- | --- |",
            "| geomean solve time [s/layer] | "
            f"{prev.get('geomean_solve_time_sec', float('nan')):.3f} | "
            f"{cur.get('geomean_solve_time_sec', float('nan')):.3f} | "
            f"{fmt_ratio(time_ratio)} |",
            "| geomean schedule cycles (shared layers) | — | — | "
            f"{fmt_ratio(cycles_ratio)} |",
            f"| layers found | {prev.get('num_found')}"
            f"/{prev.get('num_layers')} | {cur.get('num_found')}"
            f"/{cur.get('num_layers')} | |",
            "",
            f"{len(shared)} shared layers compared.",
            "",
        ]

        diffs = counter_diffs(prev_layers, cur_layers, shared)
        if not diffs:
            lines.append(
                f"deterministic counters identical on {len(shared)}/"
                f"{len(shared)} layers"
            )
        else:
            changed = len({d[0] for d in diffs})
            lines += [
                f"deterministic counters differ on {changed}/{len(shared)} "
                "layers:",
                "",
                "| layer | field | previous | current |",
                "| --- | --- | --- | --- |",
            ]
            lines += [f"| {n} | {f} | {p} | {c} |" for n, f, p, c in diffs]
            warnings.append(
                f"deterministic counters differ on {changed} of "
                f"{len(shared)} layers at the same work limit"
            )

        if time_ratio > TIME_WARN_RATIO:
            warnings.append(
                f"solver geomean solve time regressed {fmt_ratio(time_ratio)} "
                "vs the previous run"
            )
        if cycles_ratio > CYCLES_WARN_RATIO:
            warnings.append(
                f"schedule quality regressed: geomean cycles {fmt_ratio(cycles_ratio)} "
                "vs the previous run at the same work limit"
            )
        if cur.get("num_found", 0) < prev.get("num_found", 0):
            warnings.append(
                f"fewer layers solved: {cur.get('num_found')} < {prev.get('num_found')}"
            )

    report = "\n".join(lines)
    print(report)
    for w in warnings:
        print(f"::warning title=solver-bench::{w}")
    if args.summary:
        with open(args.summary, "a") as f:
            f.write(report + "\n")
            if warnings:
                f.write(
                    "\n"
                    + "\n".join(f"> :warning: {w}" for w in warnings)
                    + "\n"
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
