#!/usr/bin/env python3
"""CoSA benchmark: one command per workload, run from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}
        [--smoke] [--out DIR]

Builds perfbench_bin from the checkout's sources (CMake, Release, into
its own directory under .bench_build), runs one workload, checks its outputs,
writes a result file with host and run facts to --out (default
.bench_results), and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, computed from the spans the
binary records around each call into a layer (written next to the result
file as Chrome trace JSON). serve_warm_hits runs the same way but is not
in BENCHMARK.json (see perfbench/README.md). --smoke is the seconds-long
setting the benchmark's own tests use; its figures are not comparable
with full runs.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("resnet50_cold", "serve_warm_hits", "serve_novel_mix")
RUN_TIMEOUT_S = 170

# Per-layer metrics taken from span durations (microseconds in the trace):
# metric -> (span name, statistic, scale from microseconds).
SPAN_METRICS = {
    "server.submit_ms": ("server.submit", "p50", 1e-3),
    "server.wait_ms": ("server.wait", "p50", 1e-3),
    "server.fetch_ms": ("server.fetch", "p50", 1e-3),
    "server.decode_us": ("server.decode", "p50", 1.0),
    "server.render_us": ("server.render", "p50", 1.0),
    "engine.query_ms": ("engine.query", "p50", 1e-3),
    "cachestore.open_ms": ("cachestore.open", "p50", 1e-3),
    "cachestore.lookup_us": ("cachestore.lookup", "p50", 1.0),
    "cachestore.lookup_p99_us": ("cachestore.lookup", "p99", 1.0),
    "cachestore.neighbor_us": ("cachestore.neighbor", "p50", 1.0),
    "cachestore.insert_ms": ("cachestore.insert", "p50", 1e-3),
    "cosa.build_ms": ("cosa.build", "sum", 1e-3),
    "cosa.greedy_ms": ("cosa.greedy", "sum", 1e-3),
    "solver.solve_s": ("solver.solve", "sum", 1e-6),
    "model.eval_ms": ("model.eval", "sum", 1e-3),
}
# Spans with no parent: their self time is what no stage accounts for.
ROOT_SPANS = ("request", "replay.layer")
# Layers each workload's traced run reaches; metrics of the other layers
# read 0 because that workload does no work there.
LAYERS_REACHED = {
    "resnet50_cold": ("engine", "cosa", "solver", "model", "mapping"),
    "serve_warm_hits": ("server", "engine", "cachestore", "cosa", "solver",
                        "model", "mapping"),
    "serve_novel_mix": ("server", "engine", "cachestore", "cosa", "solver",
                        "model", "mapping"),
}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def percentile(values, q):
    """Nearest-rank percentile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def cmake_cache(build_dir):
    entries = {}
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                name, sep, value = line.rstrip("\n").partition("=")
                if sep and not line.startswith(("#", "//")):
                    entries[name.split(":")[0]] = value
    except OSError:
        pass
    return entries


def bench_build_dir():
    """The benchmark's own build directory in the checkout. It is named
    after this directory's path, so a checkout that moved never reuses a
    CMake cache made for another source tree."""
    tag = hashlib.sha1(HERE.encode()).hexdigest()[:12]
    return os.path.join(ROOT, ".bench_build", "perfbench-" + tag)


def build(build_dir):
    """Configure and build perfbench_bin; returns its path."""
    if not os.path.isfile(
            os.path.join(ROOT, "src", "engine", "scheduler_service.hpp")):
        fail("no CoSA sources under %s/src" % ROOT)
    if not shutil.which("cmake"):
        fail("cmake not found")
    # Configuring every time is cheap and picks up a changed CMakeLists.
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "perfbench_bin",
              "-j", str(min(4, os.cpu_count() or 1))]]
    # Keep the compiler's temporary files inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench_bin")


def steal_ticks():
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else -1
    except (OSError, ValueError):
        return -1


def host_facts(build_dir):
    cache = cmake_cache(build_dir)
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    version = ""
    if compiler:
        out = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True)
        version = out.stdout.splitlines()[0] if out.stdout else compiler
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return {
        "git_sha": sha.stdout.strip() if sha.returncode == 0 else "unknown",
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "compiler": version,
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
    }


def source_digest():
    """SHA-1 over src/ (paths and bytes): identifies the measured code
    even in a checkout that is not a git repository."""
    digest = hashlib.sha1()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def run_bin(binary, args, work_dir, trace_path):
    raw_path = os.path.join(work_dir, "report.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--raw", raw_path]
    if args.trace:
        cmd += ["--trace-out", trace_path]
    if args.smoke:
        cmd.append("--smoke")
    # The program's own tracer, metrics and fault injection stay off.
    env = {k: v for k, v in os.environ.items() if not k.startswith("COSA_")}
    env["COSA_LOG_LEVEL"] = "warn"
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("perfbench_bin did not finish within %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("perfbench_bin exited with code %d" % proc.returncode)
    with open(raw_path) as f:
        return json.load(f)


def end_to_end(report):
    latency = report["latency_s"]
    attempted = report["attempted"]
    return {
        "setup_s": statistics.median(report["setup_s"]),
        "req_p50_ms": 1e3 * statistics.median(latency) if latency else 0.0,
        "req_p95_ms": 1e3 * percentile(latency, 0.95),
        "req_per_s": len(latency) / report["wall_s"] if report["wall_s"] else 0.0,
        "net_cycles": math.fsum(report["net"]["cycles"]),
        "net_energy_uj": math.fsum(report["net"]["energy_pj"]) * 1e-6,
        "ok_frac": 1.0 - report["failed"] / attempted if attempted else 0.0,
        "peak_rss_mb": report["peak_rss_mb"],
    }


def load_spans(trace_path):
    with open(trace_path) as f:
        return json.load(f)["traceEvents"]


def per_layer(report, spans):
    durations = {}
    for span in spans:
        durations.setdefault(span["name"], []).append(span["dur"])
    values = dict(report.get("layer", {}))
    for metric, (name, stat, scale) in SPAN_METRICS.items():
        d = durations.get(name, [])
        if stat == "sum":
            v = math.fsum(d)
        else:
            v = percentile(d, 0.5 if stat == "p50" else 0.99)
        values[metric] = v * scale
    iterations = values.get("solver.lp_iterations", 0)
    values["solver.us_per_iter"] = (
        values["solver.solve_s"] * 1e6 / iterations if iterations else 0.0)
    return values


def stage_budget(spans):
    """Per kind of root span: its total time, each direct child stage's
    share of it (self time), and the share no stage accounts for (the
    roots' own self time)."""
    children = {}
    for span in spans:
        parent = span["args"]["parent"]
        children[parent] = children.get(parent, 0.0) + span["dur"]

    def self_time(span):
        return span["dur"] - children.get(span["args"]["id"], 0.0)

    budget = {}
    for root_name in ROOT_SPANS:
        roots = [s for s in spans if s["name"] == root_name]
        if not roots:
            continue
        root_ids = {s["args"]["id"] for s in roots}
        total = math.fsum(s["dur"] for s in roots)
        stages = {}
        for span in spans:
            if span["args"]["parent"] in root_ids:
                stages[span["name"]] = (stages.get(span["name"], 0.0)
                                        + self_time(span))
        budget[root_name] = {
            "count": len(roots),
            "total_ms": total * 1e-3,
            "stage_share": {k: v / total for k, v in sorted(stages.items())},
            "unattributed_share": math.fsum(map(self_time, roots)) / total,
        }
    return budget


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", default=".bench_results")
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")

    spec = load_spec()
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    build_dir = bench_build_dir()
    binary = build(build_dir)

    out_dir = os.path.abspath(args.out)
    os.makedirs(out_dir, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    trace_path = os.path.join(out_dir, stem + ".trace.json")
    work_dir = os.path.join(ROOT, ".bench_run", "%s-%d" % (stem, os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    steal_before = steal_ticks()
    started = time.time()
    try:
        report = run_bin(binary, args, work_dir, trace_path)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    steal_after = steal_ticks()

    if args.trace:
        spans = load_spans(trace_path)
        values = per_layer(report, spans)
        reached = LAYERS_REACHED[args.workload]
        for name in units:
            if name.split(".")[0] not in reached:
                values.setdefault(name, 0.0)
        findings = dict(report.get("findings", {}))
        if "untraced_latency_s" in report:
            # Serving workloads: untraced half against traced half.
            for half, latency in (("untraced", report["untraced_latency_s"]),
                                  ("traced", report["latency_s"])):
                findings[half + "_req_p50_ms"] = 1e3 * percentile(latency, 0.5)
                findings[half + "_requests"] = len(latency)
        findings["stage_budget"] = stage_budget(spans)
        findings["spans_recorded"] = report.get("spans_recorded", 0)
    else:
        values = end_to_end(report)
        findings = {}
    missing = sorted(set(units) - set(values))
    if missing:
        fail("no value for metric(s): " + ", ".join(missing))
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}

    checks = report["checks"]
    failed = report["failed"]
    correct = (failed == 0 and checks.get("a_invalid_schedules", 0) == 0
               and checks.get("c_wire_mismatches", 0) == 0
               and checks.get("d_store_misses", 0)
               == checks.get("d_expected_misses", 0)
               and report.get("layer", {}).get("mapping.invalid", 0) == 0)
    facts = dict(report["facts"])
    facts.update(host_facts(build_dir))
    facts.update({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "steal_ticks_delta": (steal_after - steal_before
                              if min(steal_before, steal_after) >= 0 else -1),
        "started_unix": started,
        "samples": len(report["latency_s"]),
        "setup_samples": len(report["setup_s"]),
    })
    result = {
        "schema": 1,
        "facts": facts,
        "correct": correct,
        "attempted": report["attempted"],
        "failed": failed,
        "checks": checks,
        "metrics": metrics,
        # Every figure computed, gated or not (e.g. req_p50_ms).
        "measured": values,
        "findings": findings,
        "layer_rows": report.get("layer_rows", []),
    }
    with open(os.path.join(out_dir, stem + ".json"), "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
        f.write("\n")
    if findings:
        print("perfbench findings: " + json.dumps(findings, sort_keys=True),
              file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
