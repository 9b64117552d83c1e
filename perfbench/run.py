#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles the runtime from src/) in Release
mode into $CARGO_TARGET_DIR or .bench_build, runs one workload, and
passes its output through. The last line of standard output is the
benchmark's JSON result. With --trace 1 the Chrome-trace JSON is
written under <build dir>/traces/ and checked to parse. Exits non-zero
when the build, the run or any output check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then build incrementally; output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "iofa_perfbench",
                  "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                             timeout=BUILD_TIMEOUT_S, check=False)
        if res.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def load_spec(trace):
    """Name -> unit of the metrics BENCHMARK.json lists for this run."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def no_duplicates(pairs):
    keys = [k for k, _ in pairs]
    dup = sorted({k for k in keys if keys.count(k) > 1})
    if dup:
        raise ValueError(f"duplicate keys {dup}")
    return dict(pairs)


def check_metrics(metrics, spec, trace):
    """Check names and units against the spec; True when they agree.

    Every end-to-end metric must be measured. A per-layer metric a
    workload's path never touches is added as 0, so every traced run
    reports the whole per-layer list.
    """
    ok = True
    for name, m in metrics.items():
        if name not in spec:
            log(f"metric {name} is not in BENCHMARK.json")
            ok = False
        elif m.get("unit") != spec[name]:
            log(f"metric {name} reported in {m.get('unit')}, "
                f"BENCHMARK.json says {spec[name]}")
            ok = False
    missing = [n for n in spec if n not in metrics]
    if missing and not trace:
        log(f"end-to-end metrics not measured: {missing}")
        return False
    if missing:
        log(f"not on this workload's path, reported as 0: {missing}")
        for name in missing:
            metrics[name] = {"value": 0, "unit": spec[name]}
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    try:
        if not build(build_dir):
            return 1
    except subprocess.TimeoutExpired:
        log("build timed out")
        return 1

    binary = os.path.join(build_dir, "iofa_perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    trace_path = None
    if args.trace:
        os.makedirs(os.path.join(build_dir, "traces"), exist_ok=True)
        trace_path = os.path.join(
            build_dir, "traces", f"{args.workload}-seed{args.seed}.trace.json")
        cmd += ["--trace-out", trace_path]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log("benchmark run timed out")
        return 1
    lines = res.stdout.rstrip("\n").split("\n")
    # Everything but the result line goes out first; the result is
    # printed last, and only once every check below has passed.
    for line in lines[:-1]:
        print(line)
    sys.stdout.flush()
    if res.returncode != 0:
        log(f"benchmark exited with {res.returncode}")
        print(lines[-1])
        return res.returncode

    try:
        result = json.loads(lines[-1], object_pairs_hook=no_duplicates)
    except ValueError as e:
        log(f"last output line is not a valid JSON result: {e}")
        return 1
    if not check_metrics(result.setdefault("metrics", {}),
                         load_spec(args.trace), args.trace):
        return 1
    if trace_path:
        try:
            with open(trace_path, encoding="utf-8") as f:
                json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            log(f"chrome trace {trace_path} does not parse: {e}")
            return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
