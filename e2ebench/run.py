#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see e2ebench/README.md).

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. The first run configures and builds the
library and the benchmark (CMake, Release) under .bench_build/; later runs
rebuild incrementally. Build output goes to stderr, so the last line of
standard output is the benchmark's JSON result. The exit code is the
benchmark's: 0 only for a correct, valid run. Without the repository's
sources next to this directory the build fails and the exit code is 2.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build_dir(metrics_off):
    name = "e2ebench-metrics-off" if metrics_off else "e2ebench"
    return os.path.join(ROOT, ".bench_build", name)


def run_logged(cmd, timeout):
    """Runs cmd with its output on stderr; returns its exit code."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr,
                            stderr=sys.stderr)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return 124


def build(targets, metrics_off=False):
    """Configures (once) and builds `targets`; returns the build directory,
    or None when the build failed."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("e2ebench: the robust_sampling sources are not at " + ROOT,
              file=sys.stderr)
        return None
    out = build_dir(metrics_off)
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            if ("CMAKE_HOME_DIRECTORY:INTERNAL=" + HERE) not in f.read():
                shutil.rmtree(out)  # configured for another checkout
    if not os.path.isfile(cache):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if metrics_off:
            configure.append("-DRS_METRICS=OFF")
        if run_logged(configure, BUILD_TIMEOUT_S) != 0:
            return None
    cmd = ["cmake", "--build", out, "-j4", "--target"] + targets
    if run_logged(cmd, BUILD_TIMEOUT_S) != 0:
        return None
    return out


def benchmark_metric_names(trace):
    """The metric names BENCHMARK.json expects for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    out = build(["e2ebench"])
    if out is None:
        return 2
    cmd = [os.path.join(out, "e2ebench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("e2ebench: run timed out", file=sys.stderr)
        return 124
    lines = stdout.rstrip("\n").split("\n")
    # Everything but the result goes out first; the result is printed last
    # only once it has been checked.
    print("\n".join(lines[:-1]), flush=True)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("e2ebench: no result line", file=sys.stderr)
        return proc.returncode or 1
    expected = benchmark_metric_names(args.trace)
    if expected is not None:
        got = set(result.get("metrics", {}))
        if got != expected:
            print("e2ebench: metrics differ from BENCHMARK.json: missing %s, "
                  "extra %s" % (sorted(expected - got), sorted(got - expected)),
                  file=sys.stderr)
            return 1
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
