#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 e2ebench/selftest.py

Builds and runs e2ebench_selftest (percentile selection, metric-name
format, span self-time arithmetic, the catalog-delta reader, freshness
matching, the rank-error check) twice: once as the benchmark is built and
once in a -DRS_METRICS=OFF build, where every catalog series must read as
absent. Then checks that the metrics the
benchmark reports (e2ebench --list-metrics) are exactly the ones
BENCHMARK.json names, with the same units, and that every name matches
[A-Za-z0-9_.-]+. Exit code 0 when everything passes.
"""

import json
import os
import re
import subprocess
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the tree
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (build helpers)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def check_benchmark_json(listed):
    errors = []
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    for section in ("end_to_end", "per_layer"):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        reported = listed[section]
        if declared != reported:
            errors.append("%s: BENCHMARK.json %s, benchmark reports %s" % (
                section,
                sorted(set(declared.items()) - set(reported.items())),
                sorted(set(reported.items()) - set(declared.items()))))
        for name in declared:
            if not NAME.match(name):
                errors.append("bad metric name: " + name)
    names = [m["name"] for s in ("end_to_end", "per_layer") for m in spec[s]]
    names += [w["name"] for w in spec["workloads"]]
    if len(names) != len(set(names)):
        errors.append("a name is used twice in BENCHMARK.json")
    if not any(m["name"] == "setup_s" for m in spec["end_to_end"]):
        errors.append("setup_s missing from end_to_end")
    return errors


def main():
    out = run.build(["e2ebench", "e2ebench_selftest"])
    if out is None:
        return 2
    failed = subprocess.call([os.path.join(out, "e2ebench_selftest")]) != 0
    out_off = run.build(["e2ebench_selftest"], metrics_off=True)
    if out_off is None:
        return 2
    failed |= subprocess.call(
        [os.path.join(out_off, "e2ebench_selftest")]) != 0
    listing = subprocess.run([os.path.join(out, "e2ebench"), "--list-metrics"],
                             capture_output=True, text=True, check=True).stdout
    listed = {"end_to_end": {}, "per_layer": {}}
    for line in listing.splitlines():
        section, name, unit = line.split()
        listed[section][name] = unit
    for error in check_benchmark_json(listed):
        print("selftest.py: " + error, file=sys.stderr)
        failed = True
    print("selftest.py: %s" % ("FAILED" if failed else "all passed"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
