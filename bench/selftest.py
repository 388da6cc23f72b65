#!/usr/bin/env python3
"""Show that every workload's correctness check is not vacuous.

    python3 bench/selftest.py

For each workload, one sweep of units (the levels of one instance, in run
order) must pass its checks as computed, and must count a failure when one
output is replaced by a planted wrong answer: an exact bound raised by
1/1000, a float bound raised by 1e-3, or MPS text with one row dropped.
A raised float bound is only detectable where the check has a reference
within 1e-3 (the max cut itself, the next level's bound, or the
extended-mode bound), so the float sweeps try each unit of the first
graphs until one is caught.  Also checks that BENCHMARK.json lists the
metrics and workloads run.py reports.  Exits 1 on any miss.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402  (bench/ is sys.path[0])
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 1


def raise_exact(sol):
    return dataclasses.replace(sol, objective=sol.objective + Fraction(1, 1000))


def raise_float(sol):
    return dataclasses.replace(sol, objective=sol.objective + 1e-3)


def drop_row(output):
    model, text, names = output
    lines = text.splitlines(keepends=True)
    first_row = lines.index("ROWS\n") + 2  # after the objective row
    return model, "".join(lines[:first_row] + lines[first_row + 1 :]), names


def sweep(name, keys, planted=None, plant=None):
    """Failures of a fresh workload over ``keys`` with one output replaced."""
    wl = workloads.WORKLOADS[name](SEED)
    failures = []
    for key in keys:
        output = wl.run(key)
        if key == planted:
            output = plant(output)
        reason = wl.check(key, output)
        if reason is not None:
            failures.append((key, reason))
    return failures


def instance_keys(name, i):
    wl = workloads.WORKLOADS[name](SEED)
    return [k for k in wl.keys if k[0] == i and k[1] != workloads.LOVASZ]


def selftest(name, plant, candidates) -> bool:
    """The honest sweep passes; a planted answer at some candidate fails."""
    for i in range(3):
        keys = instance_keys(name, i)
        honest = sweep(name, keys)
        if honest:
            print(f"FAIL {name}: honest outputs rejected: {honest[0]}")
            return False
        for planted in candidates(keys):
            caught = sweep(name, keys, planted, plant)
            if caught:
                print(f"ok   {name}: planted {plant.__name__} at {planted} -> {caught[0][1]}")
                return True
    print(f"FAIL {name}: no planted {plant.__name__} was caught")
    return False


def benchmark_json_matches() -> bool:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    expected = {
        "end_to_end": [(n, u, b) for n, u, b in run.END_TO_END],
        "per_layer": [(n, u, b) for n, u, b in tracing.LAYER_METRICS],
    }
    ok = [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for section, metrics in expected.items():
        ok &= [(m["name"], m["unit"], m["better"]) for m in spec[section]] == metrics
    print(f"{'ok  ' if ok else 'FAIL'} BENCHMARK.json lists run.py's workloads and metrics")
    return ok


def main() -> int:
    results = [
        # Exact: the last level must equal the brute-force minimum.
        selftest("exact_hierarchy", raise_exact, lambda keys: keys[-1:]),
        # Cutting planes: any level must equal the extended-mode bound.
        selftest("exact_cutplane", raise_exact, lambda keys: keys[:1]),
        selftest("maxcut_float", raise_float, lambda keys: keys),
        selftest("maxcut_cutplane", raise_float, lambda keys: keys[:1]),
        selftest("maxcut_export", drop_row, lambda keys: keys[:1]),
        benchmark_json_matches(),
    ]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
