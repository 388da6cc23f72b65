#!/usr/bin/env python3
"""signedbpo benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload exact_hierarchy [--seed 1] [--seconds 15] [--trace 0|1]
    python3 bench/run.py --workload all      # every workload in turn

Run from the repository root; the package is imported from ``src/``.  The
run sets up (imports signedbpo, generates the inputs from the seed and
runs one untimed warm-up unit), measures the same set-up twice more in
fresh interpreters run one after another, and reports the median.  It then
runs the workload's pool of units in order, cycling, until every unit has
run once and their summed wall time reaches ``--seconds``.  Every unit's
output is checked; checks and their reference computations are not timed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one pass
over the pool once untraced and once traced, reports the per-layer
metrics of the traced pass (see tracing.py) and the tracing overhead, and
writes the spans to ``bench_out/``.

Every metric is printed as ``name value unit``, then a ``record`` line
with the environment and the details behind the metrics, then the result
as one JSON object on the last line.  The exit status is 1 when any unit
failed its check, 2 when the package cannot be found.  One process and,
for HiGHS and numpy, one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import tracing  # noqa: E402  (bench/ is sys.path[0])
import workloads  # noqa: E402

SETUP_REPEATS = 3
WALL_LIMIT_S = 150.0  # stop timing units past this much wall time
TAIL_BEYOND = 10  # the tail percentile keeps this many units beyond it

# (name, unit, better) of every end-to-end metric.
END_TO_END = (
    ("solves_per_s", "1/s", "higher"),
    ("solve_s_p50", "s", "lower"),
    ("solve_s_tail", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    from signedbpo import arith

    return {
        "python": platform.python_version(),
        "have_gmpy2": arith.HAVE_GMPY2,
        "scipy": metadata.version("scipy"),
        "cpu_count": os.cpu_count(),
        "commit": git_commit(),
    }


def setup(name: str, seed: int):
    """Import signedbpo, generate the inputs and run one warm-up unit."""
    start = time.perf_counter()
    import signedbpo  # noqa: F401

    wl = workloads.WORKLOADS[name](seed)
    wl.run(wl.warmup_key())
    return wl, time.perf_counter() - start


def setup_times(args, own: float) -> list[float]:
    """This process's set-up time plus SETUP_REPEATS - 1 more, each in a
    fresh interpreter run one after another, so that every sample pays the
    first import of signedbpo and, in float workloads, of scipy/HiGHS."""
    times = [own]
    for _ in range(SETUP_REPEATS - 1):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return times


def run_unit(wl, key, tracer=None):
    """Time one unit, then check it untimed; returns (seconds, failure)."""
    start = time.perf_counter()
    try:
        if tracer is None:
            output = wl.run(key)
        else:
            output = tracer.call("bench.unit", wl.run, (key,), {})
    except Exception:  # a unit that raises counts as failed
        return time.perf_counter() - start, traceback.format_exc()
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.active = False
    try:
        return elapsed, wl.check(key, output)
    except Exception:  # a reference that cannot be computed fails the unit
        return elapsed, "check raised " + traceback.format_exc()
    finally:
        if tracer is not None:
            tracer.active = True


def report_failure(wl, key, reason, failures) -> None:
    if reason is not None:
        failures.append(key)
        if len(failures) <= 5:
            print(f"FAIL {wl.name} {key}: {reason}", file=sys.stderr)


def timed_run(wl, seconds: float, deadline: float):
    """Cycle through the pool until every unit has run and the units'
    summed time reaches ``seconds``; returns each unit's times, the failed
    keys, the summed time and the number of runs."""
    times: dict[tuple, list[float]] = {}
    failures: list = []
    total, runs = 0.0, 0
    while (total < seconds or runs < len(wl.keys)) and time.monotonic() < deadline:
        key = wl.keys[runs % len(wl.keys)]
        elapsed, reason = run_unit(wl, key)
        times.setdefault(key, []).append(elapsed)
        total += elapsed
        runs += 1
        report_failure(wl, key, reason, failures)
    return times, failures, total, runs


def tail(unit_times: list[float]):
    """Time at the highest percentile with TAIL_BEYOND units beyond it;
    (value, percentile, units beyond).  Short runs fall back to the maximum."""
    ordered = sorted(unit_times)
    rank = len(ordered) - TAIL_BEYOND
    if rank < 1:
        return ordered[-1], 100.0, 0
    return ordered[rank - 1], 100.0 * rank / len(ordered), TAIL_BEYOND


def end_to_end(wl, seconds, setups, deadline):
    times, failures, total, runs = timed_run(wl, seconds, deadline)
    # A unit's time is the median of its repeats, so that every metric is
    # taken over the pool's distinct units, whichever part of the pool the
    # last, partial pass covered.
    unit_times = {key: statistics.median(t) for key, t in times.items()}
    tail_s, tail_pct, beyond = tail(list(unit_times.values()))
    failed = set(failures)
    metrics = {
        "solves_per_s": sum(1 for k in unit_times if k not in failed) / sum(unit_times.values()),
        "solve_s_p50": statistics.median(unit_times.values()),
        "solve_s_tail": tail_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {
        "timed_s": total,
        "pool_units": len(wl.keys),
        "units_timed": len(unit_times),
        "passes": runs / len(wl.keys),
        "tail_percentile": tail_pct,
        "tail_units_beyond": beyond,
    }
    return metrics, END_TO_END, runs, len(failures), extra


def traced_run(wl, seed):
    from signedbpo import experiment

    keys = wl.keys
    failures: list = []
    untraced = 0.0
    for key in keys:
        elapsed, reason = run_unit(wl, key)
        untraced += elapsed
        report_failure(wl, key, reason, failures)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        traced = 0.0
        for key in keys:
            elapsed, reason = run_unit(wl, key, tracer)
            traced += elapsed
            report_failure(wl, key, reason, failures)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.spans)
    gaps = [wl.gaps[k] for k in keys if wl.gaps.get(k) is not None]
    if gaps:
        metrics["bound.gap_sgm"] = experiment.shifted_geomean(gaps, experiment.GAP_SHIFT)
    metrics["trace.units"] = len(keys)
    metrics["trace.unit_s"] = traced
    metrics["trace.overhead_frac"] = (traced - untraced) / untraced
    os.makedirs(os.path.join(ROOT, "bench_out"), exist_ok=True)
    spans_path = os.path.join(ROOT, "bench_out", f"trace-{wl.name}-s{seed}.json")
    tracer.write(spans_path)
    extra = {
        "untraced_s": untraced,
        "traced_s": traced,
        "tracing_overhead_s": traced - untraced,
        "spans": len(tracer.spans),
        "spans_file": os.path.relpath(spans_path, ROOT),
    }
    return metrics, tracing.LAYER_METRICS, 2 * len(keys), len(failures), extra


def run_workload(args) -> int:
    started = time.monotonic()
    wl, own_setup = setup(args.workload, args.seed)
    if args.setup_only:
        print(own_setup)
        return 0
    if args.trace:
        setups = [own_setup]
        metrics, table, attempted, failed, extra = traced_run(wl, args.seed)
    else:
        setups = setup_times(args, own_setup)
        metrics, table, attempted, failed, extra = end_to_end(
            wl, args.seconds, setups, started + WALL_LIMIT_S
        )
    units = {name: unit for name, unit, _ in table}
    for name, unit, _ in table:
        print(f"{name:<24} {metrics[name]:.6g} {unit}")
    print(f"{'fail_frac':<24} {failed / attempted:.6g} ratio ({failed} of {attempted} units)")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(),
        "setup_runs_s": setups,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        **extra,
    }
    print("record " + json.dumps(record))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="print one set-up time and exit")
    args = parser.parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if not os.path.isfile(os.path.join(SRC, "signedbpo", "__init__.py")):
        print(f"signedbpo sources not found under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        codes = [
            subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                check=False,
            ).returncode
            for name in workloads.WORKLOADS
        ]
        return max(codes)
    sys.path.insert(0, SRC)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
