#!/usr/bin/env python3
"""Benchmark of the melzak workbench: end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload descent|audit|quadscan --seed N \
        --seconds S --trace 0|1

The run times its set-up first: the cold import of melzak and its catalog,
once, before numpy or scipy is loaded, plus the median of several
generations of the inputs from the seed. That sum is ``setup_s``. It then
runs the workload's items for about S seconds and checks their outputs. With
``--trace 0`` the end-to-end metrics come from that pass: a timer samples a
fixed reference block while it runs, and every time (set-up included) is
scaled to the reference speed the samples around it show, so that the
host's drift does not read as a change of the program (see reference.py);
the times as measured go into the record. ``items_per_s`` is items over the
sum of their scaled times. With ``--trace 1`` the pass runs under the span
tracer instead, and the per-layer metrics, the tracing overhead and the
layers each workload must bypass are reported.

Every metric is printed by name with its unit; the last line of standard
output is the JSON result, and ``perfbench/out/`` receives the full record
with its environment block (and the spans, when traced).

A failed check makes ``correct`` false and the exit code 1. Without
``src/melzak`` the run prints no result and exits with 2.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 9
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Each result guard belongs to one workload; the others report 1, since the
# result line carries every end-to-end metric on every workload.
GUARDS = {"m_log_sum": "1", "crit_entries": "count", "scan_solutions": "count"}


def run_items(items, tracer=None, gauge=None):
    """Closed loop over the items.

    Returns (outputs, failures, starts, durations, wall). With a ``gauge``,
    the time its samples take is left out of each item's duration.
    """
    outputs, failures, starts, durations = [], [], [], []
    start = time.perf_counter()
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.item = i
        paused = gauge.paused if gauge else 0.0
        t0 = time.perf_counter()
        try:
            outputs.append(item.call())
        except Exception as exc:  # one failed item must not end the run
            outputs.append(None)
            failures.append(f"{item.label}: {type(exc).__name__}: {exc}")
        starts.append(t0)
        durations.append(time.perf_counter() - t0 - ((gauge.paused if gauge else 0.0) - paused))
    if tracer is not None:
        tracer.item = None
    return outputs, failures, starts, durations, time.perf_counter() - start


def tail(durations):
    """(value, percentile) of the highest percentile with >= 10 items beyond."""
    ordered = sorted(durations)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def environment(args) -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_VARS},
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "melzak" / "__init__.py").is_file():
        print(f"error: no melzak sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # the program's own set-up, cold: nothing has loaded numpy or scipy yet
    t0 = time.perf_counter()
    mz = importlib.import_module("melzak")
    importlib.import_module("melzak.cli")
    catalog = mz.optimize.load_catalog()
    cold_s = time.perf_counter() - t0

    sys.path.insert(1, str(HERE))
    import reference
    import tracing
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    rounds = max(1, round(args.seconds / workload.round_seconds))
    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work.mkdir(parents=True, exist_ok=True)
    input_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        items = workload.inputs(mz, catalog, args.seed, rounds, work)
        input_times.append(time.perf_counter() - t0)
    setup_s = cold_s + statistics.median(input_times)

    tracer, gauge = None, None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    else:
        gauge = reference.Gauge()
        gauge.start()
    pass_start = time.perf_counter()
    try:
        outputs, failures, starts, durations, wall = run_items(items, tracer, gauge)
    finally:
        if tracer is not None:
            tracer.uninstall()
        if gauge is not None:
            gauge.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = list(failures)
    if not failures:
        try:
            problems += workload.check(mz, items, outputs)
            if tracer is not None:
                problems += _compare(args.workload, outputs[0], items[0].call())
        except Exception as exc:  # a check that cannot complete has failed
            problems.append(f"check raised {type(exc).__name__}: {exc}")
    record = {"environment": environment(args), "rounds": rounds, "items": len(items),
              "wall_s": wall, "setup_cold_s": cold_s, "setup_inputs_s_each": input_times,
              "item_ms": [[it.label, 1e3 * d] for it, d in zip(items, durations)]}

    if tracer is not None:
        metrics = tracing.layer_metrics(tracer.spans, tracing.span_cost(), wall)
        problems += tracing.leaks(args.workload, metrics)
        record["baseline_sizes"] = tracing.baseline_sizes(tracer.spans)
        tracer.write(work / "spans.jsonl")
    else:
        guards = {name: (1.0, unit) for name, unit in GUARDS.items()}
        if not problems:
            guards.update({k: (v, GUARDS[k]) for k, v in workload.guards(items, outputs).items()})
        # every time at the reference speed, each gauged where it was taken
        scaled = [d * gauge.scale_at(t + d / 2, d / 2) for t, d in zip(starts, durations)]
        setup_scaled = setup_s * gauge.scale_at(pass_start)
        value, pct = tail(scaled)
        metrics = {
            "setup_s": (setup_scaled, "s"),
            "items_per_s": (len(items) / sum(scaled), "1/s"),
            "item_p50_ms": (1e3 * statistics.median(scaled), "ms"),
            "item_tail_ms": (1e3 * value, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            **guards,
        }
        measured_value, _ = tail(durations)
        record["measured"] = {"setup_s": setup_s, "items_per_s": len(items) / sum(durations),
                              "item_p50_ms": 1e3 * statistics.median(durations),
                              "item_tail_ms": 1e3 * measured_value}
        record["reference"] = {"samples": len(gauge.samples), "median_s": gauge.median_s(),
                               "nominal_s": reference.NOMINAL_S,
                               "run_scale": reference.NOMINAL_S / gauge.median_s()}
        record["item_ms_scaled"] = [1e3 * d for d in scaled]
        record["item_start_s"] = [t - pass_start for t in starts]
        record["reference_samples"] = [[m - pass_start, s] for m, s in gauge.samples]
        record["item_tail_percentile"] = pct
        record["item_tail_items_beyond"] = 10 if len(items) > 10 else 0
        record["fail_frac"] = len(failures) / len(items)
        if not problems and hasattr(workload, "details"):
            record.update(workload.details(items, outputs))

    correct = not problems
    record.update(correct=correct, problems=problems,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    (OUT / f"{work.name}.json").write_text(json.dumps(record, indent=1) + "\n")

    for line in problems:
        print(f"check failed: {line}")
    for key in ("environment", "rounds", "items", "item_tail_percentile", "fail_frac", "solutions",
                "counterexamples", "origin_inside", "two_adjacent_acute", "baseline_sizes"):
        if key in record:
            print(f"{key}: {record[key]}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({"correct": correct, "attempted": len(items), "failed": len(failures),
                      "metrics": record["metrics"]}))
    return 0 if correct else 1


def _compare(workload: str, traced, untraced) -> list:
    """Tracing must not change an item's output."""
    if workload == "audit":
        same = (traced[1].to_json() == untraced[1].to_json()
                and traced[2].to_dict() == untraced[2].to_dict())
    else:
        same = traced == untraced
    return [] if same else ["the first item's output differs when run untraced"]


if __name__ == "__main__":
    raise SystemExit(main())
