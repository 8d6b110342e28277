"""Check perfbench results against the checked-in PERF_RECORD.json.

Run from the repository root after ``perfbench/run.py`` has run every
workload the record lists, at its recorded seed (``make perf-gate``
does both)::

    python3 tools/perf_gate.py [RECORD [RESULTS_DIR]]

RECORD defaults to ``PERF_RECORD.json`` and RESULTS_DIR to
``.perfbench-out/results``, where perfbench writes one
``<workload>-seed<N>-trace0.json`` per run.  A recorded workload fails
the gate when its run failed a cell, when its host-scaled ``us_per_tx``
(µs per committed transaction) or ``warm_s`` (seconds per cache-served
pass) is more than ``MAX_RECORD_RATIO`` times the record's, when its
cache-served pass is less than ``MIN_COLD_WARM_RATIO`` times faster
than its cold pass, or when it has no result.  Exit status: 0 when
every recorded workload passes, 1 otherwise, with one line per failure
naming the workload, the metric and the ratio.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List, Sequence

#: A run may cost at most this many times each recorded host-scaled
#: metric.
MAX_RECORD_RATIO = 2.0
#: The recorded metrics, with the unit each is printed in.
RECORDED_METRICS = {"us_per_tx": "us", "warm_s": "s"}
#: The cache-served pass must be at least this many times faster than
#: the cold pass.
MIN_COLD_WARM_RATIO = 10.0


def result_path(results_dir: str, workload: str, seed: int) -> str:
    """Where perfbench writes an untraced run's record."""
    return os.path.join(results_dir, f"{workload}-seed{seed}-trace0.json")


def check_workload(workload: str, entry: Dict[str, Any], results_dir: str) -> List[str]:
    """The gate's failures for one recorded workload (empty: it passes)."""
    path = result_path(results_dir, workload, entry["seed"])
    try:
        with open(path, encoding="utf-8") as handle:
            result = json.load(handle)
    except (OSError, ValueError) as exc:
        return [f"{workload}: no result at {path} ({exc.__class__.__name__})"]
    failures = []
    if result["failed"] > 0:
        failures.append(
            f"{workload}: failed {result['failed']}/{result['attempted']} cells"
        )
    metrics = result["metrics"]
    ratios = {}
    for name, unit in RECORDED_METRICS.items():
        value = metrics[name]["value"]
        ratios[name] = ratio = value / entry[name]
        if ratio > MAX_RECORD_RATIO:
            failures.append(
                f"{workload}: {name} {value:.4g} {unit} is {ratio:.2f}x the "
                f"record's {entry[name]:.4g} {unit} (limit {MAX_RECORD_RATIO:g}x)"
            )
    cold_s, warm_s = metrics["cold_s"]["value"], metrics["warm_s"]["value"]
    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    if speedup < MIN_COLD_WARM_RATIO:
        failures.append(
            f"{workload}: cold_s / warm_s is {speedup:.1f}x "
            f"(at least {MIN_COLD_WARM_RATIO:g}x)"
        )
    if not failures:
        print(
            f"perf-gate {workload}: us_per_tx {ratios['us_per_tx']:.2f}x and "
            f"warm_s {ratios['warm_s']:.2f}x the record, "
            f"cold_s / warm_s {speedup:.0f}x, {result['attempted']} cells ok"
        )
    return failures


def main(argv: Sequence[str]) -> int:
    record_path = argv[0] if argv else "PERF_RECORD.json"
    results_dir = argv[1] if len(argv) > 1 else os.path.join(".perfbench-out", "results")
    with open(record_path, encoding="utf-8") as handle:
        record = json.load(handle)
    failures = []
    for workload, entry in record["workloads"].items():
        failures += check_workload(workload, entry, results_dir)
    for failure in failures:
        print(f"error: perf-gate {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
