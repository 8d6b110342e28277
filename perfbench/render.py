"""Benchmark result JSONs -> CSV -> markdown trajectory table.

    python3 perfbench/render.py [LABEL=]PATH ... [--csv OUT.csv] [--md OUT.md]

Each PATH is a result file written by ``perfbench/run.py`` or a
directory of them (default: ``.perfbench-out/results``).  A ``LABEL=``
prefix names that set (``parent=runs-a change=runs-b``); without one a
row is labelled with its record's commit.  The CSV has one row per
run and metric; the table has one row per label, workload and metric
with the median, the quartiles and n, so parent and change rows sit
side by side.
"""

from __future__ import annotations

import argparse
import csv
import glob
import io
import json
import os
import statistics
import sys
from typing import Dict, Iterable, List, Sequence, Tuple

FIELDS = ("label", "workload", "trace", "seed", "metric", "unit", "value")


def _result_files(path: str) -> List[str]:
    if os.path.isdir(path):
        return sorted(glob.glob(os.path.join(path, "*.json")))
    return [path]


def csv_rows(sources: Sequence[str]) -> List[Dict[str, object]]:
    """One row per (run, metric) from ``[LABEL=]PATH`` sources."""
    rows = []
    for source in sources:
        label, _, path = source.rpartition("=") if "=" in source else ("", "", source)
        for name in _result_files(path):
            with open(name, encoding="utf-8") as handle:
                record = json.load(handle)
            for metric, entry in record["metrics"].items():
                rows.append({
                    "label": label or record["settings"]["commit"][:12],
                    "workload": record["workload"],
                    "trace": record["trace"],
                    "seed": record["seed"],
                    "metric": metric,
                    "unit": entry["unit"],
                    "value": entry["value"],
                })
    return rows


def write_csv(rows: Iterable[Dict[str, object]], handle) -> None:
    writer = csv.DictWriter(handle, fieldnames=FIELDS)
    writer.writeheader()
    writer.writerows(rows)


def read_csv(handle) -> List[Dict[str, str]]:
    return list(csv.DictReader(handle))


def markdown_table(rows: Iterable[Dict[str, str]]) -> str:
    """Median, quartiles (``statistics.quantiles``) and n per group."""
    groups: Dict[Tuple[str, str, str, str], List[float]] = {}
    for row in rows:
        key = (row["workload"], row["metric"], row["unit"], row["label"])
        groups.setdefault(key, []).append(float(row["value"]))
    lines = [
        "| workload | metric | unit | label | median | q1 | q3 | n |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for (workload, metric, unit, label), values in sorted(groups.items()):
        if len(values) > 1:
            q1, median, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = median = q3 = values[0]
        lines.append(
            f"| {workload} | {metric} | {unit} | {label} | {median:.6g} | {q1:.6g} "
            f"| {q3:.6g} | {len(values)} |"
        )
    return "\n".join(lines)


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/render.py", description=__doc__.split("\n")[0])
    parser.add_argument("sources", nargs="*", default=[os.path.join(".perfbench-out", "results")])
    parser.add_argument("--csv", help="also write the CSV here")
    parser.add_argument("--md", help="write the table here instead of printing it")
    args = parser.parse_args(argv)
    buffer = io.StringIO()
    write_csv(csv_rows(args.sources), buffer)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as handle:
            handle.write(buffer.getvalue())
    buffer.seek(0)
    table = markdown_table(read_csv(buffer))
    if args.md:
        with open(args.md, "w", encoding="utf-8") as handle:
            handle.write(table + "\n")
    else:
        print(table)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
