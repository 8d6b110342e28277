"""The repository benchmark: one command, every metric, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload closed-cpu --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics (host microseconds per
committed simulated transaction, cold and warm pass time, set-up time,
peak RSS); ``--trace 1`` runs one untraced and one traced pass and
reports the per-layer split.  Every run checks the program's outputs
and prints each metric with its unit, then, as its last line, one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The full
record (settings, samples, digests) goes to
``.perfbench-out/results/<workload>-seed<seed>-trace<t>.json``, which
``perfbench/render.py`` turns into CSV and a markdown table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import PER_LAYER_UNITS, layer_table, per_layer_metrics  # noqa: E402
from spans import merge_summaries  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Fresh processes timed for ``setup_s`` (median reported).
SETUP_RUNS = 7

#: A run must end within this many seconds, whatever its workers do.
RUN_DEADLINE_S = 170.0

END_TO_END_UNITS: Dict[str, str] = {
    "us_per_tx": "us",
    "cold_s": "s",
    "warm_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

OUT_DIR = ".perfbench-out"

#: ``worker.HostProbe``'s time on a quiet reference host (2-vCPU x86-64
#: VM, CPython 3.11); timings are reported as if every sample had run
#: at that speed.
CAL_REFERENCE_S = 0.010

#: Probes on each side of a cell whose median scales that cell.
PROBE_WINDOW = 4


class WorkerError(RuntimeError):
    """A worker process failed or ran out of time."""


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """First and third quartile (``statistics.quantiles``) and n."""
    values = list(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "q3": q3, "n": len(values)}


def at_reference_speed(seconds: float, probe_s: float) -> float:
    """A timed sample restated at the reference host speed.

    ``probe_s`` is the host probe's time around the sample; the probe
    is fixed benchmark code, so scaling by ``CAL_REFERENCE_S /
    probe_s`` cancels the host slowing down or speeding up under the
    sample and leaves what the program itself costs.
    """
    return seconds * CAL_REFERENCE_S / probe_s


def end_to_end_metrics(record: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """The end-to-end metrics of a ``--trace 0`` record.

    Timings are stated at the reference host speed (see
    :func:`at_reference_speed`).  Every pass simulates exactly the same
    cells (the digests prove it), so the simulated time is the sum over
    cells of each cell's median sample across passes.  ``raw`` keeps
    the same medians unscaled; quartiles and n describe the samples.
    """
    measured = record["measure"]
    passes = measured["passes"]
    tx = passes[0]["tx"]
    cells = len(passes[0]["cell_s"])

    def scaled_cells(one_pass: Dict[str, Any]) -> List[float]:
        # probe i runs just before cell i; a cell takes the median of
        # the probes within PROBE_WINDOW places of it, because single
        # probes are noisy and cells may outlast the probe beside them
        probes = one_pass["probe_s"]
        return [
            at_reference_speed(seconds, statistics.median(
                probes[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 2]
            ))
            for i, seconds in enumerate(one_pass["cell_s"])
        ]

    scaled = [scaled_cells(p) for p in passes]
    simulated_s = sum(statistics.median(p[i] for p in scaled) for i in range(cells))
    raw_simulated_s = sum(
        statistics.median(p["cell_s"][i] for p in passes) for i in range(cells)
    )
    all_probes = [probe for p in passes for probe in p["probe_s"]]
    build_s = at_reference_speed(measured["build_s"], statistics.median(all_probes))
    samples = {
        "us_per_tx": [(sum(p) - build_s) / tx * 1e6 for p in scaled],
        "setup_s": [at_reference_speed(s["setup_s"], s["probe_s"]) for s in record["setup"]],
    }
    raw = {
        "us_per_tx": (raw_simulated_s - measured["build_s"]) / tx * 1e6,
        "setup_s": statistics.median(s["setup_s"] for s in record["setup"]),
    }
    pairs = measured.get("pairs")
    if pairs:
        # one CLI invocation per target and phase, each scaled by the
        # probe blocks on either side of it
        for index, phase in enumerate(("cold", "warm")):
            samples[f"{phase}_s"] = [
                sum(
                    at_reference_speed(
                        entry[phase]["wall_s"],
                        (entry["probe_s"][index] + entry["probe_s"][index + 1]) / 2,
                    )
                    for entry in pair.values()
                )
                for pair in pairs
            ]
            raw[f"{phase}_s"] = statistics.median(
                sum(entry[phase]["wall_s"] for entry in pair.values()) for pair in pairs
            )
        rss_kb = measured["cli_maxrss_kb"]
    else:
        samples["cold_s"] = [sum(p) for p in scaled]
        samples["warm_s"] = [at_reference_speed(*sample) for sample in measured["warm"]]
        raw["cold_s"] = raw_simulated_s
        raw["warm_s"] = statistics.median(seconds for seconds, _ in measured["warm"])
        rss_kb = measured["maxrss_kb"]
    samples["peak_rss_mb"] = [rss_kb / 1024.0]
    values = {name: statistics.median(values) for name, values in samples.items()}
    values["us_per_tx"] = (simulated_s - build_s) / tx * 1e6
    if not pairs:
        values["cold_s"] = simulated_s
    raw["peak_rss_mb"] = values["peak_rss_mb"]
    return {
        name: {
            "value": values[name], "unit": unit, "raw": raw[name], **quartiles(samples[name]),
        }
        for name, unit in END_TO_END_UNITS.items()
    }


def layer_metrics(record: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """The per-layer metrics of a ``--trace 1`` record."""
    traced = record["traced"]
    values = per_layer_metrics(
        merge_summaries(traced["summaries"]),
        traced["summaries"][-1],
        traced["span_layer"],
    )
    values["failed_share"] = record["failed"] / record["attempted"]
    values["trace_overhead"] = traced["wall_s"] / record["untraced_wall_s"]
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit in PER_LAYER_UNITS.items()
    }


def metrics_from_record(record: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Every metric this record's mode reports, by name."""
    return layer_metrics(record) if record["trace"] else end_to_end_metrics(record)


# -- processes ---------------------------------------------------------------


class Runner:
    """Starts worker processes under one run-wide deadline."""

    def __init__(self, env: Dict[str, str], deadline: float):
        self.env = env
        self.deadline = deadline

    def worker(self, mode: str, *args: Any) -> Dict[str, Any]:
        argv = [sys.executable, os.path.join(HERE, "worker.py"), mode, *map(str, args)]
        # its own process group, so a timeout also stops the CLI
        # processes a worker started
        process = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=self.env, start_new_session=True,
        )
        try:
            out, err = process.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            raise WorkerError(f"{mode} worker ran past the run deadline")
        if process.returncode != 0:
            raise WorkerError(f"{mode} worker exited {process.returncode}:\n{err[-3000:]}")
        return json.loads(out.strip().splitlines()[-1])


def settings(lane: str) -> Dict[str, Any]:
    """Where and how the run happened."""
    commit = "unknown (not a git checkout)"
    if os.path.isdir(".git"):
        found = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=False
        )
        commit = found.stdout.strip() or commit
    return {
        "commit": commit,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "kernel_lane": lane,
        "REPRO_KERNEL": os.environ.get("REPRO_KERNEL"),
    }


def _sim_digest(cell_digests: Sequence[Any], blocks: Dict[str, str]) -> str:
    parts = [str(d) for d in cell_digests] + [f"{k}={blocks[k]}" for k in sorted(blocks)]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def _digest_mismatches(
    ids: Sequence[str], reference: Sequence[Any], other: Sequence[Any], what: str
) -> List[Dict[str, str]]:
    return [
        {"id": ident, "reason": f"{what} digest differs"}
        for ident, a, b in zip(ids, reference, other)
        if a != b
    ]


def run_untraced(runner: Runner, args, work_dir: str) -> Dict[str, Any]:
    setup = [
        runner.worker("setup", args.workload, args.seed, args.scale)
        for _ in range(SETUP_RUNS)
    ]
    measured = runner.worker(
        "measure", args.workload, args.seed, args.scale, args.seconds, work_dir
    )
    targets = measured.get("targets", [])
    pairs = measured.get("pairs", [])
    if pairs:
        # figures-warm's digest is its CLI output, as in the traced run
        digest = _sim_digest([], {
            key: block for entry in pairs[0].values()
            for key, block in entry["cold"]["blocks"].items()
        })
    else:
        digest = _sim_digest(measured["cell_digests"], {})
    return {
        "setup": setup,
        "measure": measured,
        "failures": measured["failures"],
        "attempted": measured["cells"] * len(measured["passes"]) + len(targets) * len(pairs),
        "sim_digest": digest,
        "kernel_lane": measured["kernel_lane"],
    }


def _traced_cli(runner: Runner, targets: Sequence[str], work_dir: str) -> Dict[str, Any]:
    """The CLI's cold and warm passes in-process, untraced then traced."""
    runs: Dict[bool, List[Dict[str, Any]]] = {}
    for traced in (False, True):
        cache = os.path.join(work_dir, f"cli-inproc-cache-{int(traced)}")
        shutil.rmtree(cache, ignore_errors=True)
        runs[traced] = [
            runner.worker("cli", phase, work_dir, cache, int(traced), *targets)
            for phase in ("cold", "warm")
        ]
    reference = runs[False][0]
    failures: List[Dict[str, str]] = []
    for run in [reference] + runs[False][1:] + runs[True]:
        if run["code"] != 0:
            failures.append({"id": "cli", "reason": f"CLI exited {run['code']}"})
    for run in runs[False][1:] + runs[True]:
        failures += _digest_mismatches(
            targets, [reference["blocks"].get(t) for t in targets],
            [run["blocks"].get(t) for t in targets], "CLI output",
        )
    traced_runs = runs[True]
    wall = sum(run["wall_s"] for run in traced_runs)
    return {
        "untraced_wall_s": sum(run["wall_s"] for run in runs[False]),
        "traced": {
            "wall_s": wall,
            "phases_wall_s": wall,
            "summaries": [run["summary"] for run in traced_runs],
            "span_layer": {k: v for run in traced_runs for k, v in run["span_layer"].items()},
            "spans": sum(run["spans"] for run in traced_runs),
            "chrome_traces": [run["chrome_trace"] for run in traced_runs],
        },
        "failures": failures,
        "attempted": 3 * len(targets),
        "sim_digest": _sim_digest([], traced_runs[0]["blocks"]),
        "kernel_lane": reference["kernel_lane"],
    }


def run_traced(runner: Runner, args, work_dir: str) -> Dict[str, Any]:
    """One untraced pass, then the same work traced; digests must agree."""
    workload = WORKLOADS[args.workload]
    if workload.targets is not None:
        return _traced_cli(runner, workload.cli_targets(args.scale), work_dir)
    untraced = runner.worker("measure", args.workload, args.seed, args.scale, 0, work_dir)
    result = runner.worker("traced", args.workload, args.seed, args.scale, work_dir)
    cells = untraced["cells"]
    failures = untraced["failures"] + result["failures"] + _digest_mismatches(
        [f"cell-{i}" for i in range(cells)], untraced["cell_digests"],
        result["cell_digests"], "traced outcome",
    )
    return {
        "untraced_wall_s": untraced["passes"][0]["wall_s"],
        "traced": {
            "wall_s": result["wall_s"],
            "phases_wall_s": result["phases_wall_s"],
            "summaries": [result["summaries"]["cold"], result["summaries"]["warm"]],
            "span_layer": result["span_layer"],
            "spans": result["spans"],
            "chrome_traces": [result["chrome_trace"]],
        },
        "failures": failures,
        "attempted": 2 * cells,
        "sim_digest": _sim_digest(result["cell_digests"], {}),
        "kernel_lane": untraced["kernel_lane"],
    }


# -- report ------------------------------------------------------------------


def report_lines(record: Dict[str, Any], metrics: Dict[str, Dict[str, Any]]) -> List[str]:
    env = record["settings"]
    lines = [
        f"perfbench {record['workload']} seed={record['seed']} trace={record['trace']} "
        f"seconds={record['seconds']:g} commit={env['commit']} python={env['python']} "
        f"nproc={env['nproc']} kernel_lane={env['kernel_lane']}",
        f"  platform {env['platform']}",
    ]
    if env["kernel_lane"] != "py":
        lines.append(
            f"  NOTE: REPRO_KERNEL={env['REPRO_KERNEL']} selected the {env['kernel_lane']} "
            "lane; these numbers are not comparable with py-lane runs"
        )
    for name, metric in metrics.items():
        spread = ""
        if "n" in metric:
            spread = (
                f"  (n {metric['n']}, q1 {metric['q1']:.6g}, q3 {metric['q3']:.6g}, "
                f"unscaled {metric['raw']:.6g})"
            )
        lines.append(f"  {name:<30} {metric['value']:<14.6g} {metric['unit']}{spread}")
    failed, attempted = record["failed"], record["attempted"]
    if "failed_share" not in metrics:
        lines.append(
            f"  {'failed_share':<30} {failed / attempted:<14.6g} ratio  ({failed}/{attempted})"
        )
    lines.append(f"  {'sim_digest':<30} {record['sim_digest']}")
    for failure in record["failures"][:20]:
        lines.append(f"  FAILED {failure['id']}: {failure['reason']}")
    lines.append(f"  checks {'ok' if not record['failures'] else 'FAILED'}")
    return lines


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink every cell (the benchmark's own tests use this)",
    )
    parser.add_argument("--out-dir", default=OUT_DIR)
    return parser.parse_args(argv)


def main(argv: Sequence[str]) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("error: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    started = time.monotonic()
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    runner = Runner(env, started + RUN_DEADLINE_S)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = os.path.abspath(os.path.join(args.out_dir, name))
    os.makedirs(work_dir, exist_ok=True)
    try:
        outcome = (run_traced if args.trace else run_untraced)(runner, args, work_dir)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for entry in os.listdir(work_dir):
            if "cache" in entry:
                shutil.rmtree(os.path.join(work_dir, entry), ignore_errors=True)
    record: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "trace": args.trace,
        "settings": settings(outcome.pop("kernel_lane")),
        "failed": len(outcome["failures"]),
        **outcome,
    }
    record["metrics"] = metrics_from_record(record)
    record["run_s"] = time.monotonic() - started
    lines = report_lines(record, record["metrics"])
    if args.trace:
        traced = record["traced"]
        table = layer_table(
            merge_summaries(traced["summaries"]), traced["span_layer"],
            traced["phases_wall_s"],
        )
        with open(os.path.join(work_dir, "layers.md"), "w", encoding="utf-8") as handle:
            handle.write(table + "\n")
        lines += ["", table, "", "  chrome traces: " + ", ".join(traced["chrome_traces"])]
    results_dir = os.path.join(args.out_dir, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{name}.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    print("\n".join(lines))
    print(json.dumps({
        "correct": not record["failures"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            key: {"value": metric["value"], "unit": metric["unit"]}
            for key, metric in record["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
