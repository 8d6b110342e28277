"""One benchmark process: set-up timing, measured passes, or a traced pass.

``run.py`` starts these; each prints one JSON object as its last line
of standard output::

    python perfbench/worker.py setup      WORKLOAD SEED SCALE
    python perfbench/worker.py measure    WORKLOAD SEED SCALE SECONDS WORK_DIR
    python perfbench/worker.py traced     WORKLOAD SEED SCALE WORK_DIR
    python perfbench/worker.py cli        PHASE WORK_DIR CACHE_DIR TRACED TARGET...

Timed samples are bracketed by host-speed probes (:class:`HostProbe`),
so ``run.py`` can state each sample at one reference host speed.
"""

import contextlib
import hashlib
import heapq
import json
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from typing import Any, Dict, List, Optional, Sequence, Tuple

from layers import GROUPS, install_layers
from spans import SpanRecorder, summarize, write_chrome_trace
from workloads import WORKLOADS, build_cells

#: Share of ``--seconds`` figures-warm spends on its grid cells (for
#: ``us_per_tx``) before the CLI passes take the rest.
FIGURE_CELL_SHARE = 0.15

#: Warm samples after each simulated pass.  A cache-served pass takes
#: milliseconds, so a sample is the mean of WARM_REPEATS of them, with
#: probes right before and after.
WARM_PER_PASS = 3
WARM_REPEATS = 15

_FIGURE_LINE = re.compile(r"^\[figure (\S+) regenerated in ")


class _Item:
    __slots__ = ("value", "link", "tag")

    def __init__(self, value: float):
        self.value = value
        self.link: Optional["_Item"] = None
        self.tag: Dict[int, float] = {}


class HostProbe:
    """A fixed job that measures how fast the host runs right now.

    It is a miniature of what the simulator does — allocate thousands
    of small objects, push and pop a heap, drive generator coroutines,
    chase references through a working set of a few megabytes — and it
    touches nothing of ``repro``, so its time follows the host's speed
    (neighbours' load, cache pressure) and no change to the program.
    """

    def __init__(self, objects: int = 15000, events: int = 1500, seed: int = 7):
        rng = random.Random(seed)
        self.values = [rng.random() for _ in range(objects)]
        self.order = [rng.randrange(objects) for _ in range(events)]

    def measure(self) -> float:
        """Seconds one run of the job takes now."""
        start = time.perf_counter()
        items = [_Item(value) for value in self.values]
        heap: list = []
        total = 0.0

        def job(item: _Item, steps: int):
            for step in range(steps):
                item.tag[step] = item.value
                yield item.value * step

        for seq, index in enumerate(self.order):
            item = items[index]
            item.link = items[(index * 7919) % len(items)]
            heapq.heappush(heap, (item.value, seq, item))
            if len(heap) > 128:
                for value in job(heapq.heappop(heap)[2], 4):
                    total += value
        return time.perf_counter() - start

    def block(self, count: int = 5) -> float:
        """Median of ``count`` runs taken back to back."""
        return statistics.median(self.measure() for _ in range(count))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cell_digest(outcome) -> str:
    """sha256 of one cell's canonical outcome JSON."""
    return _digest(json.dumps(outcome.to_json_dict(), sort_keys=True, separators=(",", ":")))


def check_outcome(spec, outcome) -> Optional[str]:
    """Why a cell's outcome is wrong, or None when it passes."""
    measurement = spec.measurement
    wanted = measurement.transactions - int(
        measurement.transactions * measurement.warmup_fraction
    )
    if outcome.result.completed < wanted:
        return f"window holds {outcome.result.completed} records, {wanted} requested"
    resilience = outcome.resilience
    if resilience is not None and resilience["admitted"] != (
        resilience["completed"] + resilience["timed_out"]
        + resilience["shed"] + resilience["in_flight"]
    ):
        return "resilience disposition identity broken"
    if outcome.distributed is not None and outcome.distributed["atomicity_violations"]:
        return "2PC atomicity violations"
    return None


def run_cell(spec) -> Tuple[float, int, Optional[str], Optional[str], Any]:
    """(host seconds, committed tx, digest, failure, outcome) of one cell."""
    from repro.core.scenario import run_scenario

    start = time.perf_counter()
    try:
        system, outcome = run_scenario(spec)
    except Exception as exc:  # a failing cell is counted, not fatal
        failure = "".join(traceback.format_exception_only(exc)).strip()
        return time.perf_counter() - start, 0, None, f"raised {failure}", None
    wall = time.perf_counter() - start
    return (
        wall, len(system.collector.records), cell_digest(outcome),
        check_outcome(spec, outcome), outcome,
    )


def split_targets(output: str) -> Dict[str, str]:
    """The CLI's output per figure target, without its timing line."""
    blocks: Dict[str, str] = {}
    lines: List[str] = []
    for line in output.splitlines():
        match = _FIGURE_LINE.match(line)
        if match:
            blocks[match.group(1)] = "\n".join(lines)
            lines = []
        else:
            lines.append(line)
    return blocks


def run_cli(targets: Sequence[str], cache_dir: str, out_path: str) -> Dict[str, Any]:
    """One ``python -m repro.experiments`` pass: wall, exit code, RSS, output."""
    argv = [sys.executable, "-m", "repro.experiments", *targets,
            "--jobs", "1", "--cache-dir", cache_dir]
    with open(out_path, "w", encoding="utf-8") as out:
        start = time.perf_counter()
        process = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT)
        # wait4, not wait: it also hands back the child's peak RSS
        _, status, usage = os.wait4(process.pid, 0)
        wall = time.perf_counter() - start
        process.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8") as handle:
        output = handle.read()
    return {
        "wall_s": wall,
        "code": process.returncode,
        "maxrss_kb": usage.ru_maxrss,
        "blocks": {k: _digest(v) for k, v in split_targets(output).items()},
    }


def setup(workload: str, seed: int, scale: float) -> Dict[str, Any]:
    """Time importing ``repro``, building and validating the cells, and
    constructing every cell's system, between two probe blocks."""
    probe = HostProbe()
    before = probe.block()
    start = time.perf_counter()
    from repro.core.cluster import build_system

    if WORKLOADS[workload].targets is not None:
        import repro.experiments.__main__  # noqa: F401  (the CLI it drives)
    systems = [build_system(cell.build_config()) for cell in build_cells(workload, seed, scale)]
    setup_s = time.perf_counter() - start
    return {"setup_s": setup_s, "probe_s": (before + probe.block()) / 2, "cells": len(systems)}


class _Passes:
    """Simulated passes over the cells, each cell bracketed by probes.

    The first pass fills the result cache and fixes the reference
    digests and results; every later pass must reproduce them.  After
    each pass, sim workloads serve the cells from that cache a few
    times (the warm samples), so warm samples spread over the run too.
    """

    def __init__(self, cells: list, cache_dir: str, warm: bool):
        from repro.experiments.parallel import ResultCache

        self.cells = cells
        self.probe = HostProbe()
        self.cache_dir = cache_dir
        self.cache = ResultCache(cache_dir)
        self.warm = warm
        self.passes: List[Dict[str, Any]] = []
        #: [seconds per cache-served pass, median probe around them]
        self.warm_samples: List[List[float]] = []
        self.failures: List[Dict[str, str]] = []
        self.digests: List[Optional[str]] = []
        self.results: List[Optional[str]] = []

    def run(self, budget_s: float) -> None:
        """Passes until ``budget_s`` is used; the last one may overrun it."""
        started = time.perf_counter()
        while True:
            self._one_pass()
            if self.warm:
                self._warm_passes()
            elapsed = time.perf_counter() - started
            if elapsed + elapsed / len(self.passes) > budget_s:
                return

    def _fail(self, ident: str, reason: str) -> None:
        self.failures.append({"id": ident, "reason": reason})

    def _one_pass(self) -> None:
        first = not self.passes
        cell_s, cell_tx, probe_s = [], [], [self.probe.measure()]
        for index, cell in enumerate(self.cells):
            seconds, committed, digest, failure, outcome = run_cell(cell)
            probe_s.append(self.probe.measure())
            cell_s.append(seconds)
            cell_tx.append(committed)
            if first:
                self.digests.append(digest)
                self.results.append(_result_json(outcome.result) if outcome else None)
                if outcome is not None:
                    self.cache.store(cell.fingerprint(), cell, outcome.result)
            elif failure is None and digest != self.digests[index]:
                failure = "outcome digest differs from the first pass"
            if failure is not None:
                self._fail(f"cell-{index}", failure)
        self.passes.append({
            "wall_s": sum(cell_s), "tx": sum(cell_tx),
            "cell_s": cell_s, "cell_tx": cell_tx, "probe_s": probe_s,
        })

    def _warm_passes(self) -> None:
        """Cache-served passes: nothing simulated, first-pass results back."""
        from repro.experiments.parallel import ParallelRunner

        for _ in range(WARM_PER_PASS):
            probes = [self.probe.measure() for _ in range(3)]
            served, seconds = True, 0.0
            for _ in range(WARM_REPEATS):
                runner = ParallelRunner(jobs=1, cache_dir=self.cache_dir)
                start = time.perf_counter()
                results = runner.run(self.cells)
                seconds += time.perf_counter() - start
                served = served and not runner.stats.executed and (
                    [_result_json(r) for r in results] == self.results
                )
            probes += [self.probe.measure() for _ in range(3)]
            if not served:
                self._fail("warm-pass", "warm pass simulated or differs")
            self.warm_samples.append([seconds / WARM_REPEATS, statistics.median(probes)])


def _result_json(result) -> str:
    return json.dumps(result.to_json_dict(), sort_keys=True)


def _cli_pairs(targets: Sequence[str], work_dir: str, budget_s: float) -> Dict[str, Any]:
    """Cold-then-warm CLI passes until ``budget_s`` is used (at least one).

    A pass invokes ``python -m repro.experiments`` once per target, each
    target with its own result cache, so a probe block between the
    invocations gives every one of them the host speed it ran at.
    """
    pairs: List[Dict[str, Any]] = []
    failures: List[Dict[str, str]] = []
    probe = HostProbe()
    started = time.perf_counter()
    while True:
        pair: Dict[str, Any] = {}
        for target in targets:
            cache = os.path.join(work_dir, "cli-cache", target)
            shutil.rmtree(cache, ignore_errors=True)
            out = os.path.join(work_dir, f"cli-{target}")
            before = probe.block()
            cold = run_cli([target], cache, f"{out}-cold.out")
            between = probe.block()
            warm = run_cli([target], cache, f"{out}-warm.out")
            pair[target] = {"cold": cold, "warm": warm, "probe_s": [before, between, probe.block()]}
            for phase, run in (("cold", cold), ("warm", warm)):
                if run["code"] != 0:
                    failures.append({"id": f"{target}-{phase}", "reason": f"CLI exited {run['code']}"})
            if target not in cold["blocks"] or warm["blocks"] != cold["blocks"]:
                failures.append({"id": target, "reason": "warm output differs or is missing"})
            if pairs and cold["blocks"] != pairs[0][target]["cold"]["blocks"]:
                failures.append({"id": target, "reason": "repeated cold output differs"})
        pairs.append(pair)
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(pairs) > budget_s:
            break
    return {
        "targets": list(targets),
        "pairs": pairs,
        "failures": failures,
        "cli_maxrss_kb": max(
            entry[phase]["maxrss_kb"]
            for pair in pairs for entry in pair.values() for phase in ("cold", "warm")
        ),
    }


def measure(
    workload: str, seed: int, scale: float, seconds: float, work_dir: str
) -> Dict[str, Any]:
    from repro.core.cluster import build_system
    from repro.sim.engine import resolve_kernel_lane

    spec = WORKLOADS[workload]
    cells = build_cells(workload, seed, scale)
    build_s = 0.0
    for cell in cells:
        start = time.perf_counter()
        build_system(cell.build_config())
        build_s += time.perf_counter() - start
    cache_dir = os.path.join(work_dir, "cells-cache")
    shutil.rmtree(cache_dir, ignore_errors=True)
    passes = _Passes(cells, cache_dir, warm=spec.targets is None)
    started = time.perf_counter()
    passes.run(seconds * (FIGURE_CELL_SHARE if spec.targets is not None else 1.0))
    result: Dict[str, Any] = {
        "passes": passes.passes,
        "warm": passes.warm_samples,
        "failures": passes.failures,
        "cell_digests": passes.digests,
        "build_s": build_s,
        "cells": len(cells),
        "kernel_lane": resolve_kernel_lane(),
    }
    if spec.targets is not None:
        budget = seconds - (time.perf_counter() - started)
        cli = _cli_pairs(spec.cli_targets(scale), work_dir, budget)
        result["failures"] += cli.pop("failures")
        result.update(cli)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return result


def _outcome_counts(recorder, outcome) -> None:
    """Ledger counts the 2PC and resilience ratios need, from the outcome."""
    if outcome.distributed is not None:
        recorder.count("2pc.commits", outcome.distributed["commits"])
        recorder.count("2pc.attempts", outcome.distributed["attempts"])
    if outcome.resilience is not None:
        for key in ("completed", "admitted", "retries"):
            recorder.count(f"resilience.{key}", outcome.resilience[key])


def traced(workload: str, seed: int, scale: float, work_dir: str) -> Dict[str, Any]:
    """One traced pass over the cells, then one traced cache-served pass."""
    from repro.experiments.parallel import ParallelRunner, ResultCache

    cells = build_cells(workload, seed, scale)
    cache_dir = os.path.join(work_dir, "traced-cache")
    shutil.rmtree(cache_dir, ignore_errors=True)
    recorder = SpanRecorder()
    span_layer, uninstall = install_layers(recorder)
    cache = ResultCache(cache_dir)
    wall, digests, failures = 0.0, [], []
    started = time.perf_counter()
    try:
        for index, cell in enumerate(cells):
            recorder.cell = index
            seconds, _, digest, failure, outcome = run_cell(cell)
            wall += seconds
            digests.append(digest)
            if failure is not None:
                failures.append({"id": f"cell-{index}", "reason": f"traced: {failure}"})
            if outcome is not None:
                _outcome_counts(recorder, outcome)
                cache.store(cell.fingerprint(), cell, outcome.result)
        recorder.cell = -1
    finally:
        uninstall()
    traced_s = time.perf_counter() - started
    cold = summarize(recorder, GROUPS)
    trace_path = os.path.join(work_dir, f"trace-{workload}.json")
    write_chrome_trace(recorder, trace_path, category=span_layer.get)
    spans = len(recorder)
    del recorder

    warm_recorder = SpanRecorder()
    span_layer_warm, uninstall = install_layers(warm_recorder)
    started = time.perf_counter()
    try:
        ParallelRunner(jobs=1, cache_dir=cache_dir).run(cells)
    finally:
        uninstall()
    span_layer.update(span_layer_warm)
    return {
        "wall_s": wall,
        "phases_wall_s": traced_s + time.perf_counter() - started,
        "cell_digests": digests,
        "failures": failures,
        "summaries": {"cold": cold, "warm": summarize(warm_recorder, GROUPS)},
        "span_layer": span_layer,
        "spans": spans,
        "chrome_trace": trace_path,
    }


def cli_in_process(
    phase: str, work_dir: str, cache_dir: str, traced: bool, targets: List[str]
) -> Dict[str, Any]:
    """One CLI pass run in this process, with every layer traced or not.

    The untraced run is the traced one's reference: same process shape,
    same targets, so their wall times give the tracing overhead and
    their outputs must match.
    """
    import repro.experiments.__main__ as cli
    from repro.sim.engine import resolve_kernel_lane

    recorder = SpanRecorder()
    span_layer, uninstall = install_layers(recorder) if traced else ({}, lambda: None)
    out_path = os.path.join(work_dir, f"cli-inproc-{phase}-{int(traced)}.out")
    try:
        with open(out_path, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
            start = time.perf_counter()
            code = cli.main([*targets, "--jobs", "1", "--cache-dir", cache_dir])
            wall = time.perf_counter() - start
    finally:
        uninstall()
    with open(out_path, encoding="utf-8") as handle:
        blocks = {k: _digest(v) for k, v in split_targets(handle.read()).items()}
    result = {
        "wall_s": wall, "code": code, "blocks": blocks, "kernel_lane": resolve_kernel_lane(),
    }
    if traced:
        trace_path = os.path.join(work_dir, f"trace-figures-warm-{phase}.json")
        write_chrome_trace(recorder, trace_path, category=span_layer.get)
        result.update(
            summary=summarize(recorder, GROUPS),
            span_layer=span_layer,
            spans=len(recorder),
            chrome_trace=trace_path,
        )
    return result


def main(argv: List[str]) -> int:
    mode, args = argv[0], argv[1:]
    if mode == "setup":
        result = setup(args[0], int(args[1]), float(args[2]))
    elif mode == "measure":
        result = measure(args[0], int(args[1]), float(args[2]), float(args[3]), args[4])
    elif mode == "traced":
        result = traced(args[0], int(args[1]), float(args[2]), args[3])
    elif mode == "cli":
        result = cli_in_process(args[0], args[1], args[2], args[3] == "1", args[4:])
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
