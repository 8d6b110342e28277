"""Parallel experiment execution with a content-addressed result cache.

Every figure reproduction reduces to a *grid* of independent
simulation runs — ``(setup, MPL, policy, seed)`` tuples — that the
seed code executed strictly sequentially.  This module takes the grid
as data (:class:`~repro.core.scenario.ScenarioSpec` values), fans it
out over a process pool, and memoizes every completed run's whole
outcome on disk keyed by the scenario's content hash, so re-running
an unchanged figure simulates nothing.

The runner serves three kinds of cell through one walk (cache lookup,
in-grid dedup, execution, :class:`RunnerStats`):

* a *scenario* cell — a :class:`ScenarioSpec`, keyed by its
  fingerprint;
* a *baseline* cell — the reference run a tuning scenario's control
  names (:meth:`~repro.core.scenario.ControlSpec.baseline_spec`).  The
  runner derives it from each tuning cell that missed the cache, runs
  it first (shared by every tuning of the same setup in the grid), and
  passes its result down to that cell's run;
* an *analytic* cell — an :class:`AnalyticCell`, a module-qualified
  pure function plus JSON parameters, keyed in a namespace of its own
  and cached as its JSON value.

Determinism is structural, not incidental: each run owns a complete
scenario (including its seed), every worker builds its system
from scratch, and results are reassembled in submission order.  A
``--jobs N`` run is therefore bit-identical to the sequential one for
any ``N``, and identical cells within one grid execute only once.

The module keeps one process-wide *active runner* that the figure
functions submit their grids to (see :func:`run_grid`,
:func:`run_grid_outcomes` and :func:`run_analytic`); the CLI
installs a configured runner from ``--jobs`` / ``--cache-dir``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib
import json
import os
import tempfile
import time
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.scenario import (
    DEFAULT_SEED,
    ScenarioOutcome,
    ScenarioSpec,
    execute_scenario,
)
from repro.core.system import RunResult

__all__ = [
    "DEFAULT_SEED", "OUTCOME_SCHEMA", "AnalyticCell", "execute_spec",
    "ResultCache", "ParallelRunner", "RunnerStats", "run_grid",
    "run_grid_outcomes", "run_analytic", "get_runner", "set_runner",
    "configure", "using_runner",
]

#: Layout version of the whole-outcome cache entries.  Bump it when
#: :meth:`ScenarioOutcome.to_json_dict` changes shape: entries of any
#: other version are then misses for :meth:`ParallelRunner.run_outcomes`.
OUTCOME_SCHEMA = 1


@dataclasses.dataclass(frozen=True)
class AnalyticCell:
    """A pure function of JSON parameters, run and cached like a scenario.

    ``function`` names it as ``"package.module:name"``; it is called
    with ``params`` as keyword arguments and returns a JSON value other
    than null (what a cache hit serves back).
    """

    function: str
    params: Dict[str, Any]

    def fingerprint(self) -> str:
        """The cache key: a hash of the function name and parameters,
        prefixed so it never equals a scenario fingerprint."""
        blob = json.dumps(
            {"function": self.function, "params": self.params},
            sort_keys=True, separators=(",", ":"),
        )
        return "analytic-" + hashlib.sha256(blob.encode()).hexdigest()

    def evaluate(self) -> Any:
        """Import the function and call it with the parameters."""
        module, _, name = self.function.partition(":")
        return getattr(importlib.import_module(module), name)(**self.params)


Cell = Union[ScenarioSpec, AnalyticCell]


def execute_spec(
    spec: ScenarioSpec, baseline: Optional[RunResult] = None
) -> ScenarioOutcome:
    """Run one spec to completion (``baseline``: see
    :func:`~repro.core.scenario.run_scenario`)."""
    return execute_scenario(spec, baseline)


def _evaluate(cell: Cell, baseline: Optional[RunResult] = None) -> Any:
    """Run one cell of either kind (also the process-pool worker)."""
    if isinstance(cell, AnalyticCell):
        return cell.evaluate()
    return execute_spec(cell, baseline)


class ResultCache:
    """Content-addressed on-disk cache of scenario outcome JSON.

    Layout: ``<cache_dir>/<hh>/<fingerprint>.json`` where ``hh`` is the
    first two hex digits of the fingerprint (keeps directories small on
    full-paper sweeps).  An entry is the run's
    :meth:`ScenarioOutcome.to_json_dict` plus its :data:`OUTCOME_SCHEMA`
    version, or, when stored from a bare :class:`RunResult`, just the
    spec and the result.  Either way ``payload["result"]`` is the
    :class:`RunResult`.  An analytic cell's entry (under
    ``<cache_dir>/an/``) is the cell plus its ``value``.  Writes are
    atomic (temp file + rename) so concurrent runners never observe
    torn entries.
    """

    def __init__(self, cache_dir: str):
        self.cache_dir = cache_dir

    def _path(self, key: str) -> str:
        return os.path.join(self.cache_dir, key[:2], f"{key}.json")

    def load(self, key: str, spec: Optional[Cell] = None) -> Any:
        """The cached run for ``key``, or None on miss/corruption.

        Without ``spec`` this is the entry's :class:`RunResult`.  With
        the spec it is the whole :class:`ScenarioOutcome`, which only
        an entry stored from an outcome under the current
        :data:`OUTCOME_SCHEMA` holds.  For an :class:`AnalyticCell` it
        is the cell's value.
        """
        try:
            with open(self._path(key), "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            if isinstance(spec, AnalyticCell):
                return payload["value"]
            if spec is None:
                return RunResult.from_json_dict(payload["result"])
            if payload.get("schema") != OUTCOME_SCHEMA:
                return None
            return ScenarioOutcome.from_json_dict(payload, spec)
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def store(self, key: str, spec: Cell, run: Any) -> None:
        """Atomically persist one run (a whole outcome or just its
        result, or an analytic cell's value) under its key."""
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        if isinstance(spec, AnalyticCell):
            payload = {**dataclasses.asdict(spec), "value": run}
        elif isinstance(run, ScenarioOutcome):
            payload = {**run.to_json_dict(), "schema": OUTCOME_SCHEMA}
        else:
            payload = {"spec": spec.to_json_dict(), "result": run.to_json_dict()}
        payload["key"] = key
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise


def _as_served(cell: Cell, value: Any) -> Any:
    """A fresh cell's value exactly as a cache hit serves it.

    A fresh run is decoded from the same sorted JSON a cache entry
    holds, so cold, warm and ``--jobs N`` runs hand figures identical
    values (tuples and lists, key order, numeric types).
    """
    if isinstance(cell, AnalyticCell):
        return json.loads(json.dumps(value, sort_keys=True))
    text = json.dumps(value.to_json_dict(), sort_keys=True)
    return ScenarioOutcome.from_json_dict(json.loads(text), value.spec)


@dataclasses.dataclass
class RunnerStats:
    """Counters from one grid submitted to a :class:`ParallelRunner` (or a
    running total).

    The first four count the cells the caller submitted; the baseline
    cells the runner derived from them are counted apart, so a warm
    grid's ``cache_hits`` equals its cold ``executed + cache_hits``.
    """

    submitted: int = 0
    cache_hits: int = 0
    executed: int = 0
    deduplicated: int = 0
    #: Baseline cells served from the cache / run (each distinct once).
    baseline_hits: int = 0
    baseline_runs: int = 0
    elapsed_s: float = 0.0

    @property
    def cached(self) -> int:
        """Cells served from the cache, baseline cells included."""
        return self.cache_hits + self.baseline_hits

    @property
    def simulated(self) -> int:
        """Cells run (simulated or evaluated), baseline cells included."""
        return self.executed + self.baseline_runs

    def as_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    def accumulate(self, other: "RunnerStats") -> None:
        """Add another call's counters into this running total."""
        for field in dataclasses.fields(self):
            setattr(self, field.name, getattr(self, field.name) + getattr(other, field.name))

    def since(self, earlier: "RunnerStats") -> "RunnerStats":
        """The counter delta between two snapshots of a running total."""
        return RunnerStats(**{
            field.name: getattr(self, field.name) - getattr(earlier, field.name)
            for field in dataclasses.fields(self)
        })


class ParallelRunner:
    """Executes grids of cells over a worker pool, with caching.

    ``jobs=1`` runs inline in this process (no pool overhead, still
    cached); ``jobs=N`` fans distinct uncached cells out over
    ``N`` worker processes.  Results always come back in submission
    order, and duplicate cells within a grid are executed once.
    """

    def __init__(self, jobs: int = 1, cache_dir: Optional[str] = None):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs!r}")
        self.jobs = jobs
        self.cache = ResultCache(cache_dir) if cache_dir else None
        #: Counters from the most recent grid (:meth:`run`,
        #: :meth:`run_outcomes` or :meth:`run_analytic`).
        self.stats = RunnerStats()
        #: Running totals across every grid this runner ran.
        self.totals = RunnerStats()

    def run(self, specs: Sequence[ScenarioSpec]) -> List[RunResult]:
        """Run a grid; the i-th result belongs to the i-th spec.

        Served from any cache entry, including one stored from a bare
        :class:`RunResult`; a fresh run is :meth:`run_outcomes`'
        outcome projected onto its ``result``.
        """
        return self._run(specs, whole=False)

    def run_outcomes(self, specs: Sequence[ScenarioSpec]) -> List[ScenarioOutcome]:
        """Run a grid; the i-th whole :class:`ScenarioOutcome` belongs to
        the i-th spec.

        Only entries holding a whole outcome are hits; a miss simulates
        and (re)writes the entry.
        """
        return self._run(specs, whole=True)

    def run_analytic(self, cells: Sequence[AnalyticCell]) -> List[Any]:
        """Evaluate analytic cells; the i-th value belongs to the i-th cell."""
        return self._run(cells, whole=True)

    def _run(self, cells: Sequence[Cell], whole: bool) -> list:
        start = time.perf_counter()
        stats = RunnerStats()
        values = self._walk(cells, whole, stats)
        stats.elapsed_s = time.perf_counter() - start
        self.stats = stats
        self.totals.accumulate(stats)
        return values

    def _walk(self, cells: Sequence[Cell], whole: bool, stats: RunnerStats) -> list:
        stats.submitted += len(cells)
        keys = [cell.fingerprint() for cell in cells]
        served: Dict[str, Any] = {}
        pending: Dict[str, Cell] = {}
        for key, cell in zip(keys, cells):
            if key in served or key in pending:
                stats.deduplicated += 1
                continue
            cached = (
                self.cache.load(key, cell if whole else None) if self.cache else None
            )
            if cached is not None:
                stats.cache_hits += 1
                served[key] = cached
            else:
                pending[key] = cell

        # a cell whose control measures against a baseline run gets
        # that run's result; the baselines of the cells that missed
        # run first, as cells of their own
        twins = {}
        for key, cell in pending.items():
            if isinstance(cell, ScenarioSpec):
                twin = cell.control.baseline_spec(cell)
                if twin is not None:
                    twins[key] = twin
        baselines = {}
        if twins:
            twin_stats = RunnerStats()
            baselines = dict(zip(twins, self._walk(list(twins.values()), False, twin_stats)))
            stats.baseline_hits += twin_stats.cache_hits
            stats.baseline_runs += twin_stats.executed

        stats.executed += len(pending)
        for key, value in self._execute(pending, baselines):
            served[key] = value if whole else value.result
        return [served[key] for key in keys]

    def _execute(
        self, pending: Dict[str, Cell], baselines: Dict[str, RunResult]
    ) -> Iterator[Tuple[str, Any]]:
        if not pending:
            return
        if self.jobs == 1 or len(pending) == 1:
            for key, cell in pending.items():
                yield key, self._finish(key, cell, _evaluate(cell, baselines.get(key)))
            return
        # only a grid that fans out loads the pool machinery, so a warm
        # run's startup does not pay for it
        import concurrent.futures

        workers = min(self.jobs, len(pending))
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(_evaluate, cell, baselines.get(key)): (key, cell)
                for key, cell in pending.items()
            }
            for future in concurrent.futures.as_completed(futures):
                key, cell = futures[future]
                yield key, self._finish(key, cell, future.result())

    def _finish(self, key: str, cell: Cell, value: Any) -> Any:
        if self.cache:
            self.cache.store(key, cell, value)
        return _as_served(cell, value)


# -- process-wide active runner ---------------------------------------------

_active_runner: ParallelRunner = ParallelRunner(jobs=1)


def get_runner() -> ParallelRunner:
    """The runner figure grids are currently submitted to."""
    return _active_runner


def set_runner(runner: ParallelRunner) -> ParallelRunner:
    """Install ``runner`` as the active runner; returns the previous one."""
    global _active_runner
    previous = _active_runner
    _active_runner = runner
    return previous


def configure(jobs: int = 1, cache_dir: Optional[str] = None) -> ParallelRunner:
    """Build and install a runner (the CLI's ``--jobs/--cache-dir`` hook)."""
    runner = ParallelRunner(jobs=jobs, cache_dir=cache_dir)
    set_runner(runner)
    return runner


@contextlib.contextmanager
def using_runner(runner: ParallelRunner) -> Iterator[ParallelRunner]:
    """Temporarily make ``runner`` the active runner."""
    previous = set_runner(runner)
    try:
        yield runner
    finally:
        set_runner(previous)


def run_grid(specs: Sequence[ScenarioSpec]) -> List[RunResult]:
    """Submit a grid to the active runner (what every figure calls)."""
    return get_runner().run(list(specs))


def run_grid_outcomes(specs: Sequence[ScenarioSpec]) -> List[ScenarioOutcome]:
    """Submit a grid to the active runner for whole outcomes (figures
    that read control reports, timelines, percentiles, fault,
    resilience, shard-health or 2PC blocks)."""
    return get_runner().run_outcomes(list(specs))


def run_analytic(cells: Sequence[AnalyticCell]) -> List[Any]:
    """Submit analytic cells to the active runner (figure 10, the C²
    table)."""
    return get_runner().run_analytic(list(cells))
