"""Parallel experiment execution with a content-addressed result cache.

Every figure reproduction reduces to a *grid* of independent
simulation runs — ``(setup, MPL, policy, seed)`` tuples — that the
seed code executed strictly sequentially.  This module takes the grid
as data (:class:`~repro.core.scenario.ScenarioSpec` values), fans it
out over a process pool, and memoizes every completed run's whole
outcome on disk keyed by the scenario's content hash, so re-running
an unchanged figure simulates nothing.

Determinism is structural, not incidental: each run owns a complete
scenario (including its seed), every worker builds its system
from scratch, and results are reassembled in submission order.  A
``--jobs N`` run is therefore bit-identical to the sequential one for
any ``N``, and identical specs within one grid execute only once.

The module keeps one process-wide *active runner* that the figure
functions submit their grids to (see :func:`run_grid` and
:func:`run_grid_outcomes`); the CLI
installs a configured runner from ``--jobs`` / ``--cache-dir``.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import dataclasses
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
    "DEFAULT_SEED", "OUTCOME_SCHEMA", "execute_spec", "ResultCache",
    "ParallelRunner", "RunnerStats", "run_grid", "run_grid_outcomes",
    "get_runner", "set_runner", "configure", "using_runner",
]

#: Layout version of the whole-outcome cache entries.  Bump it when
#: :meth:`ScenarioOutcome.to_json_dict` changes shape: entries of any
#: other version are then misses for :meth:`ParallelRunner.run_outcomes`.
OUTCOME_SCHEMA = 1


def execute_spec(spec: ScenarioSpec) -> ScenarioOutcome:
    """Run one spec to completion (also the process-pool worker)."""
    return execute_scenario(spec)


class ResultCache:
    """Content-addressed on-disk cache of scenario outcome JSON.

    Layout: ``<cache_dir>/<hh>/<fingerprint>.json`` where ``hh`` is the
    first two hex digits of the fingerprint (keeps directories small on
    full-paper sweeps).  An entry is the run's
    :meth:`ScenarioOutcome.to_json_dict` plus its :data:`OUTCOME_SCHEMA`
    version, or, when stored from a bare :class:`RunResult`, just the
    spec and the result.  Either way ``payload["result"]`` is the
    :class:`RunResult`.  Writes are atomic (temp file + rename) so
    concurrent runners never observe torn entries.
    """

    def __init__(self, cache_dir: str):
        self.cache_dir = cache_dir

    def _path(self, key: str) -> str:
        return os.path.join(self.cache_dir, key[:2], f"{key}.json")

    def load(
        self, key: str, spec: Optional[ScenarioSpec] = None
    ) -> Union[RunResult, ScenarioOutcome, None]:
        """The cached run for ``key``, or None on miss/corruption.

        Without ``spec`` this is the entry's :class:`RunResult`.  With
        the spec it is the whole :class:`ScenarioOutcome`, which only
        an entry stored from an outcome under the current
        :data:`OUTCOME_SCHEMA` holds.
        """
        try:
            with open(self._path(key), "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            if spec is None:
                return RunResult.from_json_dict(payload["result"])
            if payload.get("schema") != OUTCOME_SCHEMA:
                return None
            return ScenarioOutcome.from_json_dict(payload, spec)
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def store(
        self, key: str, spec: ScenarioSpec, run: Union[RunResult, ScenarioOutcome]
    ) -> None:
        """Atomically persist one run (a whole outcome or just its
        result) under its fingerprint."""
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        if isinstance(run, ScenarioOutcome):
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


def _as_served(outcome: ScenarioOutcome) -> ScenarioOutcome:
    """``outcome`` exactly as a cache hit serves it.

    A fresh run is decoded from the same sorted JSON a cache entry
    holds, so cold, warm and ``--jobs N`` runs hand figures identical
    values (tuples and lists, key order, numeric types).
    """
    text = json.dumps(outcome.to_json_dict(), sort_keys=True)
    return ScenarioOutcome.from_json_dict(json.loads(text), outcome.spec)


@dataclasses.dataclass
class RunnerStats:
    """Counters from one grid submitted to a :class:`ParallelRunner` (or a
    running total)."""

    submitted: int = 0
    cache_hits: int = 0
    executed: int = 0
    deduplicated: int = 0
    elapsed_s: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    def accumulate(self, other: "RunnerStats") -> None:
        """Add another call's counters into this running total."""
        self.submitted += other.submitted
        self.cache_hits += other.cache_hits
        self.executed += other.executed
        self.deduplicated += other.deduplicated
        self.elapsed_s += other.elapsed_s

    def since(self, earlier: "RunnerStats") -> "RunnerStats":
        """The counter delta between two snapshots of a running total."""
        return RunnerStats(
            submitted=self.submitted - earlier.submitted,
            cache_hits=self.cache_hits - earlier.cache_hits,
            executed=self.executed - earlier.executed,
            deduplicated=self.deduplicated - earlier.deduplicated,
            elapsed_s=self.elapsed_s - earlier.elapsed_s,
        )


class ParallelRunner:
    """Executes :class:`ScenarioSpec` grids over a worker pool, with caching.

    ``jobs=1`` runs inline in this process (no pool overhead, still
    cached); ``jobs=N`` fans distinct uncached specs out over
    ``N`` worker processes.  Results always come back in submission
    order, and duplicate specs within a grid are executed once.
    """

    def __init__(self, jobs: int = 1, cache_dir: Optional[str] = None):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs!r}")
        self.jobs = jobs
        self.cache = ResultCache(cache_dir) if cache_dir else None
        #: Counters from the most recent grid (:meth:`run` or
        #: :meth:`run_outcomes`).
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

    def _run(self, specs: Sequence[ScenarioSpec], whole: bool) -> list:
        start = time.perf_counter()
        stats = RunnerStats(submitted=len(specs))
        keys = [spec.fingerprint() for spec in specs]
        served: Dict[str, Any] = {}
        pending: List[Tuple[str, ScenarioSpec]] = []
        seen: set = set()
        for key, spec in zip(keys, specs):
            if key in seen:
                stats.deduplicated += 1
                continue
            seen.add(key)
            cached = (
                self.cache.load(key, spec if whole else None) if self.cache else None
            )
            if cached is not None:
                stats.cache_hits += 1
                served[key] = cached
            else:
                pending.append((key, spec))

        stats.executed = len(pending)
        for key, outcome in self._execute(pending):
            served[key] = outcome if whole else outcome.result

        stats.elapsed_s = time.perf_counter() - start
        self.stats = stats
        self.totals.accumulate(stats)
        return [served[key] for key in keys]

    def _execute(
        self, pending: List[Tuple[str, ScenarioSpec]]
    ) -> Iterator[Tuple[str, ScenarioOutcome]]:
        if not pending:
            return
        if self.jobs == 1 or len(pending) == 1:
            for key, spec in pending:
                yield key, self._finish(key, spec, execute_spec(spec))
            return
        workers = min(self.jobs, len(pending))
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(execute_spec, spec): (key, spec) for key, spec in pending
            }
            for future in concurrent.futures.as_completed(futures):
                key, spec = futures[future]
                yield key, self._finish(key, spec, future.result())

    def _finish(
        self, key: str, spec: ScenarioSpec, outcome: ScenarioOutcome
    ) -> ScenarioOutcome:
        if self.cache:
            self.cache.store(key, spec, outcome)
        return _as_served(outcome)


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
