"""The runnable single-engine system and the measurement loop.

:class:`SimulatedSystem` wires a workload source, the external
scheduling front-end, and the DBMS engine into one simulation, and
:class:`MeasuredSystem` provides the measurement loop every experiment
uses: run until N transactions complete, discard a warmup prefix,
report throughput / response times / utilizations as a
:class:`~repro.core.system.RunResult`.  The configs and results
themselves are data in :mod:`repro.core.system`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.frontend import ExternalScheduler
from repro.core.policies import make_policy
from repro.core.sources import ArrivalProcess
from repro.core.system import RunResult, SystemConfig
from repro.dbms.engine import DatabaseEngine
from repro.metrics import stats
from repro.metrics.collector import MetricsCollector, TransactionRecord
from repro.sim.engine import SimulationError, Simulator
from repro.sim.random import RandomStreams


def build_engine_stack(
    sim: Simulator, config: SystemConfig, collector: MetricsCollector
) -> "tuple[RandomStreams, DatabaseEngine, ExternalScheduler]":
    """Wire one engine + MPL front-end from ``config``.

    The single construction path shared by :class:`SimulatedSystem`
    and every shard of :class:`~repro.core.cluster.ClusteredSystem` —
    which is what keeps the 1-shard cluster bit-identical to the plain
    engine when :class:`SystemConfig` grows new fields.
    """
    streams = RandomStreams(config.seed)
    engine = DatabaseEngine(
        sim,
        config.hardware,
        db_pages=config.workload.db_pages,
        streams=streams,
        isolation=config.isolation,
        internal=config.internal,
        hot_access_fraction=config.workload.hot_access_fraction,
        hot_page_fraction=config.workload.hot_page_fraction,
    )
    frontend = ExternalScheduler(
        sim,
        engine,
        mpl=config.mpl,
        policy=make_policy(config.policy),
        collector=collector,
    )
    return streams, engine, frontend


def advance_until(
    sim: Simulator, collector: MetricsCollector, target: int,
    what: str = "the completion target",
) -> None:
    """Run ``sim`` until ``collector`` holds ``target`` completion records.

    The shared measurement window of every topology (system-wide and
    per-shard).  The count condition is handed to the kernel as a
    :class:`~repro.sim.engine.KernelHooks` (built by the collector), so
    the drain loop checks it inline instead of an outer Python loop
    stepping one event at a time.  Raises :class:`SimulationError` if
    the agenda drains first, so callers can treat a drained simulation
    uniformly.
    """
    sim.run(hooks=collector.completion_hooks(target))
    if len(collector.records) < target:
        raise SimulationError(f"simulation drained before reaching {what}")


class MeasuredSystem:
    """The measurement loop shared by every runnable system topology.

    Subclasses (:class:`SimulatedSystem`, the sharded
    :class:`~repro.core.cluster.ClusteredSystem`) wire their own
    sources and engines but expose the same surface: ``sim`` (the
    kernel), ``collector`` (the system-wide completion stream, in
    completion order), ``source`` (the arrival process), plus the two
    topology hooks ``_result_mpl`` and ``_utilization_snapshot``.
    Everything the experiments call — ``run_transactions`` /
    ``run`` / ``result`` — lives here once.
    """

    sim: Simulator
    collector: MetricsCollector
    source: ArrivalProcess

    # -- measurement loop ----------------------------------------------------

    def run_transactions(self, count: int) -> List[TransactionRecord]:
        """Advance the simulation until ``count`` more completions.

        Returns the records of exactly that window (in completion
        order).  Used directly by the feedback controller's
        observation periods.
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count!r}")
        self.source.start()
        records = self.collector.records  # appended-to in place, identity stable
        start_index = len(records)
        target = start_index + count
        advance_until(self.sim, self.collector, target)
        return records[start_index:target]

    def run(self, transactions: int = 2000, warmup_fraction: float = 0.2) -> RunResult:
        """Run until ``transactions`` complete; report post-warmup stats."""
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError(
                f"warmup_fraction must be in [0, 1), got {warmup_fraction!r}"
            )
        self.run_transactions(transactions)
        warmup = int(len(self.collector.records) * warmup_fraction)
        return self.result(warmup=warmup)

    def measure_window(
        self, transactions: int, warmup_fraction: float = 0.2
    ) -> RunResult:
        """Run ``transactions`` more completions; report only that window.

        The measurement phase of a scenario whose control phase already
        consumed completions (feedback tuning): everything recorded
        before the call — plus the window's own warmup prefix — is
        excluded from the reported statistics.
        """
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError(
                f"warmup_fraction must be in [0, 1), got {warmup_fraction!r}"
            )
        start = len(self.collector.records)
        self.run_transactions(transactions)
        return self.result(warmup=start + int(transactions * warmup_fraction))

    def result(self, warmup: int = 0) -> RunResult:
        """Build a :class:`RunResult` from everything measured so far."""
        records = self.collector.completed(warmup)
        by_class: Dict[int, List[float]] = {}
        for record in records:
            by_class.setdefault(record.priority, []).append(record.response_time)
        elapsed = self.sim.now if self.sim.now > 0 else 1.0
        return RunResult(
            mpl=self._result_mpl(),
            completed=len(records),
            sim_time=self.sim.now,
            throughput=self.collector.throughput(warmup),
            mean_response_time=self.collector.mean_response_time(warmup),
            response_time_by_class={
                prio: stats.mean(times) for prio, times in by_class.items()
            },
            count_by_class={prio: len(times) for prio, times in by_class.items()},
            response_time_scv=self.collector.response_time_scv(warmup),
            utilizations=self._utilization_snapshot(elapsed),
            restart_rate=self.collector.restart_rate(warmup),
            mean_external_wait=stats.mean([r.external_wait for r in records]),
            mean_lock_wait=stats.mean([r.lock_wait_time for r in records]),
        )

    # -- topology hooks ------------------------------------------------------

    def _result_mpl(self) -> Optional[int]:
        """The MPL reported in results (a cluster reports its global MPL)."""
        raise NotImplementedError

    def _utilization_snapshot(self, elapsed: float) -> Dict[str, float]:
        """Per-station utilizations over ``elapsed`` seconds."""
        raise NotImplementedError


class SimulatedSystem(MeasuredSystem):
    """A fully wired simulation: source → external queue → DBMS."""

    def __init__(self, config: SystemConfig):
        self.config = config
        self.sim = Simulator()
        self.collector = MetricsCollector()
        #: The installed resilience runtime (scenario-driven; None keeps
        #: the legacy behavior).
        self.resilience = None
        self.streams, self.engine, self.frontend = build_engine_stack(
            self.sim, config, self.collector
        )
        self.source: ArrivalProcess = config.arrival_spec().build(
            self.sim,
            self.frontend,
            config.workload,
            self.streams,
            priority_assigner=config.priority_assigner(),
        )

    # -- topology hooks ------------------------------------------------------

    def _result_mpl(self) -> Optional[int]:
        return self.frontend.mpl

    def _utilization_snapshot(self, elapsed: float) -> Dict[str, float]:
        return self.engine.utilization_snapshot(elapsed)
