"""Per-transaction measurement records.

Every transaction that completes in a :class:`~repro.core.simulation.
SimulatedSystem` leaves a :class:`TransactionRecord` here.  The
experiment runners use the collector to compute throughput, per-class
mean response times, and the C² statistics of §3.2 — always after
discarding a warmup prefix, the same methodology as the paper's
measurement intervals.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from repro.dbms.transaction import Transaction
from repro.metrics import stats
from repro.sim.engine import KernelHooks


class TransactionRecord(NamedTuple):
    """Immutable snapshot of one completed transaction.

    A named tuple rather than a frozen dataclass: records are minted
    once per completion on the kernel's measurement path, and tuple
    construction skips the per-field ``object.__setattr__`` a frozen
    dataclass pays.
    """

    tid: int
    type_name: str
    priority: int
    arrival_time: float
    dispatch_time: float
    completion_time: float
    restarts: int
    lock_wait_time: float

    @property
    def response_time(self) -> float:
        """Arrival to completion, including external queueing."""
        return self.completion_time - self.arrival_time

    @property
    def execution_time(self) -> float:
        """Dispatch to completion (inside the DBMS)."""
        return self.completion_time - self.dispatch_time

    @property
    def external_wait(self) -> float:
        """Time spent in the external queue."""
        return self.dispatch_time - self.arrival_time


class MetricsCollector:
    """Accumulates completed-transaction records during a run."""

    def __init__(self):
        self.records: List[TransactionRecord] = []
        self.arrivals = 0

    def on_arrival(self, tx: Transaction) -> None:
        """Count an arrival (used for load-representativeness checks)."""
        self.arrivals += 1

    def on_completion(self, tx: Transaction) -> None:
        """Record a completed transaction."""
        if tx.completion_time is None or tx.dispatch_time is None:
            raise ValueError(f"transaction {tx.tid} has not completed")
        self.records.append(
            TransactionRecord(
                tid=tx.tid,
                type_name=tx.type_name,
                priority=tx.priority,
                arrival_time=tx.arrival_time,
                dispatch_time=tx.dispatch_time,
                completion_time=tx.completion_time,
                restarts=tx.restarts,
                lock_wait_time=tx.lock_wait_time,
            )
        )

    def completion_hooks(self, target: int) -> KernelHooks:
        """Kernel stop condition: run until ``target`` total completions.

        Handing this to :meth:`~repro.sim.engine.Simulator.run` makes
        the kernel poll the record count inline after each event — the
        completion-counting half of the measurement loop lives in the
        kernel, not in a per-event Python loop out here.
        """
        return KernelHooks(self.records, target)

    # -- selection -----------------------------------------------------------

    def completed(self, warmup: int = 0) -> List[TransactionRecord]:
        """Records after dropping the first ``warmup`` completions."""
        if warmup < 0:
            raise ValueError(f"warmup must be non-negative, got {warmup!r}")
        return self.records[warmup:]

    # -- aggregate statistics ---------------------------------------------------

    def throughput(self, warmup: int = 0) -> float:
        """Completions per unit time over the post-warmup interval."""
        records = self.completed(warmup)
        if len(records) < 2:
            return 0.0
        start = records[0].completion_time
        end = records[-1].completion_time
        if end <= start:
            return 0.0
        return (len(records) - 1) / (end - start)

    def mean_response_time(
        self, warmup: int = 0, priority: Optional[int] = None
    ) -> float:
        """Mean response time, optionally restricted to one class."""
        records = self.completed(warmup)
        if priority is not None:
            records = [r for r in records if r.priority == priority]
        return stats.mean([r.response_time for r in records])

    def response_time_scv(self, warmup: int = 0) -> float:
        """C² of post-warmup response times."""
        return stats.scv([r.response_time for r in self.completed(warmup)])

    def restart_rate(self, warmup: int = 0) -> float:
        """Mean restarts (deadlock/preemption retries) per transaction."""
        records = self.completed(warmup)
        if not records:
            return 0.0
        return sum(r.restarts for r in records) / len(records)
