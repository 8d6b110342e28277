"""The simulated DBMS: executes transactions against the hardware model.

A transaction's life inside the engine mirrors the paper's systems:

1. Its logical page touches are filtered through the buffer pool; the
   misses become physical reads striped across the data disks.
2. Its CPU demand is spread across segments interleaved with those
   reads (compute a little, fault a page, compute more, ...), all
   served by the weighted processor-sharing CPU pool.
3. Its lock requests are acquired incrementally (strict 2PL) at the
   segment boundaries where the data is first touched; under
   Uncommitted Read isolation shared locks are skipped entirely.
4. At commit an update transaction forces the WAL and all locks are
   released.

Deadlock victims and POW-preempted transactions are rolled back,
backed off, and restarted — the engine owns that loop, the caller just
sees a longer execution.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro.dbms.bufferpool import AnalyticBufferPool
from repro.dbms.config import HardwareConfig, InternalPolicy, IsolationLevel
from repro.dbms.cpu import ProcessorSharingPool
from repro.dbms.disk import DiskArray
from repro.dbms.lockmgr import DeadlockError, LockManager, PreemptionError
from repro.dbms.transaction import Transaction, TxStatus
from repro.dbms.wal import LogManager
from repro.sim.distributions import Exponential, LogNormal
from repro.sim.engine import Interrupt, Process, Simulator
from repro.sim.random import RandomStreams
from repro.sim.station import Station

#: Mean of the exponential backoff (seconds) before a deadlock or
#: preemption victim restarts.
RESTART_BACKOFF = 0.010


class DeadlineExceeded(Exception):
    """Interrupt cause: the external deadline expired mid-execution.

    Unlike a deadlock or a POW preemption — which the engine retries
    internally — a deadline abort is terminal: locks are released, the
    transaction leaves the engine ABORTED, and the resilience layer
    above decides whether it re-enters the external queue.
    """


class DatabaseEngine:
    """The DBMS back end the external scheduler dispatches into.

    Parameters
    ----------
    sim:
        The shared simulation kernel.
    hardware:
        CPU / disk / memory configuration.
    db_pages:
        Database size in pages (with ``hardware.cache_pages`` this
        determines the buffer-pool hit probability).
    streams:
        Seeded random streams.
    isolation:
        Repeatable Read (readers lock) or Uncommitted Read.
    internal:
        Internal-scheduling policy (lock queues, CPU weights).
    """

    def __init__(
        self,
        sim: Simulator,
        hardware: HardwareConfig,
        db_pages: int,
        streams: RandomStreams,
        isolation: IsolationLevel = IsolationLevel.RR,
        internal: Optional[InternalPolicy] = None,
        hot_access_fraction: float = 0.8,
        hot_page_fraction: float = 0.2,
    ):
        self.sim = sim
        self.hardware = hardware
        self.isolation = isolation
        self.internal = internal or InternalPolicy.stock()

        second = 1.0 / 1000.0  # configs speak milliseconds; the clock runs seconds
        disk_service = LogNormal(
            hardware.disk_service_mean_ms * second,
            hardware.disk_service_scv,
        )
        log_write = Exponential(hardware.log_write_mean_ms * second)

        self.cpu = ProcessorSharingPool(sim, hardware.num_cpus, hardware.cpu_speed)
        self.disks = DiskArray(
            sim, hardware.num_disks, disk_service, streams.stream("disk")
        )
        self.log = LogManager(
            sim, log_write, streams.stream("log"), group_commit=hardware.group_commit
        )
        self.bufferpool = AnalyticBufferPool(
            db_pages,
            hardware.cache_pages,
            hot_access_fraction=hot_access_fraction,
            hot_page_fraction=hot_page_fraction,
        )
        self.lockmgr = LockManager(
            sim, self.internal.lock_scheduling, preempt=self._preempt
        )
        #: Every resource the engine composes, by station name (the
        #: utilization and per-class snapshots walk this).
        self.stations: Dict[str, Station] = {
            station.name: station
            for station in (self.cpu, self.disks, self.log, self.lockmgr)
        }
        self._rng: random.Random = streams.stream("engine")
        self._active: Dict[int, Process] = {}
        self.committed = 0
        self.restarts = 0
        #: The installed 2PC coordinator (None outside distributed
        #: scenarios — the default commit path is untouched).
        self.two_phase = None

    # -- public API --------------------------------------------------------

    def execute(self, tx: Transaction) -> Process:
        """Run ``tx`` to commit; the returned process fires with ``tx``.

        Deadlocks and POW preemptions are retried internally, so the
        process only ever completes successfully.
        """
        process = self.sim.process(self._run(tx), name=f"tx{tx.tid}")
        self._active[tx.tid] = process
        return process

    @property
    def in_flight(self) -> int:
        """Transactions currently executing inside the engine."""
        return len(self._active)

    def abort(self, tx: Transaction) -> bool:
        """Abort a running transaction (external deadline expiry).

        Returns False when the transaction is not executing here —
        already committed, or its process finished this same instant
        (the completion callback then resolves it as a commit).
        """
        process = self._active.get(tx.tid)
        if process is None or not process.is_alive:
            return False
        if process.interrupt_pending:
            # a racing tear-down (2PC prepare timeout vs resilience
            # deadline at one instant) already threw; a second throw
            # would land after the generator finished
            return False
        if self.two_phase is not None and self.two_phase.commit_pinned(tx):
            # every participant prepared and the decision is commit:
            # no external deadline may half-abort the atom
            return False
        process.interrupt(DeadlineExceeded(f"tx {tx.tid} deadline expired"))
        return True

    def abort_pending(self, tx: Transaction) -> bool:
        """Whether ``tx`` has an interrupt thrown but not yet landed.

        The 2PC coordinator consults this at the prepare point: a
        branch whose tear-down is already in flight must not vote (the
        interrupt would land *after* a commit decision and half-abort
        the atom).
        """
        process = self._active.get(tx.tid)
        return process is not None and process.interrupt_pending

    @property
    def disk_service_mean(self) -> float:
        """Mean physical-read time in seconds (for demand estimates)."""
        return self.hardware.disk_service_mean_ms / 1000.0

    @property
    def miss_probability(self) -> float:
        """Probability a page touch becomes a physical read."""
        return 1.0 - self.bufferpool.hit_probability

    def utilization_snapshot(self, elapsed: float) -> Dict[str, float]:
        """Per-server-station utilizations over ``elapsed`` seconds."""
        return {
            name: station.utilization(elapsed)
            for name, station in self.stations.items()
            if station.is_server
        }

    def class_stats_snapshot(self) -> Dict[str, Dict[int, Dict[str, float]]]:
        """Per-station, per-priority-class counters."""
        return {
            name: {
                priority: stats.as_dict()
                for priority, stats in station.class_stats().items()
            }
            for name, station in self.stations.items()
        }

    # -- transaction body ----------------------------------------------------

    def _run(self, tx: Transaction):
        tx.dispatch_time = self.sim.now
        tx.status = TxStatus.RUNNING
        while True:
            try:
                yield from self._attempt(tx)
            except (DeadlockError, Interrupt) as exc:
                cause = exc.cause if isinstance(exc, Interrupt) else None
                if isinstance(cause, DeadlineExceeded):
                    # terminal: release everything and leave ABORTED —
                    # the resilience layer owns any retry
                    self.lockmgr.abort(tx)
                    tx.status = TxStatus.ABORTED
                    tx.completion_time = self.sim.now
                    self._active.pop(tx.tid, None)
                    return tx
                self.lockmgr.abort(tx)
                tx.restarts += 1
                self.restarts += 1
                backoff = self._rng.expovariate(1.0 / RESTART_BACKOFF)
                try:
                    yield self.sim.timeout(backoff)
                except Interrupt as late:
                    # a deadline can also expire during the restart
                    # backoff sleep, where no locks are held
                    if isinstance(late.cause, DeadlineExceeded):
                        tx.status = TxStatus.ABORTED
                        tx.completion_time = self.sim.now
                        self._active.pop(tx.tid, None)
                        return tx
                    raise
                continue
            tx.status = TxStatus.COMMITTED
            tx.completion_time = self.sim.now
            self.committed += 1
            self._active.pop(tx.tid, None)
            return tx

    def _attempt(self, tx: Transaction):
        locks = self._effective_locks(tx)
        misses = self.bufferpool.sample_misses(self._rng, tx.page_accesses)
        home = self.disks.assign_home()
        weight = self.internal.cpu_weight(tx.priority)
        # Interleave locks with computation: a lock is taken when the
        # statement touching it runs, not all up-front, so locks are
        # held across the remaining CPU/I/O work exactly as in a real
        # 2PL execution.
        segments = max(misses + 1, min(len(locks), 8))
        cpu_slice = tx.cpu_demand / segments
        lock_schedule = self._lock_schedule(len(locks), segments)

        # hot-loop locals: one lookup per attempt instead of per yield
        acquire = self.lockmgr.acquire
        done = self.sim.done  # a zero-wait grant: nothing to wait for
        execute = self.cpu.execute
        submit = self.disks.submit
        priority = tx.priority
        num_locks = len(locks)
        lock_index = 0
        for segment in range(segments):
            while lock_index < num_locks and lock_schedule[lock_index] <= segment:
                item, exclusive = locks[lock_index]
                lock_index += 1
                grant = acquire(tx, item, exclusive)
                if grant is not done:
                    yield grant
            if cpu_slice > 0:
                yield execute(cpu_slice, weight, priority)
            if segment < misses:
                yield submit(home, segment, priority)
        if tx.is_update:
            yield self.log.commit(priority)
        if self.two_phase is not None:
            # 2PC prepare point: the WAL force above doubles as the
            # prepare log force; a branch parks here — locks held —
            # until the coordinator decides commit
            gate = self.two_phase.prepared(tx)
            if gate is not None:
                yield gate
        self.lockmgr.release_all(tx)

    def _effective_locks(self, tx: Transaction):
        if self.isolation is IsolationLevel.UR:
            return [(item, True) for item, exclusive in tx.lock_requests if exclusive]
        return tx.lock_requests

    #: Memoized lock schedules — the (num_locks, segments) space the
    #: workloads generate is tiny, so every transaction after the first
    #: of its shape reuses one immutable tuple.
    _LOCK_SCHEDULES: Dict[tuple, tuple] = {}

    @staticmethod
    def _lock_schedule(num_locks: int, segments: int):
        """Segment index before which each lock is acquired (spread evenly)."""
        if num_locks == 0:
            return ()
        key = (num_locks, segments)
        cached = DatabaseEngine._LOCK_SCHEDULES.get(key)
        if cached is None:
            cached = DatabaseEngine._LOCK_SCHEDULES[key] = tuple(
                (i * segments) // num_locks for i in range(num_locks)
            )
        return cached

    # -- POW preemption --------------------------------------------------------

    def _preempt(self, victim: Transaction) -> bool:
        """Interrupt ``victim`` for POW; whether an eviction was made.

        Two high-priority requests at one instant can both find the
        victim blocked before the first interrupt lands; the second
        must not throw again — it would land during the restart
        backoff, where only a deadline is caught.
        """
        process = self._active.get(victim.tid)
        if process is None or not process.is_alive or process.interrupt_pending:
            return False
        process.interrupt(PreemptionError(f"tx {victim.tid} preempted (POW)"))
        return True
