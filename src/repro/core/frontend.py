"""The external scheduling front-end (Figure 1).

The :class:`ExternalScheduler` sits between clients and the DBMS: at
most ``mpl`` transactions execute inside the engine at once; the rest
wait in an external queue ordered by a pluggable
:class:`~repro.core.policies.QueuePolicy`.  Setting ``mpl=None``
removes the limit entirely — that is the paper's "original system"
baseline against which throughput loss and response-time inflation are
measured.

The MPL can be changed on the fly (:meth:`set_mpl`), which is what the
feedback controller does between observation periods.
"""

from __future__ import annotations

from typing import Optional

from repro.dbms.engine import DatabaseEngine
from repro.dbms.transaction import Transaction, TxStatus
from repro.metrics.collector import MetricsCollector
from repro.sim.engine import Event, Simulator
from repro.core.policies import FifoPolicy, QueuePolicy


class ExternalScheduler:
    """MPL-limited dispatcher over a DBMS engine.

    Parameters
    ----------
    mpl:
        Maximum concurrent transactions inside the engine;
        ``None`` = unlimited (the no-external-scheduling baseline).
    policy:
        External queue ordering; defaults to FIFO.
    collector:
        Optional metrics sink notified of arrivals and completions.
    """

    def __init__(
        self,
        sim: Simulator,
        engine: DatabaseEngine,
        mpl: Optional[int] = None,
        policy: Optional[QueuePolicy] = None,
        collector: Optional[MetricsCollector] = None,
    ):
        if mpl is not None and mpl < 1:
            raise ValueError(f"mpl must be >= 1 or None, got {mpl!r}")
        self.sim = sim
        self.engine = engine
        self.policy = policy if policy is not None else FifoPolicy()
        self.collector = collector
        self._mpl = mpl
        self._in_service = 0
        self.dispatched = 0
        self.completed = 0
        #: Queued transactions pulled back out by :meth:`withdraw` —
        #: keeps the routed == completed + in_service + queued + removed
        #: conservation law checkable under retries.
        self.removed = 0
        #: The installed :class:`~repro.core.resilience.ResilienceRuntime`
        #: (None outside resilient scenarios — the default path is
        #: untouched).
        self._resilience = None
        #: The installed :class:`~repro.core.distributed.TwoPhaseCoordinator`
        #: (None outside distributed scenarios).
        self._distributed = None
        self._on_complete_cb = self._on_complete  # one bound method, reused

    # -- configuration -----------------------------------------------------

    @property
    def mpl(self) -> Optional[int]:
        """The current multi-programming limit (None = unlimited)."""
        return self._mpl

    def set_mpl(self, mpl: Optional[int]) -> None:
        """Change the MPL; raising it dispatches queued work at once.

        Lowering it never evicts running transactions — the population
        inside the DBMS simply drains down to the new limit, exactly
        like the paper's controller.
        """
        if mpl is not None and mpl < 1:
            raise ValueError(f"mpl must be >= 1 or None, got {mpl!r}")
        self._mpl = mpl
        self._dispatch()

    # -- operation ------------------------------------------------------------

    def submit(self, tx: Transaction) -> Event:
        """Accept a transaction; the event fires at commit with ``tx``."""
        tx.arrival_time = self.sim.now
        tx.status = TxStatus.QUEUED
        done = self.sim.event()  # pooled
        tx._completion_event = done  # slot stashed for _on_complete
        if self.collector is not None:
            self.collector.on_arrival(tx)
        self.policy.push(tx)
        self._dispatch()
        if self._distributed is not None:
            self._distributed.on_submitted(tx, self)
        if self._resilience is not None:
            self._resilience.on_submitted(tx, self)
        return done

    def adopt(self, tx: Transaction) -> None:
        """Accept a transaction already admitted elsewhere.

        The failover hand-off: a transaction drained from a dead
        shard's queue keeps its original arrival time and completion
        event (its source is still waiting on that event), so adoption
        is queue-entry only — no arrival accounting, no new event.
        """
        self.policy.push(tx)
        self._dispatch()
        if self._distributed is not None:
            self._distributed.on_submitted(tx, self)
        if self._resilience is not None:
            self._resilience.on_submitted(tx, self)

    def withdraw(self, tx: Transaction) -> bool:
        """Pull ``tx`` back out of the queue (deadline expiry, load
        shedding, a 2PC abort); False once it was dispatched."""
        if not self.policy.remove(tx):
            return False
        self.removed += 1
        return True

    def drain_queue(self) -> list:
        """Remove and return every queued (undispatched) transaction.

        Transactions already inside the engine are untouched — a
        killed node is fail-stop at the admission boundary, so
        in-flight work drains to completion while queued work is
        re-homed by the caller.
        """
        drained = []
        policy = self.policy
        while len(policy) != 0:
            drained.append(policy.pop())
        return drained

    @property
    def queue_length(self) -> int:
        """Transactions waiting in the external queue."""
        return len(self.policy)

    @property
    def in_service(self) -> int:
        """Transactions currently inside the DBMS."""
        return self._in_service

    # -- internals ---------------------------------------------------------------

    def _dispatch(self) -> None:
        policy = self.policy
        # len() over bool(): QueuePolicy.__bool__ delegates to __len__,
        # so calling len directly saves a frame on this per-arrival,
        # per-completion path
        while len(policy) != 0 and (self._mpl is None or self._in_service < self._mpl):
            tx = policy.pop()
            self._in_service += 1
            self.dispatched += 1
            process = self.engine.execute(tx)
            # the engine process fires with the transaction as its
            # value, so one bound method serves every completion — no
            # per-dispatch closure
            process.add_callback(self._on_complete_cb)

    def _on_complete(self, event: Event) -> None:
        tx: Transaction = event.value
        self._in_service -= 1
        self.completed += 1
        # deadline-aborted attempts are not completions (the resilience
        # layer or 2PC coordinator decides their fate) and 2PC sibling
        # branches (negative tids) are never logical work — the
        # collector only ever sees committed logical transactions
        # (records/throughput stay goodput-clean)
        distributed = self._distributed
        if self.collector is not None and (
            (self._resilience is None and distributed is None)
            or tx.status is TxStatus.COMMITTED
        ) and (distributed is None or tx.tid >= 0):
            self.collector.on_completion(tx)
        done = tx._completion_event
        tx._completion_event = None
        self._dispatch()
        if done is not None:
            done.succeed(tx)
