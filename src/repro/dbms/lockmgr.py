"""Strict two-phase locking with internal scheduling policies.

The lock manager implements:

* **S/X item locks** held until commit (strict 2PL), with re-entrant
  grants and shared→exclusive upgrades.
* **Isolation levels** are realized above this layer: under
  Uncommitted Read the engine simply never requests shared locks,
  exactly like DB2's UR (§2.2).
* **Queue ordering policies** — FIFO (stock), PRIORITY (high-priority
  waiters overtake low-priority ones), and POW (Preempt-on-Wait
  [McWherter et al., ICDE'05]): priority ordering plus abort-and-
  restart of a low-priority lock *holder* that is itself blocked at
  another lock queue (§5.2).
* **Deadlock handling** via wait-for-graph cycle detection at block
  time; the requester is the victim and receives
  :class:`DeadlockError` (the engine restarts it after a backoff).
  Edges conservatively include both the holders of the awaited lock
  and incompatible waiters queued ahead, so queue-order deadlocks are
  caught too; the cost is an occasional false positive, which is
  merely a spurious restart.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Set

from repro.dbms.config import LockSchedulingPolicy
from repro.dbms.transaction import Priority, Transaction
from repro.sim.engine import Event, Simulator
from repro.sim.station import ClassStats, Station


class DeadlockError(Exception):
    """The lock request would close a cycle; the requester must restart."""


class PreemptionError(Exception):
    """The transaction was preempted by POW and must restart."""


class LockMode:
    """Symbolic names for the two lock modes."""

    SHARED = False
    EXCLUSIVE = True


class _Request:
    __slots__ = ("tx", "exclusive", "event", "seq", "upgrade", "enqueue_time")

    def __init__(
        self,
        tx: Transaction,
        exclusive: bool,
        event: Event,
        seq: int,
        upgrade: bool,
        enqueue_time: float,
    ):
        self.tx = tx
        self.exclusive = exclusive
        self.event = event
        self.seq = seq
        self.upgrade = upgrade
        self.enqueue_time = enqueue_time


class _Lock:
    __slots__ = ("holders", "queue")

    def __init__(self):
        self.holders: Dict[int, bool] = {}  # tid -> exclusive?
        self.queue: List[_Request] = []


class LockManager(Station):
    """Item-granularity lock table with pluggable queue scheduling.

    As a :class:`~repro.sim.station.Station` the lock table is a pure
    *admission* station: :meth:`acquire` and :meth:`release_all` do the
    work, there is no timed service, and ``is_server`` is False so the
    lock table never appears in utilization snapshots.  Per-class wait
    times flow through the shared station metrics hooks.

    Parameters
    ----------
    policy:
        Queue ordering / preemption policy (see
        :class:`~repro.dbms.config.LockSchedulingPolicy`).
    preempt:
        Callback ``preempt(tx)`` invoked when POW decides to evict a
        low-priority holder; the engine aborts and restarts that
        transaction.  It returns whether it evicted (False when an
        eviction is already in flight); :attr:`preemptions` counts the
        evictions made.  Required when ``policy`` is POW.
    """

    is_server = False

    def __init__(
        self,
        sim: Simulator,
        policy: LockSchedulingPolicy = LockSchedulingPolicy.FIFO,
        preempt: Optional[Callable[[Transaction], bool]] = None,
    ):
        if policy is LockSchedulingPolicy.POW and preempt is None:
            raise ValueError("POW policy requires a preempt callback")
        super().__init__(sim, "locks")
        self.policy = policy
        self._preempt = preempt
        # the tid → transaction map only feeds POW's blocked-holder
        # eviction, so the other policies skip maintaining it
        self._track_tx = policy is LockSchedulingPolicy.POW
        self._locks: Dict[int, _Lock] = {}
        self._tx_by_id: Dict[int, Transaction] = {}
        self._waiting: Dict[int, int] = {}  # tid -> item it is blocked on
        # tid -> items held.  Deliberately a *set*: release_all walks it
        # in set-iteration order, and that order decides which waiter of
        # a multi-item release is granted first at the same instant —
        # changing the container would silently reorder contended runs.
        self._held: Dict[int, Set[int]] = {}
        self._seq = itertools.count()
        self._done = sim.done  # what a zero-wait grant returns
        # statistics
        self.deadlocks = 0
        self.preemptions = 0
        self.lock_waits = 0
        self.total_wait_time = 0.0

    # -- public API -------------------------------------------------------

    def acquire(self, tx: Transaction, item: int, exclusive: bool) -> Event:
        """Request ``item`` in the given mode; fires when granted.

        A new or re-entrant lock is granted on the spot and the result
        is :attr:`Simulator.done`, already processed: a caller may skip
        the yield (``if grant is not sim.done``), and yielding it
        resumes at once without an agenda entry.  Otherwise the result
        is a fresh event that fires when the queued request is granted,
        or fails with :class:`DeadlockError` when granting would
        deadlock.  Grants are strict two-phase: locks stay held until
        :meth:`release_all`.
        """
        if self._track_tx:
            self._tx_by_id[tx.tid] = tx
        lock = self._locks.get(item)
        if lock is None:
            # Fast path: a brand-new lock is granted immediately — no
            # request object, no queue, exactly what the general path
            # below would conclude.  _record is inlined (zero-wait
            # grants are the most frequent station operation of all).
            lock = _Lock()
            self._locks[item] = lock
            lock.holders[tx.tid] = exclusive
            held = self._held.get(tx.tid)
            if held is None:
                held = self._held[tx.tid] = set()
            held.add(item)
            priority = tx.priority
            stats = self.per_class.get(priority)
            if stats is None:
                stats = self.per_class[priority] = ClassStats()
            stats.requests += 1
            return self._done

        held_mode = lock.holders.get(tx.tid)
        if held_mode is not None:
            if held_mode or not exclusive:
                self._record(tx.priority)
                return self._done  # re-entrant: strong-enough mode held
            upgrade = True
        else:
            upgrade = False
        event = self.sim.event()  # pooled

        request = _Request(tx, exclusive, event, next(self._seq), upgrade, self.sim.now)
        self._insert(lock, request)
        self._dispatch(item, lock)
        if not event.triggered:
            self._on_block(item, lock, request)
        return event

    def release_all(self, tx: Transaction) -> None:
        """Release every lock ``tx`` holds (commit or abort)."""
        items = self._held.pop(tx.tid, None)
        if items:
            tid = tx.tid
            locks = self._locks
            for item in items:
                lock = locks.get(item)
                if lock is None:
                    continue
                lock.holders.pop(tid, None)
                # inlined _dispatch/_gc fast paths: most released items
                # have no waiters, and most become garbage right away
                if lock.queue:
                    self._dispatch(item, lock)
                if not lock.holders and not lock.queue:
                    del locks[item]
        if self._track_tx:
            self._tx_by_id.pop(tx.tid, None)

    def abort(self, tx: Transaction) -> None:
        """Abort cleanup: drop queued requests, then release held locks."""
        self.cancel_waits(tx)
        self.release_all(tx)

    def cancel_waits(self, tx: Transaction) -> None:
        """Remove any queued (ungranted) request of ``tx``."""
        item = self._waiting.pop(tx.tid, None)
        if item is None:
            return
        lock = self._locks.get(item)
        if lock is None:
            return
        lock.queue = [r for r in lock.queue if r.tx.tid != tx.tid]
        self._dispatch(item, lock)
        self._gc(item, lock)

    def is_waiting(self, tx: Transaction) -> bool:
        """Whether ``tx`` is currently blocked at some lock queue."""
        return tx.tid in self._waiting

    def holders_of(self, item: int) -> Dict[int, bool]:
        """Snapshot of ``item``'s holders (tid → exclusive?)."""
        lock = self._locks.get(item)
        return dict(lock.holders) if lock else {}

    def held_by(self, tid: int) -> Set[int]:
        """Snapshot of the items ``tid`` currently holds locks on.

        Introspection for the 2PC invariant tests: a prepared branch
        parked at its commit gate must still hold every lock it
        acquired (prepare does not release under strict 2PL).
        """
        held = self._held.get(tid)
        return set(held) if held else set()

    def queue_length(self, item: int) -> int:
        """Number of waiters queued on ``item``."""
        lock = self._locks.get(item)
        return len(lock.queue) if lock else 0

    @property
    def total_waiting(self) -> int:
        """Transactions currently blocked across all lock queues."""
        return len(self._waiting)

    # -- queue ordering -----------------------------------------------------

    def _insert(self, lock: _Lock, request: _Request) -> None:
        if request.upgrade:
            # upgrades go first (within their priority band) to reduce
            # upgrade deadlocks
            index = 0
            if self.policy is not LockSchedulingPolicy.FIFO:
                while (
                    index < len(lock.queue)
                    and lock.queue[index].tx.priority > request.tx.priority
                ):
                    index += 1
            lock.queue.insert(index, request)
            return
        if self.policy is LockSchedulingPolicy.FIFO:
            lock.queue.append(request)
            return
        # PRIORITY / POW: stable order by descending priority
        index = len(lock.queue)
        while index > 0 and lock.queue[index - 1].tx.priority < request.tx.priority:
            index -= 1
        lock.queue.insert(index, request)

    # -- granting -----------------------------------------------------------

    def _compatible(self, lock: _Lock, request: _Request) -> bool:
        if request.upgrade:
            return set(lock.holders) <= {request.tx.tid}
        if request.exclusive:
            return not lock.holders
        return not any(lock.holders.values())  # no exclusive holder

    def _dispatch(self, item: int, lock: _Lock) -> None:
        while lock.queue:
            head = lock.queue[0]
            if not self._compatible(lock, head):
                return
            lock.queue.pop(0)
            self._grant(item, lock, head)

    def _grant(self, item: int, lock: _Lock, request: _Request) -> None:
        lock.holders[request.tx.tid] = request.exclusive or request.upgrade
        self._held.setdefault(request.tx.tid, set()).add(item)
        waited = self.sim.now - request.enqueue_time
        if self._waiting.pop(request.tx.tid, None) is not None:
            request.tx.lock_wait_time += waited
            self.total_wait_time += waited
            self._record(request.tx.priority, wait_time=waited)
        else:
            self._record(request.tx.priority)
        request.event.succeed()

    # -- blocking: deadlock detection and POW ---------------------------------

    def _on_block(self, item: int, lock: _Lock, request: _Request) -> None:
        self.lock_waits += 1
        self._waiting[request.tx.tid] = item
        victim = self._detect_deadlock(request.tx.tid)
        if victim:
            self.deadlocks += 1
            self._waiting.pop(request.tx.tid, None)
            lock.queue = [r for r in lock.queue if r is not request]
            request.event.fail(
                DeadlockError(f"tx {request.tx.tid} deadlocked on item {item}")
            )
            return
        if (
            self.policy is LockSchedulingPolicy.POW
            and request.tx.priority > Priority.LOW
        ):
            self._preempt_blocked_holders(item, lock, request)

    def _blockers(self, tid: int) -> Set[int]:
        """Transactions ``tid`` directly waits for."""
        item = self._waiting.get(tid)
        if item is None:
            return set()
        lock = self._locks.get(item)
        if lock is None:
            return set()
        blockers = {holder for holder in lock.holders if holder != tid}
        for queued in lock.queue:
            if queued.tx.tid == tid:
                break
            blockers.add(queued.tx.tid)
        return blockers

    def _detect_deadlock(self, start: int) -> bool:
        """Depth-first search for a cycle through ``start``."""
        stack = list(self._blockers(start))
        visited: Set[int] = set()
        while stack:
            tid = stack.pop()
            if tid == start:
                return True
            if tid in visited:
                continue
            visited.add(tid)
            stack.extend(self._blockers(tid))
        return False

    def _preempt_blocked_holders(
        self, item: int, lock: _Lock, request: _Request
    ) -> None:
        """POW: evict low-priority holders that are blocked elsewhere."""
        for tid in list(lock.holders):
            holder = self._tx_by_id.get(tid)
            if holder is None or holder.priority >= request.tx.priority:
                continue
            if tid in self._waiting:  # holder is itself stuck at another queue
                assert self._preempt is not None
                if self._preempt(holder):
                    self.preemptions += 1

    # -- housekeeping ---------------------------------------------------------

    def _gc(self, item: int, lock: _Lock) -> None:
        if not lock.holders and not lock.queue:
            self._locks.pop(item, None)
