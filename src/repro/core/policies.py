"""External-queue scheduling policies.

The whole point of external scheduling is that the application can
order this queue however it likes (§1).  The paper's prioritization
experiments use :class:`PriorityPolicy` (high-priority transactions
dispatch first, FIFO within a class); :class:`FifoPolicy` is the
neutral baseline used for the throughput studies, and
:class:`SjfPolicy` is the classic size-based alternative the paper
mentions as a possible extension (scheduling by estimated demand).
"""

from __future__ import annotations

import collections
import heapq
import itertools
from typing import Callable, Deque, List, Optional, Tuple

from repro.dbms.transaction import Transaction


class QueuePolicy:
    """Interface: an ordered external queue of transactions."""

    def push(self, tx: Transaction) -> None:
        """Add an arriving transaction."""
        raise NotImplementedError

    def pop(self) -> Transaction:
        """Remove and return the next transaction to dispatch."""
        raise NotImplementedError

    def remove(self, tx: Transaction) -> bool:
        """Remove one specific queued transaction; False if absent.

        The resilience layer's hook: deadline expiry and load shedding
        pull a victim out of the middle of the queue.  O(n), but sheds
        and queued timeouts are rare relative to dispatches.
        """
        raise NotImplementedError

    def __iter__(self):
        """Iterate the queued transactions (shed-victim selection)."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def __bool__(self) -> bool:
        return len(self) > 0


class FifoPolicy(QueuePolicy):
    """First-in first-out (the unprioritized baseline)."""

    def __init__(self):
        self._queue: Deque[Transaction] = collections.deque()

    def push(self, tx: Transaction) -> None:
        self._queue.append(tx)

    def pop(self) -> Transaction:
        return self._queue.popleft()

    def remove(self, tx: Transaction) -> bool:
        try:
            self._queue.remove(tx)
        except ValueError:
            return False
        return True

    def __iter__(self):
        return iter(self._queue)

    def __len__(self) -> int:
        return len(self._queue)


def _heap_remove(heap: List[tuple], tx: Transaction) -> bool:
    """Remove the entry holding ``tx`` from a (key, seq, tx) heap."""
    for index, entry in enumerate(heap):
        if entry[2] is tx:
            last = heap.pop()
            if index < len(heap):
                heap[index] = last
                heapq.heapify(heap)
            return True
    return False


class PriorityPolicy(QueuePolicy):
    """Strict priority: highest class first, FIFO within a class.

    This is exactly the paper's §5.1 algorithm: "high-priority
    transactions are given first priority, and low-priority
    transactions are only chosen if there are no more high-priority
    transactions".
    """

    def __init__(self):
        self._heap: List[Tuple[int, int, Transaction]] = []
        self._counter = itertools.count()

    def push(self, tx: Transaction) -> None:
        heapq.heappush(self._heap, (-tx.priority, next(self._counter), tx))

    def pop(self) -> Transaction:
        return heapq.heappop(self._heap)[2]

    def remove(self, tx: Transaction) -> bool:
        return _heap_remove(self._heap, tx)

    def __iter__(self):
        return (entry[2] for entry in self._heap)

    def __len__(self) -> int:
        return len(self._heap)


class SjfPolicy(QueuePolicy):
    """Shortest (estimated) job first.

    ``estimator`` maps a transaction to its expected total demand; the
    default uses the CPU demand alone, which is what an external
    scheduler could estimate from transaction type statistics.
    """

    def __init__(self, estimator: Optional[Callable[[Transaction], float]] = None):
        self._heap: List[Tuple[float, int, Transaction]] = []
        self._counter = itertools.count()
        self._estimator = estimator or (lambda tx: tx.cpu_demand)

    def push(self, tx: Transaction) -> None:
        heapq.heappush(self._heap, (self._estimator(tx), next(self._counter), tx))

    def pop(self) -> Transaction:
        return heapq.heappop(self._heap)[2]

    def remove(self, tx: Transaction) -> bool:
        return _heap_remove(self._heap, tx)

    def __iter__(self):
        return (entry[2] for entry in self._heap)

    def __len__(self) -> int:
        return len(self._heap)


#: External queue policies by the (lower-case) name :func:`make_policy` takes.
QUEUE_POLICIES = {
    "fifo": FifoPolicy,
    "priority": PriorityPolicy,
    "sjf": SjfPolicy,
}


def make_policy(name: str) -> QueuePolicy:
    """Instantiate a policy by name (``fifo``, ``priority``, ``sjf``)."""
    try:
        factory = QUEUE_POLICIES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; known: {sorted(QUEUE_POLICIES)}"
        ) from None
    return factory()
