"""Transaction descriptors.

A :class:`Transaction` is the unit the external scheduler admits and
the DBMS engine executes.  Its resource demands (CPU seconds, logical
page touches, lock set) are sampled by the workload generator when the
transaction is created; the engine then realizes them against the
simulated hardware.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Sequence, Tuple


class Priority(enum.IntEnum):
    """Priority classes used by the §5 prioritization experiments.

    Higher numeric value = more important.  The paper uses exactly two
    classes with 10% of transactions assigned HIGH.
    """

    LOW = 0
    HIGH = 1


class TxStatus(enum.Enum):
    """Lifecycle states of a transaction."""

    QUEUED = "queued"
    RUNNING = "running"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Transaction:
    """One transaction instance with sampled resource demands.

    A hand-rolled ``__slots__`` class rather than a dataclass: the
    workload sources mint one per arrival on the simulator's hot path,
    and slot stores are both faster to construct and faster for the
    engine's lifecycle bookkeeping to update.

    Attributes
    ----------
    tid:
        Unique transaction id (assigned by the workload source).
    type_name:
        Workload transaction type (e.g. ``"NewOrder"``).
    cpu_demand:
        Total CPU seconds required.
    page_accesses:
        Logical page touches; the buffer pool decides how many become
        physical reads.
    lock_requests:
        ``(item, exclusive)`` pairs acquired under strict 2PL.  Under
        Uncommitted Read isolation the engine skips the shared ones.
    is_update:
        Whether commit forces a log write.
    priority:
        Priority class (see :class:`Priority`).
    client_id:
        Issuing closed-loop client, if any.

    The remaining attributes are lifecycle fields (timestamps, status,
    restart/lock-wait accounting) filled in as the transaction
    progresses; ``_completion_event`` is the external scheduler's
    stashed completion event.
    """

    __slots__ = (
        "tid", "type_name", "cpu_demand", "page_accesses", "lock_requests",
        "is_update", "priority", "client_id", "arrival_time", "dispatch_time",
        "completion_time", "status", "restarts", "lock_wait_time",
        "_completion_event",
    )

    def __init__(
        self,
        tid: int,
        type_name: str,
        cpu_demand: float,
        page_accesses: int,
        lock_requests: Optional[Sequence[Tuple[int, bool]]] = None,
        is_update: bool = False,
        priority: int = Priority.LOW,
        client_id: Optional[int] = None,
        arrival_time: float = 0.0,
        dispatch_time: Optional[float] = None,
        completion_time: Optional[float] = None,
        status: TxStatus = TxStatus.QUEUED,
        restarts: int = 0,
        lock_wait_time: float = 0.0,
    ):
        if cpu_demand < 0:
            raise ValueError(f"cpu_demand must be non-negative, got {cpu_demand!r}")
        if page_accesses < 0:
            raise ValueError(
                f"page_accesses must be non-negative, got {page_accesses!r}"
            )
        self.tid = tid
        self.type_name = type_name
        self.cpu_demand = cpu_demand
        self.page_accesses = page_accesses
        self.lock_requests = lock_requests if lock_requests is not None else []
        self.is_update = is_update
        self.priority = priority
        self.client_id = client_id
        self.arrival_time = arrival_time
        self.dispatch_time = dispatch_time
        self.completion_time = completion_time
        self.status = status
        self.restarts = restarts
        self.lock_wait_time = lock_wait_time
        self._completion_event = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Transaction(tid={self.tid}, type_name={self.type_name!r}, "
            f"priority={int(self.priority)}, status={self.status})"
        )

    @property
    def response_time(self) -> Optional[float]:
        """Arrival-to-completion time (includes external queueing)."""
        if self.completion_time is None:
            return None
        return self.completion_time - self.arrival_time

    @property
    def execution_time(self) -> Optional[float]:
        """Dispatch-to-completion time (inside the DBMS only)."""
        if self.completion_time is None or self.dispatch_time is None:
            return None
        return self.completion_time - self.dispatch_time

    @property
    def external_wait(self) -> Optional[float]:
        """Time spent queued outside the DBMS."""
        if self.dispatch_time is None:
            return None
        return self.dispatch_time - self.arrival_time
