"""Hardware and policy configuration for the simulated DBMS.

The paper varies the number of CPUs (1–2), the number of data disks
(1–6, one further disk always holds the log), main memory / buffer pool
sizes, and the isolation level (Repeatable Read vs Uncommitted Read) —
see Tables 1 and 2.  :class:`HardwareConfig` captures the hardware
knobs and :class:`InternalPolicy` the internal-scheduling knobs used in
§5.2 (lock-queue prioritization and CPU prioritization).
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, Optional


class IsolationLevel(enum.Enum):
    """The two isolation levels exercised in the paper.

    * ``RR`` (Repeatable Read, DB2 isolation level 3): readers take
      shared locks held until commit — the high-contention default.
    * ``UR`` (Uncommitted Read): readers take no locks; only writers
      lock.
    """

    RR = "RR"
    UR = "UR"


class LockSchedulingPolicy(enum.Enum):
    """How the lock manager orders conflicting waiters.

    * ``FIFO`` — strict arrival order (the stock DBMS behaviour).
    * ``PRIORITY`` — high-priority waiters move ahead of low-priority
      waiters.
    * ``POW`` — Preempt-on-Wait [McWherter et al., ICDE'05]: priority
      ordering plus preemption (abort + restart) of a low-priority lock
      holder that is itself blocked at another lock queue.
    """

    FIFO = "fifo"
    PRIORITY = "priority"
    POW = "pow"


@dataclasses.dataclass(frozen=True)
class HardwareConfig:
    """The simulated machine.

    Parameters
    ----------
    num_cpus:
        CPU count (the paper uses 1 or 2).
    num_disks:
        Data-disk count (the paper uses 1–4 for data; the log always
        lives on its own disk, mirroring the paper's setup).
    memory_mb / bufferpool_mb:
        Sizes controlling the page-cache hit probability.  The buffer
        pool plus OS file cache act as one cache of
        ``memory_mb`` (the paper sizes both; what matters for the
        simulation is the total cached fraction of the database).
    cpu_speed:
        Relative CPU speed multiplier (1.0 = the paper's 2.4 GHz P4).
    disk_service_mean_ms / disk_service_scv:
        Per-page physical read time moments.  8 ms mean approximates a
        2006-era IDE drive doing small random reads.
    log_write_mean_ms:
        Sequential log force time.
    page_kb:
        Page size used to convert megabytes to page counts.
    """

    num_cpus: int = 1
    num_disks: int = 1
    memory_mb: int = 1024
    bufferpool_mb: int = 1024
    cpu_speed: float = 1.0
    disk_service_mean_ms: float = 8.0
    disk_service_scv: float = 0.35
    log_write_mean_ms: float = 8.0
    group_commit: bool = True
    page_kb: int = 4

    def __post_init__(self) -> None:
        if self.num_cpus < 1:
            raise ValueError(f"num_cpus must be >= 1, got {self.num_cpus!r}")
        if self.num_disks < 1:
            raise ValueError(f"num_disks must be >= 1, got {self.num_disks!r}")
        if self.memory_mb <= 0 or self.bufferpool_mb <= 0:
            raise ValueError("memory and buffer pool sizes must be positive")
        if self.cpu_speed <= 0:
            raise ValueError(f"cpu_speed must be positive, got {self.cpu_speed!r}")
        if self.disk_service_mean_ms <= 0 or self.log_write_mean_ms <= 0:
            raise ValueError("disk service times must be positive")

    #: Main memory the OS and DBMS binaries consume before any page caching.
    OS_OVERHEAD_MB = 256
    #: Fraction of the remaining memory that effectively caches database pages.
    CACHE_EFFICIENCY = 0.75

    @property
    def cache_pages(self) -> int:
        """Pages of database data the machine can effectively cache.

        Database pages live both in the buffer pool and in the OS file
        cache, so the effective cache is the larger of the two, scaled
        by an efficiency factor and net of a fixed OS overhead.  This
        reproduces Table 1's intent: e.g. the 3 GB-memory
        configurations cache their whole database while the 512 MB
        ones cache only a sliver of a 6 GB database.
        """
        file_cache_mb = max(0, self.memory_mb - self.OS_OVERHEAD_MB)
        effective_mb = self.CACHE_EFFICIENCY * max(self.bufferpool_mb, file_cache_mb)
        return max(1, int(effective_mb * 1024) // self.page_kb)

    def with_hardware(
        self,
        num_cpus: Optional[int] = None,
        num_disks: Optional[int] = None,
    ) -> "HardwareConfig":
        """A copy with a different CPU and/or disk count."""
        return dataclasses.replace(
            self,
            num_cpus=self.num_cpus if num_cpus is None else num_cpus,
            num_disks=self.num_disks if num_disks is None else num_disks,
        )


@dataclasses.dataclass(frozen=True)
class InternalPolicy:
    """Internal (inside-the-DBMS) scheduling configuration (§5.2).

    ``lock_scheduling`` selects the lock-queue policy; ``cpu_weights``
    maps a priority class to its weighted-processor-sharing weight.
    The default is the stock DBMS: FIFO locks and equal CPU shares.
    """

    lock_scheduling: LockSchedulingPolicy = LockSchedulingPolicy.FIFO
    cpu_weights: Optional[Dict[int, float]] = None

    def cpu_weight(self, priority: int) -> float:
        """The CPU weight for a transaction of the given priority."""
        if not self.cpu_weights:
            return 1.0
        return self.cpu_weights.get(priority, 1.0)

    @staticmethod
    def stock() -> "InternalPolicy":
        """The unmodified DBMS: no internal prioritization."""
        return InternalPolicy()

    @staticmethod
    def pow_locks() -> "InternalPolicy":
        """Preempt-on-Wait lock prioritization (the paper's setup-1 run)."""
        return InternalPolicy(lock_scheduling=LockSchedulingPolicy.POW)

    @staticmethod
    def cpu_priorities(high_weight: float = 20.0, low_weight: float = 1.0) -> "InternalPolicy":
        """Weighted-CPU internal prioritization (the paper's renice run).

        The default 20:1 share ratio models ``renice -20`` vs
        ``renice 20`` of the DB2 processes.
        """
        from repro.dbms.transaction import Priority

        return InternalPolicy(
            cpu_weights={Priority.HIGH: high_weight, Priority.LOW: low_weight}
        )
