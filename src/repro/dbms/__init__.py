"""An event-driven DBMS simulator.

This package is the substrate standing in for the paper's IBM DB2 /
Shore installations (see DESIGN.md §2).  A :class:`DatabaseEngine`
executes :class:`Transaction` objects against simulated hardware:

* :class:`ProcessorSharingPool` — k CPUs shared processor-sharing
  style, with per-class weights to model internal CPU prioritization
  (the paper's ``renice`` experiment).
* :class:`Disk` / :class:`DiskArray` — FCFS disks with data striped
  across the array.
* :class:`LogManager` — the dedicated WAL disk with group commit.
* :class:`AnalyticBufferPool` / :class:`LRUBufferPool` — page-cache
  models deciding which logical page touches become physical reads.
* :class:`LockManager` — strict two-phase locking with S/X modes,
  Repeatable Read or Uncommitted Read isolation, wait-for-graph
  deadlock detection, and the paper's internal lock-scheduling policies
  (priority queues and Preempt-on-Wait).
"""

from repro.dbms.bufferpool import AnalyticBufferPool, LRUBufferPool
from repro.dbms.config import (
    HardwareConfig,
    InternalPolicy,
    IsolationLevel,
    LockSchedulingPolicy,
)
from repro.dbms.cpu import ProcessorSharingPool
from repro.dbms.disk import Disk, DiskArray
from repro.dbms.engine import DatabaseEngine
from repro.dbms.lockmgr import (
    DeadlockError,
    LockManager,
    LockMode,
    PreemptionError,
)
from repro.dbms.transaction import Priority, Transaction
from repro.dbms.wal import LogManager

__all__ = [
    "AnalyticBufferPool",
    "DatabaseEngine",
    "DeadlockError",
    "Disk",
    "DiskArray",
    "HardwareConfig",
    "InternalPolicy",
    "IsolationLevel",
    "LRUBufferPool",
    "LockManager",
    "LockMode",
    "LockSchedulingPolicy",
    "LogManager",
    "PreemptionError",
    "Priority",
    "ProcessorSharingPool",
    "Transaction",
]
