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

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.dbms.bufferpool": ("AnalyticBufferPool", "LRUBufferPool"),
    "repro.dbms.config": (
        "HardwareConfig", "InternalPolicy", "IsolationLevel", "LockSchedulingPolicy",
    ),
    "repro.dbms.cpu": ("ProcessorSharingPool",),
    "repro.dbms.disk": ("Disk", "DiskArray"),
    "repro.dbms.engine": ("DatabaseEngine",),
    "repro.dbms.lockmgr": ("DeadlockError", "LockManager", "LockMode", "PreemptionError"),
    "repro.dbms.transaction": ("Priority", "Transaction"),
    "repro.dbms.wal": ("LogManager",),
})
