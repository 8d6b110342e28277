"""Write-ahead-log manager with group commit.

The paper's machines dedicate one IDE drive to the database log; update
transactions force a log write at commit.  This is the I/O component
that makes even the "CPU bound" TPC-C workload need a slightly higher
MPL (§3.1: "some transactions are blocked on I/O to the database
log").

Group commit batches the log forces of transactions that ask to commit
while a write is in flight — all of them are made durable by the next
sequential write, which is how DB2/Shore behave.
"""

from __future__ import annotations

import random
from typing import List

from repro.sim.distributions import BlockSampler, Distribution
from repro.sim.engine import Event, Simulator
from repro.sim.station import Station


class LogManager(Station):
    """A dedicated sequential log disk.

    Parameters
    ----------
    write_time:
        Distribution of one sequential log force (milliseconds scale is
        up to the caller; the simulator is unit-agnostic).
    group_commit:
        When true, commits arriving during an in-flight write share the
        next write; when false every commit performs its own write.
    """

    def __init__(
        self,
        sim: Simulator,
        write_time: Distribution,
        rng: random.Random,
        group_commit: bool = True,
    ):
        super().__init__(sim, "log")
        self.write_time = write_time
        self.group_commit = group_commit
        # The rng is deliberately NOT stashed: every write-time draw
        # must go through the block sampler, or the pre-drawn stream
        # would silently reorder.  The log disk owns its stream.
        self._sample = BlockSampler(write_time, rng)
        self._writing = False
        # pending commits: (event, priority, enqueue time)
        self._pending: List[tuple] = []
        self._busy_time = 0.0
        self._writes = 0
        self._commits = 0
        self._batch: List[tuple] = []
        self._batch_duration = 0.0
        self._finish_callback = self._finish_write
        self._fire = sim._fire_now  # same-instant completion lane

    def commit(self, priority: int = 0) -> Event:
        """Force the log for one committing transaction."""
        self._commits += 1
        done = self.sim.event()  # pooled
        self._pending.append((done, priority, self.sim.now))
        if not self._writing:
            self._start_write()
        return done

    @property
    def busy_time(self) -> float:
        """Cumulative time the log disk was writing."""
        return self._busy_time

    @property
    def writes(self) -> int:
        """Physical writes performed (≤ commits under group commit)."""
        return self._writes

    @property
    def commits(self) -> int:
        """Commit forces requested."""
        return self._commits

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` the log disk was busy."""
        if elapsed <= 0:
            return 0.0
        return self._busy_time / elapsed

    def _start_write(self) -> None:
        if self.group_commit:
            batch = self._pending
            self._pending = []
        else:
            batch = [self._pending.pop(0)]
        self._writing = True
        duration = self._sample()
        self._batch = batch
        self._batch_duration = duration
        timer = self.sim.timeout(duration)
        timer._cb = self._finish_callback

    def _finish_write(self, _event: Event) -> None:
        batch = self._batch
        self._batch = []
        duration = self._batch_duration
        self._busy_time += duration
        self._writes += 1
        started = self.sim.now - duration
        fire = self._fire
        for event, priority, enqueued in batch:
            # every commit in the batch was forced by this one write;
            # its wait is the time spent behind the previous in-flight
            # write (0 for the commit that started this one)
            self._record(
                priority,
                service_time=duration,
                wait_time=max(0.0, started - enqueued),
            )
            # inlined event.succeed(): known untriggered, no value
            event._triggered = True
            fire(event)
        if self._pending:
            self._start_write()
        else:
            self._writing = False
