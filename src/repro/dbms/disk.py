"""FCFS disk devices and striped disk arrays.

Each :class:`Disk` is a single FCFS server with stochastic per-request
service times (seek + rotation + transfer folded into one
distribution).  :class:`DiskArray` stripes a transaction's page reads
round-robin across the data disks, matching the paper's evenly striped
data layout (§4.1: "the data is evenly striped over the disks").

Both subclass :class:`~repro.sim.station.Station`, so their per-class
counters and utilization sit in the engine's snapshots next to the CPU
pool's and the WAL disk's.
"""

from __future__ import annotations

import collections
import random
from typing import Deque, List, Optional, Tuple

from repro.sim.distributions import BlockSampler, Distribution
from repro.sim.engine import Event, Simulator
from repro.sim.station import ClassStats, Station


class Disk(Station):
    """A single FCFS disk.

    Requests are served one at a time in arrival order.

    Service times come through a :class:`BlockSampler` (pre-drawn in
    blocks, served in draw order).  Disks that share one rng — the
    members of a :class:`DiskArray` — must share one sampler so the
    stream's interleaving across disks is exactly what per-request
    sampling would have produced.
    """

    def __init__(
        self,
        sim: Simulator,
        service_time: Distribution,
        rng: random.Random,
        name: str = "disk",
        sampler: Optional[BlockSampler] = None,
    ):
        super().__init__(sim, name)
        self.service_time = service_time
        # NB: the rng is deliberately NOT stashed on the disk — every
        # draw must go through the (possibly shared) block sampler, or
        # the pre-drawn stream interleaving would silently diverge
        self._sample = sampler if sampler is not None else BlockSampler(
            service_time, rng
        )
        self._queue: Deque[Tuple[int, Event, float]] = collections.deque()
        self._busy = False
        self._busy_time = 0.0
        self._requests_served = 0
        # The in-service request; a single slot suffices for FCFS, and
        # the shared bound callback keeps completion allocation-free.
        self._current_done: Event | None = None
        self._current_duration = 0.0
        self._current_priority = 0
        self._current_enqueued = 0.0
        self._finish_callback = self._finish
        self._fire = sim._fire_now  # same-instant completion lane

    def submit(self, priority: int = 0) -> Event:
        """Enqueue one page request; the event fires when it completes."""
        done = self.sim.event()  # pooled
        if self._busy:
            self._queue.append((priority, done, self.sim.now))
        else:
            self._start(done, priority, self.sim.now)
        return done

    @property
    def queue_length(self) -> int:
        """Requests waiting (not counting the one in service)."""
        return len(self._queue)

    @property
    def busy_time(self) -> float:
        """Cumulative time the disk arm was busy."""
        return self._busy_time

    @property
    def requests_served(self) -> int:
        """Number of completed requests."""
        return self._requests_served

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` the disk was busy."""
        if elapsed <= 0:
            return 0.0
        return self._busy_time / elapsed

    def _start(self, done: Event, priority: int, enqueued: float) -> None:
        self._busy = True
        duration = self._sample()
        self._current_done = done
        self._current_duration = duration
        self._current_priority = priority
        self._current_enqueued = enqueued
        timer = self.sim.timeout(duration)
        timer._cb = self._finish_callback

    def _finish(self, _event: Event) -> None:
        done = self._current_done
        duration = self._current_duration
        self._current_done = None
        self._busy_time += duration
        self._requests_served += 1
        self._record(
            self._current_priority,
            service_time=duration,
            wait_time=max(0.0, self.sim.now - duration - self._current_enqueued),
        )
        # inlined done.succeed(): known untriggered, no value
        done._triggered = True
        self._fire(done)
        if self._queue:
            priority, next_done, enqueued = self._queue.popleft()
            self._start(next_done, priority, enqueued)
        else:
            self._busy = False


class DiskArray(Station):
    """``n`` data disks with round-robin page striping.

    A transaction's i-th physical read goes to disk
    ``(home + i) mod n`` where ``home`` is a per-transaction offset, so
    concurrent transactions spread across the whole array exactly as an
    even stripe would.
    """

    def __init__(
        self,
        sim: Simulator,
        num_disks: int,
        service_time: Distribution,
        rng: random.Random,
    ):
        if num_disks < 1:
            raise ValueError(f"num_disks must be >= 1, got {num_disks!r}")
        super().__init__(sim, "disk")
        # one sampler for the whole array: the member disks draw from a
        # single shared stream, so buffering must also be shared to keep
        # the cross-disk interleaving identical to per-request sampling
        sampler = BlockSampler(service_time, rng)
        self.disks: List[Disk] = [
            Disk(sim, service_time, rng, name=f"disk{i}", sampler=sampler)
            for i in range(num_disks)
        ]
        self._next_home = 0

    def __len__(self) -> int:
        return len(self.disks)

    def assign_home(self) -> int:
        """A starting disk for a new transaction (round-robin)."""
        home = self._next_home
        self._next_home = (self._next_home + 1) % len(self.disks)
        return home

    def submit(self, home: int, sequence: int, priority: int = 0) -> Event:
        """Submit a transaction's ``sequence``-th page read."""
        disk = self.disks[(home + sequence) % len(self.disks)]
        return disk.submit(priority)

    def class_stats(self):
        """Merged per-class stats across the member disks.

        The merge is a fresh snapshot; the live counters stay on the
        member disks (the array itself never records).
        """
        merged = {}
        for disk in self.disks:
            for priority, stats in disk.per_class.items():
                into = merged.get(priority)
                if into is None:
                    into = merged[priority] = ClassStats()
                into.requests += stats.requests
                into.service_time += stats.service_time
                into.wait_time += stats.wait_time
        return merged

    @property
    def busy_time(self) -> float:
        """Total busy time summed across disks."""
        return sum(disk.busy_time for disk in self.disks)

    @property
    def requests_served(self) -> int:
        """Completed requests summed across disks."""
        return sum(disk.requests_served for disk in self.disks)

    def utilization(self, elapsed: float) -> float:
        """Mean per-disk utilization over ``elapsed``."""
        if elapsed <= 0 or not self.disks:
            return 0.0
        return self.busy_time / (len(self.disks) * elapsed)
