"""A weighted processor-sharing CPU pool, kept by virtual clocks.

The paper models (and measures) the DBMS CPU as processor sharing:
every runnable transaction gets an equal share of the k CPUs, with no
job using more than one CPU at a time.  Internal CPU prioritization
(the ``renice`` experiment of §5.2) skews the shares by a per-class
weight, which is exactly weighted processor sharing.

Jobs of equal weight always run at one rate, so the pool keeps one
*class* per distinct weight: one for the stock DBMS, one per priority
under renicing.  Each class has a virtual clock V, the work served so
far to each of its jobs, which advances at the class's per-job rate —
the finish-tag construction of generalized processor sharing (Parekh
and Gallager, IEEE/ACM ToN 1993).  A job of demand d admitted at clock
V gets the finish tag V + d and is done when the clock reaches it, so
a class is a heap of tags and nothing per job changes as time passes.

Every pool event (an admission, the completion timer, a weight change)
advances the clocks, completes each job whose tag is within 1e-9 of its
clock (same-instant completions in submission order), re-divides the
capacity over the classes by weighted max-min water-filling with a cap
of one core per job, and points the pool's one live timer at the
earliest (tag - V) / rate: the timer moves in place when it is the
agenda's earliest entry (:meth:`Agenda.retime`); otherwise it is
disarmed, so the run loop pops it without a call, and a fresh one is
armed.  A superseded timer never fires a callback.  That is O(classes
+ log jobs) per event, the same code for one class and for several.
The schedule is exact PS up to float rounding, not time-sliced; a
class's clock restarts from zero whenever the class empties, so its
tags stay small.  Busy time is not integrated per event but read off
the clocks (:attr:`busy_core_time`).
"""

from __future__ import annotations

import itertools
import math
from heapq import heapify, heappop, heappush
from operator import attrgetter, itemgetter
from typing import Dict, List

from repro.sim.engine import Event, SimulationError, Simulator
from repro.sim.station import ClassStats, Station

_EPSILON = 1e-9
_INFINITY = math.inf
_WEIGHT = attrgetter("weight")
_HANDLE = itemgetter(1)


class _Class:
    """The jobs of one weight: a virtual clock, a rate, a finish-tag heap.

    Heap entries are ``(tag, handle, demand, priority, event)``; handles
    are unique, so comparisons never reach past them.
    """

    __slots__ = ("weight", "clock", "rate", "tags")

    def __init__(self, weight: float):
        self.weight = weight
        self.clock = 0.0
        self.rate = 0.0
        self.tags: List[tuple] = []


class ProcessorSharingPool(Station):
    """``cores`` CPUs of speed ``speed`` shared by weighted PS.

    A job of demand ``d`` submitted via :meth:`execute` finishes after
    ``d`` units of CPU *work* have been served to it; with ``n`` equal
    weight jobs and ``k`` cores each job is served at rate
    ``min(speed, k * speed / n)``.
    """

    def __init__(self, sim: Simulator, cores: int, speed: float = 1.0):
        if cores < 1:
            raise ValueError(f"cores must be >= 1, got {cores!r}")
        if speed <= 0:
            raise ValueError(f"speed must be positive, got {speed!r}")
        super().__init__(sim, "cpu")
        self.cores = cores
        self.speed = speed
        self._capacity = cores * speed  # total service rate on offer
        self._speed_eps = speed - _EPSILON  # per-job cap, tolerance folded in
        self._classes: Dict[float, _Class] = {}
        self._heaviest_first: List[_Class] = []  # the same classes, by weight
        self._handles = itertools.count(1)
        self._last_update = sim.now
        self._timer = None  # the one live completion timer, if armed
        self._timer_callback = self._on_timer  # no per-arm closure
        self._retime = sim._agenda.retime
        self._fire = sim._fire_now  # same-instant completion lane
        self._work_completed = 0.0

    # -- public API ------------------------------------------------------

    def execute(self, demand: float, weight: float = 1.0, priority: int = 0) -> Event:
        """Submit a job of CPU demand ``demand``; fires when served.

        ``weight`` is the weighted-PS share weight (used by internal
        CPU prioritization); it must be positive.  Jobs of positive
        demand get handles 1, 2, ... in submission order (see
        :meth:`set_weight`).
        """
        if not 0.0 <= demand < _INFINITY:
            raise ValueError(f"demand must be finite and non-negative, got {demand!r}")
        if not 0.0 < weight < _INFINITY:
            raise ValueError(f"weight must be finite and positive, got {weight!r}")
        sim = self.sim
        if demand <= _EPSILON:
            self._record(priority)
            return sim.fired()
        event = sim.event()  # pooled
        job_class = self._classes.get(weight) or self._new_class(weight)
        self._update(job_class, demand, priority, event)
        return event

    def set_weight(self, handle: int, weight: float) -> None:
        """Move a running job to another weight (rarely needed; for tooling)."""
        if not 0.0 < weight < _INFINITY:
            raise ValueError(f"weight must be finite and positive, got {weight!r}")
        found = [
            (job_class, entry)
            for job_class in self._heaviest_first
            for entry in job_class.tags
            if entry[1] == handle
        ]
        if not found:
            raise SimulationError(f"no active job with handle {handle!r}")
        (job_class, entry), = found
        self._update()  # clocks to now
        if entry not in job_class.tags:
            return  # it was due now and has just completed
        remaining = entry[0] - job_class.clock
        job_class.tags.remove(entry)
        heapify(job_class.tags)
        target = self._classes.get(weight) or self._new_class(weight)
        if not target.tags:
            target.clock = 0.0
        heappush(target.tags, (target.clock + remaining,) + entry[1:])
        self._update()

    @property
    def active_jobs(self) -> int:
        """Number of jobs currently in service."""
        return sum(len(job_class.tags) for job_class in self._heaviest_first)

    @property
    def busy_core_time(self) -> float:
        """Cumulative busy time summed over cores (for utilization).

        The work served so far over the speed: the demand of completed
        jobs plus, for each job in service, how far its class's clock
        has moved since it was admitted (its tag minus its demand).
        """
        dt = self.sim.now - self._last_update
        served = self._work_completed
        for job_class in self._heaviest_first:
            clock = job_class.clock + job_class.rate * dt
            for tag, _handle, demand, _priority, _event in job_class.tags:
                served += clock - (tag - demand)
        return served / self.speed

    @property
    def busy_time(self) -> float:
        """The :class:`Station` metrics name for :attr:`busy_core_time`."""
        return self.busy_core_time

    @property
    def work_completed(self) -> float:
        """Total CPU demand served to completed jobs."""
        return self._work_completed

    def utilization(self, elapsed: float) -> float:
        """Mean per-core utilization over ``elapsed`` time units."""
        if elapsed <= 0:
            return 0.0
        return self.busy_core_time / (self.cores * elapsed)

    # -- internals --------------------------------------------------------

    def _new_class(self, weight: float) -> _Class:
        job_class = self._classes[weight] = _Class(weight)
        self._heaviest_first.append(job_class)
        self._heaviest_first.sort(key=_WEIGHT, reverse=True)
        return job_class

    def _update(self, admit=None, demand=0.0, priority=0, event=None) -> None:
        """Advance the clocks to now, admit a job into class ``admit``
        (if given), complete due jobs, re-divide the capacity, arm the
        next timer."""
        now = self.sim.now
        dt = now - self._last_update
        self._last_update = now
        classes = self._heaviest_first
        finished = None
        weight_sum = 0.0  # over the jobs left: sum of weight x jobs
        for job_class in classes:
            tags = job_class.tags
            if tags:
                job_class.clock = clock = job_class.clock + job_class.rate * dt
                if tags[0][0] - clock <= _EPSILON:
                    if finished is None:
                        finished = [heappop(tags)]
                    else:
                        finished.append(heappop(tags))
                    while tags and tags[0][0] - clock <= _EPSILON:
                        finished.append(heappop(tags))
            if job_class is admit:
                if not tags:
                    job_class.clock = 0.0  # an idle class restarts its clock
                heappush(tags, (
                    job_class.clock + demand, next(self._handles), demand, priority, event
                ))
            weight_sum += job_class.weight * len(tags)
        if finished is not None:
            if len(finished) > 1:
                finished.sort(key=_HANDLE)  # submission order
            per_class = self.per_class
            fire = self._fire
            for _tag, _handle, work, job_priority, job_event in finished:
                self._work_completed += work
                stats = per_class.get(job_priority)  # inlined Station._record
                if stats is None:
                    stats = per_class[job_priority] = ClassStats()
                stats.requests += 1
                stats.service_time += work
                # inlined event.succeed(): known untriggered, no value
                job_event._triggered = True
                fire(job_event)

        # weighted max-min water-fill, heaviest class first (a class whose
        # share reaches one core is capped there and leaves the rest to
        # the lighter ones), and in the same pass the earliest completion
        capacity = self._capacity
        per_weight = delay = None
        for job_class in classes:
            tags = job_class.tags
            if not tags:
                job_class.rate = 0.0
                continue
            if per_weight is not None:
                rate = job_class.weight * per_weight
            else:
                share = capacity / weight_sum if capacity > _EPSILON else 0.0
                if job_class.weight * share >= self._speed_eps:
                    rate = self.speed
                    capacity -= len(tags) * rate
                    weight_sum -= len(tags) * job_class.weight
                else:
                    per_weight = share  # below the cap: so is every lighter class
                    rate = job_class.weight * share
            job_class.rate = rate
            if rate > _EPSILON:
                eta = (tags[0][0] - job_class.clock) / rate
                if delay is None or eta < delay:
                    delay = eta

        # one live timer for it: moved in place when it is the agenda's
        # earliest entry, else disarmed (the run loop pops it uncalled)
        # and replaced by a fresh one
        timer = self._timer
        if timer is not None:
            if delay is not None and self._retime(timer, now + delay):
                return
            timer._cb = None
            self._timer = None
        if delay is not None:
            self._timer = timer = self.sim.timeout(delay)
            timer._cb = self._timer_callback

    def _on_timer(self, event) -> None:
        self._timer = None  # unreferenced, so the fired timer recycles
        self._update()
