"""A weighted processor-sharing CPU pool.

The paper models (and measures) the DBMS CPU as processor sharing:
every runnable transaction gets an equal share of the k CPUs, with no
job using more than one CPU at a time.  Internal CPU prioritization
(the ``renice`` experiment of §5.2) skews the shares by a per-class
weight, which is exactly weighted processor sharing.

The implementation is event driven: whenever the active-job set (or a
weight) changes, remaining service is settled at the old rates, new
rates are computed by max-min water-filling (each job's rate is capped
at one core), and a single completion timer is scheduled for the next
finishing job.  This is exact, not time-sliced.

The pool is the simulator's single hottest component (roughly one in
three kernel events is a CPU timer), so the uniform-weight case — the
stock DBMS, where every job runs at the *same* rate — is specialized
end to end:

* the shared rate lives in one pool-level field (``_uniform_rate``)
  instead of per-job attributes, making water-filling O(1);
* settling, completion detection and next-finish selection fuse into a
  single pass over the jobs (:meth:`_settle_scan`), tracking the
  minimum surviving remaining work, so arming the completion timer
  needs one division and no extra scan (dividing by the one positive
  shared rate is monotone, hence ``min(remaining)/rate`` is bitwise the
  minimum of the per-job quotients the general path computes).

The weighted path keeps the general per-job-rate algorithm.  Both
paths perform the exact same floating-point operations in the same
order as the straightforward implementation, so simulated timestamps
are bit-identical.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from repro.sim.engine import Event, SimulationError, Simulator
from repro.sim.station import ClassStats, Station

_EPSILON = 1e-9


class _Job:
    __slots__ = ("handle", "demand", "remaining", "weight", "event", "rate", "priority")

    def __init__(
        self, handle: int, demand: float, weight: float, event: Event, priority: int = 0
    ):
        self.handle = handle
        self.demand = demand
        self.remaining = demand
        self.weight = weight
        self.event = event
        self.rate = 0.0
        self.priority = priority


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
        self._jobs: Dict[int, _Job] = {}
        self._handles = itertools.count(1)
        self._last_settle = sim.now
        self._timer_generation = 0
        self._timer_callback = self._on_timer  # no per-arm closure
        self._fire = sim._fire_now  # same-instant completion lane
        self._weighted_jobs = 0  # active jobs with weight != 1.0
        #: The shared service rate while all weights are 1.0 (None when
        #: the weighted general path owns the per-job ``rate`` fields).
        self._uniform_rate: Optional[float] = 0.0
        # cached min remaining among surviving jobs, maintained by the
        # uniform-mode scans so same-instant re-settles can skip the
        # O(jobs) pass entirely; _least_valid guards staleness and
        # _needs_scan flags completions a metrics settle left pending
        self._least_remaining: Optional[float] = None
        self._least_valid = True
        self._needs_scan = False
        self._busy_core_time = 0.0  # integral of (total service rate / speed) dt
        self._work_completed = 0.0

    # -- public API ------------------------------------------------------

    def execute(self, demand: float, weight: float = 1.0, priority: int = 0) -> Event:
        """Submit a job of CPU demand ``demand``; fires when served.

        ``weight`` is the weighted-PS share weight (used by internal
        CPU prioritization); it must be positive.
        """
        if demand < 0:
            raise ValueError(f"demand must be non-negative, got {demand!r}")
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight!r}")
        if demand <= _EPSILON:
            self._record(priority)
            return self.sim.fired()
        event = self.sim.event()  # pooled
        uniform_scan = self._uniform_rate is not None
        finished, least = self._settle_scan()
        # inlined _Job construction (one fewer frame on the admission path)
        job = _Job.__new__(_Job)
        job.handle = handle = next(self._handles)
        job.demand = job.remaining = float(demand)
        job.weight = weight
        job.event = event
        job.rate = 0.0
        job.priority = priority
        self._jobs[handle] = job
        if weight != 1.0:
            self._weighted_jobs += 1
        if self._weighted_jobs == 0:
            # inlined uniform water-fill (n >= 1: the job just joined)
            capacity = self._capacity
            if capacity <= _EPSILON:
                self._uniform_rate = 0.0
            else:
                share = capacity / len(self._jobs)
                self._uniform_rate = self.speed if share >= self._speed_eps else share
        else:
            self._water_fill()
        if finished is not None:
            self._finish_jobs(finished)
        # arm: in steady uniform mode the next finisher is simply
        # min(surviving remainings, the new job's demand); any mode
        # transition falls back to the full scan
        rate = self._uniform_rate
        if rate is not None and uniform_scan:
            self._timer_generation = generation = self._timer_generation + 1
            remaining = job.remaining
            if least is None or remaining < least:
                least = remaining
            self._least_remaining = least  # cache covers the new job now
            if rate > _EPSILON:
                timer = self.sim.timeout(max(0.0, least / rate), value=generation)
                timer._cb = self._timer_callback
        else:
            self._arm_timer()
        return event

    def set_weight(self, handle: int, weight: float) -> None:
        """Change a running job's weight (rarely needed; for tooling)."""
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight!r}")
        job = self._jobs.get(handle)
        if job is None:
            raise SimulationError(f"no active job with handle {handle!r}")
        self._settle()
        if (job.weight != 1.0) != (weight != 1.0):
            self._weighted_jobs += 1 if weight != 1.0 else -1
        job.weight = weight
        self._reallocate_and_arm()

    @property
    def active_jobs(self) -> int:
        """Number of jobs currently in service."""
        return len(self._jobs)

    @property
    def busy_core_time(self) -> float:
        """Cumulative busy time summed over cores (for utilization)."""
        self._settle()
        return self._busy_core_time

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

    def _settle_scan(self):
        """Settle served work and scan the jobs in one pass.

        Performs exactly :meth:`_settle`'s arithmetic (same operations,
        same order) while collecting the jobs it pushed to completion
        and — in uniform mode — the minimum remaining work among the
        survivors (the input to the next completion timer).  Returns
        ``(finished, least)``; ``least`` is None in weighted mode or
        when no job survives.
        """
        now = self.sim.now
        dt = now - self._last_settle
        finished = None
        least = None
        total_rate = 0.0
        rate = self._uniform_rate
        if rate is not None:
            if dt == 0.0 and self._least_valid and not self._needs_scan:
                # same-instant re-settle: zero work was served, nothing
                # can have finished since the scan that filled the
                # cache, so the pass would be the identity
                return None, self._least_remaining
            self._last_settle = now
            for job in self._jobs.values():
                remaining = job.remaining - rate * dt
                if remaining < 0:
                    remaining = 0.0
                job.remaining = remaining
                total_rate += rate
                if remaining <= _EPSILON:
                    if finished is None:
                        finished = [job]
                    else:
                        finished.append(job)
                elif least is None or remaining < least:
                    least = remaining
            self._least_remaining = least
            self._least_valid = True
            self._needs_scan = False
        else:
            self._last_settle = now
            self._least_valid = False
            for job in self._jobs.values():
                rate = job.rate
                remaining = job.remaining - rate * dt
                if remaining < 0:
                    remaining = 0.0
                job.remaining = remaining
                total_rate += rate
                if remaining <= _EPSILON:
                    if finished is None:
                        finished = [job]
                    else:
                        finished.append(job)
        self._busy_core_time += (total_rate / self.speed) * dt
        return finished, least

    def _settle(self) -> None:
        """Account for work served since the last settle point.

        The metrics face of :meth:`_settle_scan`: any completions the
        pass surfaces stay pending (exactly as before the fusion — the
        next pool event's scan picks them up), so the fast path is
        disabled until that scan happens.
        """
        finished, _ = self._settle_scan()
        if finished is not None:
            self._needs_scan = True

    def _finish_jobs(self, finished: List[_Job]) -> None:
        """Complete ``finished`` jobs and re-fill the freed capacity."""
        jobs = self._jobs
        per_class = self.per_class
        fire = self._fire
        for job in finished:
            del jobs[job.handle]
            if job.weight != 1.0:
                self._weighted_jobs -= 1
            demand = job.demand
            self._work_completed += demand
            priority = job.priority
            stats = per_class.get(priority)  # inlined Station._record
            if stats is None:
                stats = per_class[priority] = ClassStats()
            stats.requests += 1
            stats.service_time += demand
            # inlined job.event.succeed(): known untriggered, no value
            event = job.event
            event._triggered = True
            fire(event)
        if self._weighted_jobs == 0:
            # inlined uniform water-fill over the survivors
            n = len(jobs)
            capacity = self._capacity
            if n == 0 or capacity <= _EPSILON:
                self._uniform_rate = 0.0
            else:
                share = capacity / n
                self._uniform_rate = self.speed if share >= self._speed_eps else share
        else:
            self._water_fill()

    def _water_fill(self) -> None:
        """Weighted max-min allocation with a per-job cap of one core."""
        if self._weighted_jobs == 0:
            # Uniform weights — the overwhelmingly common case.  Every
            # job gets min(speed, capacity / n); the shared rate lives
            # in one pool-level field, so no per-job stores are needed.
            n = len(self._jobs)
            capacity = self._capacity
            if n == 0 or capacity <= _EPSILON:
                self._uniform_rate = 0.0
                return
            share = capacity / n
            self._uniform_rate = self.speed if share >= self._speed_eps else share
            return
        self._uniform_rate = None  # per-job rates own the allocation now
        active = list(self._jobs.values())
        for job in active:
            job.rate = 0.0
        capacity = self.cores * self.speed
        while active and capacity > _EPSILON:
            total_weight = sum(job.weight for job in active)
            share_per_weight = capacity / total_weight
            capped = [
                job for job in active if job.weight * share_per_weight >= self.speed - _EPSILON
            ]
            if not capped:
                for job in active:
                    job.rate = job.weight * share_per_weight
                return
            for job in capped:
                job.rate = self.speed
                capacity -= self.speed
            active = [job for job in active if job.rate == 0.0]

    def _reallocate_and_arm(self) -> None:
        self._water_fill()
        self._complete_finished()
        self._arm_timer()

    def _complete_finished(self) -> None:
        # collect lazily: most calls find nothing finished, so the
        # common case allocates no list
        finished = None
        for job in self._jobs.values():
            if job.remaining <= _EPSILON:
                if finished is None:
                    finished = [job]
                else:
                    finished.append(job)
        if finished is not None:
            self._finish_jobs(finished)

    def _arm_timer(self) -> None:
        self._timer_generation = generation = self._timer_generation + 1
        next_finish = None
        rate = self._uniform_rate
        if rate is not None:
            # uniform: the next finisher is simply the min remaining —
            # one division instead of one per job (exact: dividing by
            # one positive rate is monotone)
            least = None
            for job in self._jobs.values():
                remaining = job.remaining
                if least is None or remaining < least:
                    least = remaining
            self._least_remaining = least  # full scan: refresh the cache
            self._least_valid = True
            if least is not None and rate > _EPSILON:
                next_finish = least / rate
        else:
            self._least_valid = False  # weighted arm: cache unmaintained
            for job in self._jobs.values():
                if job.rate > _EPSILON:
                    eta = job.remaining / job.rate
                    if next_finish is None or eta < next_finish:
                        next_finish = eta
        if next_finish is None:
            return
        # The generation travels as the timer's value so arming needs no
        # closure; a stale timer (superseded by a reallocation) is
        # recognized and ignored in the shared callback.
        timer = self.sim.timeout(max(0.0, next_finish), value=generation)
        timer._cb = self._timer_callback

    def _on_timer(self, event) -> None:
        if event._value != self._timer_generation:
            return  # superseded by a later reallocation
        uniform_scan = self._uniform_rate is not None
        finished, least = self._settle_scan()
        if finished is not None:
            self._finish_jobs(finished)
        rate = self._uniform_rate
        if rate is not None and uniform_scan:
            # arm from the minimum the settle pass already found — the
            # survivors' remainings are untouched by completion, so no
            # second scan is needed
            self._timer_generation = generation = self._timer_generation + 1
            if least is not None and rate > _EPSILON:
                timer = self.sim.timeout(max(0.0, least / rate), value=generation)
                timer._cb = self._timer_callback
        else:
            self._arm_timer()
