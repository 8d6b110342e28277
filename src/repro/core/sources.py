"""The runtime arrival processes: how work reaches the front-end.

Each :class:`~repro.core.arrivals.ArrivalSpec` builds one of these
against a live simulation (:class:`ClosedPopulation`,
:class:`OpenPoisson`, :class:`PartlyOpenSessions`,
:class:`ModulatedOpenSource`, :class:`TraceReplay`).  All of them draw
from named :class:`~repro.sim.random.RandomStreams` substreams, so every
scenario is deterministic and bit-identical under any ``--jobs N``.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import TYPE_CHECKING, Optional, Sequence

from repro.dbms.transaction import Priority, Transaction
from repro.sim.distributions import Distribution

if TYPE_CHECKING:
    from repro.core.arrivals import PriorityAssigner, RateFunction
    from repro.core.frontend import ExternalScheduler
    from repro.sim.engine import Simulator
    from repro.workloads.spec import WorkloadSpec


class ArrivalProcess:
    """Base class: feeds sampled transactions into the front-end.

    Subclasses implement :meth:`_launch`; :meth:`start` is idempotent
    so measurement loops can call it freely.
    """

    def __init__(
        self,
        sim: Simulator,
        frontend: ExternalScheduler,
        workload: WorkloadSpec,
        rng: random.Random,
        priority_assigner: Optional[PriorityAssigner] = None,
    ):
        self.sim = sim
        self.frontend = frontend
        self.workload = workload
        self._rng = rng
        self._assigner = priority_assigner
        self._tids = itertools.count()
        self._running = False

    def start(self) -> None:
        """Launch the arrival process (idempotent)."""
        if self._running:
            return
        self._running = True
        self._launch()

    def _launch(self) -> None:
        raise NotImplementedError

    def _sample(self, client_id: Optional[int] = None) -> Transaction:
        """Draw the next transaction (type, demands, priority)."""
        priority = self._assigner(self._rng) if self._assigner else Priority.LOW
        return self.workload.sample_transaction(
            self._rng, next(self._tids), priority=priority, client_id=client_id
        )


class ClosedPopulation(ArrivalProcess):
    """``num_clients`` closed-loop clients with a think-time distribution."""

    def __init__(
        self,
        sim: Simulator,
        frontend: ExternalScheduler,
        workload: WorkloadSpec,
        num_clients: int,
        think_time: Optional[Distribution],
        rng: random.Random,
        priority_assigner: Optional[PriorityAssigner] = None,
    ):
        if num_clients < 1:
            raise ValueError(f"num_clients must be >= 1, got {num_clients!r}")
        super().__init__(sim, frontend, workload, rng, priority_assigner)
        self.num_clients = num_clients
        self.think_time = think_time

    def _launch(self) -> None:
        for client_id in range(self.num_clients):
            self.sim.process(self._client(client_id), name=f"client{client_id}")

    def _client(self, client_id: int):
        # the closed loop is the hottest arrival path: the per-loop
        # constants are hoisted, but the draw itself stays in _sample
        # so every arrival regime shares one sampling code path
        think = self.think_time
        if think is not None and not think.mean > 0:
            think = None
        rng = self._rng
        sample = self._sample
        submit = self.frontend.submit
        timeout = self.sim.timeout
        while True:
            yield submit(sample(client_id=client_id))
            if think is not None:
                yield timeout(think.sample(rng))


class OpenPoisson(ArrivalProcess):
    """Poisson (or generally renewal) arrivals into the front-end."""

    def __init__(
        self,
        sim: Simulator,
        frontend: ExternalScheduler,
        workload: WorkloadSpec,
        interarrival: Distribution,
        rng: random.Random,
        priority_assigner: Optional[PriorityAssigner] = None,
        max_arrivals: Optional[int] = None,
    ):
        super().__init__(sim, frontend, workload, rng, priority_assigner)
        self.interarrival = interarrival
        self.max_arrivals = max_arrivals

    def _launch(self) -> None:
        self.sim.process(self._arrivals(), name="open-source")

    def _arrivals(self):
        generated = 0
        while self.max_arrivals is None or generated < self.max_arrivals:
            yield self.sim.timeout(self.interarrival.sample(self._rng))
            self.frontend.submit(self._sample())
            generated += 1


class PartlyOpenSessions(ArrivalProcess):
    """Sessions arrive Poisson; each issues a burst, thinks, and leaves.

    The partly-open model of real traffic: a session arrives at rate
    ``session_rate``, issues ``K`` transactions closed-loop (waiting
    for each to complete, thinking in between), then departs, where
    ``K`` is geometric with mean ``mean_session_length``.  With mean 1
    this degenerates to a pure open system; as the mean grows the
    system behaves increasingly like a closed one.
    """

    def __init__(
        self,
        sim: Simulator,
        frontend: ExternalScheduler,
        workload: WorkloadSpec,
        session_rate: float,
        mean_session_length: float,
        think_time: Optional[Distribution],
        rng: random.Random,
        priority_assigner: Optional[PriorityAssigner] = None,
        max_sessions: Optional[int] = None,
    ):
        if session_rate <= 0:
            raise ValueError(f"session_rate must be positive, got {session_rate!r}")
        if mean_session_length < 1.0:
            raise ValueError(
                f"mean_session_length must be >= 1, got {mean_session_length!r}"
            )
        super().__init__(sim, frontend, workload, rng, priority_assigner)
        self.session_rate = session_rate
        self.mean_session_length = mean_session_length
        self.think_time = think_time
        self.max_sessions = max_sessions
        self.sessions_started = 0
        self.sessions_finished = 0

    @property
    def active_sessions(self) -> int:
        """Sessions currently issuing transactions."""
        return self.sessions_started - self.sessions_finished

    def _launch(self) -> None:
        self.sim.process(self._arrivals(), name="session-source")

    def _session_length(self) -> int:
        """Draw K ~ Geometric(1 / mean) on {1, 2, ...} by inversion."""
        mean = self.mean_session_length
        if mean <= 1.0:
            return 1
        u = self._rng.random()
        return 1 + int(math.log(1.0 - u) / math.log(1.0 - 1.0 / mean))

    def _arrivals(self):
        while self.max_sessions is None or self.sessions_started < self.max_sessions:
            yield self.sim.timeout(self._rng.expovariate(self.session_rate))
            self.sessions_started += 1
            self.sim.process(
                self._session(self._session_length()),
                name=f"session{self.sessions_started}",
            )

    def _session(self, length: int):
        for index in range(length):
            yield self.frontend.submit(self._sample())
            if (
                index + 1 < length
                and self.think_time is not None
                and self.think_time.mean > 0
            ):
                yield self.sim.timeout(self.think_time.sample(self._rng))
        self.sessions_finished += 1


class ModulatedOpenSource(ArrivalProcess):
    """Non-homogeneous Poisson arrivals driven by a rate function.

    Implemented by thinning: candidate arrivals are generated at the
    rate function's maximum and accepted with probability
    ``rate(t) / max_rate`` — the standard exact method, and one whose
    random-number consumption depends only on the candidate sequence,
    keeping runs deterministic.
    """

    def __init__(
        self,
        sim: Simulator,
        frontend: ExternalScheduler,
        workload: WorkloadSpec,
        rate_function: "RateFunction",
        rng: random.Random,
        priority_assigner: Optional[PriorityAssigner] = None,
        max_arrivals: Optional[int] = None,
    ):
        max_rate = rate_function.max_rate()
        if max_rate <= 0:
            raise ValueError(f"rate function peak must be positive, got {max_rate!r}")
        super().__init__(sim, frontend, workload, rng, priority_assigner)
        self.rate_function = rate_function
        self.max_arrivals = max_arrivals
        self._max_rate = max_rate

    def _launch(self) -> None:
        self.sim.process(self._arrivals(), name="modulated-source")

    def _arrivals(self):
        generated = 0
        max_rate = self._max_rate
        rate = self.rate_function.rate
        while self.max_arrivals is None or generated < self.max_arrivals:
            yield self.sim.timeout(self._rng.expovariate(max_rate))
            if self._rng.random() * max_rate <= rate(self.sim.now):
                self.frontend.submit(self._sample())
                generated += 1


class TraceReplay(ArrivalProcess):
    """Replays a recorded arrival-timestamp stream into the front-end.

    Arrival *times* come verbatim from the trace; the transaction each
    arrival carries is sampled from the workload (which may itself be a
    :func:`~repro.workloads.traces.trace_workload` wrapping the same
    trace's demand distribution).  With ``loop=True`` the stream wraps
    around, shifted by the trace's span, so long measurements never
    drain the simulation.
    """

    def __init__(
        self,
        sim: Simulator,
        frontend: ExternalScheduler,
        workload: WorkloadSpec,
        arrival_times: Sequence[float],
        rng: random.Random,
        priority_assigner: Optional[PriorityAssigner] = None,
        loop: bool = False,
    ):
        if not arrival_times:
            raise ValueError("trace replay needs at least one arrival time")
        if any(b < a for a, b in zip(arrival_times, arrival_times[1:])):
            raise ValueError("trace arrival times must be non-decreasing")
        if loop and arrival_times[-1] <= 0:
            # the wrap offset is the trace span; a zero span replays the
            # whole stream at the same instant forever (livelock)
            raise ValueError(
                "cannot loop a zero-span trace (last arrival offset "
                f"{arrival_times[-1]!r}): looping would replay the stream "
                "at the same instant forever"
            )
        super().__init__(sim, frontend, workload, rng, priority_assigner)
        self.arrival_times = list(arrival_times)
        self.loop = loop
        self.replayed = 0

    def _launch(self) -> None:
        self.sim.process(self._arrivals(), name="trace-replay")

    def _arrivals(self):
        offset = 0.0
        span = self.arrival_times[-1]
        while True:
            for arrival_time in self.arrival_times:
                delay = offset + arrival_time - self.sim.now
                if delay > 0:
                    yield self.sim.timeout(delay)
                self.frontend.submit(self._sample())
                self.replayed += 1
            if not self.loop:
                return
            offset += span


#: Backwards-compatible name: the seed code called this OpenSource.
OpenSource = OpenPoisson
