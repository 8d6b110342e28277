"""Pluggable arrival processes: how work reaches the front-end.

The paper exercises two arrival regimes — a *closed* population of 100
think/submit clients (§2.2) and an *open* Poisson stream (§3.2).  Real
traffic sits between and beyond those: users arrive, issue a burst of
transactions, and leave (partly-open), and load varies over the day
(time-varying rates).  This module turns "how transactions arrive"
into a first-class seam with two halves:

* **Specs** — small frozen dataclasses (:class:`ClosedArrivals`,
  :class:`OpenArrivals`, :class:`PartlyOpenArrivals`,
  :class:`ModulatedArrivals`) that live inside a
  :class:`~repro.core.system.SystemConfig`, hash into its content
  fingerprint, and travel through the parallel runner's cache.
* **Processes** — the runtime generators (:class:`ClosedPopulation`,
  :class:`OpenPoisson`, :class:`PartlyOpenSessions`,
  :class:`ModulatedOpenSource`) a spec builds against a live
  simulation.  All of them draw from named
  :class:`~repro.sim.random.RandomStreams` substreams, so every
  scenario is deterministic and bit-identical under any ``--jobs N``.

Adding a scenario means adding one spec dataclass with a ``build``
method — no changes to :class:`~repro.core.system.SimulatedSystem`,
the engine, or the runner.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
from typing import Callable, Optional, Sequence, Tuple

from repro.core.frontend import ExternalScheduler
from repro.core.spec_codec import UNIONS, check_fields, spec_field
from repro.dbms.transaction import Priority, Transaction
from repro.sim.distributions import Distribution, Exponential
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.workloads.spec import WorkloadSpec

PriorityAssigner = Callable[[random.Random], int]


def fraction_high_assigner(fraction: float) -> PriorityAssigner:
    """The paper's §5 assignment: each transaction is HIGH w.p. ``fraction``."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction!r}")

    def assign(rng: random.Random) -> int:
        return Priority.HIGH if rng.random() < fraction else Priority.LOW

    return assign


# -- runtime arrival processes ------------------------------------------------


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


# -- rate functions for time-varying load -------------------------------------


class RateFunction:
    """A deterministic arrival-rate profile λ(t) ≥ 0."""

    #: Every profile checks its fields' types and rules on construction;
    #: an override with rules of its own calls ``check_fields`` first.
    __post_init__ = check_fields

    def rate(self, t: float) -> float:
        """The instantaneous arrival rate at simulation time ``t``."""
        raise NotImplementedError

    def max_rate(self) -> float:
        """An upper bound on λ(t) (the thinning envelope)."""
        raise NotImplementedError


@dataclasses.dataclass(frozen=True)
class PiecewiseRate(RateFunction):
    """Piecewise-constant λ(t): steps at the given breakpoints.

    ``points`` is a tuple of ``(start_time, rate)`` pairs with
    ascending start times, the first at 0; each rate holds until the
    next breakpoint.  With ``period`` set the profile repeats
    cyclically (a synthetic diurnal pattern); otherwise the last rate
    holds forever.
    """

    points: Tuple[Tuple[float, float], ...]
    period: Optional[float] = None

    def __post_init__(self) -> None:
        check_fields(self)
        if not self.points:
            raise ValueError("PiecewiseRate needs at least one (time, rate) point")
        if self.points[0][0] != 0.0:
            raise ValueError(f"first breakpoint must be at t=0, got {self.points[0]!r}")
        times = [t for t, _rate in self.points]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError(f"breakpoint times must ascend, got {times!r}")
        if any(rate < 0 for _t, rate in self.points):
            raise ValueError("rates must be non-negative")
        if self.period is not None and self.period <= times[-1]:
            raise ValueError(
                f"period {self.period!r} must exceed the last breakpoint {times[-1]!r}"
            )

    def rate(self, t: float) -> float:
        if self.period is not None:
            t = t % self.period
        current = self.points[0][1]
        for start, rate in self.points:
            if start > t:
                break
            current = rate
        return current

    def max_rate(self) -> float:
        return max(rate for _t, rate in self.points)


@dataclasses.dataclass(frozen=True)
class SinusoidRate(RateFunction):
    """Sinusoidal λ(t) = base + amplitude · sin(2πt/period + phase).

    Negative excursions are clipped to 0, so ``amplitude > base`` gives
    quiet periods with no arrivals at all.
    """

    base: float = spec_field(gt=0)
    amplitude: float = spec_field(ge=0)
    period: float = spec_field(gt=0)
    phase: float = 0.0

    def rate(self, t: float) -> float:
        value = self.base + self.amplitude * math.sin(
            2.0 * math.pi * t / self.period + self.phase
        )
        return value if value > 0.0 else 0.0

    def max_rate(self) -> float:
        return self.base + self.amplitude


# -- arrival specs (config-side, fingerprinted) -------------------------------


class ArrivalSpec:
    """Marker base for the config-side description of an arrival regime.

    A spec is pure data (frozen dataclass) so it hashes into the
    :class:`~repro.core.system.SystemConfig` fingerprint and pickles
    into the parallel runner's worker processes; ``build`` instantiates
    the matching runtime process against a live simulation.
    """

    #: Every spec checks its fields' types and rules on construction;
    #: an override with rules of its own calls ``check_fields`` first.
    __post_init__ = check_fields

    def build(
        self,
        sim: Simulator,
        frontend: ExternalScheduler,
        workload: WorkloadSpec,
        streams: RandomStreams,
        priority_assigner: Optional[PriorityAssigner] = None,
    ) -> ArrivalProcess:
        raise NotImplementedError


@dataclasses.dataclass(frozen=True)
class ClosedArrivals(ArrivalSpec):
    """The paper's closed system: a fixed client population (§2.2)."""

    num_clients: int = spec_field(100, ge=1)
    think_time_s: float = spec_field(0.0, ge=0)

    def build(self, sim, frontend, workload, streams, priority_assigner=None):
        think = Exponential(self.think_time_s) if self.think_time_s > 0 else None
        return ClosedPopulation(
            sim,
            frontend,
            workload,
            num_clients=self.num_clients,
            think_time=think,
            rng=streams.stream("clients"),
            priority_assigner=priority_assigner,
        )


@dataclasses.dataclass(frozen=True)
class OpenArrivals(ArrivalSpec):
    """The paper's open system: Poisson arrivals at ``rate`` tx/s (§3.2)."""

    rate: float = spec_field(gt=0)

    def build(self, sim, frontend, workload, streams, priority_assigner=None):
        return OpenPoisson(
            sim,
            frontend,
            workload,
            interarrival=Exponential(1.0 / self.rate),
            rng=streams.stream("arrivals"),
            priority_assigner=priority_assigner,
        )


@dataclasses.dataclass(frozen=True)
class PartlyOpenArrivals(ArrivalSpec):
    """Partly-open sessions: Poisson session arrivals, geometric bursts.

    The offered transaction rate is
    ``session_rate * mean_session_length`` (each session contributes a
    geometric number of transactions), which :meth:`for_load` uses to
    hold load constant across session-length mixes.
    """

    session_rate: float = spec_field(gt=0)
    mean_session_length: float = spec_field(5.0, ge=1)
    think_time_s: float = spec_field(0.0, ge=0)

    @property
    def transaction_rate(self) -> float:
        """The offered transaction arrival rate (tx/s)."""
        return self.session_rate * self.mean_session_length

    @classmethod
    def for_load(
        cls,
        transaction_rate: float,
        mean_session_length: float,
        think_time_s: float = 0.0,
    ) -> "PartlyOpenArrivals":
        """A spec offering ``transaction_rate`` tx/s at the given mix."""
        return cls(
            session_rate=transaction_rate / mean_session_length,
            mean_session_length=mean_session_length,
            think_time_s=think_time_s,
        )

    def build(self, sim, frontend, workload, streams, priority_assigner=None):
        think = Exponential(self.think_time_s) if self.think_time_s > 0 else None
        return PartlyOpenSessions(
            sim,
            frontend,
            workload,
            session_rate=self.session_rate,
            mean_session_length=self.mean_session_length,
            think_time=think,
            rng=streams.stream("sessions"),
            priority_assigner=priority_assigner,
        )


@dataclasses.dataclass(frozen=True)
class ModulatedArrivals(ArrivalSpec):
    """Open arrivals whose Poisson rate follows a deterministic profile."""

    rate_function: RateFunction

    def build(self, sim, frontend, workload, streams, priority_assigner=None):
        return ModulatedOpenSource(
            sim,
            frontend,
            workload,
            rate_function=self.rate_function,
            rng=streams.stream("arrivals"),
            priority_assigner=priority_assigner,
        )


@dataclasses.dataclass(frozen=True)
class TraceArrivals(ArrivalSpec):
    """Replay a named :mod:`repro.workloads.traces` timestamp stream.

    The spec names the trace (plus the generation parameters the
    factory accepts) rather than embedding it; ``digest`` — the
    trace's content hash — is computed at construction and hashes into
    the scenario fingerprint, so a regenerated-but-identical trace
    keeps its cache entries while *any* change to the replayed stream
    invalidates them.  ``time_scale`` stretches (>1) or compresses
    (<1) the replayed inter-arrival times; ``loop`` wraps the stream
    so measurements longer than the trace never drain.
    """

    trace_name: str
    transactions: Optional[int] = spec_field(None, ge=1)
    seed: Optional[int] = None
    time_scale: float = spec_field(1.0, gt=0)
    loop: bool = False
    #: Content hash of the replayed trace — derived, never passed.
    digest: str = spec_field("", derived=True)

    def __post_init__(self) -> None:
        check_fields(self)
        trace = self._trace()
        if self.loop and trace.records[-1].arrival_time <= 0:
            # reject here (spec validation) rather than livelocking in
            # TraceReplay at run time; time_scale > 0 preserves the sign
            raise ValueError(
                f"cannot loop trace {self.trace_name!r}: its span is zero "
                "(single record or all-equal timestamps), so looping would "
                "replay the stream at the same instant forever"
            )
        object.__setattr__(self, "digest", trace.digest)

    def _trace(self):
        from repro.workloads.traces import get_trace

        return get_trace(self.trace_name, self.transactions, self.seed)

    def build(self, sim, frontend, workload, streams, priority_assigner=None):
        scale = self.time_scale
        times = [r.arrival_time * scale for r in self._trace().records]
        return TraceReplay(
            sim,
            frontend,
            workload,
            arrival_times=times,
            rng=streams.stream("arrivals"),
            priority_assigner=priority_assigner,
            loop=self.loop,
        )


UNIONS[RateFunction] = {"piecewise": PiecewiseRate, "sinusoid": SinusoidRate}
UNIONS[ArrivalSpec] = {
    "closed": ClosedArrivals,
    "open": OpenArrivals,
    "partly_open": PartlyOpenArrivals,
    "modulated": ModulatedArrivals,
    "trace": TraceArrivals,
}
