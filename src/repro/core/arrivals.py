"""Pluggable arrival regimes: how work reaches the front-end.

The paper exercises two arrival regimes — a *closed* population of 100
think/submit clients (§2.2) and an *open* Poisson stream (§3.2).  Real
traffic sits between and beyond those: users arrive, issue a burst of
transactions, and leave (partly-open), and load varies over the day
(time-varying rates).  This module turns "how transactions arrive"
into a first-class seam: small frozen dataclasses
(:class:`ClosedArrivals`, :class:`OpenArrivals`,
:class:`PartlyOpenArrivals`, :class:`ModulatedArrivals`,
:class:`TraceArrivals`) that live inside a
:class:`~repro.core.system.SystemConfig`, hash into its content
fingerprint, and travel through the parallel runner's cache.  Each
spec's ``build`` returns the matching runtime process of
:mod:`repro.core.sources` against a live simulation.

Adding a scenario means adding one spec dataclass with a ``build``
method — no changes to
:class:`~repro.core.simulation.SimulatedSystem`, the engine, or the
runner.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING, Callable, Optional, Tuple

from repro.core.spec_codec import UNIONS, check_fields, spec_field
from repro.core.specclass import specclass
from repro.dbms.transaction import Priority
from repro.sim.distributions import Exponential

if TYPE_CHECKING:
    from repro.core.frontend import ExternalScheduler
    from repro.core.sources import ArrivalProcess
    from repro.sim.engine import Simulator
    from repro.sim.random import RandomStreams
    from repro.workloads.spec import WorkloadSpec

PriorityAssigner = Callable[[random.Random], int]


#: The paper's §5 assignment: 10% of transactions are high priority.
HIGH_PRIORITY_FRACTION = 0.10


def fraction_high_assigner(fraction: float) -> PriorityAssigner:
    """The paper's §5 assignment: each transaction is HIGH w.p. ``fraction``."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction!r}")

    def assign(rng: random.Random) -> int:
        return Priority.HIGH if rng.random() < fraction else Priority.LOW

    return assign


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


@specclass(frozen=True)
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
        # arrivals that stop for good never fill a completion-counted
        # window: the run would thin candidate arrivals forever
        if self.max_rate() <= 0:
            raise ValueError("at least one rate must be positive")
        if self.period is None and self.points[-1][1] <= 0:
            raise ValueError(
                "without a period the last rate holds forever, so it must "
                f"be positive, got {self.points[-1]!r}"
            )
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


@specclass(frozen=True)
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


@specclass(frozen=True)
class ClosedArrivals(ArrivalSpec):
    """The paper's closed system: a fixed client population (§2.2)."""

    num_clients: int = spec_field(100, ge=1)
    think_time_s: float = spec_field(0.0, ge=0)

    def build(self, sim, frontend, workload, streams, priority_assigner=None):
        from repro.core.sources import ClosedPopulation

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


@specclass(frozen=True)
class OpenArrivals(ArrivalSpec):
    """The paper's open system: Poisson arrivals at ``rate`` tx/s (§3.2)."""

    rate: float = spec_field(gt=0)

    def build(self, sim, frontend, workload, streams, priority_assigner=None):
        from repro.core.sources import OpenPoisson

        return OpenPoisson(
            sim,
            frontend,
            workload,
            interarrival=Exponential(1.0 / self.rate),
            rng=streams.stream("arrivals"),
            priority_assigner=priority_assigner,
        )


@specclass(frozen=True)
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
        from repro.core.sources import PartlyOpenSessions

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


@specclass(frozen=True)
class ModulatedArrivals(ArrivalSpec):
    """Open arrivals whose Poisson rate follows a deterministic profile."""

    rate_function: RateFunction

    def build(self, sim, frontend, workload, streams, priority_assigner=None):
        from repro.core.sources import ModulatedOpenSource

        return ModulatedOpenSource(
            sim,
            frontend,
            workload,
            rate_function=self.rate_function,
            rng=streams.stream("arrivals"),
            priority_assigner=priority_assigner,
        )


@specclass(frozen=True)
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
        from repro.core.sources import TraceReplay

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
