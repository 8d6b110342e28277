"""Exact Mean Value Analysis for closed product-form networks.

This solves the paper's Figure 6 model: MPL "clients" circulating among
the DBMS's internal resources (CPUs, disks), each an exponential
station.  Fixed-rate stations use the classic Reiser–Lavenberg MVA
recursion; multi-server stations (e.g. a 2-CPU pool) use the exact
load-dependent extension with per-station marginal queue-length
probabilities.

Only *relative* service demands matter for the throughput-vs-MPL ratio
the tuner needs (§4.1), so callers usually feed demands normalized to
the bottleneck.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.specclass import specclass


@specclass(frozen=True)
class Station:
    """One service station of the closed network.

    Parameters
    ----------
    name:
        Label for reporting.
    demand:
        Service demand per visit of one job (seconds, or any unit —
        throughputs come out in its inverse).
    servers:
        Number of parallel servers; ``servers > 1`` makes the station
        load-dependent with rate ``min(n, servers) / demand``.
    delay:
        A pure delay (infinite-server) station, e.g. client think time.
    """

    name: str
    demand: float
    servers: int = 1
    delay: bool = False

    def __post_init__(self) -> None:
        if self.demand < 0:
            raise ValueError(f"demand must be non-negative, got {self.demand!r}")
        if self.servers < 1:
            raise ValueError(f"servers must be >= 1, got {self.servers!r}")


@specclass(frozen=True)
class MvaResult:
    """Solution of the closed network for populations 1..N."""

    stations: Tuple[Station, ...]
    throughputs: Tuple[float, ...]  # X(n), index n-1
    response_times: Tuple[Dict[str, float], ...]  # per-station R_i(n)
    queue_lengths: Tuple[Dict[str, float], ...]  # per-station Q_i(n)

    def throughput(self, population: int) -> float:
        """System throughput with ``population`` circulating jobs."""
        if not 1 <= population <= len(self.throughputs):
            raise ValueError(
                f"population must be in 1..{len(self.throughputs)}, got {population!r}"
            )
        return self.throughputs[population - 1]

    @property
    def max_throughput(self) -> float:
        """The asymptotic bound 1 / max(demand / servers)."""
        bottleneck = max(
            (s.demand / s.servers for s in self.stations if not s.delay),
            default=0.0,
        )
        if bottleneck == 0:
            return float("inf")
        return 1.0 / bottleneck

    def relative_throughput(self, population: int) -> float:
        """X(n) as a fraction of the asymptotic maximum."""
        maximum = self.max_throughput
        if maximum == float("inf"):
            return 1.0
        return self.throughput(population) / maximum


def mva(stations: Sequence[Station], population: int) -> MvaResult:
    """Solve the closed network exactly for populations 1..``population``.

    Mixed networks are supported: fixed-rate stations use the standard
    recursion ``R_i(n) = D_i (1 + Q_i(n-1))``, multi-server stations
    the load-dependent recursion over marginal probabilities, and delay
    stations contribute ``R_i = D_i``.
    """
    if population < 1:
        raise ValueError(f"population must be >= 1, got {population!r}")
    if not stations:
        raise ValueError("at least one station is required")

    queueing = [s for s in stations if not s.delay]
    think_time = sum(s.demand for s in stations if s.delay)

    # State carried across the population recursion.
    queue_len: Dict[str, float] = {s.name: 0.0 for s in queueing}
    # marginal[name][j] = P(j jobs at station | population n), for
    # load-dependent stations only.
    marginal: Dict[str, List[float]] = {
        s.name: [1.0] for s in queueing if s.servers > 1
    }

    throughputs: List[float] = []
    response_hist: List[Dict[str, float]] = []
    queue_hist: List[Dict[str, float]] = []

    for n in range(1, population + 1):
        responses: Dict[str, float] = {}
        for station in queueing:
            if station.servers == 1:
                responses[station.name] = station.demand * (
                    1.0 + queue_len[station.name]
                )
            else:
                probs = marginal[station.name]  # P(j | n-1), j = 0..n-1
                r = 0.0
                for j in range(1, n + 1):
                    rate = min(j, station.servers) / station.demand
                    r += (j / rate) * (probs[j - 1] if j - 1 < len(probs) else 0.0)
                responses[station.name] = r
        total_response = sum(responses.values())
        x = n / (think_time + total_response)
        throughputs.append(x)

        new_queues: Dict[str, float] = {}
        for station in queueing:
            new_queues[station.name] = x * responses[station.name]
            if station.servers > 1:
                old = marginal[station.name]
                new = [0.0] * (n + 1)
                for j in range(1, n + 1):
                    rate = min(j, station.servers) / station.demand
                    prev = old[j - 1] if j - 1 < len(old) else 0.0
                    new[j] = (x / rate) * prev
                new[0] = max(0.0, 1.0 - sum(new[1:]))
                marginal[station.name] = new
        queue_len = new_queues
        response_hist.append(responses)
        queue_hist.append(dict(new_queues))

    return MvaResult(
        stations=tuple(stations),
        throughputs=tuple(throughputs),
        response_times=tuple(response_hist),
        queue_lengths=tuple(queue_hist),
    )


def balanced_throughput_fraction(num_stations: int, population: int) -> float:
    """Closed form X(n)/X_max for a balanced network of single servers.

    For M identical exponential stations the exact MVA solution is
    ``X(n) = n / (D (n + M - 1))`` so the fraction of maximum
    throughput is ``n / (n + M - 1)`` — the source of the paper's
    linear minimum-MPL-vs-resources observation (Figure 7).
    """
    if num_stations < 1:
        raise ValueError(f"num_stations must be >= 1, got {num_stations!r}")
    if population < 1:
        raise ValueError(f"population must be >= 1, got {population!r}")
    return population / (population + num_stations - 1)
