"""The paper's throughput-vs-MPL model (Figure 6 / Figure 7).

The DBMS internals are modelled as a closed network with MPL
circulating jobs over the utilized resources; service rates are
proportional to each resource's utilization in the *unlimited* system
(§4.1).  The model deliberately assumes the worst case — all counted
resources equally utilized — which makes its minimum-MPL answer an
upper bound on what the real system needs.

The key output is :meth:`ThroughputModel.min_mpl_for_fraction`: the
lowest MPL keeping throughput within a DBA-specified fraction of the
maximum, found by binary search over the exact MVA solution.  For the
balanced case this reduces to the closed form
``N* = ceil(f (M - 1) / (1 - f))`` — linear in the number of resources
M, which is exactly the straight line of circles/squares in Figure 7.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.queueing.mva import Station, mva


class ThroughputModel:
    """Closed-network model of relative throughput as a function of MPL.

    Parameters
    ----------
    demands:
        Relative service demands of the utilized resources (one entry
        per resource; units cancel in the relative throughput).
    servers:
        Optional per-resource server counts (defaults to 1 each).
    think_time:
        Optional client think time in the same relative units.
    """

    def __init__(
        self,
        demands: Sequence[float],
        servers: Optional[Sequence[int]] = None,
        think_time: float = 0.0,
    ):
        if not demands:
            raise ValueError("at least one resource demand is required")
        if any(d <= 0 for d in demands):
            raise ValueError(f"demands must be positive, got {list(demands)!r}")
        if servers is None:
            servers = [1] * len(demands)
        if len(servers) != len(demands):
            raise ValueError("servers and demands must have equal length")
        self.stations = [
            Station(name=f"r{i}", demand=float(d), servers=int(c))
            for i, (d, c) in enumerate(zip(demands, servers))
        ]
        if think_time > 0:
            self.stations.append(Station(name="think", demand=think_time, delay=True))
        self._cache_population = 0
        self._cache = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def balanced(cls, num_resources: int) -> "ThroughputModel":
        """The paper's worst case: ``num_resources`` equal single servers."""
        if num_resources < 1:
            raise ValueError(f"num_resources must be >= 1, got {num_resources!r}")
        return cls([1.0] * num_resources)

    @classmethod
    def from_utilizations(
        cls,
        utilizations: Dict[str, float],
        counts: Optional[Dict[str, int]] = None,
        significance: float = 0.25,
    ) -> "ThroughputModel":
        """Build from measured per-resource utilizations (§4.1).

        Each resource class (e.g. ``{"cpu": 0.95, "disk": 0.3}``)
        contributes ``counts[name]`` stations with demand proportional
        to its utilization; classes below ``significance`` × max are
        dropped as unutilized.
        """
        if not utilizations:
            raise ValueError("utilizations must be non-empty")
        peak = max(utilizations.values())
        if peak <= 0:
            raise ValueError("at least one resource must have positive utilization")
        demands: List[float] = []
        servers: List[int] = []
        for name, utilization in utilizations.items():
            if utilization < significance * peak:
                continue
            count = 1 if counts is None else counts.get(name, 1)
            for _ in range(count):
                demands.append(utilization / peak)
                servers.append(1)
        return cls(demands, servers)

    # -- queries ------------------------------------------------------------------

    def _solve(self, population: int):
        if self._cache is None or population > self._cache_population:
            self._cache = mva(self.stations, population)
            self._cache_population = population
        return self._cache

    def throughput(self, mpl: int) -> float:
        """Absolute model throughput at the given MPL."""
        return self._solve(mpl).throughput(mpl)

    def relative_throughput(self, mpl: int) -> float:
        """Throughput at ``mpl`` as a fraction of the asymptotic maximum."""
        return self._solve(mpl).relative_throughput(mpl)

    def throughput_curve(self, max_mpl: int) -> List[float]:
        """Absolute throughputs for MPL = 1..``max_mpl``."""
        result = self._solve(max_mpl)
        return [result.throughput(n) for n in range(1, max_mpl + 1)]

    def min_mpl_for_fraction(self, fraction: float, max_mpl: int = 4096) -> int:
        """Lowest MPL achieving ``fraction`` of maximum throughput.

        Binary search over the (monotone) relative-throughput curve,
        exactly as §4.1 suggests.
        """
        if not 0.0 < fraction < 1.0:
            raise ValueError(f"fraction must be in (0, 1), got {fraction!r}")
        result = self._solve(max_mpl)
        low, high = 1, max_mpl
        if result.relative_throughput(high) < fraction:
            raise ValueError(
                f"fraction {fraction} unreachable within max_mpl={max_mpl}"
            )
        while low < high:
            mid = (low + high) // 2
            if result.relative_throughput(mid) >= fraction:
                high = mid
            else:
                low = mid + 1
        return low


def balanced_min_mpl(num_resources: int, fraction: float) -> int:
    """Closed-form minimum MPL for the balanced model.

    ``X(n)/X_max = n / (n + M - 1) >= f  ⇔  n >= f (M - 1) / (1 - f)``
    — linear in M, the straight lines of Figure 7.
    """
    if num_resources < 1:
        raise ValueError(f"num_resources must be >= 1, got {num_resources!r}")
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction!r}")
    import math

    needed = fraction * (num_resources - 1) / (1.0 - fraction)
    return max(1, math.ceil(needed - 1e-9))
