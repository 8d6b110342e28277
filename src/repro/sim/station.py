"""The station base every simulated resource shares, and the cluster router.

A transaction moving through the DBMS passes four *stations*: the CPU
pool, the disk array, the WAL disk and the lock table.  Each speaks its
own verb (``execute``, ``submit``, ``commit``, ``acquire``), but they
share one metrics surface, which :class:`Station` factors out: every
station reports ``busy_time``, ``requests_served`` and
``utilization(elapsed)``, plus per-priority-class counters
(:class:`ClassStats`) fed through the :meth:`Station._record` hook, so
per-class breakdowns need no resource-specific code.  The engine lists
its stations by name in :attr:`repro.dbms.engine.DatabaseEngine.stations`
for utilization and per-class snapshots.

The cluster front-end, :class:`RouterStation`, is a station too: it
dispatches transactions to shards under a :class:`RoutingPolicy` and
counts them per class.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.sim.engine import Event, SimulationError, Simulator


class ClassStats:
    """Per-priority-class counters one station accumulates."""

    __slots__ = ("requests", "service_time", "wait_time")

    def __init__(self):
        self.requests = 0
        self.service_time = 0.0
        self.wait_time = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "requests": self.requests,
            "service_time": self.service_time,
            "wait_time": self.wait_time,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ClassStats(requests={self.requests}, "
            f"service_time={self.service_time:.6g}, "
            f"wait_time={self.wait_time:.6g})"
        )


class Station:
    """Base class: per-class metrics for one named resource.

    Subclasses call ``Station.__init__(self, sim, name)`` first, record
    each served or granted request through :meth:`_record` and override
    :attr:`busy_time` (and :meth:`utilization` where busy time is not
    per-server time).
    """

    #: Whether this station is a server whose utilization belongs in a
    #: run's utilization snapshot (the lock table, a pure admission
    #: station, sets this False).
    is_server = True

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self.per_class: Dict[int, ClassStats] = {}

    # -- metrics -----------------------------------------------------------

    def _record(
        self, priority: int, service_time: float = 0.0, wait_time: float = 0.0
    ) -> None:
        """Count one served/granted request for ``priority``'s class."""
        stats = self.per_class.get(priority)
        if stats is None:
            stats = self.per_class[priority] = ClassStats()
        stats.requests += 1
        stats.service_time += service_time
        stats.wait_time += wait_time

    def class_stats(self) -> Dict[int, ClassStats]:
        """Snapshot of the per-class counters (live objects)."""
        return dict(self.per_class)

    @property
    def busy_time(self) -> float:
        """Cumulative busy time (subclass-specific meaning)."""
        return 0.0

    @property
    def requests_served(self) -> int:
        """Requests this station completed, summed over classes."""
        return sum(stats.requests for stats in self.per_class.values())

    def utilization(self, elapsed: float) -> float:
        """Busy fraction of ``elapsed``."""
        if elapsed <= 0:
            return 0.0
        return self.busy_time / elapsed


# -- routing (cluster front-end) ----------------------------------------------


class RoutingPolicy:
    """Picks the shard one transaction is dispatched to.

    Policies are deterministic functions of their own internal state
    and the live shard loads — no randomness, so clustered runs stay
    bit-identical under any ``--jobs N``.  ``choose`` receives the
    transaction and the router's target list and returns a shard index.
    """

    name = "routing"

    def choose(self, tx, targets: Sequence) -> int:
        raise NotImplementedError


class RoundRobinRouting(RoutingPolicy):
    """Cycle through the shards in order."""

    name = "round_robin"

    def __init__(self, num_shards: int):
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards!r}")
        self._next = 0
        self._n = num_shards

    def choose(self, tx, targets: Sequence) -> int:
        index = self._next
        self._next = (index + 1) % self._n
        return index


class HashRouting(RoutingPolicy):
    """Hash-partition: a transaction's id pins it to one shard.

    Models key-partitioned data where a transaction must run on the
    shard holding its partition.  The hash is a fixed 64-bit mix (not
    Python's salted ``hash``), so placement is stable across processes
    and runs.
    """

    name = "hash"

    def choose(self, tx, targets: Sequence) -> int:
        return self.mix(tx.tid) % len(targets)

    @staticmethod
    def mix(key: int) -> int:
        """SplitMix64 finalizer: a well-dispersed 64-bit integer hash."""
        z = (key + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        return z ^ (z >> 31)


class LeastInFlightRouting(RoutingPolicy):
    """Join the shard with the fewest transactions admitted or queued.

    Ties break toward the lowest shard index, which keeps the decision
    deterministic.
    """

    name = "least_in_flight"

    def choose(self, tx, targets: Sequence) -> int:
        best = 0
        best_load = None
        for index, target in enumerate(targets):
            load = target.in_service + target.queue_length
            if best_load is None or load < best_load:
                best, best_load = index, load
        return best


class WeightedRouting(RoutingPolicy):
    """Smooth weighted round-robin over heterogeneous shards.

    The classic nginx algorithm: each pick adds every shard's weight to
    its running score, dispatches to the highest score, and subtracts
    the weight total from the winner — giving proportional shares with
    maximal interleaving, deterministically.
    """

    name = "weighted"

    def __init__(self, weights: Sequence[float]):
        if not weights:
            raise ValueError("weights must be non-empty")
        if any(w <= 0 for w in weights):
            raise ValueError(f"weights must be positive, got {tuple(weights)!r}")
        self.weights = tuple(float(w) for w in weights)
        self._scores = [0.0] * len(self.weights)
        self._total = sum(self.weights)

    def choose(self, tx, targets: Sequence) -> int:
        scores = self._scores
        for index, weight in enumerate(self.weights):
            scores[index] += weight
        best = max(range(len(scores)), key=lambda i: (scores[i], -i))
        scores[best] -= self._total
        return best


def make_routing(
    name: str, num_shards: int, weights: Optional[Sequence[float]] = None
) -> RoutingPolicy:
    """Build the named routing policy for ``num_shards`` shards."""
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards!r}")
    if name == "round_robin":
        return RoundRobinRouting(num_shards)
    if name == "hash":
        return HashRouting()
    if name == "least_in_flight":
        return LeastInFlightRouting()
    if name == "weighted":
        if weights is None:
            weights = [1.0] * num_shards
        if len(weights) != num_shards:
            raise ValueError(
                f"need {num_shards} weights, got {len(weights)}: {tuple(weights)!r}"
            )
        return WeightedRouting(weights)
    from repro.core.cluster_config import ROUTING_POLICIES

    raise ValueError(
        f"unknown routing policy {name!r}; available: {', '.join(ROUTING_POLICIES)}"
    )


class RouterStation(Station):
    """The cluster front-end: dispatches transactions to shard targets.

    Targets speak the :class:`~repro.core.frontend.ExternalScheduler`
    surface (``submit``, ``in_service``, ``queue_length``) but are only
    duck-typed here, keeping the simulation layer free of core-layer
    imports.  Routing is synchronous — ``submit`` forwards to the
    chosen shard immediately and returns that shard's completion event
    — so a one-shard router is event-for-event identical to calling
    the shard directly.

    The router enforces the no-double-routing invariant (a transaction
    id is accepted at most once) and accumulates per-shard dispatch
    counts plus per-priority-class :class:`ClassStats`, which the
    invariant test-suite checks against the shard-side counters.

    Liveness: each target carries two flags — ``alive`` (fault state,
    flipped by kill/restore events) and ``in_rotation`` (administrative
    state, flipped by elastic capacity control).  A shard is routable
    only when both hold.  When the policy picks an unroutable shard the
    router deterministically falls over to the next routable index
    (cyclic scan), so faulted runs stay bit-identical for any
    ``--jobs N``.  When every target is unroutable, ``submit`` raises
    :class:`~repro.sim.engine.SimulationError` rather than queueing
    blindly.
    """

    is_server = False

    def __init__(self, sim: Simulator, targets: Sequence, policy: RoutingPolicy,
                 name: str = "router"):
        if not targets:
            raise ValueError("router needs at least one target shard")
        super().__init__(sim, name)
        self.targets = list(targets)
        self.policy = policy
        self.routed_by_shard: List[int] = [0] * len(self.targets)
        self._routed_tids: set = set()
        self.alive: List[bool] = [True] * len(self.targets)
        self.in_rotation: List[bool] = [True] * len(self.targets)
        self.rerouted = 0
        self.rerouted_from: List[int] = [0] * len(self.targets)
        self.rerouted_to: List[int] = [0] * len(self.targets)
        #: Optional per-shard circuit breakers
        #: (:class:`~repro.core.resilience.ShardBreaker`, duck-typed:
        #: ``admit(now) -> bool``), installed by the resilience runtime.
        #: None keeps routing health-blind — the pre-resilience path,
        #: byte-identical.
        self.breakers: Optional[List] = None

    # -- liveness ----------------------------------------------------------

    def set_alive(self, index: int, alive: bool) -> None:
        """Flip a target's fault-liveness flag (kill/restore)."""
        self._check_index(index)
        self.alive[index] = bool(alive)

    def set_rotation(self, index: int, in_rotation: bool) -> None:
        """Flip a target's administrative in-rotation flag (elastic)."""
        self._check_index(index)
        self.in_rotation[index] = bool(in_rotation)

    def routable(self, index: int) -> bool:
        """Whether a target currently accepts new work."""
        return self.alive[index] and self.in_rotation[index]

    def live_targets(self) -> List[int]:
        """Indices of targets currently accepting new work."""
        return [i for i in range(len(self.targets)) if self.routable(i)]

    def _check_index(self, index: int) -> None:
        if not 0 <= index < len(self.targets):
            raise ValueError(
                f"shard index {index} out of range for {len(self.targets)} targets"
            )

    def _fallback(self, index: int) -> int:
        """Next routable index after ``index``, scanning cyclically.

        Administrative parking must never make the cluster unroutable:
        when every in-rotation shard is dead (an elastic controller
        parked the survivor just before a kill landed), an alive but
        parked shard takes the work as the target of last resort.  Only
        a cluster with no alive shard at all raises — the fault axis'
        liveness validation is supposed to make that unreachable.
        """
        n = len(self.targets)
        for step in range(1, n):
            candidate = (index + step) % n
            if self.routable(candidate):
                return candidate
        for step in range(n):
            candidate = (index + step) % n
            if self.alive[candidate]:
                return candidate
        raise SimulationError(
            f"router {self.name!r} has no live targets to route to"
        )

    def submit(self, tx) -> Event:
        """Route ``tx`` to a shard; returns the shard's completion event."""
        if tx.tid in self._routed_tids:
            raise ValueError(f"transaction {tx.tid} was already routed")
        index = self.policy.choose(tx, self.targets)
        if not 0 <= index < len(self.targets):
            raise ValueError(
                f"routing policy {self.policy.name!r} chose shard {index} "
                f"of {len(self.targets)}"
            )
        if not self.routable(index):
            index = self._fallback(index)
        if self.breakers is not None:
            index = self._breaker_admit(index)
        self._routed_tids.add(tx.tid)
        self.routed_by_shard[index] += 1
        self._record(tx.priority)
        return self.targets[index].submit(tx)

    def submit_to(self, tx, index: int) -> Event:
        """Route ``tx`` to a specific shard (2PC participant placement).

        The coordinator's deterministic participant pick is
        authoritative, so no policy choice and no breaker consultation
        — but a dead or parked shard still falls back cyclically, so a
        fault timeline never strands a branch.
        """
        if tx.tid in self._routed_tids:
            raise ValueError(f"transaction {tx.tid} was already routed")
        self._check_index(index)
        if not self.routable(index):
            index = self._fallback(index)
        self._routed_tids.add(tx.tid)
        self.routed_by_shard[index] += 1
        self._record(tx.priority)
        return self.targets[index].submit(tx)

    def _breaker_admit(self, index: int) -> int:
        """Health-aware admission: the first routable shard whose
        breaker admits, scanning cyclically from the policy's choice.
        Fail-open: when every breaker refuses, the original (routable)
        choice takes the transaction anyway — shedding is the
        admission queue's job, not the router's."""
        now = self.sim.now
        if self.breakers[index].admit(now):
            return index
        n = len(self.targets)
        for step in range(1, n):
            candidate = (index + step) % n
            if self.routable(candidate) and self.breakers[candidate].admit(now):
                return candidate
        return index

    def release(self, tid: int) -> None:
        """Forget a routed transaction id so it may be routed again.

        The resilience layer's retry hook: a timed-out or shed
        transaction re-enters through ``submit``, which would otherwise
        trip the no-double-routing guard.
        """
        self._routed_tids.discard(tid)

    def reroute(self, tx, source: int) -> None:
        """Re-home an admitted transaction drained from a dead shard.

        The transaction keeps its arrival time and completion event;
        the receiving shard takes it via ``adopt``.  Per-shard transfer
        counters keep the conservation law checkable:
        ``routed_to[i] + rerouted_to[i] - rerouted_from[i]`` equals the
        work shard ``i`` currently holds or has completed.
        """
        self._check_index(source)
        index = self.policy.choose(tx, self.targets)
        if not 0 <= index < len(self.targets):
            raise ValueError(
                f"routing policy {self.policy.name!r} chose shard {index} "
                f"of {len(self.targets)}"
            )
        if not self.routable(index):
            index = self._fallback(index)
        self.rerouted += 1
        self.rerouted_from[source] += 1
        self.rerouted_to[index] += 1
        self.targets[index].adopt(tx)

    @property
    def routed(self) -> int:
        """Total transactions dispatched across all shards."""
        return sum(self.routed_by_shard)

    @property
    def in_service(self) -> int:
        """Transactions inside any shard's engine."""
        return sum(t.in_service for t in self.targets)

    @property
    def queue_length(self) -> int:
        """Transactions waiting in any shard's external queue."""
        return sum(t.queue_length for t in self.targets)
