"""What one sharded cluster is: the config a clustered scenario builds.

:class:`ClusterConfig` is pure data — a tuple of per-shard
:class:`~repro.core.system.SystemConfig` values plus the routing
policy.  It fingerprints like any config (content-addressed caching
works unchanged), and a **one-shard cluster fingerprints identically
to its plain single-engine config** because the two runs are
bit-identical — the regression suite pins both directions.  The
runnable topology it describes is
:class:`~repro.core.cluster.ClusteredSystem`.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, List, Optional, Sequence, Tuple, Union

from repro.core.arrivals import ArrivalSpec
from repro.core.system import SystemConfig, content_digest
from repro.sim.random import derive_seed


#: Routing policies the cluster router understands
#: (:func:`~repro.sim.station.make_routing` builds them).
ROUTING_POLICIES = ("round_robin", "hash", "least_in_flight", "weighted")

#: Read-fan-out policies a replica group understands: where read-only
#: transactions land.  Writes always go to the primary.
READ_FANOUT_POLICIES = ("primary", "round_robin", "least_in_flight")


def split_mpl(
    total: Optional[int],
    shards: int,
    weights: Optional[Sequence[float]] = None,
) -> List[Optional[int]]:
    """Split a global MPL into per-shard limits.

    ``None`` (no limit) stays ``None`` everywhere.  With weights the
    split is proportional (largest-remainder rounding); without, it is
    even, with the remainder going to the lowest shard indices.  Every
    shard always receives at least 1 — a zero-MPL shard would strand
    any transaction routed to it.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards!r}")
    if total is None:
        return [None] * shards
    if total < shards:
        raise ValueError(
            f"global MPL {total} cannot cover {shards} shards (need >= 1 each)"
        )
    if weights is None:
        weights = [1.0] * shards
    if len(weights) != shards:
        raise ValueError(f"need {shards} weights, got {len(weights)}")
    # NaN slips past a plain `w <= 0` (every comparison is False) and
    # inf poisons the proportional shares, so finiteness is its own check.
    if any(not math.isfinite(w) for w in weights):
        raise ValueError(f"weights must be finite, got {tuple(weights)!r}")
    if any(w <= 0 for w in weights):
        raise ValueError(f"weights must be positive, got {tuple(weights)!r}")
    scale = total / sum(weights)
    shares = [w * scale for w in weights]
    floors = [max(1, int(s)) for s in shares]
    remainder = total - sum(floors)
    if remainder < 0:
        # the max(1, ...) floor over-allocated: take back from the largest
        order = sorted(range(shards), key=lambda i: (-floors[i], i))
        for index in order:
            while remainder < 0 and floors[index] > 1:
                floors[index] -= 1
                remainder += 1
    else:
        # largest fractional remainder first, lowest index breaking ties
        order = sorted(range(shards), key=lambda i: (floors[i] - shares[i], i))
        for index in order[:remainder]:
            floors[index] += 1
    return floors  # type: ignore[return-value]


@dataclasses.dataclass(frozen=True)
class ClusterConfig:
    """Everything needed to build one sharded cluster.

    ``shards`` holds one full :class:`SystemConfig` per shard (each
    carries its own per-shard MPL and seed).  The cluster-wide arrival
    stream, priority mix, and external-queue policy are taken from
    shard 0's config — the usual way to build one is
    :meth:`scale_out`, which derives all shards from a single base
    config.
    """

    shards: Tuple[SystemConfig, ...]
    routing: str = "round_robin"
    routing_weights: Optional[Tuple[float, ...]] = None
    replicas_per_shard: int = 0
    read_fanout: str = "round_robin"
    election_timeout_s: float = 0.5

    #: Post-v1 fields are omitted from the canonical encoding while at
    #: their defaults, so every pre-existing cluster keeps its exact
    #: content hash (and cache entries).
    FINGERPRINT_OMIT_DEFAULTS = frozenset(
        {"replicas_per_shard", "read_fanout", "election_timeout_s"}
    )

    def __post_init__(self) -> None:
        if not self.shards:
            raise ValueError("a cluster needs at least one shard")
        if self.routing not in ROUTING_POLICIES:
            raise ValueError(
                f"unknown routing policy {self.routing!r}; "
                f"available: {', '.join(ROUTING_POLICIES)}"
            )
        if self.replicas_per_shard < 0:
            raise ValueError(
                f"replicas_per_shard must be >= 0, got {self.replicas_per_shard!r}"
            )
        if self.read_fanout not in READ_FANOUT_POLICIES:
            raise ValueError(
                f"unknown read fan-out {self.read_fanout!r}; "
                f"available: {', '.join(READ_FANOUT_POLICIES)}"
            )
        if self.election_timeout_s < 0:
            raise ValueError(
                f"election_timeout_s must be >= 0, got {self.election_timeout_s!r}"
            )
        if self.routing_weights is not None:
            if len(self.routing_weights) != len(self.shards):
                raise ValueError(
                    f"need {len(self.shards)} routing weights, "
                    f"got {len(self.routing_weights)}"
                )
            if any(not math.isfinite(w) for w in self.routing_weights):
                raise ValueError(
                    f"routing weights must be finite, got {self.routing_weights!r}"
                )
            if any(w <= 0 for w in self.routing_weights):
                raise ValueError(
                    f"routing weights must be positive, got {self.routing_weights!r}"
                )

    @classmethod
    def scale_out(
        cls,
        base: SystemConfig,
        shards: int,
        routing: str = "round_robin",
        routing_weights: Optional[Sequence[float]] = None,
        replicas_per_shard: int = 0,
        read_fanout: str = "round_robin",
        election_timeout_s: float = 0.5,
    ) -> "ClusterConfig":
        """N identical shards from one base config.

        ``base.mpl`` is treated as the *global* MPL and split across
        the shards (proportionally to ``routing_weights`` when given).
        Shard 0 keeps the base seed — which is what makes
        ``scale_out(base, 1)`` bit-identical to the plain engine —
        and shard ``i > 0`` derives its seed from
        ``(base.seed, "shard", i)``.  Replica ``r`` of a shard derives
        its seed from ``(shard_seed, "replica", r)``.
        """
        mpls = split_mpl(base.mpl, shards, routing_weights)
        configs = tuple(
            dataclasses.replace(
                base,
                mpl=mpls[index],
                seed=base.seed if index == 0 else derive_seed(base.seed, "shard", index),
            )
            for index in range(shards)
        )
        weights = tuple(float(w) for w in routing_weights) if routing_weights else None
        return cls(
            shards=configs,
            routing=routing,
            routing_weights=weights,
            replicas_per_shard=replicas_per_shard,
            read_fanout=read_fanout,
            election_timeout_s=election_timeout_s,
        )

    # -- derived views -------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def global_mpl(self) -> Optional[int]:
        """Sum of the per-shard MPLs (None if any shard is unlimited)."""
        total = 0
        for shard in self.shards:
            if shard.mpl is None:
                return None
            total += shard.mpl
        return total

    def arrival_spec(self) -> ArrivalSpec:
        """The cluster-wide arrival regime (shard 0's, normalized)."""
        return self.shards[0].arrival_spec()

    # -- fingerprinting ------------------------------------------------------

    def fingerprint(self, **extra: Any) -> str:
        """Content hash of this cluster (plus run parameters).

        A one-shard cluster (with no replicas) hashes to **exactly**
        its shard's single-engine fingerprint: the two runs are
        bit-identical, so sharing cache entries between the two
        representations is sound (and pinned by the regression suite).
        """
        if len(self.shards) == 1 and self.replicas_per_shard == 0:
            return self.shards[0].fingerprint(**extra)
        return content_digest(self, extra)


AnyConfig = Union[SystemConfig, ClusterConfig]
