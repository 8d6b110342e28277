"""Fault injection: a scheduled timeline of cluster failures.

A :class:`FaultSpec` is the fourth scenario axis — *what goes wrong and
when*.  It is a frozen, fingerprintable value like the other spec axes:
a tuple of events (:class:`KillShard`, :class:`RestoreShard`,
:class:`DegradeShard`), each pinned to a simulated-clock instant.  Its
JSON face is the shared spec codec (:mod:`repro.core.spec_codec`),
with the events a tagged union keyed by ``type``.

The :class:`~repro.core.cluster.FaultInjector` turns the spec into
behaviour: it arms one simulator timeout per event, and each callback
drives the matching :class:`~repro.core.cluster.ClusteredSystem`
transition (``kill_shard`` / ``restore_shard`` /
``degrade_shard``).  Every applied event is logged with its fire time so a run's fault history
lands in the :class:`~repro.core.scenario.ScenarioOutcome`.

Fault semantics are fail-stop at the admission boundary: a killed node
stops accepting new work, in-flight transactions drain to completion,
and queued-but-undispatched transactions are re-homed (replica-group
election buffer or router re-route) — so the cluster-wide conservation
law ``routed = completed + in-service + queued + buffered`` holds
through any kill/restore sequence.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

from repro.core.spec_codec import UNIONS, check_fields, spec_field
from repro.core.system import canonical_jsonable, content_digest


@dataclasses.dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: something happens to ``shard`` at ``at``."""

    #: Fire time; must be finite, or the timeout it arms never fires.
    at: float = spec_field(ge=0)
    shard: int = spec_field(ge=0)

    #: Codec tag; subclasses override.
    kind = "fault"

    def __post_init__(self):
        check_fields(self)

    def fingerprint(self) -> str:
        """Content digest of this single event (class name included)."""
        return content_digest(canonical_jsonable(self), {})

    def describe(self) -> str:
        return f"t={self.at:g}s {self.kind} shard {self.shard}"


@dataclasses.dataclass(frozen=True)
class KillShard(FaultEvent):
    """Fail-stop the shard's acting primary (or the whole shard).

    With replicas the group elects a new primary after its election
    timeout; without replicas the router takes the shard out of
    rotation and re-homes its queued work.
    """

    kind = "kill"


@dataclasses.dataclass(frozen=True)
class RestoreShard(FaultEvent):
    """Bring a shard's dead members back (and undo any degrade).

    Revived members rejoin as replicas; a fully-dead shard comes back
    with its lowest-index member as primary and re-enters the routing
    rotation.
    """

    kind = "restore"


@dataclasses.dataclass(frozen=True)
class DegradeShard(FaultEvent):
    """Scale the shard's MPL by ``factor`` (partial brown-out).

    A no-op for unlimited-MPL shards: there is no admission limit to
    shrink.  ``RestoreShard`` undoes the degradation.
    """

    kind = "degrade"
    factor: float = spec_field(0.5, gt=0, le=1)

    def describe(self) -> str:
        return f"t={self.at:g}s degrade shard {self.shard} to {self.factor:g}x"


#: Event-type registry for the JSON codec (keyed by each class's ``kind``).
FAULT_EVENT_TYPES: Dict[str, type] = {
    "kill": KillShard,
    "restore": RestoreShard,
    "degrade": DegradeShard,
}
UNIONS[FaultEvent] = FAULT_EVENT_TYPES


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """The fault axis of a scenario: an ordered tuple of events."""

    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self):
        check_fields(self)
        if not self.events:
            raise ValueError("a FaultSpec needs at least one event")

    def max_shard(self) -> int:
        """Highest shard index any event touches."""
        return max(event.shard for event in self.events)

    def fingerprint(self) -> str:
        """Content digest of the whole timeline."""
        return content_digest(canonical_jsonable(self), {})

    def event_fingerprints(self) -> Tuple[str, ...]:
        """Per-event digests (each event is individually addressable)."""
        return tuple(event.fingerprint() for event in self.events)
