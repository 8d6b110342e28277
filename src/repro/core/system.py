"""What one simulated system is, and what a run of it measured.

:class:`SystemConfig` describes one engine behind the external
scheduler and content-hashes into the result cache's key
(:func:`canonical_jsonable`, :func:`content_digest`); a
:class:`RunResult` is a run's post-warmup measurements.  Both are pure
data: the system that runs a config lives in
:mod:`repro.core.simulation`.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any, Dict, Optional

from repro.core.arrivals import (
    ArrivalSpec,
    ClosedArrivals,
    OpenArrivals,
    fraction_high_assigner,
)
from repro.dbms.config import HardwareConfig, InternalPolicy, IsolationLevel
from repro.dbms.transaction import Priority
from repro.workloads.spec import WorkloadSpec


def canonical_jsonable(value: Any) -> Any:
    """A deterministic, JSON-encodable view of a config object graph.

    Dataclasses and plain objects become ``{"__class__": name, ...}``
    maps, enums their values, dicts get string keys (sorted by
    :func:`json.dumps` at hash time).  The encoding is *canonical* —
    two structurally equal configs encode identically regardless of
    construction order — which is what makes content-addressed result
    caching sound.  It is not meant to round-trip back into objects.

    A dataclass may declare ``FINGERPRINT_OMIT_DEFAULTS`` (a set of
    field names): those fields are left out of the encoding while they
    hold their declared default.  Config fields added after a release
    go there, so every pre-existing config keeps its exact content hash
    — and hence its cache entries — while non-default values of the
    new field still change the hash as they must.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        omit = getattr(type(value), "FINGERPRINT_OMIT_DEFAULTS", ())
        fields = {}
        for f in dataclasses.fields(value):
            field_value = getattr(value, f.name)
            if f.name in omit and field_value == f.default:
                continue
            fields[f.name] = canonical_jsonable(field_value)
        return {"__class__": type(value).__name__, **fields}
    if isinstance(value, dict):
        # enum keys encode by value so the encoding is stable across
        # Python versions (IntEnum.__str__ changed in 3.11)
        return {
            str(k.value if isinstance(k, enum.Enum) else k): canonical_jsonable(v)
            for k, v in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [canonical_jsonable(v) for v in value]
    # Distributions and other plain parameter objects: class name plus
    # their instance attributes (floats/ints/lists, possibly nested).
    state = getattr(value, "__dict__", None)
    if state is not None:
        return {
            "__class__": type(value).__name__,
            **{k: canonical_jsonable(v) for k, v in sorted(state.items())},
        }
    raise TypeError(f"cannot canonically encode {type(value).__name__}: {value!r}")


def content_digest(config_payload: Any, extra: Dict[str, Any]) -> str:
    """The canonical sha256 over a config payload + run parameters.

    The single hashing recipe behind every content-addressed cache key
    (:meth:`SystemConfig.fingerprint`,
    :meth:`~repro.core.cluster_config.ClusterConfig.fingerprint`).
    """
    payload = {"config": config_payload, "extra": canonical_jsonable(extra)}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclasses.dataclass(frozen=True)
class SystemConfig:
    """Everything needed to build one simulated system.

    The arrival regime comes from ``arrival`` — any
    :class:`~repro.core.arrivals.ArrivalSpec` (closed, open Poisson,
    partly-open sessions, modulated rates).  The legacy knobs remain:
    with ``arrival=None`` (the default), ``num_clients`` /
    ``think_time_s`` describe a closed system and setting
    ``arrival_rate`` switches to open Poisson at that rate — and those
    legacy configs keep the exact content fingerprints they had before
    ``arrival`` existed (the field is omitted from the canonical
    encoding at its default), so cached results stay valid.
    """

    workload: WorkloadSpec
    hardware: HardwareConfig
    isolation: IsolationLevel = IsolationLevel.RR
    internal: Optional[InternalPolicy] = None
    mpl: Optional[int] = None
    policy: str = "fifo"
    num_clients: int = 100
    think_time_s: float = 0.0
    arrival_rate: Optional[float] = None
    high_priority_fraction: float = 0.0
    seed: int = 1
    arrival: Optional[ArrivalSpec] = None

    FINGERPRINT_OMIT_DEFAULTS = frozenset({"arrival"})

    def __post_init__(self) -> None:
        if self.arrival is not None and self.arrival_rate is not None:
            raise ValueError(
                "specify either an arrival spec or the legacy arrival_rate, not both"
            )

    def arrival_spec(self) -> ArrivalSpec:
        """The effective arrival regime (legacy knobs normalized)."""
        if self.arrival is not None:
            return self.arrival
        if self.arrival_rate is not None:
            if self.arrival_rate <= 0:
                raise ValueError(
                    f"arrival_rate must be positive, got {self.arrival_rate!r}"
                )
            return OpenArrivals(rate=self.arrival_rate)
        return ClosedArrivals(
            num_clients=self.num_clients, think_time_s=self.think_time_s
        )

    def priority_assigner(self):
        """The per-transaction priority assigner (None = all LOW)."""
        if self.high_priority_fraction > 0:
            return fraction_high_assigner(self.high_priority_fraction)
        return None

    def to_jsonable(self) -> Dict[str, Any]:
        """Canonical JSON-encodable view (see :func:`canonical_jsonable`)."""
        return canonical_jsonable(self)

    def fingerprint(self, **extra: Any) -> str:
        """Content hash of this config (plus run parameters in ``extra``).

        Two configs share a fingerprint iff they describe the same
        simulation — the cache key of the parallel experiment runner.
        """
        return content_digest(self.to_jsonable(), extra)


@dataclasses.dataclass(frozen=True)
class RunResult:
    """Post-warmup measurements of one run."""

    mpl: Optional[int]
    completed: int
    sim_time: float
    throughput: float
    mean_response_time: float
    response_time_by_class: Dict[int, float]
    count_by_class: Dict[int, int]
    response_time_scv: float
    utilizations: Dict[str, float]
    restart_rate: float
    mean_external_wait: float
    mean_lock_wait: float

    @property
    def high_response_time(self) -> float:
        """Mean response time of the HIGH class (0.0 if absent)."""
        return self.response_time_by_class.get(int(Priority.HIGH), 0.0)

    @property
    def low_response_time(self) -> float:
        """Mean response time of the LOW class (0.0 if absent)."""
        return self.response_time_by_class.get(int(Priority.LOW), 0.0)

    @property
    def differentiation(self) -> float:
        """Low-to-high response time ratio (the paper's "factor")."""
        high = self.high_response_time
        if high <= 0:
            return 0.0
        return self.low_response_time / high

    def to_json_dict(self) -> Dict[str, Any]:
        """A JSON-encodable dict that round-trips via :meth:`from_json_dict`."""
        payload = dataclasses.asdict(self)
        # str(int(k)), not str(k): keys are Priority IntEnum members and
        # IntEnum.__str__ is version-dependent (3.10: "Priority.LOW")
        payload["response_time_by_class"] = {
            str(int(k)): v for k, v in self.response_time_by_class.items()
        }
        payload["count_by_class"] = {
            str(int(k)): v for k, v in self.count_by_class.items()
        }
        return payload

    @classmethod
    def from_json_dict(cls, payload: Dict[str, Any]) -> "RunResult":
        """Rebuild a result previously produced by :meth:`to_json_dict`."""
        data = dict(payload)
        data["response_time_by_class"] = {
            int(k): float(v) for k, v in data.get("response_time_by_class", {}).items()
        }
        data["count_by_class"] = {
            int(k): int(v) for k, v in data.get("count_by_class", {}).items()
        }
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})
