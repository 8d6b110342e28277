"""What one simulated system is, and what a run of it measured.

:class:`SystemConfig` describes one engine behind the external
scheduler and content-hashes into the result cache's key
(:func:`canonical_json`, :func:`content_digest`); a
:class:`RunResult` is a run's post-warmup measurements.  Both are pure
data: the system that runs a config lives in
:mod:`repro.core.simulation`.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Dict, List, Optional

from repro.core.arrivals import (
    ArrivalSpec,
    ClosedArrivals,
    OpenArrivals,
    fraction_high_assigner,
)
from repro.dbms.config import HardwareConfig, InternalPolicy, IsolationLevel
from repro.dbms.transaction import Priority
from repro.workloads.spec import WorkloadSpec


def canonical_json(value: Any) -> str:
    """The canonical JSON text of a config object graph.

    Dataclasses and plain objects become ``{"__class__": name, ...}``
    objects, enums their values, dicts get string keys, tuples are
    lists, and every object's keys are sorted; the text has no
    whitespace and escapes non-ASCII characters, floats as
    ``float.__repr__`` with ``NaN``/``Infinity``, exactly as
    ``json.dumps(..., sort_keys=True, separators=(",", ":"))`` would
    spell that view.  The encoding is *canonical* — two structurally
    equal configs encode identically regardless of construction order —
    which is what makes content-addressed result caching sound.  It is
    not meant to round-trip back into objects.

    A dataclass may declare ``FINGERPRINT_OMIT_DEFAULTS`` (a set of
    field names): those fields are left out of the encoding while they
    hold their declared default.  Config fields added after a release
    go there, so every pre-existing config keeps its exact content hash
    — and hence its cache entries — while non-default values of the
    new field still change the hash as they must.

    One walk writes the text: each dataclass type's field plan (sorted
    keys, their encoded text, the omitted defaults) is built on first
    sight, and a :class:`~repro.workloads.spec.WorkloadSpec`'s text is
    kept on the instance, because the workload is most of a config's
    text and the registry's instances are shared by every cell.  That
    is sound: the class is frozen, and ``dataclasses.replace`` builds a
    new instance that encodes afresh.
    """
    parts: List[str] = []
    _write(value, parts.append)
    return "".join(parts)


def content_digest(config: Any, extra: Dict[str, Any]) -> str:
    """The canonical sha256 over a config + run parameters.

    The single hashing recipe behind every content-addressed cache key
    (:meth:`SystemConfig.fingerprint`,
    :meth:`~repro.core.cluster_config.ClusterConfig.fingerprint`): the
    hash of ``{"config": config, "extra": extra}``'s canonical JSON.
    """
    text = canonical_json({"config": config, "extra": extra})
    return hashlib.sha256(text.encode()).hexdigest()


_Out = Callable[[str], None]
#: Appends one value's canonical JSON text through ``out``.
_Writer = Callable[[Any, _Out], None]

#: JSON's spelling of the floats whose ``float.__repr__`` it does not use.
_FLOAT_SPELLING = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

#: Instance attribute keeping a :class:`WorkloadSpec`'s canonical text.
_WORKLOAD_TEXT = "_canonical_json"


def _write(value: Any, out: _Out) -> None:
    cls = type(value)
    (_WRITERS.get(cls) or _writer_for(cls))(value, out)


def _write_float(value: float, out: _Out) -> None:
    text = float.__repr__(value)
    out(_FLOAT_SPELLING.get(text, text))


def _write_enum(value: enum.Enum, out: _Out) -> None:
    _write(value.value, out)


def _write_sequence(value: Any, out: _Out) -> None:
    sep = "["
    for item in value:
        out(sep)
        _write(item, out)
        sep = ","
    out("]" if sep == "," else "[]")


def _write_members(members: Dict[str, Any], out: _Out) -> None:
    """A JSON object with ``members``' keys in sorted order."""
    sep = "{"
    for key in sorted(members):
        out(sep)
        out(encode_basestring_ascii(key))
        out(":")
        _write(members[key], out)
        sep = ","
    out("}" if sep == "," else "{}")


def _write_dict(value: Dict[Any, Any], out: _Out) -> None:
    # enum keys encode by value so the encoding is stable across
    # Python versions (IntEnum.__str__ changed in 3.11)
    _write_members(
        {str(k.value if isinstance(k, enum.Enum) else k): v for k, v in value.items()},
        out,
    )


def _write_object(value: Any, out: _Out) -> None:
    # Distributions and other plain parameter objects: class name plus
    # their instance attributes (floats/ints/lists, possibly nested).
    state = getattr(value, "__dict__", None)
    if state is None:
        raise TypeError(f"cannot canonically encode {type(value).__name__}: {value!r}")
    _write_members({"__class__": type(value).__name__, **state}, out)


def _dataclass_writer(cls: type) -> _Writer:
    """``cls``'s field plan, compiled into the writer of its instances.

    The plan lists the members in key order, ``__class__`` among them,
    each as (field name or None for the class, encoded key, whether the
    field is omitted at its default, that default).
    """
    omit = getattr(cls, "FINGERPRINT_OMIT_DEFAULTS", ())
    class_text = encode_basestring_ascii(cls.__name__)
    members = [("__class__", None, False, None)] + [
        (f.name, f.name, f.name in omit, f.default) for f in dataclasses.fields(cls)
    ]
    plan = [
        (name, encode_basestring_ascii(key) + ":", omits, default)
        for key, name, omits, default in sorted(members, key=lambda member: member[0])
    ]

    def write(value: Any, out: _Out) -> None:
        sep = "{"
        for name, key, omits, default in plan:
            if name is None:
                out(sep)
                out(key)
                out(class_text)
            else:
                field_value = getattr(value, name)
                if omits and field_value == default:
                    continue
                out(sep)
                out(key)
                _write(field_value, out)
            sep = ","
        out("}")

    if not issubclass(cls, WorkloadSpec):
        return write

    def write_workload(value: Any, out: _Out) -> None:
        text = value.__dict__.get(_WORKLOAD_TEXT)
        if text is None:
            parts: List[str] = []
            write(value, parts.append)
            text = "".join(parts)
            # not a dataclass field: equality, hashing and fields() ignore it
            object.__setattr__(value, _WORKLOAD_TEXT, text)
        out(text)

    return write_workload


def _writer_for(cls: type) -> _Writer:
    """Pick (and remember) the writer of ``cls``'s instances.

    The order is the encoding's: subclasses of ``bool``/``int``/
    ``float``/``str`` (``IntEnum``, str enums) encode as those, other
    enums as their value, then dataclasses, dicts, lists and tuples,
    and plain objects by their attributes.
    """
    for base in (bool, int, float, str):
        if issubclass(cls, base):
            writer = _WRITERS[base]
            break
    else:
        if issubclass(cls, enum.Enum):
            writer = _write_enum
        elif dataclasses.is_dataclass(cls):
            writer = _dataclass_writer(cls)
        elif issubclass(cls, dict):
            writer = _write_dict
        elif issubclass(cls, (list, tuple)):
            writer = _write_sequence
        else:
            writer = _write_object
    _WRITERS[cls] = writer
    return writer


_WRITERS: Dict[type, _Writer] = {
    type(None): lambda value, out: out("null"),
    bool: lambda value, out: out("true" if value else "false"),
    int: lambda value, out: out(int.__repr__(value)),
    float: _write_float,
    str: lambda value, out: out(encode_basestring_ascii(value)),
    list: _write_sequence,
    tuple: _write_sequence,
    dict: _write_dict,
}


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

    def fingerprint(self, **extra: Any) -> str:
        """Content hash of this config (plus run parameters in ``extra``).

        Two configs share a fingerprint iff they describe the same
        simulation — the cache key of the parallel experiment runner.
        """
        return content_digest(self, extra)


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
