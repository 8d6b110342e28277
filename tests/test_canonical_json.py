"""The one-pass canonical writer against the encoding it replaced.

``canonical_json`` and ``content_digest`` (``repro.core.system``) write
each cache key's canonical JSON in one walk.  The reference here is the
two-step encoding they replaced, kept verbatim: ``canonical_jsonable``
builds a JSON-encodable view, and ``json.dumps(..., sort_keys=True,
separators=(",", ":"))`` spells it.  Every key the runner computes must
come out byte-identical, or every result cache goes cold.
"""

import dataclasses
import enum
import glob
import hashlib
import json
import os
import pickle

import pytest

from repro.core.arrivals import ClosedArrivals
from repro.core.cluster_config import ClusterConfig
from repro.core.scenario import (
    MeasurementSpec,
    ScenarioSpec,
    StaticMpl,
    TopologySpec,
    WorkloadRef,
    demo_scenarios,
)
from repro.core.system import SystemConfig, canonical_json, content_digest
from repro.dbms.config import IsolationLevel
from repro.dbms.transaction import Priority
from repro.experiments import figures
from repro.sim.distributions import Empirical, Exponential, Hyperexponential, Mixture
from repro.workloads.setups import get_setup
from repro.workloads.traces import get_trace, trace_workload

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "data", "fuzz_corpus")


# -- the reference -------------------------------------------------------------


def canonical_jsonable(value):
    """The JSON-encodable view the cache keys were defined by."""
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
        return {
            str(k.value if isinstance(k, enum.Enum) else k): canonical_jsonable(v)
            for k, v in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [canonical_jsonable(v) for v in value]
    state = getattr(value, "__dict__", None)
    if state is not None:
        return {
            "__class__": type(value).__name__,
            **{k: canonical_jsonable(v) for k, v in sorted(state.items())},
        }
    raise TypeError(f"cannot canonically encode {type(value).__name__}: {value!r}")


def reference_text(value):
    return json.dumps(canonical_jsonable(value), sort_keys=True, separators=(",", ":"))


def reference_digest(config, extra):
    payload = {"config": canonical_jsonable(config), "extra": canonical_jsonable(extra)}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def reference_fingerprint(spec):
    """``ScenarioSpec.fingerprint`` as the two-step encoding computed it."""
    extra = {
        "transactions": spec.measurement.transactions,
        "warmup_fraction": spec.measurement.warmup_fraction,
    }
    if not isinstance(spec.control, StaticMpl):
        extra["control"] = canonical_jsonable(spec.control)
    if spec.measurement.metrics != ("standard",):
        extra["metrics"] = list(spec.measurement.metrics)
    if spec.measurement.timeline_bucket_s != 1.0:
        extra["timeline_bucket_s"] = spec.measurement.timeline_bucket_s
    for axis in ("faults", "resilience", "distributed"):
        if getattr(spec, axis) is not None:
            extra[axis] = canonical_jsonable(getattr(spec, axis))
    config = spec.build_config()
    if isinstance(config, ClusterConfig) and (
        len(config.shards) == 1 and config.replicas_per_shard == 0
    ):
        config = config.shards[0]
    return reference_digest(config, extra)


def assert_same_encoding(value):
    assert canonical_json(value) == reference_text(value)


def assert_same_keys(spec):
    """Every key of one scenario equals the reference's, and so does the
    text of its config and its faults."""
    assert canonical_json(spec.build_config()) == reference_text(spec.build_config())
    assert spec.fingerprint() == reference_fingerprint(spec)
    for axis, digest in spec.component_fingerprints().items():
        assert digest == reference_digest(getattr(spec, axis), {}), axis
    if spec.faults is not None:
        assert spec.faults.fingerprint() == reference_digest(spec.faults, {})
        for event in spec.faults.events:
            assert event.fingerprint() == reference_digest(event, {})


# -- every key the program computes ---------------------------------------------


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "full"])
@pytest.mark.parametrize("grid", sorted(figures.FIGURE_GRIDS))
def test_every_grid_cell_keys_as_the_reference(grid, fast):
    for spec in figures.FIGURE_GRIDS[grid](fast=fast):
        assert_same_keys(spec)


def test_demo_scenarios_key_as_the_reference():
    demos = demo_scenarios()
    assert demos
    for spec in demos.values():
        assert_same_keys(spec)


def test_fuzz_corpus_specs_key_as_the_reference(monkeypatch):
    monkeypatch.chdir(CORPUS_DIR)  # entries name their trace files relatively
    checked = 0
    for path in sorted(glob.glob("*.json")):
        with open(path, encoding="utf-8") as handle:
            entry = json.load(handle)
        if entry["expect"] == "validation_error":
            continue
        spec = ScenarioSpec.from_json_dict(entry["spec"])
        assert_same_keys(spec)
        assert spec.fingerprint() == entry["fingerprint"], path
        checked += 1
    assert checked >= 9


# -- edge cases -----------------------------------------------------------------


class Mode(str, enum.Enum):
    FAST = "fast"
    SLOW = "slów"


@dataclasses.dataclass(frozen=True)
class Holder:
    value: object = None
    late: float = 1.0

    FINGERPRINT_OMIT_DEFAULTS = frozenset({"late"})


@pytest.mark.parametrize("value", [
    float("nan"), float("inf"), -float("inf"), -0.0, 1e-300, 2.5, 10**30, True, None,
    [float("nan"), float("inf"), -float("inf")],
    "café ☃ \"quoted\"\n\ttab \x00 \U0001f600",
    {"naïve": 1, "ascii": "ünïcode"},
    Priority.HIGH, Mode.SLOW, IsolationLevel.RR,
    {Priority.HIGH: 1.5, Priority.LOW: 2}, {Mode.FAST: "a", IsolationLevel.UR: "b"},
    {1: "int key", "b": None, 2.5: [], (): {}},
    ((1, (2.5, ("x", ()))), [], {}),
    Exponential(0.02), Empirical([0.1, 0.25, 3.0]), Hyperexponential([0.9, 0.1], [10.0, 0.5]),
    Mixture([Exponential(1.0), Empirical([2.0])], [0.25, 0.75]),
    Holder(), Holder(late=2.0), Holder(value=Holder(late=float("nan"))),
    Holder(value=(Priority.LOW, Mode.FAST, {"k": Exponential(1.0)})),
], ids=repr)
def test_edge_cases_encode_as_the_reference(value):
    assert_same_encoding(value)
    assert content_digest(value, {"k": value}) == reference_digest(value, {"k": value})


def test_omitted_default_field_at_and_off_its_default():
    at_default, moved = TopologySpec(), TopologySpec(replicas_per_shard=1)
    assert "replicas_per_shard" not in canonical_json(at_default)
    assert '"replicas_per_shard":1' in canonical_json(moved)
    for value in (at_default, moved, MeasurementSpec(timeline_bucket_s=2.0)):
        assert_same_encoding(value)
    base = SystemConfig(workload=get_setup(1).workload, hardware=get_setup(1).hardware)
    closed = dataclasses.replace(base, arrival=ClosedArrivals(num_clients=100))
    assert base.fingerprint() != closed.fingerprint()
    for config in (base, closed):
        assert config.fingerprint(transactions=5) == reference_digest(
            config, {"transactions": 5}
        )


def test_one_shard_cluster_hashes_like_its_system_config():
    setup = get_setup(2)
    base = SystemConfig(workload=setup.workload, hardware=setup.hardware, mpl=4)
    cluster = ClusterConfig.scale_out(base, 1)
    extra = {"transactions": 500, "warmup_fraction": 0.2}
    assert cluster.fingerprint(**extra) == base.fingerprint(**extra)
    assert base.fingerprint(**extra) == reference_digest(base, extra)
    two = ClusterConfig.scale_out(base, 2)
    assert two.fingerprint(**extra) == reference_digest(two, extra)
    assert_same_encoding(two)


def test_unencodable_values_are_refused():
    with pytest.raises(TypeError, match="cannot canonically encode"):
        canonical_json(object())


# -- the workload text memo -------------------------------------------------------


def test_replaced_workload_fingerprints_apart_from_its_source():
    source = get_setup(1).workload
    canonical_json(source)  # the source's text is cached from here on
    bigger = dataclasses.replace(source, db_mb=source.db_mb * 2)
    assert canonical_json(bigger) != canonical_json(source)
    assert canonical_json(bigger) == reference_text(bigger)
    assert canonical_json(source) == reference_text(source)
    base = SystemConfig(workload=source, hardware=get_setup(1).hardware)
    moved = dataclasses.replace(base, workload=bigger)
    assert moved.fingerprint() != base.fingerprint()
    assert moved.fingerprint() == reference_digest(moved, {})


def test_pickled_workload_keeps_its_key():
    workload = get_setup(3).workload
    fresh = pickle.loads(pickle.dumps(dataclasses.replace(workload)))
    text = canonical_json(workload)
    assert canonical_json(fresh) == text
    assert canonical_json(pickle.loads(pickle.dumps(workload))) == text
    assert text == reference_text(workload)


def test_memo_is_invisible_to_equality_hashing_and_fields():
    workload = get_setup(5).workload
    canonical_json(workload)
    twin = dataclasses.replace(workload)
    assert twin == workload and hash(twin) == hash(workload)
    names = {f.name for f in dataclasses.fields(workload)}
    assert not any(name.startswith("_") for name in names)
    assert set(vars(workload)) - names  # the memo is an instance attribute only
    assert names == {f.name for f in dataclasses.fields(twin)}


def test_trace_cells_share_one_workload_per_trace():
    trace = get_trace("online-retailer", 500, None)
    assert trace.workload is trace.workload
    first = WorkloadRef(setup_id=None, trace="online-retailer", trace_transactions=500)
    second = WorkloadRef(setup_id=None, trace="online-retailer", trace_transactions=500)
    assert first.resolve()[0] is second.resolve()[0] is trace.workload
    assert canonical_json(trace.workload) == reference_text(trace_workload(trace))
