"""``@specclass`` against the standard library's ``@dataclasses.dataclass``.

Every dataclass in ``src/`` is declared through
:func:`repro.core.specclass.specclass`.  For each one this file builds a
stdlib twin (the same class body under ``dataclasses.dataclass``) and
checks that the two agree on what callers see: the constructor's
signature, the docstring, ``__match_args__`` and ``fields()``.  On every
spec instance the figure grids, the demo scenarios and the fuzz corpus
build, the twin's own ``__init__``, ``__eq__``, ``__hash__`` and
``__repr__``, applied to that instance, must give what the decorator's
give, and ``replace`` and a pickle round trip must keep it equal.
"""

import dataclasses
import glob
import importlib
import inspect
import json
import os
import pathlib
import pickle
import pkgutil
import re
from typing import List, Optional, Tuple

import pytest

import repro
from repro.core import specclass as specclass_module
from repro.core.scenario import ScenarioSpec, demo_scenarios
from repro.core.specclass import specclass
from repro.experiments.figures import FIGURE_GRIDS
from repro.workloads.setups import get_setup

SRC = pathlib.Path(repro.__file__).resolve().parent
CORPUS_DIR = os.path.join(os.path.dirname(__file__), "data", "fuzz_corpus")

#: What the standard library (or Python) puts in a dataclass's namespace.
_GENERATED = {
    "__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__",
    "__dataclass_fields__", "__dataclass_params__", "__match_args__",
    "__dict__", "__weakref__", "__doc__", "_abc_impl", "__abstractmethods__",
    # CPython 3.13: the stdlib's copy.replace hook, and what the compiler
    # records about the class body
    "__replace__", "__static_attributes__", "__firstlineno__",
}


def _src_dataclasses() -> List[type]:
    classes = set()
    for info in pkgutil.walk_packages([str(SRC)], "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and value.__module__ == module.__name__
                and dataclasses.is_dataclass(value)
            ):
                classes.add(value)
    return sorted(classes, key=lambda cls: (cls.__module__, cls.__qualname__))


SRC_DATACLASSES = _src_dataclasses()
_TWINS: dict = {}


def _documented(cls: type) -> bool:
    return not (cls.__doc__ or "").startswith(cls.__name__ + "(")


def _frozen(cls: type) -> bool:
    return "__setattr__" in cls.__dict__


def twin(cls: type) -> type:
    """``cls``'s body rebuilt under the standard library's decorator."""
    if cls in _TWINS:
        return _TWINS[cls]
    own = cls.__dict__.get("__annotations__", {})
    namespace = {
        name: value for name, value in cls.__dict__.items()
        if name not in _GENERATED and name not in own
    }
    namespace["__doc__"] = cls.__doc__ if _documented(cls) else None
    for f in dataclasses.fields(cls):
        if f.name in own:
            namespace[f.name] = dataclasses.field(
                default=f.default, default_factory=f.default_factory, init=f.init,
                repr=f.repr, hash=f.hash, compare=f.compare, metadata=f.metadata,
            )
    bases = tuple(twin(base) if base in SRC_DATACLASSES else base for base in cls.__bases__)
    built = type(cls)(cls.__name__, bases, namespace)
    built.__qualname__ = cls.__qualname__
    _TWINS[cls] = dataclasses.dataclass(frozen=_frozen(cls))(built)
    return _TWINS[cls]


def _field_view(cls: type) -> list:
    return [
        (f.name, f.type, f.default, f.default_factory, f.init, f.repr, f.hash,
         f.compare, dict(f.metadata))
        for f in dataclasses.fields(cls)
    ]


# -- every class ---------------------------------------------------------------


def test_every_src_dataclass_is_declared_through_specclass():
    declared = 0
    for path in SRC.rglob("*.py"):
        text = path.read_text(encoding="utf-8")
        assert "@dataclasses.dataclass" not in text, path
        declared += len(re.findall(r"^@specclass\b", text, re.MULTILINE))
    assert declared == len(SRC_DATACLASSES) > 50


@pytest.mark.parametrize("cls", SRC_DATACLASSES, ids=lambda cls: cls.__qualname__)
def test_class_matches_its_stdlib_twin(cls):
    std = twin(cls)
    mine, theirs = inspect.signature(cls), inspect.signature(std)
    assert str(mine) == str(theirs)
    for ours, stdlib in zip(mine.parameters.values(), theirs.parameters.values()):
        assert (ours.name, ours.kind, ours.annotation) == (
            stdlib.name, stdlib.kind, stdlib.annotation)
        if repr(stdlib.default) != "<factory>":
            assert ours.default is stdlib.default
    assert mine.return_annotation is theirs.return_annotation
    assert cls.__doc__ == std.__doc__
    assert cls.__match_args__ == std.__match_args__
    assert _field_view(cls) == _field_view(std)
    if _frozen(cls):
        assert cls.__hash__ is not None
    else:
        assert cls.__hash__ is None and std.__hash__ is None


# -- every instance --------------------------------------------------------------


def _instances(value, seen: dict) -> None:
    """Every dataclass instance reachable from ``value``, by id."""
    if isinstance(value, (list, tuple)):
        for item in value:
            _instances(item, seen)
    elif isinstance(value, dict):
        for item in value.values():
            _instances(item, seen)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        if id(value) not in seen:
            seen[id(value)] = value
            for f in dataclasses.fields(value):
                _instances(getattr(value, f.name), seen)


def _corpus_specs(monkeypatch) -> List[ScenarioSpec]:
    monkeypatch.chdir(CORPUS_DIR)  # entries name their trace files relatively
    specs = []
    for path in sorted(glob.glob("*.json")):
        with open(path, encoding="utf-8") as handle:
            entry = json.load(handle)
        if entry["expect"] != "validation_error":
            specs.append(ScenarioSpec.from_json_dict(entry["spec"]))
    assert specs
    return specs


@pytest.fixture
def spec_instances(monkeypatch):
    specs = [spec for build in FIGURE_GRIDS.values() for fast in (True, False)
             for spec in build(fast)]
    specs += list(demo_scenarios().values())
    specs += _corpus_specs(monkeypatch)
    seen: dict = {}
    # a cell's config carries the workload, hardware and cluster classes
    _instances(specs + [spec.build_config() for spec in specs], seen)
    return list(seen.values())


_SUBCLASSES: dict = {}


def _subclass_instance(obj):
    """``obj``'s fields in an instance of a ``specclass`` subclass."""
    cls = type(obj)
    if cls not in _SUBCLASSES:
        body = type(cls.__name__ + "Sub", (cls,), {"__doc__": "A subclass."})
        _SUBCLASSES[cls] = specclass(body, frozen=_frozen(cls))
    sub = object.__new__(_SUBCLASSES[cls])
    sub.__dict__.update(obj.__dict__)
    return sub


def _init_kwargs(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj) if f.init}


def test_instances_behave_as_under_the_stdlib(spec_instances):
    classes = set()
    for obj in spec_instances:
        cls, std = type(obj), twin(type(obj))
        classes.add(cls)
        assert repr(obj) == std.__repr__(obj)

        # __init__: the twin's, run on a bare instance, leaves the same state
        kwargs = _init_kwargs(obj)
        ours = cls(**kwargs)
        theirs = object.__new__(cls)
        std.__init__(theirs, **kwargs)
        assert ours.__dict__ == theirs.__dict__

        # ==, != and hash, against a copy, another class and a subclass
        other = object()
        sub = _subclass_instance(obj)
        for candidate in (ours, other, sub):
            assert cls.__eq__(obj, candidate) == std.__eq__(obj, candidate)
        assert obj == ours and not obj != ours
        assert obj != other and not obj == other
        assert obj != sub and sub != obj
        if _frozen(cls):
            assert hash(obj) == std.__hash__(obj) == hash(ours)

        replaced = dataclasses.replace(obj)
        assert type(replaced) is cls and replaced == obj and repr(replaced) == repr(obj)
        # a distribution compares by identity, so a workload's copy need
        # not equal it; the twin must agree either way
        restored = pickle.loads(pickle.dumps(obj))
        assert type(restored) is cls and repr(restored) == repr(obj)
        assert (restored == obj) is std.__eq__(restored, obj)
    assert len(classes) >= 25


# -- frozen guards, memos, hashing ----------------------------------------------------


def test_frozen_instances_refuse_set_and_delete():
    from repro.core.faults import FaultEvent, KillShard

    workload = get_setup(1).workload
    kill = KillShard(at=1.0, shard=0)

    @specclass(frozen=True)
    class LateKill(KillShard):
        """A frozen subclass declared outside ``src/``."""

        note: str = ""

    late = LateKill(at=2.0, shard=1, note="x")
    for obj, name in ((workload, "name"), (kill, "at"), (late, "note"), (late, "shard")):
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"assign to field '{name}'"):
            setattr(obj, name, getattr(obj, name))
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"delete field '{name}'"):
            delattr(obj, name)
    # a non-field attribute is refused too on the declaring class itself
    with pytest.raises(dataclasses.FrozenInstanceError):
        kill.extra = 1
    assert isinstance(late, FaultEvent) and late != KillShard(at=2.0, shard=1)
    assert repr(late) == "test_frozen_instances_refuse_set_and_delete.<locals>.LateKill(" \
        "at=2.0, shard=1, note='x')"


def test_memo_attributes_set_through_object_setattr_still_work():
    workload = get_setup(1).workload
    assert workload._total_weight == sum(t.weight for t in workload.types)
    spec = FIGURE_GRIDS["4"](True)[0]
    config = spec.build_config()
    first = config.fingerprint()
    assert isinstance(config.workload._canonical_json, str)
    assert config.fingerprint() == first == spec.build_config().fingerprint()
    assert dataclasses.replace(config) == config


def test_mutable_classes_are_unhashable_and_assignable():
    from repro.experiments.parallel import RunnerStats

    stats = RunnerStats()
    with pytest.raises(TypeError, match="unhashable"):
        hash(stats)
    before = repr(stats)
    stats.executed += 1
    assert repr(stats) != before and stats != RunnerStats()
    del stats.executed
    assert "executed" not in stats.__dict__


def test_recursive_repr_and_default_factories():
    @specclass
    class Node:
        """A mutable node that can point at itself."""

        label: str
        children: List["Node"] = dataclasses.field(default_factory=list)
        parent: Optional["Node"] = None

    @dataclasses.dataclass
    class StdNode:
        """The same node under the standard library."""

        label: str
        children: List["StdNode"] = dataclasses.field(default_factory=list)
        parent: Optional["StdNode"] = None

    ours, theirs = Node("a"), StdNode("a")
    ours.children.append(ours)
    theirs.children.append(theirs)
    assert repr(ours).replace("Node", "X") == repr(theirs).replace("StdNode", "X")
    assert Node("b").children is not Node("b").children
    assert str(inspect.signature(Node)).replace("'Node'", "'StdNode'") == str(
        inspect.signature(StdNode))


def test_zero_and_one_field_classes_hash_like_the_stdlib():
    @specclass(frozen=True)
    class Empty:
        """No fields."""

    @specclass(frozen=True)
    class One:
        """One field."""

        value: Tuple[int, ...]

    assert hash(Empty()) == hash(()) and Empty() == Empty() and repr(Empty()).endswith("Empty()")
    assert hash(One((1, 2))) == hash(((1, 2),)) and One((1,)) != One((2,))


def test_field_repr_compare_and_hash_options_act_as_under_the_stdlib():
    def body():
        return {
            "__annotations__": {"a": int, "b": int, "c": int},
            "b": dataclasses.field(default=2, repr=False),
            "c": dataclasses.field(default=3, compare=False),
        }

    ours = specclass(type("Options", (), body()), frozen=True)
    theirs = dataclasses.dataclass(type("Options", (), body()), frozen=True)
    assert repr(ours(1)) == repr(theirs(1)) == "Options(a=1, c=3)"
    assert (ours(1, 2, 3) == ours(1, 2, 4)) == (theirs(1, 2, 3) == theirs(1, 2, 4))
    assert hash(ours(1, 2, 3)) == hash(theirs(1, 2, 4))


def test_each_class_is_built_with_one_exec(monkeypatch):
    calls = []

    def counting_exec(source, *namespaces):
        calls.append(source)
        return exec(source, *namespaces)

    # both modules call the builtin through a global lookup
    monkeypatch.setattr(specclass_module, "exec", counting_exec, raising=False)
    monkeypatch.setattr(dataclasses, "exec", counting_exec, raising=False)

    @specclass(frozen=True)
    class Probe:
        """Defaults, a factory and a post-init hook."""

        a: int
        b: float = 1.0
        c: Tuple[int, ...] = dataclasses.field(default_factory=tuple)

        def __post_init__(self):
            object.__setattr__(self, "_sum", self.a + self.b)

    assert len(calls) == 1 and calls[0].startswith("def __init__(self, a, b, c):")
    assert Probe(1)._sum == 2.0 and Probe(1, c=(3,)).c == (3,)


def test_refuses_what_it_does_not_build():
    with pytest.raises(TypeError, match="kw_only"):
        @specclass
        class KeywordOnly:
            """A keyword-only field."""

            a: int = dataclasses.field(kw_only=True)

    with pytest.raises(TypeError, match="non-default argument 'b' follows default argument"):
        @specclass
        class Misordered:
            """A required field after a defaulted one."""

            a: int = 0
            b: int

    with pytest.raises(TypeError, match="Cannot overwrite attribute __setattr__"):
        @specclass(frozen=True)
        class OwnSetattr:
            """A frozen class that defines its own __setattr__."""

            a: int

            def __setattr__(self, name, value):
                object.__setattr__(self, name, value)


def test_methods_the_class_body_defines_are_kept():
    @specclass(frozen=True)
    class Custom:
        """Its own repr and equality."""

        a: int

        def __repr__(self):
            return "custom"

        def __eq__(self, other):
            return True

    assert repr(Custom(1)) == "custom" and Custom(1) == Custom(2)
    assert hash(Custom(1)) == hash((1,))  # __eq__ alone leaves hashing to the decorator
