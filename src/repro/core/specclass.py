"""The project's dataclass decorator: one ``exec`` per class.

Every dataclass in :mod:`repro` is declared ``@specclass`` or
``@specclass(frozen=True)``.  The standard library's decorator compiles
each generated method from source (``__init__``, ``__repr__``,
``__eq__``, ``__hash__`` and, when frozen, ``__setattr__`` and
``__delattr__``: six ``exec`` calls per frozen class), and every CLI
call, benchmark worker and ``--jobs`` worker pays for that on import,
for each of the dozens of spec classes on the set-up path.
:func:`specclass` lets ``dataclasses.dataclass`` collect the fields and
set ``__dataclass_fields__``, ``__match_args__`` and the rest of what
``fields``, ``replace``, ``asdict`` and ``is_dataclass`` read, but has
it generate no method.  It then adds them itself:

* ``__init__`` is compiled once per class, with the same parameters,
  annotations and defaults as the standard library's (a
  ``default_factory`` field defaults to a ``<factory>`` marker),
  assigning through ``object.__setattr__`` on a frozen class and
  calling ``__post_init__`` last;
* ``__eq__``, ``__hash__``, ``__repr__`` and the frozen guards are
  closures over the class's field names, so they compile nothing.
  Each does what the standard library's method does: ``==`` compares
  the tuples of fields of two instances of the same class,
  ``__hash__`` hashes that tuple (a mutable class is unhashable),
  ``repr`` reads ``Name(field=value, ...)`` and guards against
  recursion, and assigning or deleting a field of a frozen instance
  raises ``dataclasses.FrozenInstanceError``.

A method the class body defines itself is kept, as the standard library
keeps it.  ``kw_only`` fields and ``InitVar`` pseudo-fields are
refused with a ``TypeError``; no class here uses them.
"""

from __future__ import annotations

import dataclasses
import inspect
import reprlib
from operator import attrgetter
from typing import Any, Callable, Optional, Tuple


class _Factory:
    """The default a ``default_factory`` parameter shows: ``<factory>``."""

    def __repr__(self) -> str:
        return "<factory>"


_FACTORY = _Factory()


def specclass(cls: Optional[type] = None, /, *, frozen: bool = False) -> Any:
    """``dataclasses.dataclass`` with its methods built at one ``exec``.

    Use it bare (``@specclass``) or with ``frozen=True``.
    """

    def wrap(cls: type) -> type:
        return _build(cls, frozen)

    return wrap if cls is None else wrap(cls)


def _build(cls: type, frozen: bool) -> type:
    documented = bool(cls.__doc__)
    if not documented:
        # keep the standard library from deriving a docstring from a
        # signature that has no __init__ yet; it is derived below
        cls.__doc__ = cls.__name__
    dataclasses.dataclass(cls, init=False, repr=False, eq=False)
    fields = dataclasses.fields(cls)
    names = tuple(f.name for f in fields)
    params = [f for f in fields if f.init]
    if tuple(f.name for f in params) != cls.__match_args__:
        raise TypeError(f"{cls.__qualname__}: kw_only and InitVar fields are not supported")

    _add(cls, "__init__", _init(cls, fields, params, frozen))
    _add(cls, "__repr__", _repr(tuple(f.name for f in fields if f.repr)))
    compared = _values([f.name for f in fields if f.compare])
    _add(cls, "__eq__", _eq(compared))
    class_hash = cls.__dict__.get("__hash__", dataclasses.MISSING)
    # a class body that defines __eq__ alone gets __hash__ = None from Python
    if class_hash is dataclasses.MISSING or (class_hash is None and "__eq__" in cls.__dict__):
        if frozen:
            hashed = [f.name for f in fields if (f.compare if f.hash is None else f.hash)]
            cls.__hash__ = _qualified(cls, _hash(_values(hashed)))
        else:
            cls.__hash__ = None
    if frozen:
        for name in ("__setattr__", "__delattr__"):
            if name in cls.__dict__:
                raise TypeError(f"Cannot overwrite attribute {name} in class {cls.__name__}")
        cls.__setattr__ = _qualified(cls, _frozen_setattr(cls, names))
        cls.__delattr__ = _qualified(cls, _frozen_delattr(cls, names))
    if not documented:
        try:
            text_sig = str(inspect.signature(cls)).replace(" -> None", "")
        except (TypeError, ValueError):
            text_sig = ""
        cls.__doc__ = cls.__name__ + text_sig
    return cls


def _add(cls: type, name: str, method: Callable) -> None:
    """Add ``method`` unless the class body defines ``name`` itself."""
    if name not in cls.__dict__:
        setattr(cls, name, _qualified(cls, method))


def _qualified(cls: type, method: Callable) -> Callable:
    method.__module__ = cls.__module__
    method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
    return method


def _has_default(f: dataclasses.Field) -> bool:
    return f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING


def _init(cls: type, fields: tuple, params: list, frozen: bool) -> Callable:
    """``__init__`` compiled from one generated ``def``."""
    seen_default = False
    for f in params:
        if _has_default(f):
            seen_default = True
        elif seen_default:
            raise TypeError(f"non-default argument {f.name!r} follows default argument")
    namespace: dict = {"__specclass_set__": object.__setattr__, "__specclass_factory__": _FACTORY}
    body = []
    for f in fields:
        value = f.name
        if f.default_factory is not dataclasses.MISSING:
            factory = f"__specclass_factory_{f.name}__"
            namespace[factory] = f.default_factory
            value = (
                f"{factory}() if {f.name} is __specclass_factory__ else {f.name}"
                if f.init else f"{factory}()"
            )
        elif not f.init:
            # the class attribute holds the default
            continue
        if frozen:
            body.append(f"__specclass_set__(self, {f.name!r}, {value})")
        else:
            body.append(f"self.{f.name} = {value}")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    source = "def __init__({}):\n    {}\n".format(
        ", ".join(["self"] + [f.name for f in params]),
        "\n    ".join(body or ["pass"]),
    )
    exec(source, namespace)
    init = namespace["__init__"]
    defaults = tuple(
        _FACTORY if f.default is dataclasses.MISSING else f.default
        for f in params if _has_default(f)
    )
    init.__defaults__ = defaults or None
    init.__annotations__ = {f.name: f.type for f in params}
    init.__annotations__["return"] = None
    return init


def _values(names: list) -> Callable[[Any], tuple]:
    """``instance -> tuple of the named fields``."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        value = attrgetter(names[0])
        return lambda instance: (value(instance),)
    return lambda instance: ()


def _repr(names: Tuple[str, ...]) -> Callable:
    values = _values(list(names))

    @reprlib.recursive_repr()
    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    return __repr__


def _eq(values: Callable[[Any], tuple]) -> Callable:
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    return __eq__


def _hash(values: Callable[[Any], tuple]) -> Callable:
    def __hash__(self):
        return hash(values(self))

    return __hash__


def _frozen_setattr(cls: type, names: Tuple[str, ...]) -> Callable:
    def __setattr__(self, name, value):
        if type(self) is cls or name in names:
            raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    return __setattr__


def _frozen_delattr(cls: type, names: Tuple[str, ...]) -> Callable:
    def __delattr__(self, name):
        if type(self) is cls or name in names:
            raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    return __delattr__
