"""The scenario spec codec: field rules, field checks and JSON, once.

Every scenario axis is a frozen dataclass whose field annotations say
what a value may be.  This module walks those annotations for all three
jobs, so no axis carries its own encoder, decoder or type checks:

* :func:`spec_field` declares a field's single-field rules (``ge`` /
  ``gt`` / ``le`` / ``lt`` bounds, ``choices``, or a ``valid``
  callable) in its ``dataclasses.field`` metadata;
* :func:`check_fields` checks every field of a constructed spec against
  its annotation and rules.  Each spec's ``__post_init__`` calls it
  first, so Python callers and JSON files meet the same rules;
* :func:`encode` / :func:`decode` turn a spec into plain JSON data and
  back.  The decoder collects every problem, each at its field's
  JSON-pointer path (``/topology/shards``).

Types come from the annotations: an ``int`` rejects a ``bool``; a
``float`` must be finite and keeps an ``int`` as it is (``rate=5`` and
``rate=5.0`` hash differently); ``Optional`` allows ``None``; a
``Tuple`` travels as a JSON list; and an abstract base registered in
:data:`UNIONS` is a tagged union keyed by ``type``.  Rules that span
several fields stay in ``__post_init__`` as code, and the decoder
reports them at the path of the object that broke them.
"""

from __future__ import annotations

import dataclasses
import math
import operator
import typing
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

#: ``(path, message)`` pairs, paths in JSON-pointer style.
Problems = List[Tuple[str, str]]


class ScenarioValidationError(ValueError):
    """Every problem found in a scenario payload, reported at once.

    ``errors`` is a list of ``(path, message)`` pairs with
    JSON-pointer-style paths (``/topology/shards``,
    ``/faults/events/2``) so callers — the CLI in particular — can
    print one line per problem instead of failing on the first bad
    key.  Raised by :meth:`~repro.core.scenario.ScenarioSpec.from_json_dict`,
    and by a spec constructor whose fields break their types or rules
    (paths relative to that spec).
    """

    def __init__(self, errors: Sequence[Tuple[str, str]]):
        self.errors: Problems = [
            (str(path), str(message)) for path, message in errors
        ]
        lines = "\n".join(
            f"  {path or '/'}: {message}" for path, message in self.errors
        )
        super().__init__(
            f"{len(self.errors)} scenario problem(s):\n{lines}"
        )


#: Abstract spec base -> {``type`` tag: concrete class}.  The module
#: that defines a union registers it.
UNIONS: Dict[type, Dict[str, type]] = {}

#: Classes encoded by a hand-written ``(encode, decode)`` pair instead
#: of the walk; ``decode`` raises ``ValueError`` on a bad payload.
HOOKS: Dict[type, Tuple[Callable[[Any], Any], Callable[[Any], Any]]] = {}

_RULES = frozenset({"ge", "gt", "le", "lt", "choices", "valid", "derived"})


def spec_field(default: Any = dataclasses.MISSING, **rules: Any) -> Any:
    """A dataclass field whose single-field rules live in its metadata.

    ``ge`` / ``gt`` / ``le`` / ``lt`` bound a number, ``choices`` lists
    the allowed values, and ``valid`` is a callable that raises
    ``ValueError`` for a bad value.  On a ``Tuple`` field the rules
    apply to each item.  ``derived=True`` marks a field the spec
    computes itself: it is never encoded.
    """
    unknown = set(rules) - _RULES
    if unknown:
        raise TypeError(f"unknown field rules: {sorted(unknown)}")
    return dataclasses.field(default=default, metadata=rules)


# -- field checks --------------------------------------------------------------

_Check = Callable[[Any, str, Problems], None]


def _integer(value: Any) -> bool:
    # bool is an int subclass, but True is a bug where a count belongs
    return isinstance(value, int) and not isinstance(value, bool)


#: Scalar annotation -> (accepts a value, what a value must be).
_SCALARS: Dict[Any, Tuple[Callable[[Any], bool], str]] = {
    int: (_integer, "an integer"),
    float: (
        lambda value: _integer(value)
        or (isinstance(value, float) and math.isfinite(value)),
        "a finite number",
    ),
    bool: (lambda value: isinstance(value, bool), "a boolean"),
    str: (lambda value: isinstance(value, str), "a string"),
}

_BOUNDS = (
    ("ge", ">=", operator.ge),
    ("gt", ">", operator.gt),
    ("le", "<=", operator.le),
    ("lt", "<", operator.lt),
)


def _rule_checks(rules: Any) -> List[Callable[[Any], Optional[str]]]:
    """One ``value -> problem or None`` function per declared rule."""
    checks: List[Callable[[Any], Optional[str]]] = []
    for name, symbol, holds in _BOUNDS:
        if name in rules:
            bound = rules[name]
            checks.append(
                lambda value, bound=bound, symbol=symbol, holds=holds: None
                if holds(value, bound)
                else f"must be {symbol} {bound:g}, got {value!r}"
            )
    if "choices" in rules:
        choices = rules["choices"]
        checks.append(
            lambda value: None if value in choices else (
                f"unknown value {value!r}; available: "
                + ", ".join(map(str, choices))
            )
        )
    if "valid" in rules:
        valid = rules["valid"]

        def check_valid(value: Any) -> Optional[str]:
            try:
                valid(value)
            except ValueError as exc:
                return str(exc)
            return None

        checks.append(check_valid)
    return checks


def _optional_inner(hint: Any) -> Any:
    (inner,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
    return inner


def _tuple_items(hint: Any, count: int) -> Tuple[Any, ...]:
    """The item hints of a ``Tuple[...]`` hint, for ``count`` items."""
    args = typing.get_args(hint)
    return args[:1] * count if args[-1] is Ellipsis else args


def _compile_check(hint: Any, rules: Any) -> _Check:
    """A checker for values annotated ``hint`` under a field's ``rules``."""
    origin = typing.get_origin(hint)
    if origin is typing.Union:
        check_inner = _compile_check(_optional_inner(hint), rules)

        def check_optional(value: Any, path: str, problems: Problems) -> None:
            if value is not None:
                check_inner(value, path, problems)

        return check_optional
    if origin is tuple:
        args = typing.get_args(hint)
        checks = {arg: _compile_check(arg, rules) for arg in args if arg is not Ellipsis}

        def check_tuple(value: Any, path: str, problems: Problems) -> None:
            if not isinstance(value, tuple):
                problems.append((path, f"must be a tuple, got {value!r}"))
                return
            items = _tuple_items(hint, len(value))
            if len(items) != len(value):
                problems.append(
                    (path, f"must have {len(items)} items, got {value!r}")
                )
                return
            for index, (item, item_hint) in enumerate(zip(value, items)):
                checks[item_hint](item, f"{path}/{index}", problems)

        return check_tuple
    accepts, noun = _SCALARS.get(hint) or (
        lambda value: isinstance(value, hint), f"a {hint.__name__}"
    )
    rule_checks = _rule_checks(rules)

    def check_leaf(value: Any, path: str, problems: Problems) -> None:
        if not accepts(value):
            problems.append((path, f"must be {noun}, got {value!r}"))
            return
        for rule in rule_checks:
            problem = rule(value)
            if problem is not None:
                problems.append((path, problem))
                return

    return check_leaf


class _Field(NamedTuple):
    name: str
    hint: Any
    path: str
    check: _Check
    default: Any
    derived: bool


_PLANS: Dict[type, Dict[str, _Field]] = {}


def _plan(cls: type) -> Dict[str, _Field]:
    """``cls``'s fields by name, hints resolved and checks compiled once."""
    plan = _PLANS.get(cls)
    if plan is None:
        hints = typing.get_type_hints(cls)
        plan = {
            field.name: _Field(
                field.name,
                hints[field.name],
                f"/{field.name}",
                _compile_check(hints[field.name], field.metadata),
                field.default,
                bool(field.metadata.get("derived")),
            )
            for field in dataclasses.fields(cls)
        }
        # a declared default must meet its own field's rules; checked
        # here once, so check_fields may skip values that are the default
        problems: Problems = []
        for field in plan.values():
            if field.default is not dataclasses.MISSING:
                field.check(field.default, field.path, problems)
        if problems:
            raise ScenarioValidationError(problems)
        _PLANS[cls] = plan
    return plan


def check_fields(spec: Any) -> None:
    """Raise :class:`ScenarioValidationError` if a field of ``spec``
    breaks its annotation or its declared rules (all such fields are
    listed, at paths relative to ``spec``)."""
    problems: Problems = []
    for name, _hint, path, check, default, _derived in _plan(type(spec)).values():
        value = getattr(spec, name)
        if value is not default:
            check(value, path, problems)
    if problems:
        raise ScenarioValidationError(problems)


# -- JSON ----------------------------------------------------------------------

_SHAPES: Dict[Any, Tuple[str, Any]] = {}


def _shape(hint: Any) -> Tuple[str, Any]:
    """How the walk treats ``hint``: ``(kind, detail)``, resolved once."""
    shape = _SHAPES.get(hint)
    if shape is None:
        origin = typing.get_origin(hint)
        if origin is typing.Union:
            shape = ("optional", _optional_inner(hint))
        elif origin is tuple:
            shape = ("tuple", hint)
        elif hint in HOOKS:
            shape = ("hook", HOOKS[hint])
        elif hint in UNIONS:
            shape = ("union", UNIONS[hint])
        elif dataclasses.is_dataclass(hint):
            shape = ("fields", hint)
        else:
            shape = ("scalar", hint)
        _SHAPES[hint] = shape
    return shape


def encode(value: Any, hint: Any) -> Any:
    """``value``, annotated ``hint``, as plain JSON data."""
    if value is None:
        return None
    kind, detail = _shape(hint)
    if kind == "optional":
        return encode(value, detail)
    if kind == "tuple":
        items = _tuple_items(detail, len(value))
        return [encode(item, item_hint) for item, item_hint in zip(value, items)]
    if kind == "hook":
        return detail[0](value)
    if kind == "union":
        for tag, cls in detail.items():
            if type(value) is cls:
                return {"type": tag, **_encode_fields(value)}
        raise ValueError(
            f"cannot encode {type(value).__name__}: not a registered "
            f"{hint.__name__}"
        )
    if kind == "fields":
        return _encode_fields(value)
    return value


def _encode_fields(spec: Any) -> Dict[str, Any]:
    return {
        field.name: encode(getattr(spec, field.name), field.hint)
        for field in _plan(type(spec)).values()
        if not field.derived
    }


#: Marks a payload part that failed to decode (its problems are recorded).
_INVALID = object()


def decode(payload: Any, hint: Any, path: str, problems: Problems) -> Any:
    """Rebuild a value annotated ``hint`` from JSON data.

    Appends every problem to ``problems`` and returns ``_INVALID`` for
    a part that cannot be built; a scalar comes back as it is, because
    the object that owns it checks its type and rules.
    """
    kind, detail = _shape(hint)
    if kind == "optional":
        if payload is None:
            return None
        return decode(payload, detail, path, problems)
    if kind == "tuple":
        if not isinstance(payload, list):
            problems.append((path, f"must be a list, got {payload!r}"))
            return _INVALID
        items = _tuple_items(detail, len(payload))
        if len(items) != len(payload):
            problems.append((path, f"must have {len(items)} items, got {payload!r}"))
            return _INVALID
        values = tuple(
            decode(item, item_hint, f"{path}/{index}", problems)
            for index, (item, item_hint) in enumerate(zip(payload, items))
        )
        return _INVALID if any(value is _INVALID for value in values) else values
    if kind == "hook":
        try:
            return detail[1](payload)
        except (ValueError, TypeError) as exc:
            problems.append((path, str(exc)))
            return _INVALID
    if kind == "union":
        tag = payload.get("type") if isinstance(payload, dict) else None
        if not isinstance(tag, str) or tag not in detail:
            problems.append((
                path,
                f"needs a 'type' naming a {hint.__name__} "
                f"({', '.join(sorted(detail))}), got {payload!r}",
            ))
            return _INVALID
        fields = {key: value for key, value in payload.items() if key != "type"}
        return _decode_fields(detail[tag], fields, path, problems)
    if kind == "fields":
        return _decode_fields(detail, payload, path, problems)
    return payload


def _decode_fields(cls: type, payload: Any, path: str, problems: Problems) -> Any:
    if not isinstance(payload, dict):
        problems.append((path, f"must be an object, got {payload!r}"))
        return _INVALID
    plan = _plan(cls)
    values: Dict[str, Any] = {}
    failed = False
    for key, item in payload.items():
        field = plan.get(key)
        if field is None:
            problems.append((f"{path}/{key}", "unknown field"))
            failed = True
            continue
        value = decode(item, field.hint, path + field.path, problems)
        if value is _INVALID:
            failed = True
        else:
            values[key] = value
    if failed:
        # cls cannot be built; still report what is wrong with the rest
        for key, value in values.items():
            plan[key].check(value, path + plan[key].path, problems)
        return _INVALID
    try:
        return cls(**values)
    except ScenarioValidationError as exc:
        problems.extend((path + inner, message) for inner, message in exc.errors)
    except (ValueError, TypeError) as exc:
        # a rule spanning several fields: reported at the object's path
        problems.append((path, str(exc)))
    return _INVALID
