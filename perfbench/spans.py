"""Spans around the program's public calls, taken from the benchmark side.

A :class:`SpanRecorder` keeps every span in memory (name, start, end,
parent, cell) in flat arrays; :func:`install` swaps each listed public
function or method for a thin wrapper that opens and closes a span
around the original call and returns a function that puts the
originals back.  At the end :func:`self_times` turns the spans into
per-span self time (duration minus the union of its children's
intervals), :func:`summarize` folds them into per-name totals, and
:func:`write_chrome_trace` writes Chrome trace-event JSON that Perfetto
opens.

Wrappers hold no reference to their arguments or results after the
call returns, so the kernel's refcount-proven event recycling sees the
same counts it sees untraced.
"""

from __future__ import annotations

import array
import dataclasses
import functools
import importlib
import json
import sys
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

#: Spans written to the Chrome trace (the first ones, in start order);
#: a traced pass records millions, which no viewer wants in one file.
CHROME_SPAN_LIMIT = 100_000


class SpanRecorder:
    """Every span of one traced process, in start order."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array.array("H")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.parents = array.array("i")
        self.cells = array.array("i")
        #: Cell id stamped on spans opened from now on (-1: no cell).
        self.cell = -1
        #: Work counts taken at the same boundaries (lock waits, ...).
        self.counters: Dict[str, float] = {}
        self._stack: List[int] = []

    def name_id(self, name: str) -> int:
        index = self._ids.get(name)
        if index is None:
            index = self._ids[name] = len(self.names)
            self.names.append(name)
        return index

    def open(self, name_id: int) -> int:
        stack = self._stack
        index = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(stack[-1] if stack else -1)
        self.cells.append(self.cell)
        self.ends.append(0.0)
        stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def __len__(self) -> int:
        return len(self.starts)


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> "array.array":
    """Each span's duration minus the part its children cover.

    Children are clipped to their parent's interval and merged, so
    nested, adjacent and overlapping children are each subtracted once.
    Spans may come in any order; a recorder's are already sorted by
    start, which makes this one linear pass.
    """
    count = len(starts)
    order: Iterable[int] = range(count)
    if any(starts[i] > starts[i + 1] for i in range(count - 1)):
        order = sorted(range(count), key=starts.__getitem__)
    # parent -> [current merged run start, run end, covered before it]
    runs: Dict[int, List[float]] = {}
    for index in order:
        parent = parents[index]
        if parent < 0:
            continue
        low = max(starts[index], starts[parent])
        high = min(ends[index], ends[parent])
        if high <= low:
            continue
        run = runs.get(parent)
        if run is None:
            runs[parent] = [low, high, 0.0]
        elif low > run[1]:
            run[2] += run[1] - run[0]
            run[0], run[1] = low, high
        elif high > run[1]:
            run[1] = high
    result = array.array("d", (ends[i] - starts[i] for i in range(count)))
    for parent, (low, high, covered) in runs.items():
        result[parent] -= covered + (high - low)
    return result


@dataclasses.dataclass(frozen=True)
class Target:
    """One public call to wrap: ``module`` + ``Class.method`` or ``function``.

    ``subclasses`` also wraps every subclass's own override (each
    ``ControlSpec.apply``).  ``before(args)`` runs ahead of the call and
    its value reaches ``after(recorder, args, result, before_value)``,
    which records counts at the boundary.
    """

    module: str
    name: str
    subclasses: bool = False
    before: Optional[Callable[[tuple], Any]] = None
    after: Optional[Callable[[SpanRecorder, tuple, Any, Any], None]] = None


def _wrap(recorder: SpanRecorder, span: str, fn: Callable, target: Target) -> Callable:
    name_id = recorder.name_id(span)
    open_span, close_span = recorder.open, recorder.close
    before, after = target.before, target.after
    if after is None:
        def wrapper(*args, **kwargs):
            index = open_span(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(index)
    else:
        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            index = open_span(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(index)
            after(recorder, args, result, token)
            return result
    return functools.update_wrapper(wrapper, fn)


def _classes(cls: type, subclasses: bool) -> List[type]:
    found = [cls]
    if subclasses:
        pending = list(cls.__subclasses__())
        while pending:
            sub = pending.pop(0)
            found.append(sub)
            pending.extend(sub.__subclasses__())
    return found


def install(recorder: SpanRecorder, targets: Sequence[Target]) -> Callable[[], None]:
    """Wrap every target; returns the function that unwraps them all.

    Module-level functions are replaced in every loaded ``repro``
    module that bound the same object by ``from ... import``, so import
    the modules that call them before installing.
    """
    undo: List[Callable[[], None]] = []

    def replace(owner: Any, attr: str, value: Any) -> None:
        previous = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, value)
        undo.append(lambda: setattr(owner, attr, previous))

    for target in targets:
        module = importlib.import_module(target.module)
        if "." in target.name:
            class_name, method = target.name.split(".")
            for cls in _classes(getattr(module, class_name), target.subclasses):
                raw = cls.__dict__.get(method)
                if raw is None:
                    continue
                span = f"{cls.__name__}.{method}"
                if isinstance(raw, classmethod):
                    replace(cls, method, classmethod(_wrap(recorder, span, raw.__func__, target)))
                else:
                    replace(cls, method, _wrap(recorder, span, raw, target))
        else:
            original = getattr(module, target.name)
            wrapped = _wrap(recorder, target.name, original, target)
            for name, loaded in list(sys.modules.items()):
                if name.split(".")[0] == "repro" and vars(loaded).get(target.name) is original:
                    replace(loaded, target.name, wrapped)

    def uninstall() -> None:
        while undo:
            undo.pop()()

    return uninstall


def summarize(
    recorder: SpanRecorder, groups: Dict[str, Sequence[str]] = {}
) -> Dict[str, Any]:
    """Fold the spans into per-name and per-group totals.

    Per span name: call count, self seconds and inclusive seconds.
    Per group of names: the inclusive seconds of its outermost spans
    only, so a group member nested inside another member (a feedback
    controller's baseline run applying a static spec) counts once.
    """
    selfs = self_times(recorder.starts, recorder.ends, recorder.parents)
    starts, ends = recorder.starts, recorder.ends
    parents, name_ids = recorder.parents, recorder.name_ids
    rows = [{"count": 0, "self_s": 0.0, "total_s": 0.0} for _ in recorder.names]
    for index, name_id in enumerate(name_ids):
        row = rows[name_id]
        row["count"] += 1
        row["self_s"] += selfs[index]
        row["total_s"] += ends[index] - starts[index]
    group_totals = {}
    for group, members in groups.items():
        ids = {i for i, name in enumerate(recorder.names) if name in members}
        total = 0.0
        for index, name_id in enumerate(name_ids):
            if name_id in ids:
                parent = parents[index]
                while parent >= 0 and name_ids[parent] not in ids:
                    parent = parents[parent]
                if parent < 0:
                    total += ends[index] - starts[index]
        group_totals[group] = total
    return {
        "spans": {
            name: row for name, row in zip(recorder.names, rows) if row["count"]
        },
        "groups": group_totals,
        "counters": dict(recorder.counters),
    }


def merge_summaries(summaries: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Add several phases' or processes' summaries into one."""
    merged: Dict[str, Any] = {"spans": {}, "groups": {}, "counters": {}}
    for summary in summaries:
        for name, row in summary["spans"].items():
            into = merged["spans"].setdefault(
                name, {"count": 0, "self_s": 0.0, "total_s": 0.0}
            )
            for key, value in row.items():
                into[key] += value
        for key in ("groups", "counters"):
            for name, value in summary[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
    return merged


def write_chrome_trace(
    recorder: SpanRecorder,
    path: str,
    category: Callable[[str], str] = lambda name: "",
    limit: int = CHROME_SPAN_LIMIT,
) -> None:
    """Write the first ``limit`` spans as Chrome trace-event JSON.

    Complete (``"ph": "X"``) events on one thread nest by time, which is
    how Perfetto draws the parent/child structure; ``args`` carries the
    span's own id, its parent's and its cell.
    """
    origin = recorder.starts[0] if len(recorder) else 0.0
    written = min(limit, len(recorder))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('{"displayTimeUnit": "ms", "otherData": ')
        json.dump({"spans_total": len(recorder), "spans_written": written}, handle)
        handle.write(', "traceEvents": [')
        for index in range(written):
            name = recorder.names[recorder.name_ids[index]]
            start = recorder.starts[index]
            handle.write(("," if index else "") + json.dumps({
                "name": name,
                "cat": category(name),
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (recorder.ends[index] - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {
                    "id": index,
                    "parent": recorder.parents[index],
                    "cell": recorder.cells[index],
                },
            }))
        handle.write("]}")
