"""Synthetic stand-ins for the paper's proprietary production traces.

§3.2 compares the benchmarks' demand variability against traces from
"one of the top-10 online retailers" and "one of the top-10 auctioning
sites in the US", reporting C² ≈ 2 for both.  Those traces are
proprietary and unavailable, so — per the substitution rule in
DESIGN.md — we generate synthetic traces with the same published
statistic: lognormal per-transaction service demands with C² ≈ 2
(retailer) and C² ≈ 2.2 (auction), plus diurnal-free Poisson arrival
gaps.  Only the C² figure is used anywhere in the paper, so the
substitution is behaviour-preserving.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import io
import json
import os
import random
import struct
from typing import Callable, Dict, List, Optional, Sequence

from repro.sim.distributions import Deterministic, Empirical, LogNormal
from repro.workloads.spec import TransactionType, WorkloadSpec


@dataclasses.dataclass(frozen=True)
class TraceRecord:
    """One trace line: arrival offset and service demand (seconds)."""

    arrival_time: float
    service_demand: float


@dataclasses.dataclass(frozen=True)
class Trace:
    """A service-demand trace with summary statistics."""

    name: str
    records: Sequence[TraceRecord]
    #: Pre-computed content identity (file-backed traces use the file's
    #: sha256); None lets :attr:`digest` derive it from the records.
    content_digest: Optional[str] = None

    @property
    def demands(self) -> List[float]:
        """All service demands in trace order."""
        return [r.service_demand for r in self.records]

    @property
    def demand_scv(self) -> float:
        """Sample C² of the service demands."""
        demands = self.demands
        n = len(demands)
        if n < 2:
            return 0.0
        mean = sum(demands) / n
        var = sum((d - mean) ** 2 for d in demands) / (n - 1)
        return var / mean**2 if mean else 0.0

    @property
    def digest(self) -> str:
        """sha256 over the exact (arrival, demand) float stream.

        The content identity of the trace: two traces share a digest
        iff they replay bit-identically, which is what lets
        :class:`~repro.core.arrivals.TraceArrivals` use it as the
        cache-key contribution of a trace-driven scenario.  File-backed
        traces carry the sha256 of the file bytes instead (any textual
        change to the file — even one that parses to the same floats —
        deliberately invalidates cached results).
        """
        if self.content_digest is not None:
            return self.content_digest
        hasher = hashlib.sha256()
        for record in self.records:
            hasher.update(
                struct.pack("<dd", record.arrival_time, record.service_demand)
            )
        return hasher.hexdigest()

    @functools.cached_property
    def workload(self) -> WorkloadSpec:
        """This trace's :func:`trace_workload`, built once per trace.

        Traces are shared through :func:`get_trace`'s memo, so every
        cell naming one resolves to this one workload instance, and its
        canonical text (part of each cell's cache key) is encoded once.
        """
        return trace_workload(self)


def _generate_trace(
    name: str,
    transactions: int,
    mean_demand_s: float,
    scv: float,
    arrival_rate: float,
    seed: int,
) -> Trace:
    rng = random.Random(seed)
    demand_dist = LogNormal(mean_demand_s, scv)
    records = []
    now = 0.0
    for _ in range(transactions):
        now += rng.expovariate(arrival_rate)
        records.append(TraceRecord(now, demand_dist.sample(rng)))
    return Trace(name, tuple(records))


def online_retailer_trace(transactions: int = 10_000, seed: int = 2006) -> Trace:
    """Synthetic stand-in for the top-10 online-retailer trace (C² ≈ 2)."""
    return _generate_trace(
        "online-retailer", transactions, mean_demand_s=0.020, scv=2.0,
        arrival_rate=30.0, seed=seed,
    )


def auction_site_trace(transactions: int = 10_000, seed: int = 2007) -> Trace:
    """Synthetic stand-in for the top-10 auction-site trace (C² ≈ 2.2)."""
    return _generate_trace(
        "auction-site", transactions, mean_demand_s=0.035, scv=2.2,
        arrival_rate=20.0, seed=seed,
    )


#: Named trace factories: the machine-readable registry behind
#: :func:`get_trace` and :class:`~repro.core.arrivals.TraceArrivals`.
TRACE_FACTORIES: Dict[str, Callable[..., Trace]] = {
    "online-retailer": online_retailer_trace,
    "auction-site": auction_site_trace,
}

#: Trace-name prefix that routes :func:`get_trace` to a file on disk.
FILE_TRACE_PREFIX = "file:"


def _parse_trace_row(timestamp: str, demand: str, where: str) -> TraceRecord:
    try:
        arrival = float(timestamp)
        service = float(demand)
    except (TypeError, ValueError):
        raise ValueError(f"{where}: non-numeric trace row ({timestamp!r}, {demand!r})")
    if service < 0:
        raise ValueError(f"{where}: negative service demand {service!r}")
    return TraceRecord(arrival, service)


def _parse_trace_csv(text: str, path: str) -> List[TraceRecord]:
    records: List[TraceRecord] = []
    saw_data_row = False
    for lineno, row in enumerate(csv.reader(io.StringIO(text)), start=1):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue  # blank line
        first = row[0].strip()
        if first.startswith("#"):
            continue  # comment
        if len(row) < 2:
            raise ValueError(f"{path}:{lineno}: expected 'timestamp,demand', got {row!r}")
        if not saw_data_row:
            saw_data_row = True
            try:
                float(first)
            except ValueError:
                continue  # header row
        records.append(_parse_trace_row(first, row[1].strip(), f"{path}:{lineno}"))
    return records


def _parse_trace_jsonl(text: str, path: str) -> List[TraceRecord]:
    records: List[TraceRecord] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{path}:{lineno}"
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{where}: invalid JSON ({exc})")
        if isinstance(payload, dict):
            if "timestamp" not in payload or "demand" not in payload:
                raise ValueError(
                    f"{where}: JSONL rows need 'timestamp' and 'demand' keys, "
                    f"got {sorted(payload)!r}"
                )
            records.append(
                _parse_trace_row(payload["timestamp"], payload["demand"], where)
            )
        elif isinstance(payload, (list, tuple)) and len(payload) == 2:
            records.append(_parse_trace_row(payload[0], payload[1], where))
        else:
            raise ValueError(
                f"{where}: expected an object or a [timestamp, demand] pair, "
                f"got {payload!r}"
            )
    return records


def load_trace_file(path: str) -> Trace:
    """Load a timestamp+demand trace from a CSV or JSONL file.

    CSV rows are ``timestamp,demand`` (an optional header row and
    ``#`` comments are skipped); ``.jsonl`` / ``.ndjson`` files carry
    one ``{"timestamp": ..., "demand": ...}`` object (or a two-element
    ``[timestamp, demand]`` array) per line.  Timestamps are arrival
    offsets in seconds and must be non-decreasing; demands are CPU
    seconds.  The trace's :attr:`Trace.digest` is the sha256 of the
    raw file bytes (ROADMAP corpus item (a)): the file *is* the
    experiment input, so its exact bytes are the cache identity.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    text = raw.decode("utf-8")
    if path.endswith((".jsonl", ".ndjson")):
        records = _parse_trace_jsonl(text, path)
    else:
        records = _parse_trace_csv(text, path)
    if not records:
        raise ValueError(f"{path}: trace file contains no records")
    if records[0].arrival_time < 0:
        raise ValueError(
            f"{path}: arrival timestamps must be >= 0 "
            f"(record 1: {records[0].arrival_time!r})"
        )
    for i, (a, b) in enumerate(zip(records, records[1:]), start=1):
        if b.arrival_time < a.arrival_time:
            raise ValueError(
                f"{path}: arrival timestamps must be non-decreasing "
                f"(record {i + 1}: {b.arrival_time!r} < {a.arrival_time!r})"
            )
    return Trace(
        name=os.path.basename(path),
        records=tuple(records),
        content_digest=hashlib.sha256(raw).hexdigest(),
    )


@functools.lru_cache(maxsize=32)
def _file_trace(path: str, mtime_ns: int, size: int) -> Trace:
    """File-trace memo keyed by (path, mtime, size), not path alone.

    Keying by name only returned the *stale* trace (old records, old
    digest) when the file's bytes changed within one process — e.g. a
    driver regenerating a trace between runs.  The stat fields make
    the cache key track the content.
    """
    del mtime_ns, size  # cache-key components only
    return load_trace_file(path)


@functools.lru_cache(maxsize=32)
def _generated_trace(
    name: str, transactions: Optional[int], seed: Optional[int]
) -> Trace:
    factory = TRACE_FACTORIES[name]
    kwargs = {}
    if transactions is not None:
        kwargs["transactions"] = transactions
    if seed is not None:
        kwargs["seed"] = seed
    return factory(**kwargs)


def get_trace(
    name: str,
    transactions: Optional[int] = None,
    seed: Optional[int] = None,
) -> Trace:
    """Materialize a named trace (None keeps a factory default).

    Memoized: traces are immutable (frozen records), and one
    trace-driven scenario otherwise regenerates the same stream
    several times over — at spec construction (the content digest), at
    workload resolution, at arrival build, and on every fingerprint
    call.  Names of the form ``file:PATH`` load ``PATH`` via
    :func:`load_trace_file` (cached by ``(path, mtime, size)`` so an
    in-process rewrite of the file is picked up; the sha256 of the
    bytes becomes the trace digest), and take no generation
    parameters.
    """
    if name.startswith(FILE_TRACE_PREFIX):
        if transactions is not None or seed is not None:
            raise ValueError(
                "file-backed traces take no generation parameters "
                f"(got transactions={transactions!r}, seed={seed!r} for {name!r})"
            )
        path = name[len(FILE_TRACE_PREFIX):]
        try:
            stat = os.stat(path)
        except OSError:
            # let load_trace_file raise its usual, clearer error
            return load_trace_file(path)
        return _file_trace(path, stat.st_mtime_ns, stat.st_size)
    factory = TRACE_FACTORIES.get(name)
    if factory is None:
        raise ValueError(
            f"unknown trace {name!r}; available: "
            + ", ".join(sorted(TRACE_FACTORIES))
            + f", or '{FILE_TRACE_PREFIX}PATH' for a CSV/JSONL file"
        )
    return _generated_trace(name, transactions, seed)


def trace_workload(trace: Trace, db_mb: int = 512) -> WorkloadSpec:
    """Wrap a trace as a replayable (resampled) CPU-bound workload.

    Demands are resampled with replacement from the trace's empirical
    demand distribution, preserving its mean and C² exactly.
    """
    tx_type = TransactionType(
        name=trace.name,
        weight=1.0,
        cpu_demand=Empirical(trace.demands),
        page_accesses=Deterministic(0),
        is_update=False,
    )
    return WorkloadSpec(
        name=f"W_trace-{trace.name}",
        types=(tx_type,),
        db_mb=db_mb,
        benchmark="trace",
        configuration=f"{len(trace.records)} transactions",
    )
