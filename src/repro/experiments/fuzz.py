"""Scenario fuzzer: an invariant-driven random walk over spec space.

ROADMAP corpus item (b): the Scenario API made experiments *data* —
workload × arrivals × topology × control × faults as fingerprinted
specs — so edge cases in the controllers, the router, and the fault
machinery can be hunted by *sampling* that space instead of
hand-writing grids.  The pieces:

* :class:`ScenarioWalker` — a seeded random walk over
  :class:`~repro.core.scenario.ScenarioSpec` space, driven by the spec
  codec (:mod:`repro.core.spec_codec`).  Each step redraws a few axes;
  a draw follows each field's annotation and declared rules
  (``choices``, bounds, ``Optional``, ``Tuple``, and the members of
  every tagged union in :data:`~repro.core.spec_codec.UNIONS`), with
  :data:`FUZZ_DOMAINS` sizing the numbers the codec leaves unbounded.
  The constructors decide what is valid: a draw they reject, or one
  that breaks a :data:`WALK_RULES` run-safety rule, is drawn again, a
  bounded number of times.  The walk is deterministic: same seed ⇒
  same scenario sequence, fingerprint for fingerprint (the
  determinism test pins this).
* An **oracle library** (:data:`ORACLES`) run against every sampled
  scenario at small transaction counts: codec round-trip (the one
  collecting decoder must accept the spec and rebuild it, fingerprint
  included), transaction conservation (per-shard
  re-route transfer accounting included), exactly-once disposition
  under the resilience gate (every admission is completed, timed out,
  shed, or in flight — never two, never none), 2PC atomicity,
  bit-identical replay, ``--jobs N`` invariance through the
  :class:`~repro.experiments.parallel.ParallelRunner`, and MPL/SLO
  sanity (per-shard MPL split sums to the global budget, dead shards
  hold no queued admissions).
* A **shrinker** (:func:`shrink_scenario`) that minimizes a failing
  scenario by the same codec walk — an optional field to ``None``, a
  tuple item dropped, a number moved toward its lower bound or
  default, a union member replaced by the field's default — while the
  same oracle keeps failing, and a **corpus** (:func:`write_reproducer`
  / :func:`replay_corpus`) of minimized reproducers under
  ``tests/data/fuzz_corpus/`` that CI replays.

CLI face: ``python -m repro.experiments fuzz --seed 0 --iterations 50``
(see :func:`repro.experiments.__main__.fuzz_main`).
"""

from __future__ import annotations

import dataclasses
import enum
import glob
import json
import os
import random
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.core import spec_codec
from repro.core.arrivals import (
    ArrivalSpec,
    ClosedArrivals,
    ModulatedArrivals,
    OpenArrivals,
    PartlyOpenArrivals,
    PiecewiseRate,
    RateFunction,
    SinusoidRate,
    TraceArrivals,
)
from repro.core.cluster import ClusteredSystem
from repro.core.distributed_spec import DistributedSpec
from repro.core.faults import FaultEvent, KillShard, RestoreShard
from repro.core.policies import QUEUE_POLICIES
from repro.core.resilience import GoodputStarved
from repro.core.resilience_spec import ResilienceSpec
from repro.core.scenario import (
    ControlSpec,
    ElasticMpl,
    FeedbackMpl,
    MeasurementSpec,
    PerClassSlo,
    ScenarioSpec,
    ScenarioValidationError,
    StaticMpl,
    TopologySpec,
    WorkloadRef,
    run_scenario,
)
from repro.dbms.config import InternalPolicy
from repro.dbms.transaction import Priority
from repro.sim.random import derive_seed
from repro.workloads.setups import SETUPS
from repro.workloads.traces import FILE_TRACE_PREFIX, TRACE_FACTORIES

#: Default checked-in trace files offered to the walker (relative to the
#: repo root, which is where the CLI and the test suite run).
DEFAULT_TRACE_FILES = (
    "tests/data/trace_fixture.csv",
    "tests/data/trace_fixture.jsonl",
)


class OracleFailure(AssertionError):
    """One oracle's verdict: the scenario violated an invariant."""


# ---------------------------------------------------------------------------
# the random walk
# ---------------------------------------------------------------------------


class Uniform(NamedTuple):
    """A float drawn uniformly from ``[lo, hi]``, rounded to 3 places."""

    lo: float
    hi: float


class Items(tuple):
    """One domain per item of a fixed-length ``Tuple`` field."""


#: Fuzz sizes: ``(class, field) -> values`` for what the codec leaves
#: unbounded above (sample sizes, rates, windows, timers) or free (trace
#: and policy names, weight maps).  An entry on a base class covers its
#: subclasses; on a ``Tuple`` field it sizes each item (:class:`Items`
#: gives each item of a fixed-length one its own).  A tuple or ``range``
#: is drawn from uniformly.  These keep runs small; they are
#: not validity rules — the constructors decide what is valid.
FUZZ_DOMAINS: Dict[Tuple[type, str], Any] = {
    # the CPU-bound setups: an I/O-bound one costs 2-15x more per
    # transaction, and far more under the open overload the walk drives
    (WorkloadRef, "setup_id"): tuple(
        setup.setup_id for setup in SETUPS
        if setup.workload_name.startswith("W_CPU-")
    ),
    (WorkloadRef, "trace"): tuple(TRACE_FACTORIES),
    (WorkloadRef, "trace_transactions"): (400, 800, 1500),
    # a few seeds per trace: each new one generates (and caches) a trace
    (WorkloadRef, "trace_seed"): range(4),
    (ArrivalSpec, "think_time_s"): (0.0, 0.02, 0.1),
    (ClosedArrivals, "num_clients"): range(4, 33),
    (OpenArrivals, "rate"): Uniform(20.0, 90.0),
    (PartlyOpenArrivals, "session_rate"): Uniform(2.0, 12.0),
    (PartlyOpenArrivals, "mean_session_length"): Uniform(1.0, 6.0),
    (RateFunction, "period"): (0.5, 1.0, 2.0, 4.0),
    # (breakpoint time, rate) pairs
    (PiecewiseRate, "points"): Items(((0.0, 0.5, 1.0, 2.0, 3.0), Uniform(15.0, 80.0))),
    (SinusoidRate, "base"): Uniform(30.0, 70.0),
    (SinusoidRate, "amplitude"): Uniform(0.0, 60.0),
    (SinusoidRate, "phase"): Uniform(0.0, 6.283),
    (TraceArrivals, "trace_name"): tuple(TRACE_FACTORIES),
    (TraceArrivals, "transactions"): (300, 600),
    (TraceArrivals, "seed"): range(4),
    (TraceArrivals, "time_scale"): (0.02, 0.1, 0.25, 0.5, 1.0),
    (TopologySpec, "shards"): range(1, 5),
    (TopologySpec, "routing_weights"): (0.05, 0.5, 1.0, 2.0, 10.0, 250.0),
    (TopologySpec, "replicas_per_shard"): (0, 0, 1, 2),
    (TopologySpec, "election_timeout_s"): (0.1, 0.25, 0.5),
    (ControlSpec, "mpl"): range(1, 25),
    (ControlSpec, "initial_mpl"): range(2, 17),
    (ControlSpec, "window"): (20, 30),
    (ControlSpec, "step"): range(1, 4),
    (ControlSpec, "max_mpl"): (16, 32, 64),
    (ControlSpec, "max_iterations"): (2, 3),
    (ControlSpec, "high_p95_target_s"): (0.1, 0.3, 0.6),
    (FeedbackMpl, "max_throughput_loss"): (0.05, 0.1, 0.2),
    (FeedbackMpl, "max_response_time_increase"): (0.1, 0.3, 0.6),
    (FeedbackMpl, "baseline_transactions"): (60, 100),
    # a pre-measured baseline the CPU-bound setups can meet: an
    # unattainable one walks the loop to its 40-iteration cap
    (FeedbackMpl, "baseline_throughput"): Uniform(5.0, 20.0),
    (FeedbackMpl, "baseline_response_time"): Uniform(0.05, 1.0),
    (ElasticMpl, "interval_s"): (0.2, 0.3, 0.5),
    (ElasticMpl, "low_watermark"): Uniform(0.0, 1.0),
    (ElasticMpl, "high_watermark"): Uniform(0.0, 1.0),
    (ElasticMpl, "min_shards"): range(1, 3),
    (ElasticMpl, "max_ticks"): (100, 1000),
    (MeasurementSpec, "transactions"): range(40, 161),
    (MeasurementSpec, "timeline_bucket_s"): (0.25, 0.5, 1.0),
    (ScenarioSpec, "policy"): tuple(QUEUE_POLICIES),
    (ScenarioSpec, "arrival_rate"): Uniform(20.0, 80.0),
    (ScenarioSpec, "seed"): range(10_000),
    (InternalPolicy, "cpu_weights"): ({int(Priority.HIGH): 4.0},),
    (FaultEvent, "at"): Uniform(0.2, 3.0),
    (FaultEvent, "shard"): range(4),
    (ResilienceSpec, "deadline_s"): (1.0, 2.0, 5.0),
    (ResilienceSpec, "high_deadline_s"): (2.0, 5.0),
    # 64: a retry budget long enough for a storm to starve goodput.
    # Doubled small budgets keep rng.choice's draws aligned with the
    # former range(4): every seed walks as before, except that one
    # draw of 3 in two now yields 64.
    (ResilienceSpec, "max_attempts"): (0, 0, 1, 1, 2, 2, 3, 64),
    (ResilienceSpec, "base_backoff_s"): (0.0, 0.01, 0.05),
    (ResilienceSpec, "backoff_multiplier"): (1.0, 2.0),
    (ResilienceSpec, "queue_cap"): (8, 16, 32),
    (ResilienceSpec, "breaker_window"): (5, 10, 20),
    (ResilienceSpec, "breaker_response_time_s"): (0.1, 0.5),
    (ResilienceSpec, "breaker_open_s"): (0.2, 0.5, 1.0),
    (ResilienceSpec, "breaker_probes"): range(1, 4),
    (DistributedSpec, "fanout_k"): range(2, 5),
    (DistributedSpec, "prepare_timeout_s"): (0.5, 1.0, 2.0, 5.0),
}

#: Draws of one value before the walk keeps the value it has (a fixed
#: bound keeps the walk a pure function of its seed).
MAX_DRAWS = 20

#: Draws per partner axis when an axis is drawn together with another.
PARTNER_DRAWS = 4

#: Chance that an optional field is drawn unset.
UNSET_CHANCE = 0.5

#: Item counts of a drawn variable-length tuple.
TUPLE_LENGTHS = range(1, 4)


class WalkRule(NamedTuple):
    """A run-safety rule no constructor enforces, and why it holds."""

    reason: str
    holds: Callable[[ScenarioSpec], bool]


def fault_timeline_is_safe(
    events: Sequence[FaultEvent], shards: int, replicas: int
) -> bool:
    """Whether a fault timeline can never leave the router target-less.

    Conservative aliveness model: a shard with any unrestored kill is
    treated as possibly dead (with replicas a single kill only fells
    the primary, but a back-to-back double kill mid-election can still
    take the group out).  The router raises ``SimulationError`` when
    every shard is dead (administrative parking falls open to an alive
    shard, but nothing routes around a fully killed cluster), so the
    generator (and the shrinker) only emit timelines that keep at
    least one shard kill-free at every instant.
    """
    del replicas  # conservative: replicated shards treated like bare ones
    suspect = [False] * shards
    for event in sorted(events, key=lambda e: e.at):
        if isinstance(event, KillShard):
            suspect[event.shard] = True
        elif isinstance(event, RestoreShard):
            suspect[event.shard] = False
        if all(suspect):
            return False
    return True


def _amplitude_below_base(spec: ScenarioSpec) -> bool:
    arrival = spec.arrival
    if isinstance(arrival, ModulatedArrivals) and isinstance(
        arrival.rate_function, SinusoidRate
    ):
        return arrival.rate_function.amplitude < arrival.rate_function.base
    return True


#: What the walk and the shrinker keep on top of the constructors.
WALK_RULES = (
    WalkRule(
        "a fault timeline keeps one shard kill-free at every instant: "
        "nothing routes around a fully killed cluster",
        lambda spec: spec.faults is None or fault_timeline_is_safe(
            spec.faults.events, spec.topology.shards,
            spec.topology.replicas_per_shard,
        ),
    ),
    WalkRule(
        "no faults under FeedbackMpl: a per-shard tuning window waits on "
        "one shard's completions, and a killed shard stalls it forever "
        "under open arrivals",
        lambda spec: spec.faults is None
        or not isinstance(spec.control, FeedbackMpl),
    ),
    WalkRule(
        "resilience stays apart from FeedbackMpl and PerClassSlo: their "
        "tuning loops run baseline twins outside the resilience gate",
        lambda spec: spec.resilience is None
        or not isinstance(spec.control, (FeedbackMpl, PerClassSlo)),
    ),
    WalkRule(
        "trace replay loops: a stream shorter than the sample would "
        "drain the simulation mid-measurement",
        lambda spec: not isinstance(spec.arrival, TraceArrivals)
        or spec.arrival.loop,
    ),
    WalkRule(
        "2PC aborts on a prepare timeout: a hung prepare parks MPL slots "
        "forever and stalls the completion-counted window",
        lambda spec: spec.distributed is None
        or spec.distributed.abort_on_prepare_timeout,
    ),
    WalkRule(
        "a sinusoid's amplitude stays below its base: the clipped-to-zero "
        "quiet phase of a full-depth swing can stall a small window",
        _amplitude_below_base,
    ),
)


def walk_rules_hold(spec: ScenarioSpec) -> bool:
    return all(rule.holds(spec) for rule in WALK_RULES)


class ScenarioWalker:
    """Seeded random walk over ScenarioSpec space.

    ``next_spec()`` redraws one to three axes of the current spec;
    every ``restart_every`` steps the walk redraws every axis from the
    default scenario, so one sticky region cannot trap it.  All
    randomness flows from one :func:`~repro.sim.random.derive_seed`
    stream, so the sequence is a pure function of ``seed``.
    """

    #: Every ScenarioSpec field but the label the walker stamps.
    AXES = tuple(name for name in spec_codec.plan(ScenarioSpec) if name != "tag")

    def __init__(
        self,
        seed: int = 0,
        trace_files: Sequence[str] = (),
        restart_every: int = 8,
    ):
        self.rng = random.Random(derive_seed(seed, "scenario-fuzz"))
        files = tuple(
            FILE_TRACE_PREFIX + path for path in trace_files
            if os.path.exists(path)
        )
        self.domains = dict(FUZZ_DOMAINS)
        for key in ((WorkloadRef, "trace"), (TraceArrivals, "trace_name")):
            self.domains[key] += files
        self.restart_every = max(1, restart_every)
        self.steps = 0
        self.spec = ScenarioSpec()

    def next_spec(self) -> ScenarioSpec:
        """The walk's next scenario (constructor-valid, rules kept)."""
        rng = self.rng
        self.steps += 1
        if self.steps % self.restart_every == 1:
            # two passes, so an axis the first pass left blocked by
            # another gets a second draw once that one has moved
            spec = ScenarioSpec()
            axes = []
            for _ in range(2):
                order = list(self.AXES)
                rng.shuffle(order)
                axes += order
        else:
            spec = self.spec
            axes = rng.sample(self.AXES, rng.randrange(1, 4))
        for axis in axes:
            spec = self._redraw(spec, axis)
        self.spec = spec
        return dataclasses.replace(spec, tag=f"fuzz-{self.steps}")

    def specs(self, count: int) -> List[ScenarioSpec]:
        return [self.next_spec() for _ in range(count)]

    def _redraw(self, spec: ScenarioSpec, axis: str) -> ScenarioSpec:
        """``spec`` with ``axis`` drawn again, unchanged if no draw fits.

        A draw the other axes reject is drawn again; if none fits,
        ``axis`` is drawn together with one other axis at a time, so an
        axis another one blocks (2PC on a single shard, say) still moves.
        """
        draw = self._axis_draw(axis)
        partners = [other for other in self.AXES if other != axis]
        self.rng.shuffle(partners)
        for partner in [None] + partners:
            for _ in range(MAX_DRAWS if partner is None else PARTNER_DRAWS):
                try:
                    changes = {axis: draw()}
                    if partner is not None:
                        changes[partner] = self._axis_draw(partner)()
                    candidate = dataclasses.replace(spec, **changes)
                except ValueError:
                    continue
                if walk_rules_hold(candidate):
                    return candidate
        return spec

    def _axis_draw(self, axis: str) -> Callable[[], Any]:
        """A drawer for one axis.  Whether an optional axis is set, and
        which member a union axis takes, is decided here, once: a value
        the other axes reject is drawn again rather than swapped for
        None or for a member they happen to accept."""
        field = spec_codec.plan(ScenarioSpec)[axis]
        kind, inner = spec_codec.shape(field.hint)
        if kind == "optional":
            if self.rng.random() < UNSET_CHANCE:
                return lambda: None
            field = field._replace(hint=inner)
            kind = spec_codec.shape(inner)[0]
        if kind == "union":
            member = self.rng.choice(list(spec_codec.UNIONS[field.hint].values()))
            return lambda: self._object(member)
        return lambda: self._field(ScenarioSpec, field)

    def _object(self, cls: type) -> Any:
        """A ``cls`` instance with every field drawn; ValueError if none fits."""
        fields = [f for f in spec_codec.plan(cls).values() if not f.derived]
        for _ in range(MAX_DRAWS):
            try:
                return cls(**{f.name: self._field(cls, f) for f in fields})
            except ValueError:
                continue
        raise ValueError(f"no valid {cls.__name__} in {MAX_DRAWS} draws")

    def _field(self, owner: type, field: Any) -> Any:
        domain = next(
            (self.domains[cls, field.name] for cls in owner.__mro__
             if (cls, field.name) in self.domains),
            None,
        )
        return self._value(field.hint, field.rules, domain)

    def _value(self, hint: Any, rules: Any, domain: Any) -> Any:
        rng = self.rng
        kind, detail = spec_codec.shape(hint)
        if kind == "optional":
            if rng.random() < UNSET_CHANCE:
                return None
            return self._value(detail, rules, domain)
        if kind == "tuple":
            items = spec_codec.tuple_items(hint, rng.choice(TUPLE_LENGTHS))
            fixed = len(spec_codec.tuple_items(hint, 0)) > 0
            domains = domain if fixed and isinstance(domain, Items) else [domain] * len(items)
            return tuple(
                self._value(item, rules, item_domain)
                for item, item_domain in zip(items, domains)
            )
        if isinstance(domain, Uniform):
            return round(rng.uniform(domain.lo, domain.hi), 3)
        if domain is not None:
            return rng.choice(domain)
        if kind == "union":
            return self._object(rng.choice(list(detail.values())))
        if dataclasses.is_dataclass(hint):
            return self._object(hint)
        if "choices" in rules:
            return rng.choice(rules["choices"])
        if hint is bool:
            return rng.random() < 0.5
        if isinstance(hint, type) and issubclass(hint, enum.Enum):
            return rng.choice(list(hint))
        lower = rules.get("ge", rules.get("gt"))
        upper = rules.get("le", rules.get("lt"))
        if lower is None or upper is None:
            raise LookupError(
                f"no fuzz size for a {hint} field with rules {dict(rules)}: "
                "add it to FUZZ_DOMAINS"
            )
        if hint is int:
            return rng.randint(lower, upper)
        return round(rng.uniform(lower, upper), 3)


# ---------------------------------------------------------------------------
# the oracle library
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class OracleContext:
    """Everything one scenario run produced, for the oracles to judge."""

    spec: ScenarioSpec
    system: Any = None
    outcome: Any = None
    #: Run the (expensive) ParallelRunner jobs-invariance oracle.
    check_jobs: bool = False
    #: Result-cache directory shared with the jobs oracle's runner.
    cache_dir: Optional[str] = None


def oracle_codec_roundtrip(ctx: OracleContext) -> None:
    """to_json_dict → from_json_dict must accept the spec and reproduce
    it, fingerprint included."""
    spec = ctx.spec
    payload = json.loads(json.dumps(spec.to_json_dict()))
    try:
        decoded = ScenarioSpec.from_json_dict(payload)
    except ScenarioValidationError as exc:
        raise OracleFailure(f"the decoder rejected a generated spec: {exc}")
    if decoded != spec:
        raise OracleFailure("decoded spec differs from the original")
    if decoded.fingerprint() != spec.fingerprint():
        raise OracleFailure(
            f"fingerprint changed across the codec round-trip: "
            f"{spec.fingerprint()} -> {decoded.fingerprint()}"
        )


def oracle_conservation(ctx: OracleContext) -> None:
    """No transaction is lost or double-counted, re-routes included."""
    system, spec = ctx.system, ctx.spec
    measurement = spec.measurement
    records = len(system.collector.records)
    if records < measurement.transactions:
        raise OracleFailure(
            f"completed {records} < requested {measurement.transactions}"
        )
    if not isinstance(system, ClusteredSystem):
        return
    router = system.router
    frontends = [shard.frontend for shard in system.shards]
    # `removed` holds the admissions the resilience layer pulled back
    # out (queued deadline expiry, load shedding) — zero without it
    total_held = sum(
        f.completed + f.in_service + f.queue_length + f.removed
        for f in frontends
    )
    if router.routed != total_held:
        raise OracleFailure(
            f"router routed {router.routed} but shards hold {total_held}"
        )
    for index, frontend in enumerate(frontends):
        held = (
            frontend.completed + frontend.in_service
            + frontend.queue_length + frontend.removed
        )
        placed = (
            router.routed_by_shard[index]
            + router.rerouted_to[index]
            - router.rerouted_from[index]
        )
        if placed != held:
            raise OracleFailure(
                f"shard {index}: placed {placed} != held {held} "
                "(re-route transfer accounting broken)"
            )
        if system.shards[index].collector.arrivals != router.routed_by_shard[index]:
            raise OracleFailure(
                f"shard {index}: collector arrivals "
                f"{system.shards[index].collector.arrivals} != routed "
                f"{router.routed_by_shard[index]}"
            )
    if router.rerouted != sum(router.rerouted_from) or (
        router.rerouted != sum(router.rerouted_to)
    ):
        raise OracleFailure("re-route from/to totals disagree")


def oracle_mpl_sanity(ctx: OracleContext) -> None:
    """Split MPLs sum to the global budget; dead shards admit nothing."""
    system, spec = ctx.system, ctx.spec
    if not isinstance(system, ClusteredSystem):
        return
    frontends = [shard.frontend for shard in system.shards]
    mpls = [f.mpl for f in frontends]
    if any(m is not None and m < 1 for m in mpls):
        raise OracleFailure(f"per-shard MPL below the floor of 1: {mpls}")
    global_mpl = spec.control.config_mpl()
    if (
        isinstance(spec.control, StaticMpl)
        and global_mpl is not None
        and spec.faults is None
        and all(m is not None for m in mpls)
        and sum(mpls) != global_mpl
    ):
        raise OracleFailure(
            f"static per-shard MPLs {mpls} sum to {sum(mpls)}, "
            f"not the global {global_mpl}"
        )
    if isinstance(spec.control, ElasticMpl):
        report = ctx.outcome.control
        final = getattr(report, "final_mpls", None)
        if final and sum(final) != spec.control.mpl:
            raise OracleFailure(
                f"elastic final MPLs {final} sum to {sum(final)}, "
                f"not the global {spec.control.mpl}"
            )
    router = system.router
    for index, frontend in enumerate(frontends):
        if not router.alive[index] and frontend.queue_length != 0:
            raise OracleFailure(
                f"dead shard {index} still queues "
                f"{frontend.queue_length} admissions"
            )


def oracle_disposition(ctx: OracleContext) -> None:
    """Every admitted transaction lands in exactly one disposition.

    The resilience gate's exactly-once contract: across retries, shard
    kills, and shed queues, an admission is completed, timed out, shed,
    or still in flight — never two of those, never none.
    """
    runtime = getattr(ctx.system, "resilience", None)
    if runtime is None:
        return
    settled = runtime.completed + runtime.timed_out + runtime.shed
    if runtime.admitted != settled + runtime.in_flight:
        raise OracleFailure(
            f"admitted {runtime.admitted} != completed {runtime.completed} "
            f"+ timed_out {runtime.timed_out} + shed {runtime.shed} "
            f"+ in_flight {runtime.in_flight}"
        )
    tally: Dict[str, int] = {}
    for disposition in runtime.dispositions().values():
        tally[disposition] = tally.get(disposition, 0) + 1
    expected = {
        "completed": runtime.completed,
        "timed_out": runtime.timed_out,
        "shed": runtime.shed,
        "in_flight": runtime.in_flight,
    }
    mismatches = {
        key: (tally.get(key, 0), count)
        for key, count in expected.items()
        if tally.get(key, 0) != count
    }
    if mismatches or set(tally) - set(expected):
        raise OracleFailure(
            f"per-transaction dispositions disagree with the counters: "
            f"{mismatches or sorted(set(tally) - set(expected))}"
        )
    per_class = runtime.per_class
    for priority, admitted in per_class["admitted"].items():
        settled_class = sum(
            per_class[counter].get(priority, 0)
            for counter in ("completed", "timed_out", "shed")
        )
        if admitted < settled_class:
            raise OracleFailure(
                f"class {priority}: {settled_class} settled but only "
                f"{admitted} admitted"
            )
    # the gate only ever counts commits as completed, and the collector
    # only ever records commits the gate let through, so the gate can
    # lag the collector by at most the in-flight tail (the run stops
    # the instant the Nth record lands, before that record's gate
    # callback) — never lead it
    if runtime.completed > len(ctx.system.collector.records):
        raise OracleFailure(
            f"gate counted {runtime.completed} completions but the "
            f"collector recorded only {len(ctx.system.collector.records)}"
        )


def oracle_atomicity(ctx: OracleContext) -> None:
    """2PC atomicity: no cross-shard transaction half-commits.

    The coordinator self-checks every decision (a branch finishing
    against the decided verdict, a commit finishing with a non-committed
    branch) into ``atomicity_violations``; the oracle also audits the
    attempt ledger — every cross-shard transaction either committed
    (and left the live table) or is still live, and every launched
    attempt is settled or current.
    """
    coordinator = getattr(ctx.system, "distributed", None)
    if coordinator is None:
        return
    report = coordinator.report_jsonable()
    if report["atomicity_violations"]:
        raise OracleFailure(
            f"2PC atomicity violated: {report['atomicity_violations']}"
        )
    if report["commits"] + report["in_flight"] != report["cross_shard"]:
        raise OracleFailure(
            f"2PC ledger broken: commits {report['commits']} + in-flight "
            f"{report['in_flight']} != cross-shard {report['cross_shard']}"
        )
    settled = report["commits"] + report["aborts"]
    if not settled <= report["attempts"] <= settled + report["in_flight"]:
        raise OracleFailure(
            f"2PC attempts {report['attempts']} outside "
            f"[{settled}, {settled + report['in_flight']}] "
            f"(commits {report['commits']}, aborts {report['aborts']})"
        )


def oracle_replay(ctx: OracleContext) -> None:
    """A second run of the same spec must be bit-identical."""
    _, second = run_scenario(ctx.spec)
    first_json = json.dumps(ctx.outcome.to_json_dict(), sort_keys=True)
    second_json = json.dumps(second.to_json_dict(), sort_keys=True)
    if first_json != second_json:
        raise OracleFailure("replay produced a different outcome JSON")


def oracle_jobs_invariance(ctx: OracleContext) -> None:
    """The ParallelRunner at --jobs 2 must reproduce the direct run."""
    if not ctx.check_jobs:
        return
    from repro.experiments.runner import scenario_results

    result = scenario_results([ctx.spec], jobs=2, cache_dir=ctx.cache_dir)[0]
    direct = ctx.outcome.result
    if json.dumps(result.to_json_dict(), sort_keys=True) != json.dumps(
        direct.to_json_dict(), sort_keys=True
    ):
        raise OracleFailure("--jobs 2 run differs from the in-process run")


#: Ordered oracle library: cheap structural checks first, the
#: execution-dependent ones after (they see ``ctx.system``/``ctx.outcome``).
ORACLES: Dict[str, Callable[[OracleContext], None]] = {
    "codec-roundtrip": oracle_codec_roundtrip,
    "conservation": oracle_conservation,
    "mpl-sanity": oracle_mpl_sanity,
    "disposition": oracle_disposition,
    "atomicity": oracle_atomicity,
    "replay": oracle_replay,
    "jobs-invariance": oracle_jobs_invariance,
}

#: Oracles that can run without executing the scenario.
_STRUCTURAL = ("codec-roundtrip",)


def check_scenario(
    spec: ScenarioSpec,
    *,
    check_jobs: bool = False,
    cache_dir: Optional[str] = None,
) -> Optional[Tuple[str, str]]:
    """Run the full oracle library; ``(oracle, error)`` on first failure."""
    ctx = OracleContext(spec=spec, check_jobs=check_jobs, cache_dir=cache_dir)
    for name in _STRUCTURAL:
        try:
            ORACLES[name](ctx)
        except OracleFailure as exc:
            return name, str(exc)
    try:
        ctx.system, ctx.outcome = run_scenario(spec)
    except GoodputStarved as exc:
        # A valid spec whose completion-counted window can never fill
        # (saturated retry storm → zero steady-state goodput).  The
        # refusal is the correct behaviour, not a finding — but the
        # detection itself must replay bit-identically.
        return _check_starvation_replays(spec, str(exc))
    except Exception as exc:  # noqa: BLE001 — any crash is a finding
        return "execution", f"{type(exc).__name__}: {exc}"
    for name, oracle in ORACLES.items():
        if name in _STRUCTURAL:
            continue
        try:
            oracle(ctx)
        except OracleFailure as exc:
            return name, str(exc)
    return None


def _check_starvation_replays(
    spec: ScenarioSpec, first_error: str
) -> Optional[Tuple[str, str]]:
    """Re-run a goodput-starved spec; the refusal must be deterministic."""
    try:
        run_scenario(spec)
    except GoodputStarved as exc:
        if str(exc) == first_error:
            return None
        return "replay", (
            "goodput starvation is not deterministic: first run said "
            f"{first_error!r}, replay said {str(exc)!r}"
        )
    except Exception as exc:  # noqa: BLE001
        return "replay", (
            "goodput starvation is not deterministic: replay raised "
            f"{type(exc).__name__}: {exc}"
        )
    return "replay", (
        "goodput starvation is not deterministic: the replay finished "
        f"(first run said {first_error!r})"
    )


# ---------------------------------------------------------------------------
# the shrinker
# ---------------------------------------------------------------------------

#: Shrink steps, most aggressive first (a candidate's sort rank).
_TO_NONE, _TO_DEFAULT, _DROP_ITEM, _TOWARD_BOUND = range(4)


def _number_targets(value: Any, hint: Any, rules: Any, default: Any) -> List[Any]:
    """``value`` moved to, then halfway to, its lower bound or default."""
    if isinstance(value, bool):
        return [default] if default is not dataclasses.MISSING and value != default else []
    target = rules.get("ge", default)
    if target is dataclasses.MISSING or target is None or target == value:
        return []
    target = hint(target)
    if hint is int:
        halfway = (value + target) // 2
    else:
        halfway = round((value + target) / 2, 3)
    return [target] + ([halfway] if halfway not in (value, target) else [])


def _smaller(
    value: Any, hint: Any, rules: Any, default: Any, depth: int
) -> Iterator[Tuple[int, int, Any]]:
    """Simpler variants of ``value``: ``(step, depth, variant)`` triples."""
    kind, detail = spec_codec.shape(hint)
    if kind == "optional":
        if value is not None:
            yield _TO_NONE, depth, None
            yield from _smaller(value, detail, rules, dataclasses.MISSING, depth)
        return
    if kind == "tuple":
        if len(spec_codec.tuple_items(hint, 0)) == 0:  # Tuple[X, ...]
            for index in range(len(value)):
                yield _DROP_ITEM, depth, value[:index] + value[index + 1:]
        items = spec_codec.tuple_items(hint, len(value))
        for index, (item, item_hint) in enumerate(zip(value, items)):
            for step, at, variant in _smaller(
                item, item_hint, rules, dataclasses.MISSING, depth
            ):
                yield step, at, value[:index] + (variant,) + value[index + 1:]
        return
    if kind == "union" and default is not dataclasses.MISSING and value != default:
        yield _TO_DEFAULT, depth, default
    if dataclasses.is_dataclass(value):
        yield from _smaller_fields(value, depth + 1)
    elif isinstance(value, (int, float)):
        for target in _number_targets(value, detail, rules, default):
            yield _TOWARD_BOUND, depth, target


def _smaller_fields(spec: Any, depth: int) -> Iterator[Tuple[int, int, Any]]:
    """``spec`` with one field simplified; later fields (which refine
    earlier ones, as replicas refine shards) come first."""
    for field in reversed(list(spec_codec.plan(type(spec)).values())):
        if field.derived:
            continue
        for step, at, variant in _smaller(
            getattr(spec, field.name), field.hint, field.rules, field.default,
            depth,
        ):
            try:
                yield step, at, dataclasses.replace(spec, **{field.name: variant})
            except ValueError:
                continue


def _shrink_steps(spec: ScenarioSpec) -> List[ScenarioSpec]:
    """Every one-step simplification of ``spec`` the constructors and
    the walk rules accept: optional axes to ``None``, then union members
    to their defaults, tuple items dropped, numbers moved toward their
    bounds; shallow fields before deep ones within each step."""
    steps = sorted(_smaller_fields(spec, 1), key=lambda found: found[:2])
    return [variant for _step, _depth, variant in steps if walk_rules_hold(variant)]


def shrink_scenario(
    spec: ScenarioSpec,
    failing_oracle: str,
    *,
    check_jobs: bool = False,
    cache_dir: Optional[str] = None,
    max_rounds: int = 6,
    log: Optional[Callable[[str], None]] = None,
) -> ScenarioSpec:
    """Greedy fixpoint shrink: keep a candidate iff the same oracle fails."""
    current = spec
    for _round in range(max_rounds):
        improved = False
        for candidate in _shrink_steps(current):
            verdict = check_scenario(
                candidate, check_jobs=check_jobs, cache_dir=cache_dir
            )
            if verdict is not None and verdict[0] == failing_oracle:
                current = candidate
                improved = True
                if log:
                    log(f"[shrink] kept {candidate.fingerprint()[:12]} "
                        f"({verdict[0]})")
                break
        if not improved:
            return current
    return current


# ---------------------------------------------------------------------------
# the corpus
# ---------------------------------------------------------------------------

CORPUS_FORMAT = 1


def write_reproducer(
    directory: str,
    spec: ScenarioSpec,
    oracle: str,
    error: str,
    *,
    seed: Optional[int] = None,
    iteration: Optional[int] = None,
) -> str:
    """Write one minimized reproducer; returns its path.

    The entry's ``expect`` is ``"ok"``: once the underlying bug is
    fixed, replaying the spec must pass every oracle (that is the
    regression contract CI enforces).  Hand-written entries may instead
    say ``"validation_error"`` for payloads the fixed decoder
    (:meth:`~repro.core.scenario.ScenarioSpec.from_json_dict`) must
    reject; an entry's ``oracle`` label is informational only.
    """
    os.makedirs(directory, exist_ok=True)
    name = f"repro-{oracle}-{spec.fingerprint()[:12]}.json"
    path = os.path.join(directory, name)
    payload = {
        "format": CORPUS_FORMAT,
        "oracle": oracle,
        "error": error,
        "expect": "ok",
        "seed": seed,
        "iteration": iteration,
        "fingerprint": spec.fingerprint(),
        "spec": spec.to_json_dict(),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def _rebase_file_traces(payload: Any, base: str) -> None:
    """Resolve relative ``file:`` trace paths against the corpus dir.

    Corpus entries must replay from any working directory; their
    companion trace files live next to the JSON.
    """
    spec = payload.get("spec")
    if not isinstance(spec, dict):
        return

    def rebase(holder: Any, key: str) -> None:
        if not isinstance(holder, dict):
            return
        value = holder.get(key)
        if isinstance(value, str) and value.startswith(FILE_TRACE_PREFIX):
            path = value[len(FILE_TRACE_PREFIX):]
            if not os.path.isabs(path):
                holder[key] = FILE_TRACE_PREFIX + os.path.join(base, path)

    rebase(spec.get("workload"), "trace")
    rebase(spec.get("arrival"), "trace_name")


def replay_corpus(
    directory: str,
    *,
    check_jobs: bool = False,
    log: Optional[Callable[[str], None]] = None,
) -> List[str]:
    """Replay every reproducer in ``directory``; returns failure strings."""
    failures: List[str] = []
    paths = sorted(glob.glob(os.path.join(directory, "*.json")))
    for path in paths:
        name = os.path.basename(path)
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        _rebase_file_traces(payload, os.path.dirname(os.path.abspath(path)))
        expect = payload.get("expect", "ok")
        if expect == "validation_error":
            try:
                ScenarioSpec.from_json_dict(payload["spec"])
            except ScenarioValidationError:
                if log:
                    log(f"[corpus] {name}: rejected as expected")
                continue
            failures.append(
                f"{name}: the decoder accepted a payload the corpus "
                "expects to be rejected"
            )
            continue
        try:
            spec = ScenarioSpec.from_json_dict(payload["spec"])
        except ScenarioValidationError as exc:
            failures.append(f"{name}: spec no longer decodes: {exc}")
            continue
        if expect == "goodput_starved":
            try:
                run_scenario(spec)
            except GoodputStarved:
                if log:
                    log(f"[corpus] {name}: starved as expected")
                continue
            except Exception as exc:  # noqa: BLE001
                failures.append(
                    f"{name}: expected GoodputStarved, got "
                    f"{type(exc).__name__}: {exc}"
                )
                continue
            failures.append(
                f"{name}: ran to completion but the corpus expects "
                "goodput starvation"
            )
            continue
        verdict = check_scenario(spec, check_jobs=check_jobs)
        if verdict is not None:
            failures.append(f"{name}: {verdict[0]} failed: {verdict[1]}")
        elif log:
            log(f"[corpus] {name}: all oracles green")
    if not paths and log:
        log(f"[corpus] no reproducers under {directory}")
    return failures


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class FuzzFailure:
    """One oracle violation, before and after shrinking."""

    iteration: int
    oracle: str
    error: str
    spec: ScenarioSpec
    minimized: Optional[ScenarioSpec] = None
    reproducer_path: Optional[str] = None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "iteration": self.iteration,
            "oracle": self.oracle,
            "error": self.error,
            "fingerprint": self.spec.fingerprint(),
            "minimized_fingerprint": (
                self.minimized.fingerprint() if self.minimized else None
            ),
            "minimized_spec": (
                self.minimized.to_json_dict() if self.minimized else None
            ),
            "reproducer_path": self.reproducer_path,
        }


@dataclasses.dataclass
class FuzzReport:
    """One fuzzing campaign's deterministic summary."""

    seed: int
    iterations: int
    fingerprints: List[str] = dataclasses.field(default_factory=list)
    failures: List[FuzzFailure] = dataclasses.field(default_factory=list)
    jobs_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> Dict[str, Any]:
        return {
            "fuzzer": "scenario-walk",
            "seed": self.seed,
            "iterations": self.iterations,
            "oracles": list(ORACLES),
            "jobs_checked": self.jobs_checked,
            "fingerprints": self.fingerprints,
            "failures": [failure.as_dict() for failure in self.failures],
        }


def run_fuzz(
    seed: int = 0,
    iterations: int = 50,
    *,
    check_jobs_every: int = 10,
    shrink: bool = True,
    corpus_dir: Optional[str] = None,
    trace_files: Sequence[str] = DEFAULT_TRACE_FILES,
    cache_dir: Optional[str] = None,
    log: Optional[Callable[[str], None]] = None,
) -> FuzzReport:
    """One fuzzing campaign: walk, execute, judge, shrink, record.

    Deterministic end to end: the report's ``fingerprints`` list is a
    pure function of ``seed`` and ``iterations`` (the determinism test
    pins two independent campaigns against each other).
    ``check_jobs_every=N`` runs the ParallelRunner invariance oracle on
    every Nth scenario (0 disables it); ``corpus_dir`` is where
    minimized reproducers land.
    """
    walker = ScenarioWalker(seed=seed, trace_files=trace_files)
    report = FuzzReport(seed=seed, iterations=iterations)
    for iteration in range(1, iterations + 1):
        spec = walker.next_spec()
        report.fingerprints.append(spec.fingerprint())
        check_jobs = bool(check_jobs_every) and iteration % check_jobs_every == 0
        if check_jobs:
            report.jobs_checked += 1
        verdict = check_scenario(
            spec, check_jobs=check_jobs, cache_dir=cache_dir
        )
        if verdict is None:
            if log and (iteration % 10 == 0 or iteration == iterations):
                log(f"[fuzz] {iteration}/{iterations} scenarios clean")
            continue
        oracle, error = verdict
        failure = FuzzFailure(
            iteration=iteration, oracle=oracle, error=error, spec=spec
        )
        if log:
            log(f"[fuzz] iteration {iteration}: {oracle} FAILED: {error}")
        if shrink:
            failure.minimized = shrink_scenario(
                spec, oracle, check_jobs=check_jobs, cache_dir=cache_dir,
                log=log,
            )
        if corpus_dir is not None:
            failure.reproducer_path = write_reproducer(
                corpus_dir,
                failure.minimized or spec,
                oracle,
                error,
                seed=seed,
                iteration=iteration,
            )
            if log:
                log(f"[fuzz] reproducer written: {failure.reproducer_path}")
        report.failures.append(failure)
    return report
