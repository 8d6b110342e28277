"""Scenario API v2: workload × arrivals × topology × control × faults.

The paper's core move is *external* control — the MPL loop wraps an
unmodified DBMS, so the whole experiment is configuration, not engine
code.  This module makes that literal: a :class:`ScenarioSpec` composes
orthogonal, individually-fingerprinted sub-specs

* :class:`WorkloadRef` — *what runs*: a Table 2 setup id, or a named
  service-demand trace (:mod:`repro.workloads.traces`);
* :class:`~repro.core.arrivals.ArrivalSpec` — *how work arrives*
  (closed / open / partly-open / modulated / trace replay), the seam
  PR 2 introduced, reused unchanged;
* :class:`TopologySpec` — *where it runs*: shard count, routing
  policy, routing weights (the cluster layer of PR 3), and — new in
  v2 — ``replicas_per_shard`` / ``read_fanout`` /
  ``election_timeout_s`` describing one
  :class:`~repro.core.cluster.ReplicaGroup` per shard;
* :class:`ControlSpec` — *who turns the knob*: a static MPL
  (:class:`StaticMpl`), the paper's §4 feedback loop
  (:class:`FeedbackMpl`), a per-class SLO loop
  (:class:`PerClassSlo`) holding HIGH's p95 under a target while
  maximizing LOW throughput, or — new in v2 — elastic capacity
  (:class:`ElasticMpl`) re-splitting the global MPL toward hot shards
  and parking/activating shards on watermarks;
* :class:`~repro.core.faults.FaultSpec` — *what goes wrong*: an
  optional kill/restore/degrade timeline a
  :class:`~repro.core.cluster.FaultInjector` drives on the simulated
  clock (new in v2);
* :class:`~repro.core.resilience_spec.ResilienceSpec` — *what the front end
  does about it*: per-class deadlines, retry with exponential backoff
  and seeded jitter, bounded admission queues with load shedding, and
  health-aware per-shard circuit breaking (PR 9);

plus a :class:`MeasurementSpec` (transactions, warmup, metric set —
including the v2 ``timeline`` family that buckets throughput/p95 over
simulated time for failover plots).
Scenarios are pure data: frozen dataclasses that JSON round-trip
(:meth:`ScenarioSpec.to_json_dict` / :meth:`ScenarioSpec.from_json_dict`,
both the annotation-driven walk of :mod:`repro.core.spec_codec`, which
also checks every field's type and declared rules at construction),
pickle into worker processes, and content-hash into the parallel
runner's cache key.  Loading them loads no part of the simulator:
each control's ``apply`` and :func:`run_scenario` import the runtime
on their first call, so a figure served from the cache never does.

Compatibility is structural: :meth:`ScenarioSpec.build_config`
constructs exactly the :class:`~repro.core.system.SystemConfig` /
:class:`~repro.core.cluster_config.ClusterConfig` the pre-scenario run
description produced, and :meth:`ScenarioSpec.fingerprint` only
appends ``extra`` entries for features that description could not
express — so every pre-scenario run keeps its exact cache key (pinned
by ``tests/data/scenario_golden_fingerprints.json``).
"""

from __future__ import annotations

import dataclasses
import json
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core import spec_codec
from repro.core.arrivals import (
    ArrivalSpec,
    ClosedArrivals,
    ModulatedArrivals,
    OpenArrivals,
    SinusoidRate,
    TraceArrivals,
)
from repro.core.cluster_config import (
    READ_FANOUT_POLICIES,
    ROUTING_POLICIES,
    AnyConfig,
    ClusterConfig,
)
from repro.core.control_types import (
    Baseline,
    ClusterSloObservation,
    ClusterSloReport,
    ControllerReport,
    ElasticAction,
    ElasticReport,
    Observation,
    SloObservation,
    SloReport,
    Thresholds,
    check_loop_ranges,
)
from repro.core.distributed_spec import DistributedSpec
from repro.core.faults import FaultSpec, KillShard, RestoreShard
from repro.core.policies import make_policy
from repro.core.resilience_spec import ResilienceSpec
from repro.core.spec_codec import ScenarioValidationError, check_fields, spec_field
from repro.core.system import (
    RunResult,
    SystemConfig,
    canonical_jsonable,
    content_digest,
)
from repro.dbms.config import (
    HardwareConfig,
    InternalPolicy,
    IsolationLevel,
    LockSchedulingPolicy,
)
from repro.metrics import stats
from repro.workloads.setups import SETUPS

if TYPE_CHECKING:
    from repro.core.simulation import MeasuredSystem

#: Seed shared by every figure unless the paper's text says otherwise
#: (the historical home of this constant is
#: :mod:`repro.experiments.parallel`, which re-exports it).
DEFAULT_SEED = 11

#: Metric families a :class:`MeasurementSpec` may request.
METRIC_SETS = ("standard", "percentiles", "timeline")

#: Response-time percentiles reported by the ``percentiles`` metric set.
REPORTED_PERCENTILES = (50.0, 95.0, 99.0)


def component_fingerprint(spec: Any) -> str:
    """Content hash of one sub-spec (workload / arrival / ...).

    Orthogonality made checkable: two scenarios share a component
    fingerprint iff that axis is identical, regardless of every other
    axis.
    """
    return content_digest(canonical_jsonable(spec), {})


# -- the axes ------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class WorkloadRef:
    """What runs: a Table 2 setup id, or a named demand trace.

    Exactly one of ``setup_id`` / ``trace`` is set.  A setup carries
    its own hardware and isolation level (Table 2); a trace runs as a
    resampled CPU-bound workload
    (:func:`~repro.workloads.traces.trace_workload`) on the default
    one-CPU machine.
    """

    setup_id: Optional[int] = spec_field(
        1, choices=tuple(setup.setup_id for setup in SETUPS)
    )
    trace: Optional[str] = None
    trace_transactions: Optional[int] = None
    trace_seed: Optional[int] = None

    def __post_init__(self) -> None:
        check_fields(self)
        if (self.setup_id is None) == (self.trace is None):
            raise ValueError(
                "specify exactly one of setup_id / trace, got "
                f"setup_id={self.setup_id!r} trace={self.trace!r}"
            )

    def resolve(self) -> "Tuple[Any, HardwareConfig, IsolationLevel]":
        """The (workload, hardware, isolation) triple this ref names."""
        if self.setup_id is not None:
            from repro.workloads.setups import get_setup

            setup = get_setup(self.setup_id)
            return setup.workload, setup.hardware, setup.isolation
        from repro.workloads.traces import get_trace, trace_workload

        trace = get_trace(self.trace, self.trace_transactions, self.trace_seed)
        return trace_workload(trace), HardwareConfig(), IsolationLevel.RR


@dataclasses.dataclass(frozen=True)
class TopologySpec:
    """Where it runs: N engines behind a router (1 = the plain engine).

    ``replicas_per_shard`` puts a
    :class:`~repro.core.cluster.ReplicaGroup` behind each router slot:
    one primary + R replicas, writes pinned to the primary, reads
    fanned out by ``read_fanout`` (``primary`` / ``round_robin`` /
    ``least_in_flight``), with a deterministic lowest-index election
    ``election_timeout_s`` of simulated time after a primary dies.
    """

    shards: int = spec_field(1, ge=1)
    routing: str = spec_field("round_robin", choices=ROUTING_POLICIES)
    #: One positive weight per shard (``weighted`` routing).
    routing_weights: Optional[Tuple[float, ...]] = spec_field(None, gt=0)
    replicas_per_shard: int = spec_field(0, ge=0)
    read_fanout: str = spec_field("round_robin", choices=READ_FANOUT_POLICIES)
    election_timeout_s: float = spec_field(0.5, ge=0)

    #: v2 fields omitted from the canonical encoding at their defaults,
    #: so every v1 topology keeps its exact component digest.
    FINGERPRINT_OMIT_DEFAULTS = frozenset(
        {"replicas_per_shard", "read_fanout", "election_timeout_s"}
    )

    def __post_init__(self) -> None:
        check_fields(self)
        if (
            self.routing_weights is not None
            and len(self.routing_weights) != self.shards
        ):
            raise ValueError(
                f"need {self.shards} routing weights, "
                f"got {len(self.routing_weights)}"
            )


@dataclasses.dataclass(frozen=True)
class MeasurementSpec:
    """How the run is measured: sample size, warmup, metric families."""

    transactions: int = spec_field(1500, ge=1)
    warmup_fraction: float = spec_field(0.2, ge=0, lt=1)
    metrics: Tuple[str, ...] = spec_field(("standard",), choices=METRIC_SETS)
    #: Bucket width (simulated seconds) for the ``timeline`` metric set.
    timeline_bucket_s: float = spec_field(1.0, gt=0)

    #: v2 field omitted from the canonical encoding at its default.
    FINGERPRINT_OMIT_DEFAULTS = frozenset({"timeline_bucket_s"})

    def __post_init__(self) -> None:
        check_fields(self)
        if "standard" not in self.metrics:
            raise ValueError("the metric set must include 'standard'")


class ControlSpec:
    """Marker base: who sets the MPL, and how, during a run.

    A control spec is pure data; the *system* instantiates the matching
    controller (``apply``) — figure code never constructs controllers
    directly anymore.
    """

    #: Every spec checks its fields' types and rules on construction;
    #: an override with rules of its own calls ``check_fields`` first.
    __post_init__ = check_fields

    def config_mpl(self) -> Optional[int]:
        """The MPL the system is built with (before any control loop)."""
        raise NotImplementedError

    def baseline_spec(self, scenario: "ScenarioSpec") -> "Optional[ScenarioSpec]":
        """The reference run this control measures against, if any.

        The runner runs it as a cell of its own ahead of ``scenario``
        and hands its result to :meth:`apply` as ``baseline``.
        """
        return None

    def apply(
        self,
        system: MeasuredSystem,
        scenario: "ScenarioSpec",
        baseline: Optional[RunResult] = None,
    ) -> "Optional[ControlReport]":
        """Run the control phase against a live system; report or None.

        ``baseline`` is the result of :meth:`baseline_spec`'s run, for
        a control that has one.
        """
        raise NotImplementedError


@dataclasses.dataclass(frozen=True)
class StaticMpl(ControlSpec):
    """A fixed MPL (None = unlimited, the paper's baseline system)."""

    mpl: Optional[int] = spec_field(None, ge=1)

    def config_mpl(self) -> Optional[int]:
        return self.mpl

    def apply(self, system, scenario, baseline=None):
        return None


@dataclasses.dataclass(frozen=True)
class FeedbackMpl(ControlSpec):
    """The paper's §4 loop: queueing-model jump-start + feedback control.

    ``initial_mpl=None`` jump-starts from the queueing models (§4.1 /
    §4.2) using the measured baseline, exactly like
    :class:`~repro.core.tuner.MplTuner` (single-engine topologies
    only — a sharded scenario must pin ``initial_mpl`` explicitly).
    The no-MPL baseline the penalties are measured against is the run
    of :meth:`baseline_spec`: the unlimited twin of the same scenario
    (same workload, arrivals, topology, seed and warm-up), run for
    ``baseline_transactions``.  The runner runs that twin as a cell of
    its own — cached, and shared by every tuning of the same setup in
    a grid — and passes its result to :meth:`apply`; a standalone run
    measures it first.  ``baseline_throughput`` /
    ``baseline_response_time`` supply a pre-measured baseline instead,
    and then there is no twin.

    On a sharded topology the loop runs per shard
    (:meth:`~repro.core.cluster.ClusteredSystem.tune_shards`), each
    shard held to its fair share of the cluster baseline.
    """

    max_throughput_loss: float = 0.05
    max_response_time_increase: float = 0.30
    initial_mpl: Optional[int] = None
    window: int = 100
    step: int = 1
    adaptive: bool = True
    baseline_transactions: int = spec_field(1000, ge=2)
    #: Pre-measured no-MPL reference (both set, or both None).
    baseline_throughput: Optional[float] = None
    baseline_response_time: Optional[float] = None

    def __post_init__(self) -> None:
        check_fields(self)
        # delegate range validation to the shared Thresholds rules
        self.thresholds()
        check_loop_ranges(self.initial_mpl, self.window, self.step)
        if (self.baseline_throughput is None) != (
            self.baseline_response_time is None
        ):
            raise ValueError(
                "baseline_throughput and baseline_response_time go together"
            )
        if self.baseline_throughput is not None:
            # validate the pair eagerly (Baseline rejects tput <= 0)
            self.explicit_baseline()
            if self.initial_mpl is None:
                raise ValueError(
                    "an explicit baseline carries no utilizations for the "
                    "model jump-start; pin initial_mpl as well"
                )

    def explicit_baseline(self) -> Optional[Baseline]:
        """The pre-measured reference, if one was supplied."""
        if self.baseline_throughput is None:
            return None
        return Baseline(
            throughput=self.baseline_throughput,
            mean_response_time=self.baseline_response_time,
        )

    def thresholds(self) -> Thresholds:
        """The DBA tolerances as the controller's Thresholds object."""
        return Thresholds(
            max_throughput_loss=self.max_throughput_loss,
            max_response_time_increase=self.max_response_time_increase,
        )

    def config_mpl(self) -> Optional[int]:
        return self.initial_mpl

    def baseline_spec(self, scenario):
        """The unlimited twin of ``scenario`` (None with an explicit
        baseline): static unlimited MPL, ``baseline_transactions``
        measured, no faults, resilience or 2PC."""
        if self.baseline_throughput is not None:
            return None
        return dataclasses.replace(
            scenario,
            control=StaticMpl(None),
            measurement=MeasurementSpec(
                transactions=self.baseline_transactions,
                warmup_fraction=scenario.measurement.warmup_fraction,
            ),
            faults=None,
            resilience=None,
            distributed=None,
        )

    def apply(self, system, scenario, baseline=None):
        from repro.core.cluster import ClusteredSystem
        from repro.core.controller import MplController
        from repro.core.tuner import model_jump_start

        reference = self.explicit_baseline()
        if reference is None:
            if baseline is None:
                baseline = execute_scenario(self.baseline_spec(scenario)).result
            reference = Baseline(
                throughput=baseline.throughput,
                mean_response_time=baseline.mean_response_time,
            )
        if isinstance(system, ClusteredSystem):
            # initial_mpl is validated non-None for sharded scenarios
            reports = system.tune_shards(
                reference,
                self.thresholds(),
                initial_mpl=self.initial_mpl,
                window=self.window,
                step=self.step,
                adaptive=self.adaptive,
                check_response_time=scenario.is_open,
            )
            return ShardReports(tuple(reports))
        initial = self.initial_mpl
        if initial is None:
            jump = model_jump_start(
                system.config, baseline, self.thresholds(),
                is_open=scenario.is_open,
            )
            cap = max(1, system.config.num_clients)
            initial = min(max(jump["throughput"], jump["response_time"]), cap)
        controller = MplController(
            system,
            reference,
            self.thresholds(),
            initial_mpl=initial,
            window=self.window,
            step=self.step,
            adaptive=self.adaptive,
            check_response_time=scenario.is_open,
        )
        return controller.tune()


@dataclasses.dataclass(frozen=True)
class _SloControl(ControlSpec):
    """Fields and checks shared by the two highest-feasible SLO loops.

    The defaults are :class:`PerClassSlo`'s; :class:`ClusterSlo`
    overrides ``initial_mpl``, ``step`` and ``max_mpl``.
    """

    high_p95_target_s: float = spec_field(0.5, gt=0)
    initial_mpl: int = 8
    window: int = 150
    step: int = 1
    max_mpl: int = 128
    max_iterations: int = 30

    def __post_init__(self) -> None:
        check_fields(self)
        check_loop_ranges(
            self.initial_mpl, self.window, self.step, self.max_mpl, self.max_iterations
        )

    def config_mpl(self) -> Optional[int]:
        return self.initial_mpl


@dataclasses.dataclass(frozen=True)
class PerClassSlo(_SloControl):
    """Hold HIGH's p95 under ``high_p95_target_s``, maximize LOW work.

    Runs :class:`~repro.core.controller.PerClassSloController` against
    the live system; requires HIGH-priority traffic
    (``high_priority_fraction > 0``) and a single-engine topology.
    """

    def apply(self, system, scenario, baseline=None):
        from repro.core.controller import PerClassSloController

        controller = PerClassSloController(
            system,
            target_p95_s=self.high_p95_target_s,
            initial_mpl=self.initial_mpl,
            window=self.window,
            step=self.step,
            max_mpl=self.max_mpl,
            max_iterations=self.max_iterations,
        )
        return controller.tune()


@dataclasses.dataclass(frozen=True)
class ElasticMpl(ControlSpec):
    """Elastic capacity: periodic global-MPL re-split + shard rotation.

    Installs an
    :class:`~repro.core.controller.ElasticCapacityController` on the
    cluster's simulated clock: every ``interval_s`` the global ``mpl``
    budget is re-split toward loaded shards (via
    :meth:`~repro.core.cluster.ShardedExternalScheduler.set_global_mpl`
    with load-proportional weights), shards are parked out of the
    routing rotation when the admitted fraction drops below
    ``low_watermark`` and re-activated above ``high_watermark``.  This
    is how a scenario absorbs ``hash``-routing skew, ``tv`` load
    swings, or a fault timeline — clustered topologies only.
    """

    mpl: int = spec_field(16, ge=1)
    interval_s: float = spec_field(2.0, gt=0)
    high_watermark: float = 0.85
    low_watermark: float = 0.25
    min_shards: int = spec_field(1, ge=1)
    max_ticks: int = spec_field(1000, ge=1)

    def __post_init__(self) -> None:
        check_fields(self)
        if not 0.0 <= self.low_watermark < self.high_watermark <= 1.0:
            raise ValueError(
                "need 0 <= low_watermark < high_watermark <= 1, got "
                f"{self.low_watermark!r} / {self.high_watermark!r}"
            )

    def config_mpl(self) -> Optional[int]:
        return self.mpl

    def apply(self, system, scenario, baseline=None):
        from repro.core.cluster import ClusteredSystem
        from repro.core.controller import ElasticCapacityController

        if not isinstance(system, ClusteredSystem):
            raise ValueError(
                "ElasticMpl needs a clustered topology (shards > 1 or "
                "replicas_per_shard > 0)"
            )
        controller = ElasticCapacityController(
            system,
            global_mpl=self.mpl,
            interval_s=self.interval_s,
            high_watermark=self.high_watermark,
            low_watermark=self.low_watermark,
            min_shards=self.min_shards,
            max_ticks=self.max_ticks,
        )
        return controller.install().report


@dataclasses.dataclass(frozen=True)
class ClusterSlo(_SloControl):
    """Hold the *cluster-wide* HIGH p95 under a target, maximize LOW work.

    :class:`PerClassSlo` lifted to cluster scope: one
    :class:`~repro.core.controller.ClusterSloController` feedback loop
    observes the cluster collector and drives the *global* MPL split
    (health-aware weights over
    :meth:`~repro.core.cluster.ShardedExternalScheduler.set_global_mpl`)
    — the lever a sharded deployment actually has, and the one that
    must react to cross-shard 2PC contention, ``shard_health()``, and
    breaker state.  Requires a sharded topology (``shards >= 2``,
    no replicas) and HIGH-priority traffic.
    """

    initial_mpl: int = 16
    step: int = 2
    max_mpl: int = 256

    def apply(self, system, scenario, baseline=None):
        from repro.core.cluster import ClusteredSystem
        from repro.core.controller import ClusterSloController

        if not isinstance(system, ClusteredSystem):
            raise ValueError(
                "ClusterSlo control needs a sharded topology (shards > 1)"
            )
        controller = ClusterSloController(
            system,
            target_p95_s=self.high_p95_target_s,
            initial_mpl=self.initial_mpl,
            window=self.window,
            step=self.step,
            max_mpl=self.max_mpl,
            max_iterations=self.max_iterations,
        )
        return controller.tune()


@dataclasses.dataclass(frozen=True)
class ShardReports:
    """Per-shard controller reports from a sharded feedback run."""

    shards: Tuple[ControllerReport, ...]


ControlReport = Union[
    ControllerReport, SloReport, ShardReports, ElasticReport, ClusterSloReport
]


# -- the composed scenario -----------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ScenarioSpec:
    """One experiment, composed from orthogonal axes.

    The all-default scenario is the legacy default run: Table 2
    setup 1, closed arrivals (100 clients), one shard, a static
    unlimited MPL, 1500 measured transactions.

    ``arrival=None`` keeps the legacy closed default (100 clients, no
    think time); ``arrival_rate`` is the legacy open-Poisson knob kept
    for fingerprint compatibility — new scenarios should say
    :class:`~repro.core.arrivals.OpenArrivals` instead.
    """

    workload: WorkloadRef = WorkloadRef()
    arrival: Optional[ArrivalSpec] = None
    topology: TopologySpec = TopologySpec()
    control: ControlSpec = StaticMpl()
    measurement: MeasurementSpec = MeasurementSpec()
    #: External queue policy, by any name :func:`make_policy` accepts.
    policy: str = spec_field("fifo", valid=make_policy)
    internal: Optional[InternalPolicy] = None
    high_priority_fraction: float = spec_field(0.0, ge=0, le=1)
    arrival_rate: Optional[float] = spec_field(None, gt=0)
    seed: int = DEFAULT_SEED
    #: Free-form label carried into artifacts (never hashed).
    tag: str = ""
    #: Optional fault timeline (v2): hashed only when present.
    faults: Optional[FaultSpec] = None
    #: Optional resilience axis (PR 9: deadlines, retry/backoff,
    #: shedding, circuit breaking): hashed only when present.
    resilience: Optional[ResilienceSpec] = None
    #: Optional distributed-transaction axis (cross-shard 2PC):
    #: hashed only when present.
    distributed: Optional[DistributedSpec] = None

    def __post_init__(self) -> None:
        check_fields(self)
        if self.arrival is not None and self.arrival_rate is not None:
            raise ValueError(
                "specify either an arrival spec or the legacy arrival_rate, not both"
            )
        if (
            isinstance(self.control, FeedbackMpl)
            and self.topology.shards > 1
            and self.control.initial_mpl is None
        ):
            raise ValueError(
                "FeedbackMpl on a sharded topology needs an explicit "
                "initial_mpl (the queueing-model jump-start is single-engine)"
            )
        if self.distributed is not None:
            if self.topology.shards < 2:
                raise ValueError(
                    "distributed transactions need a sharded topology "
                    f"(shards >= 2, got {self.topology.shards})"
                )
            if self.topology.replicas_per_shard > 0:
                raise ValueError(
                    "the distributed axis needs replicas_per_shard == 0 "
                    "(2PC branch completion events bypass replica groups)"
                )
            if self.distributed.fanout_k > self.topology.shards:
                raise ValueError(
                    f"fanout_k {self.distributed.fanout_k} cannot exceed "
                    f"the topology's {self.topology.shards} shard(s)"
                )
        if isinstance(self.control, ClusterSlo):
            if self.topology.shards < 2 or self.topology.replicas_per_shard > 0:
                raise ValueError(
                    "ClusterSlo control runs on a sharded topology "
                    f"(shards >= 2, no replicas; got {self.topology.shards} "
                    f"shard(s), {self.topology.replicas_per_shard} replica(s))"
                )
            if self.high_priority_fraction <= 0:
                raise ValueError(
                    "ClusterSlo control needs HIGH-priority traffic "
                    "(high_priority_fraction > 0)"
                )
            if self.control.initial_mpl < self.topology.shards:
                raise ValueError(
                    f"ClusterSlo initial_mpl {self.control.initial_mpl} "
                    f"cannot cover {self.topology.shards} shards "
                    "(need >= 1 each)"
                )
        if isinstance(self.control, PerClassSlo):
            if self.topology.shards != 1 or self.topology.replicas_per_shard > 0:
                raise ValueError(
                    "PerClassSlo control runs on a single engine "
                    f"(got {self.topology.shards} shard(s), "
                    f"{self.topology.replicas_per_shard} replica(s))"
                )
            if self.high_priority_fraction <= 0:
                raise ValueError(
                    "PerClassSlo control needs HIGH-priority traffic "
                    "(high_priority_fraction > 0)"
                )
        if isinstance(self.control, ElasticMpl):
            if not self.is_clustered:
                raise ValueError(
                    "ElasticMpl control needs a clustered topology "
                    "(shards > 1 or replicas_per_shard > 0)"
                )
            if self.control.mpl < self.topology.shards:
                raise ValueError(
                    f"ElasticMpl mpl {self.control.mpl} cannot cover "
                    f"{self.topology.shards} shards (need >= 1 each)"
                )
        if self.faults is not None:
            if not self.is_clustered:
                raise ValueError(
                    "a fault timeline needs a clustered topology "
                    "(shards > 1 or replicas_per_shard > 0)"
                )
            if self.faults.max_shard() >= self.topology.shards:
                raise ValueError(
                    f"fault event targets shard {self.faults.max_shard()} "
                    f"but the topology has {self.topology.shards} shard(s)"
                )
        if self.resilience is not None:
            if self.topology.replicas_per_shard > 0:
                raise ValueError(
                    "the resilience axis needs replicas_per_shard == 0 "
                    "(replica groups own their own admission accounting "
                    "and completion events)"
                )
            if self.resilience.breaker_enabled and self.topology.shards < 2:
                raise ValueError(
                    "circuit breaking needs a sharded topology "
                    "(shards > 1) — there is no alternative shard to "
                    "steer work toward"
                )
            if self.resilience.queue_cap is not None and not self.is_open:
                raise ValueError(
                    "load shedding (queue_cap) needs externally driven "
                    "arrivals — a closed client resubmits the instant a "
                    "shed releases it, livelocking the simulation at one "
                    "timestamp"
                )

    # -- derived views -------------------------------------------------------

    @property
    def is_open(self) -> bool:
        """Whether arrivals are externally driven (vs a closed loop)."""
        if self.arrival_rate is not None:
            return True
        return self.arrival is not None and not isinstance(
            self.arrival, ClosedArrivals
        )

    @property
    def is_clustered(self) -> bool:
        """Whether this scenario builds a router-fronted cluster."""
        return self.topology.shards > 1 or self.topology.replicas_per_shard > 0

    # legacy-facing accessors (bench artifacts, grid assertions)

    @property
    def setup_id(self) -> Optional[int]:
        return self.workload.setup_id

    @property
    def mpl(self) -> Optional[int]:
        return self.control.config_mpl()

    @property
    def transactions(self) -> int:
        return self.measurement.transactions

    @property
    def warmup_fraction(self) -> float:
        return self.measurement.warmup_fraction

    @property
    def shards(self) -> int:
        return self.topology.shards

    @property
    def routing(self) -> str:
        return self.topology.routing

    # -- construction --------------------------------------------------------

    def build_config(self) -> AnyConfig:
        """The system/cluster config this scenario describes.

        Field-for-field the pre-scenario construction — which is what
        keeps every legacy fingerprint and result byte-identical.
        """
        workload, hardware, isolation = self.workload.resolve()
        base = SystemConfig(
            workload=workload,
            hardware=hardware,
            isolation=isolation,
            internal=self.internal,
            mpl=self.control.config_mpl(),
            policy=self.policy,
            high_priority_fraction=self.high_priority_fraction,
            arrival_rate=self.arrival_rate,
            seed=self.seed,
            arrival=self.arrival,
        )
        if not self.is_clustered:
            return base
        return ClusterConfig.scale_out(
            base,
            self.topology.shards,
            routing=self.topology.routing,
            routing_weights=self.topology.routing_weights,
            replicas_per_shard=self.topology.replicas_per_shard,
            read_fanout=self.topology.read_fanout,
            election_timeout_s=self.topology.election_timeout_s,
        )

    # -- fingerprinting ------------------------------------------------------

    def fingerprint(self) -> str:
        """The canonical content hash (the runner's cache key).

        Built on the underlying config's digest; axes the legacy path
        could not express (non-static control, extra metric sets) are
        appended to the ``extra`` payload *only when non-default*, so
        every legacy-expressible scenario keeps its historical digest.
        """
        extra: Dict[str, Any] = {
            "transactions": self.measurement.transactions,
            "warmup_fraction": self.measurement.warmup_fraction,
        }
        if not isinstance(self.control, StaticMpl):
            extra["control"] = canonical_jsonable(self.control)
        if self.measurement.metrics != ("standard",):
            extra["metrics"] = list(self.measurement.metrics)
        if self.measurement.timeline_bucket_s != 1.0:
            extra["timeline_bucket_s"] = self.measurement.timeline_bucket_s
        if self.faults is not None:
            extra["faults"] = canonical_jsonable(self.faults)
        if self.resilience is not None:
            extra["resilience"] = canonical_jsonable(self.resilience)
        if self.distributed is not None:
            extra["distributed"] = canonical_jsonable(self.distributed)
        return self.build_config().fingerprint(**extra)

    def component_fingerprints(self) -> Dict[str, str]:
        """One digest per axis (orthogonality, surfaced)."""
        return {
            "workload": component_fingerprint(self.workload),
            "arrival": component_fingerprint(self.arrival),
            "topology": component_fingerprint(self.topology),
            "control": component_fingerprint(self.control),
            "measurement": component_fingerprint(self.measurement),
            "faults": component_fingerprint(self.faults),
            "resilience": component_fingerprint(self.resilience),
            "distributed": component_fingerprint(self.distributed),
        }

    # -- JSON round-trip -----------------------------------------------------

    def to_json_dict(self) -> Dict[str, Any]:
        """A JSON round-trip encoding (see :meth:`from_json_dict`)."""
        return spec_codec.encode(self, ScenarioSpec)

    @classmethod
    def from_json_dict(cls, payload: Any) -> "ScenarioSpec":
        """Rebuild a scenario from JSON data, collecting *every* problem.

        Strict: unknown keys, values of the wrong type, non-finite
        numbers and broken field rules all raise, so a typo'd field
        fails loudly instead of silently running the default scenario.
        One :class:`ScenarioValidationError` carries a
        ``(json-pointer-path, message)`` pair per problem; rules that
        span several fields report at their object's path (``""`` for
        the scenario itself).
        """
        problems: List[Tuple[str, str]] = []
        spec = spec_codec.decode(payload, cls, "", problems)
        if problems:
            raise ScenarioValidationError(problems)
        return spec

    #: The same decoder under its former name (``perfbench`` calls it).
    validate = from_json_dict

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_json_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_json_dict(json.loads(text))


# -- JSON codec ----------------------------------------------------------------

spec_codec.UNIONS[ControlSpec] = {
    "static": StaticMpl,
    "feedback": FeedbackMpl,
    "per_class_slo": PerClassSlo,
    "elastic": ElasticMpl,
    "cluster_slo": ClusterSlo,
}


def _encode_internal(policy: InternalPolicy) -> Dict[str, Any]:
    weights = policy.cpu_weights
    return {
        "lock_scheduling": policy.lock_scheduling.value,
        "cpu_weights": (
            {str(int(k)): v for k, v in weights.items()} if weights else None
        ),
    }


def _decode_internal(payload: Any) -> InternalPolicy:
    if not isinstance(payload, dict):
        raise ValueError(f"internal payload must be an object, got {payload!r}")
    unknown = set(payload) - {"lock_scheduling", "cpu_weights"}
    if unknown:
        raise ValueError(f"unknown internal-policy fields: {sorted(unknown)}")
    weights = payload.get("cpu_weights")
    if weights is not None and not isinstance(weights, dict):
        raise ValueError(f"cpu_weights must be an object, got {weights!r}")
    return InternalPolicy(
        lock_scheduling=LockSchedulingPolicy(payload.get("lock_scheduling", "fifo")),
        cpu_weights=(
            {int(k): float(v) for k, v in weights.items()} if weights else None
        ),
    )


#: An enum plus an int-keyed weight map: the one hand-written codec.
spec_codec.HOOKS[InternalPolicy] = (_encode_internal, _decode_internal)


def _report_jsonable(report: Optional[ControlReport]) -> Optional[Dict[str, Any]]:
    if report is None:
        return None
    if isinstance(report, ShardReports):
        return {
            "type": "shards",
            "shards": [dataclasses.asdict(r) for r in report.shards],
        }
    payload = dataclasses.asdict(report)
    if isinstance(report, ElasticReport):
        payload["type"] = "elastic"
        payload["final_mpls"] = list(report.final_mpls)
        payload["actions"] = [
            {**action, "mpls": list(action["mpls"])}
            for action in payload["actions"]
        ]
        return payload
    if isinstance(report, ClusterSloReport):
        payload["type"] = "cluster_slo"
        payload["final_split"] = list(report.final_split)
        payload["trajectory"] = [
            {**row, "split": list(row["split"])}
            for row in payload["trajectory"]
        ]
        return payload
    payload["type"] = (
        "per_class_slo" if isinstance(report, SloReport) else "feedback"
    )
    return payload


#: report ``type`` tag -> (report class, its log field, the log's row class)
_REPORT_CODECS: Dict[str, Tuple[type, str, type]] = {
    "feedback": (ControllerReport, "trajectory", Observation),
    "per_class_slo": (SloReport, "trajectory", SloObservation),
    "cluster_slo": (ClusterSloReport, "trajectory", ClusterSloObservation),
    "elastic": (ElasticReport, "actions", ElasticAction),
}


def _tupled(fields: Dict[str, Any]) -> Dict[str, Any]:
    """JSON lists back to tuples: every list-valued report field but the
    log itself (``final_split``, ``final_mpls``, a row's ``split`` or
    ``mpls``) is a tuple."""
    return {
        name: tuple(value) if isinstance(value, list) else value
        for name, value in fields.items()
    }


def _decode_report(payload: Optional[Dict[str, Any]]) -> Optional[ControlReport]:
    """Rebuild a control report from :func:`_report_jsonable` output."""
    if payload is None:
        return None
    fields = {name: value for name, value in payload.items() if name != "type"}
    if payload["type"] == "shards":
        return ShardReports(tuple(
            _decode_report({**shard, "type": "feedback"})
            for shard in fields["shards"]
        ))
    report_type, log, row_type = _REPORT_CODECS[payload["type"]]
    rows = [row_type(**_tupled(row)) for row in fields.pop(log)]
    return report_type(**_tupled(fields), **{log: rows})


# -- execution -----------------------------------------------------------------


#: The outcome's free-form JSON blocks, encoded and decoded as they are.
_OUTCOME_BLOCKS = (
    "percentiles", "timeline", "faults", "resilience", "shard_health",
    "distributed",
)


@dataclasses.dataclass(frozen=True)
class ScenarioOutcome:
    """Everything one scenario run produced."""

    spec: ScenarioSpec
    fingerprint: str
    result: RunResult
    control: Optional[ControlReport] = None
    percentiles: Optional[Dict[str, Dict[str, float]]] = None
    #: Per-bucket dynamics (the ``timeline`` metric set).
    timeline: Optional[List[Dict[str, float]]] = None
    #: The fault events as they actually fired (faulted runs only).
    faults: Optional[List[Dict[str, Any]]] = None
    #: Goodput-vs-throughput accounting: dispositions, retries,
    #: breaker state (resilient runs only).
    resilience: Optional[Dict[str, Any]] = None
    #: Per-shard health (clustered runs with faults and/or resilience):
    #: liveness, degrade factor, routing counters, breaker transitions.
    shard_health: Optional[List[Dict[str, Any]]] = None
    #: 2PC accounting: cross-shard counts, commits/aborts by cause,
    #: retries, atomicity self-checks (distributed runs only).
    distributed: Optional[Dict[str, Any]] = None

    def to_json_dict(self) -> Dict[str, Any]:
        """A JSON encoding (see :meth:`from_json_dict`)."""
        return {
            "fingerprint": self.fingerprint,
            "spec": self.spec.to_json_dict(),
            "components": self.spec.component_fingerprints(),
            "result": self.result.to_json_dict(),
            "control": _report_jsonable(self.control),
            **{name: getattr(self, name) for name in _OUTCOME_BLOCKS},
        }

    @classmethod
    def from_json_dict(
        cls, payload: Dict[str, Any], spec: ScenarioSpec
    ) -> "ScenarioOutcome":
        """Rebuild an outcome from :meth:`to_json_dict` output.

        ``spec`` is the scenario the payload was run from; the caller
        already holds it (a cache lookup is keyed by it), so the
        payload's ``spec`` and ``components`` entries are not decoded
        again.  The control report comes back as its dataclass with
        its tuples restored; the free-form blocks are taken as they are.
        """
        return cls(
            spec=spec,
            fingerprint=payload["fingerprint"],
            result=RunResult.from_json_dict(payload["result"]),
            control=_decode_report(payload["control"]),
            **{name: payload[name] for name in _OUTCOME_BLOCKS},
        )


def _percentile_snapshot(records) -> Dict[str, Dict[str, float]]:
    """Per-class response-time percentiles over a record window."""
    by_class: Dict[int, List[float]] = {}
    for record in records:
        by_class.setdefault(record.priority, []).append(record.response_time)
    by_class["all"] = [t for times in by_class.values() for t in times]  # type: ignore[index]
    # str(int(k)), not str(k): priorities are IntEnum members and
    # IntEnum.__str__ is Python-version-dependent (3.10: "Priority.LOW")
    return {
        (key if isinstance(key, str) else str(int(key))): {
            f"p{quantile:g}": stats.percentile(times, quantile)
            for quantile in REPORTED_PERCENTILES
        }
        for key, times in by_class.items()
    }


def _timeline_snapshot(
    records, bucket_s: float
) -> List[Dict[str, float]]:
    """Per-bucket completion dynamics over a record window.

    Buckets are anchored at absolute simulated time zero
    (``floor(completion_time / bucket_s)``), so timelines from runs
    sharing one fault schedule line up bucket-for-bucket.
    """
    buckets: Dict[int, List[float]] = {}
    for record in records:
        buckets.setdefault(
            int(record.completion_time // bucket_s), []
        ).append(record.response_time)
    rows: List[Dict[str, float]] = []
    for index in sorted(buckets):
        times = buckets[index]
        rows.append({
            "t": index * bucket_s,
            "completions": float(len(times)),
            "throughput": len(times) / bucket_s,
            "mean_response_time": sum(times) / len(times),
            "p95_response_time": stats.percentile(times, 95.0),
        })
    return rows


def _merge_resilience_timeline(
    rows: List[Dict[str, float]],
    events: Sequence[Tuple[float, str, int]],
    start_time: float,
    bucket_s: float,
) -> List[Dict[str, float]]:
    """Fold the resilience event stream into the timeline buckets.

    Adds the goodput-vs-throughput columns: ``goodput`` (commits per
    second — with a deadline armed every commit landed inside its
    budget, so goodput *is* the committed throughput),
    ``attempt_throughput`` (attempts resolving per second, aborted ones
    included — the retry storm's wasted work), and per-bucket
    ``timeouts`` / ``sheds`` / ``retries`` counts.  Buckets where
    nothing committed but resilience events fired get zero-completion
    rows, so a goodput collapse is visible instead of truncated.
    Events before ``start_time`` (the control phase) are excluded,
    mirroring the record window.
    """
    counts: Dict[int, Dict[str, int]] = {}
    for at, kind, _priority in events:
        if at < start_time:
            continue
        bucket = counts.setdefault(
            int(at // bucket_s),
            {"attempt": 0, "timeout": 0, "shed": 0, "retry": 0},
        )
        bucket[kind] += 1
    merged: Dict[int, Dict[str, float]] = {
        int(round(row["t"] / bucket_s)): dict(row) for row in rows
    }
    for index in counts:
        merged.setdefault(index, {
            "t": index * bucket_s,
            "completions": 0.0,
            "throughput": 0.0,
            "mean_response_time": 0.0,
            "p95_response_time": 0.0,
        })
    empty = {"attempt": 0, "timeout": 0, "shed": 0, "retry": 0}
    for index, row in merged.items():
        bucket = counts.get(index, empty)
        row["goodput"] = row["throughput"]
        row["attempt_throughput"] = bucket["attempt"] / bucket_s
        row["timeouts"] = float(bucket["timeout"])
        row["sheds"] = float(bucket["shed"])
        row["retries"] = float(bucket["retry"])
    return [merged[index] for index in sorted(merged)]


def run_scenario(
    spec: ScenarioSpec, baseline: Optional[RunResult] = None
) -> Tuple[MeasuredSystem, ScenarioOutcome]:
    """Run one scenario and return the live system alongside the outcome.

    :func:`execute_scenario` is the plain-outcome face; this variant
    additionally hands back the
    :class:`~repro.core.simulation.MeasuredSystem` so callers
    (the scenario fuzzer's oracles, invariant tests) can inspect
    router counters, per-shard schedulers, and collector state after
    the measurement window.  ``baseline`` is the result of the
    control's :meth:`~ControlSpec.baseline_spec` run when the caller
    already has it; without it the control runs that spec itself.
    """
    from repro.core.cluster import ClusteredSystem, FaultInjector, build_system
    from repro.core.distributed import TwoPhaseCoordinator
    from repro.core.resilience import ResilienceRuntime

    measurement = spec.measurement
    system = build_system(spec.build_config())
    injector = None
    if spec.faults is not None:
        # validation guarantees a clustered topology here
        injector = FaultInjector(system, spec.faults)
        injector.arm()
    runtime = None
    if spec.resilience is not None:
        # the gate slots between the arrival source and the
        # router/frontend before anything runs, so the control phase
        # and the measurement window see the same resilient system
        runtime = ResilienceRuntime(spec.resilience, seed=spec.seed)
        runtime.install(system)
    coordinator = None
    if spec.distributed is not None:
        # after the resilience gate: a retried cross-shard transaction
        # re-enters 2PC, and the 2PC outer event is what the gate's
        # attempt accounting watches
        coordinator = TwoPhaseCoordinator(spec.distributed, seed=spec.seed)
        coordinator.install(system)
    report = spec.control.apply(system, spec, baseline)
    # the control phase's completions precede the measurement window;
    # both run paths land the window at exactly `transactions` records
    # past `start`, so one warmup index serves the result and the
    # percentile snapshot alike
    start = len(system.collector.records)
    window_start_time = system.sim.now
    if report is None:
        result = system.run(
            transactions=measurement.transactions,
            warmup_fraction=measurement.warmup_fraction,
        )
    else:
        result = system.measure_window(
            measurement.transactions, measurement.warmup_fraction
        )
    warmup = start + int(measurement.transactions * measurement.warmup_fraction)
    percentiles = None
    if "percentiles" in measurement.metrics:
        percentiles = _percentile_snapshot(system.collector.completed(warmup))
    timeline = None
    if "timeline" in measurement.metrics:
        timeline = _timeline_snapshot(
            system.collector.records[start:], measurement.timeline_bucket_s
        )
        if runtime is not None:
            timeline = _merge_resilience_timeline(
                timeline, runtime.events, window_start_time,
                measurement.timeline_bucket_s,
            )
    shard_health = None
    if isinstance(system, ClusteredSystem) and (
        injector is not None or runtime is not None or coordinator is not None
    ):
        shard_health = system.shard_health()
        if runtime is not None and runtime.breakers is not None:
            for entry, breaker in zip(shard_health, runtime.breakers):
                entry["breaker"] = breaker.jsonable()
    outcome = ScenarioOutcome(
        spec=spec,
        fingerprint=spec.fingerprint(),
        result=result,
        control=report,
        percentiles=percentiles,
        timeline=timeline,
        faults=injector.applied_jsonable() if injector is not None else None,
        resilience=runtime.report_jsonable() if runtime is not None else None,
        shard_health=shard_health,
        distributed=(
            coordinator.report_jsonable() if coordinator is not None else None
        ),
    )
    return system, outcome


def execute_scenario(
    spec: ScenarioSpec, baseline: Optional[RunResult] = None
) -> ScenarioOutcome:
    """Run one scenario end to end: build, inject, control, measure.

    With static control this is byte-for-byte the legacy execution
    path (build the system, run the measurement window); with feedback
    or SLO control the system first runs the spec-described controller,
    then measures a fresh post-control window.  A fault timeline is
    armed on the simulator clock before anything runs, so its events
    fire at their absolute simulated times.  ``baseline`` is as for
    :func:`run_scenario`.
    """
    return run_scenario(spec, baseline)[1]


# -- demo scenarios ------------------------------------------------------------


def demo_scenarios() -> Dict[str, ScenarioSpec]:
    """Named, runnable scenario exemplars (the CLI's ``--demo`` set).

    ``trace-retailer`` / ``trace-auction`` replay the synthetic §3.2
    production traces through the trace arrival seam on their own
    resampled workloads; ``slo-tv`` drives the per-class SLO
    controller under the time-varying (sinusoidal) regime;
    ``failover`` kills a replicated shard's primary mid-run, lets the
    group elect, restores it, and plots the throughput/p95 timeline
    under elastic capacity control.
    """
    trace_demos = {
        f"trace-{short}": ScenarioSpec(
            workload=WorkloadRef(
                setup_id=None, trace=name, trace_transactions=4000
            ),
            arrival=TraceArrivals(name, transactions=4000, loop=True),
            control=StaticMpl(10),
            measurement=MeasurementSpec(transactions=800, metrics=(
                "standard", "percentiles",
            )),
            tag=f"demo-{short}",
        )
        for short, name in (
            ("retailer", "online-retailer"),
            ("auction", "auction-site"),
        )
    }
    return {
        **trace_demos,
        "slo-tv": ScenarioSpec(
            workload=WorkloadRef(setup_id=1),
            arrival=ModulatedArrivals(
                SinusoidRate(base=45.0, amplitude=15.0, period=20.0)
            ),
            policy="priority",
            high_priority_fraction=0.1,
            control=PerClassSlo(
                high_p95_target_s=0.2, initial_mpl=8, window=120,
                max_mpl=64, max_iterations=20,
            ),
            measurement=MeasurementSpec(
                transactions=600, metrics=("standard", "percentiles")
            ),
            tag="demo-slo-tv",
        ),
        "failover": ScenarioSpec(
            workload=WorkloadRef(setup_id=1),
            arrival=OpenArrivals(rate=90.0),
            topology=TopologySpec(
                shards=2,
                routing="least_in_flight",
                replicas_per_shard=1,
                read_fanout="round_robin",
            ),
            control=ElasticMpl(mpl=16, interval_s=1.0),
            faults=FaultSpec(events=(
                KillShard(at=3.0, shard=0),
                RestoreShard(at=8.0, shard=0),
            )),
            measurement=MeasurementSpec(
                transactions=1200,
                metrics=("standard", "percentiles", "timeline"),
            ),
            tag="demo-failover",
        ),
    }
