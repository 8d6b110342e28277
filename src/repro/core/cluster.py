"""Sharded multi-engine clusters behind a routing front-end.

The paper controls one MPL in front of one DBMS.  A production
deployment partitions the database over N engines and puts a router in
front: transactions arrive at one stream, the router dispatches each to
a shard by policy, and the external MPL is split across the shards.
This module is that topology, assembled entirely from existing seams —
the :class:`~repro.sim.station.RouterStation` front-end, one
:class:`~repro.core.frontend.ExternalScheduler` +
:class:`~repro.dbms.engine.DatabaseEngine` pair per shard, and the
pluggable arrival layer feeding the router.  It runs what a
:class:`~repro.core.cluster_config.ClusterConfig` (pure data)
describes:

* :class:`ShardedExternalScheduler` — the global-MPL view over the
  per-shard schedulers: a static split (weighted or even), plus
  dynamic per-shard control (:meth:`ClusteredSystem.tune_shards` runs
  one §4.3 feedback controller per shard).
* :class:`ClusteredSystem` — the runnable topology; shares the
  measurement loop with :class:`~repro.core.simulation.SimulatedSystem`
  via :class:`~repro.core.simulation.MeasuredSystem`, so ``run`` /
  ``run_transactions`` / ``result`` behave identically.

Replication and failure (Scenario API v2): each shard can carry a
:class:`ReplicaGroup` (one primary + R replicas; writes pinned to the
primary, reads fanned out deterministically, lowest-index election on
primary death), and :class:`ClusteredSystem` exposes the fault
transitions — :meth:`ClusteredSystem.kill_shard` /
:meth:`ClusteredSystem.restore_shard` /
:meth:`ClusteredSystem.degrade_shard` — that a
:class:`FaultInjector` drives on the simulated clock from a
:class:`~repro.core.faults.FaultSpec` timeline.  Kills are fail-stop
at the admission boundary: in-flight transactions drain, queued ones
are re-homed (election buffer or router re-route), so conservation
holds through any fault timeline.

Determinism: shard ``i``'s engine draws from
``RandomStreams(shard_config.seed)`` where shard 0 keeps the base seed
and later shards derive theirs via
:func:`~repro.sim.random.derive_seed`; the cluster-wide arrival source
draws from shard 0's seed, exactly as the single-engine system does.
Routing policies are RNG-free.  A clustered run is therefore
bit-identical under any ``--jobs N``, and a one-shard cluster is
bit-identical to the plain engine.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.cluster_config import (
    READ_FANOUT_POLICIES,
    AnyConfig,
    ClusterConfig,
    split_mpl,
)
from repro.core.control_types import Baseline, ControllerReport, Thresholds
from repro.core.controller import MplController
from repro.core.faults import DegradeShard, FaultEvent, FaultSpec, KillShard, RestoreShard
from repro.core.frontend import ExternalScheduler
from repro.core.simulation import (
    MeasuredSystem,
    SimulatedSystem,
    advance_until,
    build_engine_stack,
)
from repro.core.sources import ArrivalProcess
from repro.core.system import RunResult, SystemConfig
from repro.dbms.engine import DatabaseEngine
from repro.dbms.transaction import Transaction, TxStatus
from repro.metrics.collector import MetricsCollector
from repro.sim.engine import Event, Simulator
from repro.sim.random import RandomStreams, derive_seed
from repro.sim.station import RouterStation, make_routing


class ShardedExternalScheduler:
    """The global-MPL view over a cluster's per-shard schedulers.

    Static mode: :meth:`set_global_mpl` splits one limit across the
    shards (respecting the split weights).  Dynamic mode: each shard's
    scheduler remains individually addressable (``shards[i]`` /
    :meth:`set_shard_mpl`), which is what the per-shard feedback
    controllers drive.
    """

    def __init__(
        self,
        frontends: Sequence[ExternalScheduler],
        weights: Optional[Sequence[float]] = None,
    ):
        if not frontends:
            raise ValueError("need at least one shard scheduler")
        self.frontends = list(frontends)
        self.weights = list(weights) if weights is not None else None

    def __len__(self) -> int:
        return len(self.frontends)

    def __getitem__(self, index: int) -> ExternalScheduler:
        return self.frontends[index]

    @property
    def global_mpl(self) -> Optional[int]:
        """Sum of per-shard MPLs (None if any shard is unlimited)."""
        total = 0
        for frontend in self.frontends:
            if frontend.mpl is None:
                return None
            total += frontend.mpl
        return total

    def set_global_mpl(
        self,
        mpl: Optional[int],
        weights: Optional[Sequence[float]] = None,
    ) -> List[Optional[int]]:
        """Re-split a global MPL across the shards; returns the split.

        ``weights`` overrides the configured split weights for this
        call — the elastic controller's hook for steering capacity
        toward hot shards without touching the static configuration.
        """
        active = self.weights if weights is None else list(weights)
        mpls = split_mpl(mpl, len(self.frontends), active)
        for frontend, shard_mpl in zip(self.frontends, mpls):
            frontend.set_mpl(shard_mpl)
        return mpls

    def set_shard_mpl(self, index: int, mpl: Optional[int]) -> None:
        """Set one shard's MPL (the per-shard controller hook)."""
        self.frontends[index].set_mpl(mpl)

    # aggregate counters, summed over shards

    @property
    def in_service(self) -> int:
        return sum(f.in_service for f in self.frontends)

    @property
    def queue_length(self) -> int:
        return sum(f.queue_length for f in self.frontends)

    @property
    def dispatched(self) -> int:
        return sum(f.dispatched for f in self.frontends)

    @property
    def completed(self) -> int:
        return sum(f.completed for f in self.frontends)


class _ShardCollector(MetricsCollector):
    """A shard-local collector that tees into the cluster-wide one.

    The cluster collector therefore sees every completion in global
    completion order — with one shard, the exact stream the plain
    engine produces — while each shard keeps its own records for
    per-shard invariants and controllers.
    """

    def __init__(self, cluster_collector: MetricsCollector):
        super().__init__()
        self._cluster = cluster_collector

    def on_arrival(self, tx: Transaction) -> None:
        super().on_arrival(tx)
        self._cluster.on_arrival(tx)

    def on_completion(self, tx: Transaction) -> None:
        super().on_completion(tx)
        self._cluster.on_completion(tx)


class ReplicaGroup:
    """One primary + R replicas serving a single shard.

    The group speaks the :class:`ExternalScheduler` surface (``submit``
    / ``adopt`` / ``set_mpl`` / the aggregate counters), so it slots
    behind the :class:`~repro.sim.station.RouterStation` and the
    :class:`ShardedExternalScheduler` unchanged.  Placement rules:

    * **writes** (``tx.is_update``) are pinned to the acting primary;
    * **reads** fan out across live members by the configured policy —
      ``primary`` (no fan-out), ``round_robin`` (cycle over live
      members), or ``least_in_flight`` (fewest admitted + queued, ties
      to the lowest index).  All three are RNG-free, so replicated runs
      stay bit-identical under any ``--jobs N``.

    Failover is deterministic: killing the acting primary fail-stops it
    at the admission boundary (in-flight work drains, queued work moves
    into the group's election buffer), and after ``election_timeout_s``
    of simulated time the lowest-index live member is promoted and the
    buffer flushes.  While the election runs, replicas keep serving
    reads (unless fan-out is ``primary``).  A group whose last member
    dies reports itself unavailable so the router can take the shard
    out of rotation and re-home the evacuated queue.

    All members share the shard's collector: the shard-level completion
    stream, per-shard invariants, and the cluster tee behave exactly as
    they do for a single-engine shard.
    """

    def __init__(
        self,
        sim: Simulator,
        members: Sequence[ExternalScheduler],
        collector: MetricsCollector,
        read_fanout: str = "round_robin",
        election_timeout_s: float = 0.5,
    ):
        if not members:
            raise ValueError("a replica group needs at least one member")
        if read_fanout not in READ_FANOUT_POLICIES:
            raise ValueError(
                f"unknown read fan-out {read_fanout!r}; "
                f"available: {', '.join(READ_FANOUT_POLICIES)}"
            )
        self.sim = sim
        self.members = list(members)
        self.collector = collector
        self.read_fanout = read_fanout
        self.election_timeout_s = election_timeout_s
        self.alive: List[bool] = [True] * len(self.members)
        self.primary = 0
        self.elections = 0
        self.handovers = 0  # queued transactions moved off a dead member
        self._mpl = self.members[0].mpl
        self._rr_next = 0
        self._pending: List[Transaction] = []
        self._electing = False

    # -- ExternalScheduler surface -----------------------------------------

    @property
    def mpl(self) -> Optional[int]:
        """The per-member admission limit (None = unlimited)."""
        return self._mpl

    def set_mpl(self, mpl: Optional[int]) -> None:
        """Set every member's admission limit to ``mpl``.

        The MPL is a per-engine limit: the primary and each replica
        enforce the same bound on their own engine, mirroring how a
        real fleet configures identical nodes.
        """
        self._mpl = mpl
        for member in self.members:
            member.set_mpl(mpl)

    def submit(self, tx: Transaction) -> Event:
        """Admit a transaction to the group; fires at commit with ``tx``.

        Mirrors :meth:`ExternalScheduler.submit` — the group owns the
        arrival accounting and completion event, then places the
        transaction on a member (or the election buffer).
        """
        tx.arrival_time = self.sim.now
        tx.status = TxStatus.QUEUED
        done = self.sim.event()
        tx._completion_event = done
        self.collector.on_arrival(tx)
        self._place(tx)
        return done

    def adopt(self, tx: Transaction) -> None:
        """Accept a transaction re-homed from another shard (no new
        arrival accounting, original completion event preserved)."""
        self._place(tx)

    @property
    def in_service(self) -> int:
        """Transactions inside any member's engine."""
        return sum(member.in_service for member in self.members)

    @property
    def queue_length(self) -> int:
        """Queued transactions, election buffer included."""
        return (
            sum(member.queue_length for member in self.members)
            + len(self._pending)
        )

    @property
    def dispatched(self) -> int:
        return sum(member.dispatched for member in self.members)

    @property
    def completed(self) -> int:
        return sum(member.completed for member in self.members)

    @property
    def removed(self) -> int:
        """Admissions pulled back out by the resilience layer.

        Always zero today — the resilience axis requires an
        unreplicated topology — but the conservation law reads it off
        every frontend-shaped object uniformly.
        """
        return sum(member.removed for member in self.members)

    # -- membership ---------------------------------------------------------

    def live_members(self) -> List[int]:
        """Indices of members currently accepting work."""
        return [i for i, alive in enumerate(self.alive) if alive]

    @property
    def available(self) -> bool:
        """Whether any member is alive (the router's liveness signal)."""
        return any(self.alive)

    # -- placement ----------------------------------------------------------

    def _place(self, tx: Transaction) -> None:
        if tx.is_update or self.read_fanout == "primary":
            if self._electing or not self.alive[self.primary]:
                self._pending.append(tx)
            else:
                self.members[self.primary].adopt(tx)
            return
        live = self.live_members()
        if not live:
            self._pending.append(tx)
            return
        if self.read_fanout == "round_robin":
            index = live[self._rr_next % len(live)]
            self._rr_next += 1
        else:  # least_in_flight; ties break to the lowest index
            index = min(
                live,
                key=lambda i: (
                    self.members[i].in_service + self.members[i].queue_length,
                    i,
                ),
            )
        self.members[index].adopt(tx)

    # -- failure transitions ------------------------------------------------

    def kill_primary(self) -> Tuple[bool, str]:
        """Fail-stop the acting primary (or the would-be winner during
        an election).  Returns ``(still_serving, detail)``.

        In-flight transactions on the victim drain to completion;
        its queued transactions move into the election buffer.  When
        members survive, a deterministic election promotes the
        lowest-index live member after ``election_timeout_s``.
        """
        live = self.live_members()
        if not live:
            return False, "group already dead"
        victim = self.primary if self.alive[self.primary] else live[0]
        self.alive[victim] = False
        moved = self.members[victim].drain_queue()
        self.handovers += len(moved)
        self._pending.extend(moved)
        if not self.available:
            return False, f"member {victim} killed, no survivors"
        if not self._electing:
            self._start_election()
        return True, (
            f"member {victim} killed, {len(moved)} queued buffered, "
            f"election started"
        )

    def _start_election(self) -> None:
        self._electing = True
        self.elections += 1
        timeout = self.sim.timeout(self.election_timeout_s)
        timeout.add_callback(self._finish_election)

    def _finish_election(self, _event: Event) -> None:
        live = self.live_members()
        self._electing = False
        if not live:  # the remaining members died during the election
            return
        self.primary = live[0]
        self._flush_pending()

    def _flush_pending(self) -> None:
        pending, self._pending = self._pending, []
        for tx in pending:
            self._place(tx)

    def evacuate(self) -> List[Transaction]:
        """Drain every queued transaction out of a fully-dead group so
        the router can re-home it (in-flight work still drains)."""
        moved, self._pending = list(self._pending), []
        for member in self.members:
            moved.extend(member.drain_queue())
        return moved

    def restore(self) -> List[int]:
        """Revive every dead member (as replicas) and flush the buffer.

        A fully-dead group comes back with its lowest-index member as
        the acting primary; a serving group just regains replicas.
        Returns the indices revived.
        """
        had_live = self.available
        revived = [i for i, alive in enumerate(self.alive) if not alive]
        for index in revived:
            self.alive[index] = True
            self.members[index].set_mpl(self._mpl)
        if not self._electing:
            if not had_live or not self.alive[self.primary]:
                self.primary = self.live_members()[0]
            self._flush_pending()
        return revived


@dataclasses.dataclass
class _Shard:
    """One shard's live pieces.

    ``frontend`` is what the router targets — the plain
    :class:`ExternalScheduler` for an unreplicated shard, the
    :class:`ReplicaGroup` otherwise (``group`` aliases it in that
    case).  ``engine``/``engines`` expose the primary's engine and the
    full member list for utilization snapshots.
    """

    config: SystemConfig
    engine: DatabaseEngine
    frontend: Union[ExternalScheduler, ReplicaGroup]
    collector: _ShardCollector
    group: Optional[ReplicaGroup] = None
    engines: Tuple[DatabaseEngine, ...] = ()


class _ShardView:
    """A single shard seen through the :class:`MeasuredSystem` surface.

    Exposes exactly what :class:`~repro.core.controller.MplController`
    touches — ``frontend``, ``collector``, ``run_transactions`` — so
    the paper's controller can tune one shard of a live cluster.
    Advancing a shard view steps the *global* simulation (all shards
    keep serving their own traffic) but counts only this shard's
    completions toward the window.
    """

    def __init__(self, system: "ClusteredSystem", index: int):
        self._system = system
        self.index = index
        shard = system.shards[index]
        self.frontend = shard.frontend
        self.collector = shard.collector

    def run_transactions(self, count: int):
        """Advance the cluster until this shard completes ``count`` more."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count!r}")
        self._system.source.start()
        records = self.collector.records
        start_index = len(records)
        advance_until(
            self._system.sim, self.collector, start_index + count,
            what=f"shard {self.index}'s completion target",
        )
        return records[start_index:start_index + count]


class ClusteredSystem(MeasuredSystem):
    """N engines behind one router: the runnable cluster topology.

    One :class:`~repro.sim.engine.Simulator` hosts every shard; the
    cluster-wide arrival source submits to a
    :class:`~repro.sim.station.RouterStation` which dispatches each
    transaction to a shard's :class:`ExternalScheduler` by the
    configured routing policy.  The measurement loop (``run``,
    ``run_transactions``, ``result``) is inherited unchanged from
    :class:`MeasuredSystem`.
    """

    def __init__(self, config: ClusterConfig):
        self.config = config
        self.sim = Simulator()
        self.collector = MetricsCollector()
        self.shards: List[_Shard] = []
        self._degraded: Dict[int, Optional[int]] = {}
        #: Compound degrade factor per shard (health reporting); cleared
        #: by :meth:`restore_shard` alongside the remembered MPL.
        self._degrade_factors: Dict[int, float] = {}
        #: The installed resilience runtime (scenario-driven; None keeps
        #: the legacy behavior).
        self.resilience = None
        #: The installed 2PC coordinator (scenario-driven; None outside
        #: distributed scenarios).
        self.distributed = None
        base_streams: Optional[RandomStreams] = None
        for shard_config in config.shards:
            collector = _ShardCollector(self.collector)
            streams, engine, frontend = build_engine_stack(
                self.sim, shard_config, collector
            )
            if base_streams is None:
                base_streams = streams
            engines: Tuple[DatabaseEngine, ...] = (engine,)
            group: Optional[ReplicaGroup] = None
            target: Union[ExternalScheduler, ReplicaGroup] = frontend
            if config.replicas_per_shard > 0:
                members = [frontend]
                for replica_index in range(1, config.replicas_per_shard + 1):
                    replica_config = dataclasses.replace(
                        shard_config,
                        seed=derive_seed(
                            shard_config.seed, "replica", replica_index
                        ),
                    )
                    _, replica_engine, replica_frontend = build_engine_stack(
                        self.sim, replica_config, collector
                    )
                    members.append(replica_frontend)
                    engines += (replica_engine,)
                group = ReplicaGroup(
                    self.sim,
                    members,
                    collector,
                    read_fanout=config.read_fanout,
                    election_timeout_s=config.election_timeout_s,
                )
                target = group
            self.shards.append(
                _Shard(shard_config, engine, target, collector,
                       group=group, engines=engines)
            )
        frontends = [shard.frontend for shard in self.shards]
        self.scheduler = ShardedExternalScheduler(
            frontends, weights=config.routing_weights
        )
        self.router = RouterStation(
            self.sim,
            frontends,
            make_routing(config.routing, len(frontends), config.routing_weights),
        )
        base = config.shards[0]
        # the cluster-wide source shares shard 0's stream factory, just
        # as the single-engine system shares one factory between its
        # engine and source
        self.source: ArrivalProcess = config.arrival_spec().build(
            self.sim,
            self.router,
            base.workload,
            base_streams,
            priority_assigner=base.priority_assigner(),
        )

    # -- topology hooks ------------------------------------------------------

    def _result_mpl(self) -> Optional[int]:
        return self.scheduler.global_mpl

    def _utilization_snapshot(self, elapsed: float) -> Dict[str, float]:
        if len(self.shards) == 1 and self.shards[0].group is None:
            return self.shards[0].engine.utilization_snapshot(elapsed)
        snapshot: Dict[str, float] = {}
        for index, shard in enumerate(self.shards):
            for member, engine in enumerate(shard.engines):
                prefix = (
                    f"shard{index}" if member == 0 else f"shard{index}/r{member}"
                )
                for name, value in engine.utilization_snapshot(elapsed).items():
                    snapshot[f"{prefix}/{name}"] = value
        return snapshot

    # -- per-shard access ----------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def shard_view(self, index: int) -> _ShardView:
        """One shard through the measured-system surface (controllers)."""
        return _ShardView(self, index)

    def class_stats_snapshot(self) -> Dict[str, Dict[int, Dict[str, float]]]:
        """Per-station, per-class counters, shard-prefixed, router included."""
        snapshot: Dict[str, Dict[int, Dict[str, float]]] = {
            "router": {
                priority: stats.as_dict()
                for priority, stats in self.router.class_stats().items()
            }
        }
        for index, shard in enumerate(self.shards):
            for name, per_class in shard.engine.class_stats_snapshot().items():
                snapshot[f"shard{index}/{name}"] = per_class
        return snapshot

    def aggregate_class_requests(self, station: str) -> Dict[int, int]:
        """Per-class request totals for one station name across shards."""
        totals: Dict[int, int] = {}
        for shard in self.shards:
            resolved = shard.engine.stations.get(station)
            if resolved is None:
                continue
            for priority, stats in resolved.class_stats().items():
                totals[priority] = totals.get(priority, 0) + stats.requests
        return totals

    # -- fault transitions ---------------------------------------------------

    def _check_shard(self, index: int) -> None:
        if not 0 <= index < len(self.shards):
            raise ValueError(
                f"shard index {index} out of range for {len(self.shards)} shards"
            )

    def kill_shard(self, index: int) -> str:
        """Fail-stop shard ``index``'s acting primary (or the shard).

        With replicas the group buffers and elects (the shard stays in
        the routing rotation); without — or once the last member dies —
        the router takes the shard out of rotation and re-homes its
        queued transactions onto the survivors.  In-flight work always
        drains to completion.  Returns a human-readable detail string
        for the fault log.
        """
        self._check_shard(index)
        if self.distributed is not None:
            # participant death: abort undecided 2PC attempts with a
            # branch queued here *before* the drain re-homes the queue
            self.distributed.on_shard_killed(index)
        shard = self.shards[index]
        if shard.group is not None:
            still_serving, detail = shard.group.kill_primary()
            if not still_serving and self.router.alive[index]:
                evacuated = shard.group.evacuate()
                self.router.set_alive(index, False)
                for tx in evacuated:
                    self.router.reroute(tx, index)
                detail += f"; shard out of rotation, {len(evacuated)} re-routed"
            return detail
        if not self.router.alive[index]:
            return "shard already dead"
        self.router.set_alive(index, False)
        moved = shard.frontend.drain_queue()
        for tx in moved:
            self.router.reroute(tx, index)
        return f"shard out of rotation, {len(moved)} queued re-routed"

    def restore_shard(self, index: int) -> str:
        """Bring shard ``index`` back: revive members, undo any
        degradation, and return the shard to the routing rotation."""
        self._check_shard(index)
        shard = self.shards[index]
        original = self._degraded.pop(index, False)
        self._degrade_factors.pop(index, None)
        if original is not False:
            shard.frontend.set_mpl(original)
        detail = ""
        if shard.group is not None:
            revived = shard.group.restore()
            detail = f"{len(revived)} members revived"
        self.router.set_alive(index, True)
        return detail or "shard back in rotation"

    def degrade_shard(self, index: int, factor: float) -> str:
        """Scale shard ``index``'s MPL by ``factor`` (brown-out).

        The pre-degrade limit is remembered once (repeated degrades
        compound) and restored by :meth:`restore_shard`.  Unlimited
        shards have no admission limit to shrink, so this is a no-op
        for them.
        """
        self._check_shard(index)
        if not 0.0 < factor <= 1.0:
            raise ValueError(f"degrade factor must be in (0, 1], got {factor!r}")
        shard = self.shards[index]
        current = shard.frontend.mpl
        if current is None:
            return "unlimited MPL, degrade is a no-op"
        if index not in self._degraded:
            self._degraded[index] = current
        self._degrade_factors[index] = (
            self._degrade_factors.get(index, 1.0) * factor
        )
        new_mpl = max(1, int(current * factor))
        shard.frontend.set_mpl(new_mpl)
        return f"mpl {current} -> {new_mpl}"

    def shard_health(self) -> List[Dict[str, Any]]:
        """Per-shard health snapshot for the outcome JSON.

        Covers liveness, rotation, the compound degrade factor (None =
        never degraded), the routing counters, and queue/service state;
        the scenario layer merges breaker state in when a resilience
        runtime is installed.  Today ``DegradeShard`` leaves a trace.
        """
        health: List[Dict[str, Any]] = []
        for index, shard in enumerate(self.shards):
            health.append({
                "shard": index,
                "alive": self.router.alive[index],
                "in_rotation": self.router.in_rotation[index],
                "mpl": shard.frontend.mpl,
                "degrade_factor": self._degrade_factors.get(index),
                "routed": self.router.routed_by_shard[index],
                "rerouted_from": self.router.rerouted_from[index],
                "rerouted_to": self.router.rerouted_to[index],
                "in_service": shard.frontend.in_service,
                "queue_length": shard.frontend.queue_length,
                "completed": shard.frontend.completed,
            })
        return health

    # -- per-shard MPL control ----------------------------------------------

    def tune_shards(
        self,
        baseline: Baseline,
        thresholds: Optional[Thresholds] = None,
        initial_mpl: int = 2,
        window: int = 100,
        **controller_kwargs: Any,
    ) -> List[ControllerReport]:
        """Run one §4.3 feedback controller per shard (dynamic split).

        ``baseline`` is the *cluster-wide* no-MPL reference; each shard
        is held to its fair share (cluster throughput divided by the
        shard count, the cluster's mean response time).  Shards are
        tuned in index order against the live cluster — while one
        shard's controller observes, every other shard keeps serving
        its own traffic under its current MPL.
        """
        thresholds = thresholds or Thresholds()
        share = Baseline(
            throughput=baseline.throughput / len(self.shards),
            mean_response_time=baseline.mean_response_time,
        )
        reports = []
        for index in range(len(self.shards)):
            controller = MplController(
                self.shard_view(index),  # type: ignore[arg-type]
                share,
                thresholds,
                initial_mpl=initial_mpl,
                window=window,
                **controller_kwargs,
            )
            reports.append(controller.tune())
        return reports


# -- fault injection ----------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class AppliedFault:
    """One fault event as it actually fired during a run."""

    at: float
    kind: str
    shard: int
    detail: str = ""

    def jsonable(self) -> Dict[str, Any]:
        return {
            "at": self.at,
            "kind": self.kind,
            "shard": self.shard,
            "detail": self.detail,
        }


class FaultInjector:
    """Arms a :class:`FaultSpec` timeline on a clustered system's clock.

    Each event becomes one simulator timeout whose callback drives the
    matching cluster transition.  The injector is passive after
    :meth:`arm` — the kernel fires the events as simulated time
    advances, interleaved deterministically with the workload.
    """

    def __init__(self, system, spec: FaultSpec):
        self.system = system
        self.spec = spec
        self.applied: List[AppliedFault] = []
        self._armed = False

    def arm(self) -> None:
        """Schedule every event; call once, before the run starts."""
        if self._armed:
            raise ValueError("fault injector is already armed")
        self._armed = True
        sim = self.system.sim
        for event in self.spec.events:
            delay = event.at - sim.now
            if delay < 0:
                raise ValueError(
                    f"fault at t={event.at:g}s is in the past (now={sim.now:g}s)"
                )
            timeout = sim.timeout(delay)
            timeout.add_callback(lambda _ev, e=event: self._apply(e))

    def _apply(self, event: FaultEvent) -> None:
        system = self.system
        if isinstance(event, KillShard):
            detail = system.kill_shard(event.shard)
        elif isinstance(event, RestoreShard):
            detail = system.restore_shard(event.shard)
        elif isinstance(event, DegradeShard):
            detail = system.degrade_shard(event.shard, event.factor)
        else:  # pragma: no cover - registry keeps this unreachable
            raise ValueError(f"unknown fault event {event!r}")
        self.applied.append(
            AppliedFault(
                at=system.sim.now, kind=event.kind, shard=event.shard,
                detail=detail or "",
            )
        )

    def applied_jsonable(self) -> List[Dict[str, Any]]:
        """The fault history in JSON-friendly form."""
        return [fault.jsonable() for fault in self.applied]


def build_system(config: AnyConfig) -> MeasuredSystem:
    """The runnable system for a config of either topology.

    Also dispatches on a :class:`~repro.core.scenario.ScenarioSpec`
    (building the config it describes), so every construction path —
    legacy configs, clusters, scenarios — funnels through one door.
    """
    if isinstance(config, ClusterConfig):
        if len(config.shards) == 1 and config.replicas_per_shard == 0:
            # bit-identical to the plain engine, and cheaper to build
            return SimulatedSystem(config.shards[0])
        return ClusteredSystem(config)
    if isinstance(config, SystemConfig):
        return SimulatedSystem(config)
    from repro.core.scenario import ScenarioSpec

    if isinstance(config, ScenarioSpec):
        return build_system(config.build_config())
    raise TypeError(f"cannot build a system from {type(config).__name__}")


def run_cluster(config: ClusterConfig, transactions: int = 2000) -> RunResult:
    """Convenience: build a cluster from ``config`` and run it once."""
    return ClusteredSystem(config).run(transactions=transactions)
