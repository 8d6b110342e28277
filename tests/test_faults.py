"""Fault injection, replica groups, and router liveness.

The fail-stop model in one suite: ``FaultSpec`` is pure fingerprinted
data with a strict codec (the shared spec codec's tagged union); the ``FaultInjector`` fires the spec's
events at their simulated instants; ``ReplicaGroup`` buffers + elects
deterministically when a primary dies; and the router's liveness masks
(``alive`` for faults, ``in_rotation`` for elastic parking) re-route
around dead shards without losing a single transaction.
"""

from typing import Optional

import pytest

from repro.core.cluster import (
    READ_FANOUT_POLICIES,
    ClusterConfig,
    ClusteredSystem,
    FaultInjector,
)
from repro.core.faults import (
    FAULT_EVENT_TYPES,
    DegradeShard,
    FaultEvent,
    FaultSpec,
    KillShard,
    RestoreShard,
)
from repro.core.spec_codec import ScenarioValidationError, decode, encode
from repro.core.system import SystemConfig
from repro.sim.engine import SimulationError, Simulator
from repro.sim.station import RouterStation, RoundRobinRouting
from repro.workloads.setups import get_setup


def _cluster(
    shards,
    seed=11,
    replicas=0,
    mpl=None,
    rate=40.0,
    routing="round_robin",
    read_fanout="round_robin",
    election_timeout_s=0.5,
):
    setup = get_setup(1)
    base = SystemConfig(
        workload=setup.workload,
        hardware=setup.hardware,
        isolation=setup.isolation,
        mpl=mpl,
        seed=seed,
        arrival_rate=rate,
    )
    return ClusteredSystem(
        ClusterConfig.scale_out(
            base,
            shards,
            routing=routing,
            replicas_per_shard=replicas,
            read_fanout=read_fanout,
            election_timeout_s=election_timeout_s,
        )
    )


def _conserved(system):
    """Cluster-wide conservation: every routed tx is in one frontend."""
    total = sum(
        shard.frontend.completed
        + shard.frontend.in_service
        + shard.frontend.queue_length
        for shard in system.shards
    )
    assert system.router.routed == total


class TestFaultSpecValidation:
    def test_needs_at_least_one_event(self):
        with pytest.raises(ValueError, match="at least one"):
            FaultSpec(events=())

    def test_events_must_be_fault_events(self):
        with pytest.raises(ValueError, match="FaultEvent"):
            FaultSpec(events=("kill",))

    def test_event_field_validation(self):
        with pytest.raises(ValueError, match="/at"):
            KillShard(at=-1.0, shard=0)
        with pytest.raises(ValueError, match="/at"):
            KillShard(at=True, shard=0)
        with pytest.raises(ValueError, match="shard"):
            KillShard(at=1.0, shard=-1)
        with pytest.raises(ValueError, match="shard"):
            KillShard(at=1.0, shard=1.5)

    def test_degrade_factor_bounds(self):
        with pytest.raises(ValueError, match="factor"):
            DegradeShard(at=1.0, shard=0, factor=0.0)
        with pytest.raises(ValueError, match="factor"):
            DegradeShard(at=1.0, shard=0, factor=1.5)
        with pytest.raises(ValueError, match="factor"):
            DegradeShard(at=1.0, shard=0, factor=True)
        assert DegradeShard(at=1.0, shard=0, factor=1.0).factor == 1.0

    def test_max_shard(self):
        spec = FaultSpec(events=(
            KillShard(at=1.0, shard=2),
            RestoreShard(at=2.0, shard=0),
        ))
        assert spec.max_shard() == 2

    def test_describe(self):
        assert "kill shard 1" in KillShard(at=2.0, shard=1).describe()
        assert "0.25x" in DegradeShard(at=1.0, shard=0, factor=0.25).describe()


class TestFaultFingerprints:
    def test_kill_and_restore_hash_distinctly(self):
        """Same fields, different event class -> different digest."""
        kill = KillShard(at=3.0, shard=0)
        restore = RestoreShard(at=3.0, shard=0)
        assert kill.fingerprint() != restore.fingerprint()

    def test_fingerprint_is_stable_and_field_sensitive(self):
        a = KillShard(at=3.0, shard=0)
        assert a.fingerprint() == KillShard(at=3.0, shard=0).fingerprint()
        assert a.fingerprint() != KillShard(at=3.0, shard=1).fingerprint()
        assert a.fingerprint() != KillShard(at=4.0, shard=0).fingerprint()

    def test_spec_fingerprint_covers_order_and_events(self):
        kill = KillShard(at=1.0, shard=0)
        restore = RestoreShard(at=2.0, shard=0)
        forward = FaultSpec(events=(kill, restore))
        backward = FaultSpec(events=(restore, kill))
        assert forward.fingerprint() != backward.fingerprint()
        assert forward.event_fingerprints() == (
            kill.fingerprint(), restore.fingerprint(),
        )


def _decode(payload, hint):
    """Decode through the shared spec codec; raise on any problem."""
    problems = []
    value = decode(payload, hint, "", problems)
    if problems:
        raise ScenarioValidationError(problems)
    return value


class TestFaultCodec:
    def test_round_trip_every_event_type(self):
        spec = FaultSpec(events=(
            KillShard(at=1.0, shard=0),
            DegradeShard(at=2.0, shard=1, factor=0.25),
            RestoreShard(at=3.0, shard=0),
        ))
        payload = encode(spec, FaultSpec)
        assert [event["type"] for event in payload["events"]] == [
            "kill", "degrade", "restore",
        ]
        clone = _decode(payload, FaultSpec)
        assert clone == spec
        assert clone.fingerprint() == spec.fingerprint()

    def test_none_passes_through(self):
        assert encode(None, Optional[FaultSpec]) is None
        assert _decode(None, Optional[FaultSpec]) is None

    def test_unknown_event_type_errors(self):
        with pytest.raises(ValueError, match="naming a FaultEvent"):
            _decode({"type": "zap", "at": 1.0, "shard": 0}, FaultEvent)

    def test_unknown_event_keys_error(self):
        with pytest.raises(ValueError, match="/oops: unknown field"):
            _decode(
                {"type": "kill", "at": 1.0, "shard": 0, "oops": 1}, FaultEvent
            )
        # factor belongs to degrade only
        with pytest.raises(ValueError, match="/factor: unknown field"):
            _decode(
                {"type": "kill", "at": 1.0, "shard": 0, "factor": 0.5},
                FaultEvent,
            )

    def test_unknown_spec_keys_error(self):
        with pytest.raises(ValueError, match="/oops: unknown field"):
            _decode({"events": [], "oops": 1}, FaultSpec)
        with pytest.raises(ValueError, match="must be a list"):
            _decode({"events": "kill"}, FaultSpec)
        with pytest.raises(ValueError, match="must be an object"):
            _decode([1], FaultSpec)
        with pytest.raises(ValueError, match="naming a FaultEvent"):
            _decode("kill", FaultEvent)

    def test_registry_matches_kind_tags(self):
        for kind, cls in FAULT_EVENT_TYPES.items():
            assert cls.kind == kind


class TestRouterLiveness:
    def _router(self, n=3):
        sim = Simulator()

        class Target:
            def __init__(self):
                self.in_service = 0
                self.queue_length = 0
                self.submitted = []
                self.adopted = []

            def submit(self, tx):
                self.submitted.append(tx)

            def adopt(self, tx):
                self.adopted.append(tx)

        class Tx:
            def __init__(self, tid):
                self.tid = tid
                self.priority = 0

        targets = [Target() for _ in range(n)]
        return RouterStation(sim, targets, RoundRobinRouting(n)), targets, Tx

    def test_dead_shard_falls_back_cyclically(self):
        router, targets, Tx = self._router(3)
        router.set_alive(1, False)
        assert not router.routable(1)
        assert router.live_targets() == [0, 2]
        for tid in range(1, 7):
            router.submit(Tx(tid))
        # round robin would have sent tids 2 and 5 to shard 1; the
        # cyclic fallback hands them to the next live shard (2)
        assert not targets[1].submitted
        assert len(targets[0].submitted) + len(targets[2].submitted) == 6

    def test_parked_survivor_is_the_target_of_last_resort(self):
        # a parked-but-alive shard must still take work when every
        # in-rotation shard is dead (elastic park racing a kill fault)
        router, targets, Tx = self._router(2)
        router.set_alive(0, False)
        router.set_rotation(1, False)
        router.submit(Tx(1))
        assert len(targets[1].submitted) == 1

    def test_no_live_targets_raises(self):
        router, _targets, Tx = self._router(2)
        router.set_alive(0, False)
        router.set_alive(1, False)
        router.set_rotation(1, False)
        with pytest.raises(SimulationError, match="no live targets"):
            router.submit(Tx(1))

    def test_reroute_counts_and_adopts(self):
        router, targets, Tx = self._router(2)
        router.submit(Tx(1))
        router.set_alive(0, False)
        tx = Tx(2)
        router.reroute(tx, 0)
        assert tx in targets[1].adopted
        assert router.rerouted == 1
        assert router.rerouted_from[0] == 1
        assert router.rerouted_to[1] == 1
        # reroute does not double-count the original routing decision
        assert router.routed == 1

    def test_index_validation(self):
        router, _targets, _Tx = self._router(2)
        with pytest.raises(ValueError, match="out of range"):
            router.set_alive(2, False)
        with pytest.raises(ValueError, match="out of range"):
            router.set_rotation(-1, False)


class TestClusterConfigReplicaValidation:
    def test_bad_values_rejected(self):
        setup = get_setup(1)
        base = SystemConfig(
            workload=setup.workload, hardware=setup.hardware,
            isolation=setup.isolation,
        )
        with pytest.raises(ValueError, match="replicas_per_shard"):
            ClusterConfig.scale_out(base, 2, replicas_per_shard=-1)
        with pytest.raises(ValueError, match="read fan-out"):
            ClusterConfig.scale_out(base, 2, read_fanout="nope")
        with pytest.raises(ValueError, match="election_timeout_s"):
            ClusterConfig.scale_out(base, 2, election_timeout_s=-1.0)

    def test_replicated_config_fingerprint_differs(self):
        setup = get_setup(1)
        base = SystemConfig(
            workload=setup.workload, hardware=setup.hardware,
            isolation=setup.isolation, mpl=8,
        )
        plain = ClusterConfig.scale_out(base, 2)
        replicated = ClusterConfig.scale_out(base, 2, replicas_per_shard=1)
        assert plain.fingerprint() != replicated.fingerprint()
        # a 1-shard cluster only collapses to the engine fingerprint
        # when it carries no replicas
        solo = ClusterConfig.scale_out(base, 1)
        solo_replicated = ClusterConfig.scale_out(base, 1, replicas_per_shard=1)
        assert solo.fingerprint() != solo_replicated.fingerprint()


class TestReplicaGroups:
    def test_kill_elects_deterministically(self):
        system = _cluster(2, replicas=1, mpl=8, rate=60.0)
        FaultInjector(system, FaultSpec(events=(
            KillShard(at=0.5, shard=0),
        ))).arm()
        system.run_transactions(80)
        group = system.shards[0].group
        assert group.elections == 1
        assert group.primary == 1
        assert group.alive == [False, True]
        # the shard stayed in rotation throughout: a live replica served
        assert system.router.alive[0]
        _conserved(system)

    def test_restore_revives_the_dead_member(self):
        system = _cluster(2, replicas=1, mpl=8, rate=60.0)
        FaultInjector(system, FaultSpec(events=(
            KillShard(at=0.4, shard=0),
            RestoreShard(at=1.2, shard=0),
        ))).arm()
        system.run_transactions(100)
        group = system.shards[0].group
        assert group.alive == [True, True]
        assert group.elections == 1
        _conserved(system)

    def test_double_kill_takes_the_shard_out_of_rotation(self):
        system = _cluster(2, replicas=1, mpl=8, rate=60.0,
                          election_timeout_s=0.2)
        FaultInjector(system, FaultSpec(events=(
            KillShard(at=0.4, shard=0),
            KillShard(at=0.8, shard=0),
        ))).arm()
        system.run_transactions(80)
        group = system.shards[0].group
        assert group.alive == [False, False]
        assert not group.available
        assert not system.router.alive[0]
        _conserved(system)

    def test_degrade_halves_and_restore_resets_the_mpl(self):
        system = _cluster(2, mpl=8, rate=60.0)
        assert system.shards[0].frontend.mpl == 4
        detail = system.degrade_shard(0, 0.5)
        assert system.shards[0].frontend.mpl == 2
        assert "4 -> 2" in detail
        # degrades compound, restore returns to the pre-degrade limit
        system.degrade_shard(0, 0.5)
        assert system.shards[0].frontend.mpl == 1
        system.restore_shard(0)
        assert system.shards[0].frontend.mpl == 4

    def test_degrade_is_a_noop_without_an_mpl(self):
        system = _cluster(2, mpl=None)
        assert "no-op" in system.degrade_shard(0, 0.5)
        with pytest.raises(ValueError, match="factor"):
            system.degrade_shard(0, 0.0)
        with pytest.raises(ValueError, match="out of range"):
            system.kill_shard(9)

    def test_plain_shard_kill_reroutes_queued_work(self):
        system = _cluster(2, mpl=4, rate=80.0)
        FaultInjector(system, FaultSpec(events=(
            KillShard(at=0.5, shard=0),
        ))).arm()
        system.run_transactions(60)
        assert not system.router.alive[0]
        assert system.kill_shard(0) == "shard already dead"
        _conserved(system)

    def test_faulted_runs_are_bit_identical(self):
        def run():
            system = _cluster(2, replicas=1, mpl=8, rate=60.0)
            FaultInjector(system, FaultSpec(events=(
                KillShard(at=0.4, shard=0),
                RestoreShard(at=1.2, shard=0),
            ))).arm()
            system.run_transactions(90)
            return [
                (r.tid, r.arrival_time, r.completion_time)
                for r in system.collector.records
            ]

        assert run() == run()

    def test_read_fanout_spreads_over_live_members(self):
        for fanout in READ_FANOUT_POLICIES:
            system = _cluster(1, replicas=1, mpl=8, rate=60.0,
                              read_fanout=fanout)
            system.run_transactions(40)
            group = system.shards[0].group
            dispatched = [m.dispatched for m in group.members]
            if fanout == "primary":
                assert dispatched[1] == 0
            else:
                assert all(d > 0 for d in dispatched), fanout
            _conserved(system)


class TestFaultInjector:
    def test_arm_twice_raises(self):
        system = _cluster(2, mpl=4)
        injector = FaultInjector(
            system, FaultSpec(events=(KillShard(at=1.0, shard=0),))
        )
        injector.arm()
        with pytest.raises(ValueError, match="already armed"):
            injector.arm()

    def test_past_events_are_rejected(self):
        system = _cluster(2, mpl=4, rate=60.0)
        system.run_transactions(30)
        assert system.sim.now > 0.0
        injector = FaultInjector(
            system, FaultSpec(events=(KillShard(at=0.0, shard=0),))
        )
        with pytest.raises(ValueError, match="in the past"):
            injector.arm()

    def test_applied_log_records_fire_times_and_details(self):
        system = _cluster(2, replicas=1, mpl=8, rate=60.0)
        injector = FaultInjector(system, FaultSpec(events=(
            KillShard(at=0.4, shard=0),
            DegradeShard(at=0.8, shard=1, factor=0.5),
            RestoreShard(at=1.2, shard=0),
        )))
        injector.arm()
        system.run_transactions(100)
        kinds = [fault["kind"] for fault in injector.applied_jsonable()]
        assert kinds == ["kill", "degrade", "restore"]
        for fault, at in zip(injector.applied, (0.4, 0.8, 1.2)):
            assert fault.at == pytest.approx(at)
        assert "election" in injector.applied[0].detail
