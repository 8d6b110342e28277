"""Property-based invariants for faulted clusters + digest pins.

Seeded hypothesis sweeps over topology (shard count, replicas, seed)
and fault schedules (kill / kill+restore / degrade) assert that the
fail-stop model never loses a transaction:

* cluster-wide conservation — every transaction the router accepted is
  in exactly one frontend (completed / in-service / queued, election
  buffer included) through any kill -> elect -> restore sequence;
* per-shard conservation with the re-route transfer counters:
  ``routed_by_shard[i] + rerouted_to[i] - rerouted_from[i]`` matches
  shard ``i``'s frontend accounting;
* faulted runs are deterministic — identical schedules replay
  bit-identically, and results are independent of ``--jobs N``;
* scenarios with no faults and 0 replicas keep their exact pre-fault
  content digests (pinned sha256 values).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cluster import ClusterConfig, ClusteredSystem, FaultInjector
from repro.core.controller import ElasticCapacityController
from repro.core.faults import DegradeShard, FaultSpec, KillShard, RestoreShard
from repro.core.scenario import (
    ElasticMpl,
    MeasurementSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadRef,
    component_fingerprint,
    demo_scenarios,
    execute_scenario,
)
from repro.core.system import SystemConfig
from repro.experiments.parallel import ParallelRunner
from repro.workloads.setups import get_setup


def _cluster(shards, seed, replicas=0, mpl=None, rate=50.0):
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
            base, shards, replicas_per_shard=replicas,
            election_timeout_s=0.2,
        )
    )


def _schedule(kind, shard):
    if kind == "kill":
        return FaultSpec(events=(KillShard(at=0.4, shard=shard),))
    if kind == "kill+restore":
        return FaultSpec(events=(
            KillShard(at=0.4, shard=shard),
            RestoreShard(at=1.0, shard=shard),
        ))
    return FaultSpec(events=(DegradeShard(at=0.4, shard=shard, factor=0.5),))


def _assert_conserved(system):
    router = system.router
    frontends = [shard.frontend for shard in system.shards]
    # cluster-wide: every routed transaction is in exactly one frontend
    assert router.routed == sum(
        f.completed + f.in_service + f.queue_length for f in frontends
    )
    # per-shard, re-route transfers included
    for index, frontend in enumerate(frontends):
        assert (
            router.routed_by_shard[index]
            + router.rerouted_to[index]
            - router.rerouted_from[index]
        ) == frontend.completed + frontend.in_service + frontend.queue_length
        # arrivals are counted where the router first placed the tx
        assert (
            system.shards[index].collector.arrivals
            == router.routed_by_shard[index]
        )
    assert router.rerouted == sum(router.rerouted_from)
    assert router.rerouted == sum(router.rerouted_to)


class TestFaultedConservation:
    @given(
        shards=st.integers(min_value=2, max_value=4),
        replicas=st.integers(min_value=0, max_value=1),
        seed=st.integers(min_value=0, max_value=10_000),
        kind=st.sampled_from(["kill", "kill+restore", "degrade"]),
    )
    @settings(max_examples=14, deadline=None)
    def test_conservation_through_any_schedule(
        self, shards, replicas, seed, kind
    ):
        system = _cluster(shards, seed, replicas=replicas, mpl=2 * shards)
        injector = FaultInjector(system, _schedule(kind, shard=0))
        injector.arm()
        system.run_transactions(60)
        _assert_conserved(system)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=8, deadline=None)
    def test_full_shard_death_reroutes_without_loss(self, seed):
        """Kill both members of a replicated shard: the router takes it
        out of rotation, evacuates the backlog, and nothing is lost."""
        system = _cluster(2, seed, replicas=1, mpl=6, rate=70.0)
        FaultInjector(system, FaultSpec(events=(
            KillShard(at=0.3, shard=0),
            KillShard(at=0.6, shard=0),
        ))).arm()
        system.run_transactions(60)
        _assert_conserved(system)
        group = system.shards[0].group
        if not group.available:
            assert not system.router.alive[0]

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        replicas=st.integers(min_value=0, max_value=1),
    )
    @settings(max_examples=6, deadline=None)
    def test_faulted_runs_replay_bit_identically(self, seed, replicas):
        def run():
            system = _cluster(2, seed, replicas=replicas, mpl=6, rate=60.0)
            FaultInjector(system, _schedule("kill+restore", 0)).arm()
            system.run_transactions(70)
            return [
                (r.tid, r.arrival_time, r.completion_time)
                for r in system.collector.records
            ]

        assert run() == run()


class TestElasticInvariants:
    def test_resplit_conserves_the_global_mpl(self):
        system = _cluster(4, seed=3, mpl=16, rate=150.0)
        controller = ElasticCapacityController(
            system, global_mpl=16, interval_s=0.25
        ).install()
        system.run_transactions(150)
        report = controller.report
        assert sum(report.final_mpls) == 16
        assert all(mpl >= 1 for mpl in report.final_mpls)
        for action in report.actions:
            if action.kind == "resplit":
                assert sum(action.mpls) == 16

    def test_elastic_under_a_kill_shifts_mpl_to_survivors(self):
        system = _cluster(2, seed=5, replicas=1, mpl=12, rate=80.0)
        FaultInjector(system, FaultSpec(events=(
            KillShard(at=0.3, shard=0),
            KillShard(at=0.5, shard=0),
        ))).arm()
        controller = ElasticCapacityController(
            system, global_mpl=12, interval_s=0.25
        ).install()
        system.run_transactions(120)
        _assert_conserved(system)
        report = controller.report
        assert sum(report.final_mpls) == 12
        if not system.router.alive[0]:
            # the dead shard is parked at the floor, survivors got the rest
            assert report.final_mpls[0] == 1
            assert report.final_mpls[1] == 11

    def test_global_mpl_must_cover_every_shard(self):
        system = _cluster(4, seed=1, mpl=16)
        with pytest.raises(ValueError, match="cannot cover"):
            ElasticCapacityController(system, global_mpl=3)

    def test_rejects_inverted_watermarks_at_construction(self):
        # inverted watermarks would park on one tick and re-activate on
        # the next, forever; pre-fix the constructor accepted them
        system = _cluster(2, seed=1, mpl=8)
        with pytest.raises(ValueError, match="watermarks"):
            ElasticCapacityController(
                system, global_mpl=8,
                low_watermark=0.9, high_watermark=0.2,
            )
        with pytest.raises(ValueError, match="watermarks"):
            ElasticCapacityController(
                system, global_mpl=8,
                low_watermark=0.5, high_watermark=0.5,
            )

    def test_rejects_bad_interval_min_shards_and_ticks(self):
        system = _cluster(2, seed=1, mpl=8)
        with pytest.raises(ValueError, match="interval_s"):
            ElasticCapacityController(system, global_mpl=8, interval_s=0.0)
        with pytest.raises(ValueError, match="min_shards"):
            ElasticCapacityController(system, global_mpl=8, min_shards=0)
        with pytest.raises(ValueError, match="max_ticks"):
            ElasticCapacityController(system, global_mpl=8, max_ticks=0)

    def test_spec_path_rejects_inverted_watermarks_too(self):
        # both faces of the rule: the ElasticMpl spec and the controller
        with pytest.raises(ValueError, match="watermark"):
            ElasticMpl(mpl=8, low_watermark=0.9, high_watermark=0.2)


class TestScenarioDeterminism:
    def _spec(self):
        return ScenarioSpec(
            workload=WorkloadRef(setup_id=1),
            topology=TopologySpec(
                shards=2, routing="least_in_flight", replicas_per_shard=1,
            ),
            control=ElasticMpl(mpl=8, interval_s=0.5),
            faults=FaultSpec(events=(
                KillShard(at=0.5, shard=0),
                RestoreShard(at=1.5, shard=0),
            )),
            measurement=MeasurementSpec(
                transactions=120,
                metrics=("standard", "percentiles", "timeline"),
            ),
            arrival_rate=70.0,
            seed=17,
            tag="inv-failover",
        )

    def test_execution_is_deterministic(self):
        first = execute_scenario(self._spec())
        second = execute_scenario(self._spec())
        assert first.result.throughput == second.result.throughput
        assert first.result.mean_response_time == second.result.mean_response_time
        assert first.timeline == second.timeline
        assert first.faults == second.faults

    def test_results_identical_for_any_jobs_n(self, tmp_path):
        grid = [self._spec(), self._spec()]
        serial = ParallelRunner(jobs=1).run(grid)
        parallel = ParallelRunner(jobs=2).run(grid)
        for a, b in zip(serial, parallel):
            assert a.throughput == b.throughput
            assert a.mean_response_time == b.mean_response_time
            assert a.completed == b.completed


class TestDigestPins:
    """Pre-fault content digests, pinned byte-for-byte.

    These sha256 values were recorded before the fault / replica /
    elastic axes existed; any drift means pre-existing cache entries
    and the golden corpus would be invalidated.
    """

    def test_no_fault_scenarios_keep_their_digests(self):
        assert ScenarioSpec().fingerprint() == (
            "360205e58fed441f9d11ad31752d4372fb832046f778a02b0384d41a4fe71e03"
        )
        assert ScenarioSpec(
            topology=TopologySpec(shards=4, routing="least_in_flight")
        ).fingerprint() == (
            "22975e7f0704ce5b8f379bf6d00587183dca7e84751e061e39165b4fe14fc4cb"
        )

    def test_component_digests_are_stable(self):
        assert component_fingerprint(TopologySpec()) == (
            "d02f611680891219025d3b5a8d1c7144904e3835f189ad8b8210c48c54db25a1"
        )
        assert component_fingerprint(
            TopologySpec(shards=4, routing="least_in_flight")
        ) == (
            "60dc02f2a752ec6b286eaf48aae2ccb7947aabfa678c273aa0523036dbcfaacb"
        )
        assert component_fingerprint(MeasurementSpec()) == (
            "e20bb9ee0455d1cf4393ec0b71ad469fed984a9f22c1f3ef100dd20cf3b27d5a"
        )

    def test_failover_demo_digest_is_pinned(self):
        assert demo_scenarios()["failover"].fingerprint() == (
            "b9532c62223967cf4e4c3d4ef27d091f7799206e6e486a0a67485e7a06a77f45"
        )

    def test_new_axes_change_the_digest(self):
        base = ScenarioSpec(topology=TopologySpec(shards=2))
        replicated = ScenarioSpec(
            topology=TopologySpec(shards=2, replicas_per_shard=1)
        )
        faulted = ScenarioSpec(
            topology=TopologySpec(shards=2),
            faults=FaultSpec(events=(KillShard(at=1.0, shard=0),)),
        )
        digests = {
            base.fingerprint(),
            replicated.fingerprint(),
            faulted.fingerprint(),
        }
        assert len(digests) == 3
