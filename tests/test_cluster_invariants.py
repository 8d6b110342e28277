"""Property-based invariant tests for the Station metrics base and routing.

Seeded hypothesis sweeps over topology (shard count, routing policy,
seed, priority mix) assert the conservation laws that make the cluster
refactor safe to build on:

* every transaction the router accepts is in exactly one place:
  per shard, ``routed = completed + in_service + external queue``;
* no transaction is ever routed twice;
* the cluster-wide completion stream is exactly the disjoint union of
  the per-shard streams — per-class counts included;
* a station's bookkeeping (``ClassStats``, ``busy_time``,
  ``utilization``) is internally consistent for any request sequence.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cluster import ClusterConfig, ClusteredSystem
from repro.core.cluster_config import ROUTING_POLICIES
from repro.core.system import SystemConfig
from repro.dbms.cpu import ProcessorSharingPool
from repro.dbms.transaction import Transaction
from repro.sim.engine import Simulator
from repro.sim.station import (
    HashRouting,
    LeastInFlightRouting,
    RouterStation,
    RoundRobinRouting,
    Station,
    WeightedRouting,
    make_routing,
)
from repro.workloads.setups import get_setup


def _cluster(shards, routing, seed, high_fraction=0.0, mpl=None, rate=40.0):
    setup = get_setup(1)
    base = SystemConfig(
        workload=setup.workload,
        hardware=setup.hardware,
        isolation=setup.isolation,
        mpl=mpl,
        seed=seed,
        arrival_rate=rate,
        high_priority_fraction=high_fraction,
        policy="priority" if high_fraction > 0 else "fifo",
    )
    weights = tuple(float(i + 1) for i in range(shards)) if routing == "weighted" else None
    return ClusteredSystem(
        ClusterConfig.scale_out(base, shards, routing=routing,
                                routing_weights=weights)
    )


class TestRoutingConservation:
    @given(
        shards=st.integers(min_value=1, max_value=4),
        routing=st.sampled_from(ROUTING_POLICIES),
        seed=st.integers(min_value=0, max_value=10_000),
        high_fraction=st.sampled_from([0.0, 0.1]),
    )
    @settings(max_examples=12, deadline=None)
    def test_arrivals_equal_completions_plus_in_flight_per_shard(
        self, shards, routing, seed, high_fraction
    ):
        system = _cluster(shards, routing, seed, high_fraction, mpl=2 * shards)
        system.run_transactions(60)
        router = system.router
        assert router.routed == system.collector.arrivals
        for routed, shard in zip(router.routed_by_shard, system.shards):
            frontend = shard.frontend
            assert routed == (
                frontend.completed + frontend.in_service + frontend.queue_length
            )
            # the shard-local arrival count matches what was routed to it
            assert shard.collector.arrivals == routed

    @given(
        shards=st.integers(min_value=2, max_value=4),
        routing=st.sampled_from(ROUTING_POLICIES),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=10, deadline=None)
    def test_cluster_stream_is_the_disjoint_union_of_shard_streams(
        self, shards, routing, seed
    ):
        system = _cluster(shards, routing, seed, high_fraction=0.1, mpl=3 * shards)
        system.run_transactions(60)
        shard_tids = [
            {r.tid for r in shard.collector.records} for shard in system.shards
        ]
        cluster_tids = {r.tid for r in system.collector.records}
        # no transaction completed on two shards...
        assert sum(len(tids) for tids in shard_tids) == len(cluster_tids)
        # ...and the union is exactly the cluster stream
        assert set().union(*shard_tids) == cluster_tids
        # per-class counts sum across shards to the cluster totals
        result = system.result()
        for priority, count in result.count_by_class.items():
            assert count == sum(
                sum(1 for r in shard.collector.records if r.priority == priority)
                for shard in system.shards
            )

    @given(
        shards=st.integers(min_value=2, max_value=4),
        routing=st.sampled_from(ROUTING_POLICIES),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=8, deadline=None)
    def test_router_class_stats_sum_to_shard_arrivals(self, shards, routing, seed):
        system = _cluster(shards, routing, seed, high_fraction=0.2, mpl=2 * shards)
        system.run_transactions(50)
        router_totals = {
            priority: stats.requests
            for priority, stats in system.router.class_stats().items()
        }
        assert sum(router_totals.values()) == system.router.routed
        # the engine-side cpu station saw every priority class the
        # router admitted (transactions may still be queued, so the
        # router count is an upper bound)
        cpu_totals = system.aggregate_class_requests("cpu")
        assert set(cpu_totals) <= set(router_totals)

    def test_no_transaction_routed_twice(self):
        system = _cluster(2, "round_robin", seed=1, mpl=4)
        system.run_transactions(20)
        record = system.collector.records[0]
        duplicate = Transaction(
            tid=record.tid, type_name="dup", priority=0,
            cpu_demand=0.001, page_accesses=0,
        )
        with pytest.raises(ValueError, match="already routed"):
            system.router.submit(duplicate)


class TestRoutingPolicies:
    @given(
        n=st.integers(min_value=1, max_value=8),
        picks=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=30, deadline=None)
    def test_round_robin_is_balanced(self, n, picks):
        policy = RoundRobinRouting(n)
        targets = list(range(n))
        counts = [0] * n
        for _ in range(picks):
            counts[policy.choose(None, targets)] += 1
        assert max(counts) - min(counts) <= 1

    @given(
        tids=st.lists(st.integers(min_value=0, max_value=2**40), min_size=1,
                      max_size=50),
        n=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=30, deadline=None)
    def test_hash_routing_is_a_stable_pure_function(self, tids, n):
        policy = HashRouting()
        targets = list(range(n))

        class Tx:
            def __init__(self, tid):
                self.tid = tid

        first = [policy.choose(Tx(tid), targets) for tid in tids]
        second = [HashRouting().choose(Tx(tid), targets) for tid in tids]
        assert first == second
        assert all(0 <= shard < n for shard in first)

    @given(
        loads=st.lists(st.integers(min_value=0, max_value=20), min_size=1,
                       max_size=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_least_in_flight_picks_a_minimum(self, loads):
        class Target:
            def __init__(self, load):
                self.in_service = load
                self.queue_length = 0

        targets = [Target(load) for load in loads]
        chosen = LeastInFlightRouting().choose(None, targets)
        assert loads[chosen] == min(loads)
        # ties break to the lowest index, deterministically
        assert chosen == loads.index(min(loads))

    @given(
        weights=st.lists(
            st.integers(min_value=1, max_value=5), min_size=2, max_size=5
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_weighted_shares_are_exactly_proportional_per_cycle(self, weights):
        """Over one full weight cycle, SWRR gives exact integer shares."""
        policy = WeightedRouting(weights)
        targets = list(range(len(weights)))
        total = sum(weights)
        counts = [0] * len(weights)
        for _ in range(total):
            counts[policy.choose(None, targets)] += 1
        assert counts == list(weights)

    def test_make_routing_validation(self):
        with pytest.raises(ValueError):
            make_routing("nope", 2)
        with pytest.raises(ValueError):
            make_routing("round_robin", 0)
        with pytest.raises(ValueError):
            make_routing("weighted", 2, weights=(1.0,))
        with pytest.raises(ValueError):
            WeightedRouting(())
        with pytest.raises(ValueError):
            WeightedRouting((1.0, -2.0))
        with pytest.raises(ValueError):
            RoundRobinRouting(0)
        with pytest.raises(ValueError):
            RouterStation(Simulator(), [], RoundRobinRouting(1))

    def test_routing_policy_base_is_abstract(self):
        from repro.sim.station import RoutingPolicy

        with pytest.raises(NotImplementedError):
            RoutingPolicy().choose(None, [object()])

    def test_router_rejects_out_of_range_policy_choices(self):
        class BrokenPolicy(RoundRobinRouting):
            def choose(self, tx, targets):
                return len(targets)  # one past the end

        class Target:
            in_service = 0
            queue_length = 0

            def submit(self, tx):  # pragma: no cover - never reached
                raise AssertionError

        class Tx:
            tid = 1
            priority = 0

        router = RouterStation(Simulator(), [Target()], BrokenPolicy(1))
        with pytest.raises(ValueError, match="chose shard"):
            router.submit(Tx())


class TestStationProtocol:
    @given(
        jobs=st.lists(
            st.tuples(
                st.sampled_from((0.0, 0.125, 0.5, 1.0, 1.25, 2.0)),
                st.integers(min_value=0, max_value=2),
            ),
            min_size=1,
            max_size=30,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_cpu_station_bookkeeping_is_consistent(self, jobs):
        sim = Simulator()
        station = ProcessorSharingPool(sim, cores=1)
        for demand, priority in jobs:
            station.execute(demand, priority=priority)
        sim.run()
        total = sum(demand for demand, _priority in jobs)
        assert station.busy_time == pytest.approx(total)
        assert station.requests_served == len(jobs)
        per_class = station.class_stats()
        assert sum(s.requests for s in per_class.values()) == len(jobs)
        assert sum(s.service_time for s in per_class.values()) == pytest.approx(total)
        if sim.now > 0:
            assert station.utilization(sim.now) == pytest.approx(total / sim.now)
        assert station.utilization(0.0) == 0.0

    @given(
        priorities=st.lists(st.integers(min_value=0, max_value=3), min_size=1,
                            max_size=40),
    )
    @settings(max_examples=40, deadline=None)
    def test_base_station_counts_classes(self, priorities):
        station = Station(Simulator(), "admission")
        for priority in priorities:
            station._record(priority)
        assert station.requests_served == len(priorities)
        for priority in set(priorities):
            assert station.per_class[priority].requests == priorities.count(priority)

    def test_router_is_not_a_server(self):
        sim = Simulator()

        class Target:
            in_service = 0
            queue_length = 0

            def submit(self, tx):
                raise AssertionError("not exercised here")

        router = RouterStation(sim, [Target()], RoundRobinRouting(1))
        assert not router.is_server
        assert router.busy_time == 0.0
        assert router.queue_length == 0
        assert router.in_service == 0
