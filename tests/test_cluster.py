"""Tests for the sharded cluster layer (config, routing, determinism).

The headline guarantees:

* a one-shard cluster is **bit-identical** to the plain single-engine
  system — same ``RunResult`` JSON, same config fingerprint (pinned
  digests, like ``tests/test_arrivals.py`` pins the legacy hashes);
* multi-shard runs are deterministic under any ``--jobs N`` and cache
  cleanly;
* the global MPL splits across shards correctly in static mode, and
  the per-shard feedback-controller mode drives each shard's scheduler.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cluster import (
    ClusterConfig,
    ClusteredSystem,
    ShardedExternalScheduler,
    build_system,
    split_mpl,
)
from repro.core.arrivals import OpenArrivals, PartlyOpenArrivals
from repro.core.cluster_config import ROUTING_POLICIES
from repro.core.controller import Baseline, Thresholds
from repro.core.scenario import (
    FeedbackMpl,
    MeasurementSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadRef,
    execute_scenario,
)
from repro.core.simulation import SimulatedSystem
from repro.core.system import SystemConfig, canonical_json
from repro.experiments import figures
from repro.experiments.parallel import ParallelRunner
from repro.experiments.runner import scenario_for
from repro.sim.random import derive_seed
from repro.workloads.setups import get_setup


def _base(mpl=4, seed=2, **kwargs) -> SystemConfig:
    setup = get_setup(1)
    return SystemConfig(
        workload=setup.workload,
        hardware=setup.hardware,
        isolation=setup.isolation,
        mpl=mpl,
        seed=seed,
        **kwargs,
    )


class TestSplitMpl:
    def test_even_split_with_remainder_to_low_indices(self):
        assert split_mpl(10, 4) == [3, 3, 2, 2]
        assert split_mpl(8, 4) == [2, 2, 2, 2]
        assert split_mpl(5, 4) == [2, 1, 1, 1]

    def test_unlimited_stays_unlimited(self):
        assert split_mpl(None, 3) == [None, None, None]

    def test_weighted_split_is_proportional(self):
        assert split_mpl(10, 3, (1, 1, 2)) == [3, 2, 5]
        assert split_mpl(12, 2, (1, 3)) == [3, 9]

    def test_every_shard_gets_at_least_one(self):
        assert min(split_mpl(4, 4, (100, 1, 1, 1))) >= 1

    def test_sum_always_preserved(self):
        for total in range(4, 40):
            for shards in (1, 2, 3, 4):
                assert sum(split_mpl(total, shards)) == total
                assert sum(split_mpl(total, shards, range(1, shards + 1))) == total

    def test_validation(self):
        with pytest.raises(ValueError):
            split_mpl(2, 4)  # cannot cover every shard
        with pytest.raises(ValueError):
            split_mpl(8, 0)
        with pytest.raises(ValueError):
            split_mpl(8, 2, (1.0,))  # wrong weight count
        with pytest.raises(ValueError):
            split_mpl(8, 2, (1.0, -1.0))

    def test_rejects_non_finite_weights(self):
        # NaN slips past `w <= 0` (every comparison is False) and inf
        # poisons the shares; both used to blow up inside the rounding
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="finite|positive"):
                split_mpl(8, 2, (bad, 1.0))

    @given(
        shards=st.integers(min_value=1, max_value=8),
        extra=st.integers(min_value=0, max_value=64),
        weights=st.lists(
            st.floats(min_value=1e-3, max_value=1e6,
                      allow_nan=False, allow_infinity=False),
            min_size=8, max_size=8,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_sum_conserved_for_all_valid_weight_vectors(
        self, shards, extra, weights
    ):
        # the skewed-weight corner: max(1, int(s)) floors can over-
        # allocate, and the take-back pass must land exactly on total
        total = shards + extra
        split = split_mpl(total, shards, weights[:shards])
        assert sum(split) == total
        assert min(split) >= 1


class TestClusterConfig:
    def test_scale_out_shard_seeds(self):
        cluster = ClusterConfig.scale_out(_base(seed=2), 3)
        assert [c.seed for c in cluster.shards] == [
            2, derive_seed(2, "shard", 1), derive_seed(2, "shard", 2),
        ]

    def test_scale_out_splits_the_global_mpl(self):
        cluster = ClusterConfig.scale_out(_base(mpl=10), 3)
        assert [c.mpl for c in cluster.shards] == [4, 3, 3]
        assert cluster.global_mpl == 10

    def test_global_mpl_none_when_any_shard_unlimited(self):
        cluster = ClusterConfig.scale_out(_base(mpl=None), 2)
        assert cluster.global_mpl is None

    def test_arrival_spec_comes_from_shard_zero(self):
        spec = PartlyOpenArrivals(session_rate=3.0)
        cluster = ClusterConfig.scale_out(_base(arrival=spec), 2)
        assert cluster.arrival_spec() is spec

    def test_num_shards(self):
        assert ClusterConfig.scale_out(_base(), 3).num_shards == 3
        system = ClusteredSystem(
            ClusterConfig.scale_out(_base(mpl=4, arrival_rate=20.0), 2)
        )
        assert system.num_shards == 2

    def test_jsonable_round_trips_through_json(self):
        import json

        payload = canonical_json(ClusterConfig.scale_out(_base(), 2))
        assert json.loads(payload)["__class__"] == "ClusterConfig"

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(shards=())
        with pytest.raises(ValueError):
            ClusterConfig(shards=(_base(),), routing="nope")
        with pytest.raises(ValueError):
            ClusterConfig(shards=(_base(), _base()), routing_weights=(1.0,))
        with pytest.raises(ValueError):
            ClusterConfig(
                shards=(_base(), _base()), routing_weights=(1.0, 0.0)
            )


class TestFingerprints:
    """Digest pins: a mismatch silently invalidates result caches."""

    #: The pre-cluster digests of SystemConfig(setup 1, mpl=4, seed=2)
    #: — also pinned by tests/test_arrivals.py.  A one-shard cluster
    #: must hash to exactly these.
    LEGACY = "c8ab3b88ad3a980e35795060155ff50d937f2595c5479dd10e71f77f0d2b9e47"
    LEGACY_EXTRA = "81c1b78b977fecdd56207882e6775b24193d36198ea3c5cdc0d51fe62d167964"

    def test_one_shard_cluster_fingerprint_is_the_single_engine_one(self):
        base = _base()
        cluster = ClusterConfig.scale_out(base, 1)
        assert cluster.fingerprint() == base.fingerprint() == self.LEGACY
        assert (
            cluster.fingerprint(transactions=500, warmup_fraction=0.2)
            == self.LEGACY_EXTRA
        )

    def test_multi_shard_digests_pinned(self):
        two = ClusterConfig.scale_out(_base(), 2)
        assert two.fingerprint() == (
            "14cfb406f1880d0251ee949bcd2a626028ed34575f4bcbff8a118eefc0f9f2b2"
        )
        assert two.fingerprint(transactions=500, warmup_fraction=0.2) == (
            "1301aa63a883f16cbee86ad6ec66788166fe88a27e2f67b715bbcb5fca173092"
        )

    def test_sharded_runspec_digests_pinned(self):
        spec = scenario_for(get_setup(1), mpl=8, transactions=300, seed=11,
                            shards=4, routing="least_in_flight")
        assert spec.fingerprint() == (
            "2843f18c5195fc7e0b37b6c4d10fa0ab910cecd0bcf715eee1bfcb2c6c2df74f"
        )
        weighted = scenario_for(get_setup(1), mpl=8, transactions=300, seed=11,
                                shards=2, routing="weighted",
                                routing_weights=(1.0, 3.0))
        assert weighted.fingerprint() == (
            "65aa4cfc24e736aae0630e31a03f636f59b63966835b44cbc9bc15c98a28fb79"
        )

    def test_default_runspec_fingerprint_still_legacy(self):
        """The topology axis must not perturb pre-cluster hashes."""
        spec = scenario_for(get_setup(1), mpl=5, transactions=300, seed=11)
        assert spec.fingerprint() == (
            "47affd2ecb66d0aa7dffcdf436ed6259a0de0e2c618fac76ec253345849028d6"
        )

    def test_topology_changes_the_fingerprint(self):
        base = _base(mpl=8)
        digests = {
            ClusterConfig.scale_out(base, shards, routing=routing).fingerprint()
            for shards in (2, 4)
            for routing in ROUTING_POLICIES
        }
        assert len(digests) == 8
        assert ClusterConfig.scale_out(base, 1).fingerprint() not in digests


class TestBitIdentity:
    """A one-shard cluster reproduces the plain engine exactly."""

    def test_closed_system(self):
        base = _base(mpl=4, seed=2)
        single = SimulatedSystem(base).run(transactions=250)
        clustered = ClusteredSystem(ClusterConfig.scale_out(base, 1)).run(
            transactions=250
        )
        assert clustered.to_json_dict() == single.to_json_dict()

    def test_open_system(self):
        base = _base(mpl=6, seed=5, arrival=OpenArrivals(rate=40.0))
        single = SimulatedSystem(base).run(transactions=250)
        clustered = ClusteredSystem(ClusterConfig.scale_out(base, 1)).run(
            transactions=250
        )
        assert clustered.to_json_dict() == single.to_json_dict()

    def test_partly_open_with_priorities(self):
        base = _base(
            mpl=4, seed=7, policy="priority", high_priority_fraction=0.1,
            arrival=PartlyOpenArrivals.for_load(30.0, 4.0, think_time_s=0.05),
        )
        single = SimulatedSystem(base).run(transactions=200)
        clustered = ClusteredSystem(ClusterConfig.scale_out(base, 1)).run(
            transactions=200
        )
        assert clustered.to_json_dict() == single.to_json_dict()

    def test_build_system_short_circuits_one_shard(self):
        system = build_system(ClusterConfig.scale_out(_base(), 1))
        assert isinstance(system, SimulatedSystem)
        assert isinstance(build_system(_base()), SimulatedSystem)
        assert isinstance(
            build_system(ClusterConfig.scale_out(_base(), 2)), ClusteredSystem
        )


class TestClusteredRuns:
    def test_multi_shard_run_reports_cluster_shape(self):
        cluster = ClusterConfig.scale_out(
            _base(mpl=8, arrival_rate=40.0), 4, routing="round_robin"
        )
        system = ClusteredSystem(cluster)
        result = system.run(transactions=300)
        assert result.mpl == 8
        assert result.completed > 0
        # shard-prefixed utilization snapshot covers every shard
        assert {"shard0/cpu", "shard3/cpu"} <= set(result.utilizations)

    def test_run_cluster_convenience(self):
        system = build_system(
            ClusterConfig.scale_out(_base(mpl=4, arrival_rate=30.0), 2)
        )
        assert isinstance(system, ClusteredSystem)
        result = system.run(transactions=150)
        assert result.throughput > 0

    def test_jobs_invariance_and_cache_round_trip(self, tmp_path):
        specs = [
            scenario_for(get_setup(1), mpl=8, transactions=120, seed=9,
                         arrival_rate=40.0, shards=shards, routing=routing)
            for shards, routing in (
                (2, "round_robin"), (4, "hash"), (2, "least_in_flight"),
            )
        ]
        sequential = ParallelRunner(jobs=1).run(specs)
        parallel = ParallelRunner(jobs=3).run(specs)
        assert [r.to_json_dict() for r in sequential] == [
            r.to_json_dict() for r in parallel
        ]
        cold = ParallelRunner(jobs=1, cache_dir=str(tmp_path))
        cold_results = cold.run(specs)
        warm = ParallelRunner(jobs=1, cache_dir=str(tmp_path))
        warm_results = warm.run(specs)
        assert warm.stats.executed == 0
        assert warm.stats.cache_hits == len(specs)
        assert [r.to_json_dict() for r in warm_results] == [
            r.to_json_dict() for r in cold_results
        ]

    def test_class_stats_snapshot_includes_router_and_shards(self):
        system = ClusteredSystem(
            ClusterConfig.scale_out(_base(mpl=4, arrival_rate=30.0), 2)
        )
        system.run_transactions(100)
        snapshot = system.class_stats_snapshot()
        assert "router" in snapshot
        assert "shard0/cpu" in snapshot and "shard1/cpu" in snapshot
        cpu_totals = system.aggregate_class_requests("cpu")
        assert sum(cpu_totals.values()) > 0
        # unknown station names aggregate to nothing, not an error
        assert system.aggregate_class_requests("no-such-station") == {}


class TestShardedExternalScheduler:
    def _scheduler(self, shards=4, mpl=8):
        system = ClusteredSystem(
            ClusterConfig.scale_out(_base(mpl=mpl, arrival_rate=30.0), shards)
        )
        return system, system.scheduler

    def test_global_mpl_sums_shards(self):
        _system, scheduler = self._scheduler(shards=4, mpl=10)
        assert scheduler.global_mpl == 10
        assert [f.mpl for f in scheduler.frontends] == [3, 3, 2, 2]

    def test_set_global_mpl_resplits(self):
        _system, scheduler = self._scheduler(shards=4, mpl=8)
        assert scheduler.set_global_mpl(13) == [4, 3, 3, 3]
        assert scheduler.global_mpl == 13
        assert scheduler.set_global_mpl(None) == [None] * 4
        assert scheduler.global_mpl is None

    def test_set_shard_mpl(self):
        _system, scheduler = self._scheduler(shards=2, mpl=8)
        scheduler.set_shard_mpl(1, 7)
        assert scheduler[1].mpl == 7
        assert scheduler.global_mpl == 4 + 7

    def test_aggregates_sum_over_shards(self):
        system, scheduler = self._scheduler(shards=2, mpl=4)
        system.run_transactions(80)
        assert scheduler.completed == sum(
            f.completed for f in scheduler.frontends
        )
        assert scheduler.dispatched >= scheduler.completed
        assert scheduler.in_service == sum(
            f.in_service for f in scheduler.frontends
        )
        assert scheduler.queue_length == sum(
            f.queue_length for f in scheduler.frontends
        )
        assert len(scheduler) == 2

    def test_needs_at_least_one_shard(self):
        with pytest.raises(ValueError):
            ShardedExternalScheduler([])


class TestPerShardControllers:
    def test_tune_shards_drives_every_frontend(self):
        base = _base(mpl=None, seed=3, arrival_rate=50.0)
        cluster = ClusterConfig.scale_out(base, 2, routing="least_in_flight")
        system = ClusteredSystem(cluster)
        # a cluster-wide baseline: each shard is held to half the
        # throughput at the same response time
        reports = system.tune_shards(
            Baseline(throughput=50.0, mean_response_time=0.5),
            Thresholds(max_throughput_loss=0.3, max_response_time_increase=2.0),
            initial_mpl=3,
            window=40,
            max_iterations=6,
        )
        assert len(reports) == 2
        for index, report in enumerate(reports):
            assert report.final_mpl >= 1
            assert system.scheduler[index].mpl == report.final_mpl

    def test_weighted_routing_splits_the_baseline_by_weight(self):
        # held to an even third of the cluster throughput, the two
        # lightly weighted shards can never reach it and run away to
        # MPL 512; their weight share of the baseline is reachable
        spec = ScenarioSpec(
            workload=WorkloadRef(setup_id=1),
            topology=TopologySpec(
                shards=3, routing="weighted", routing_weights=(10.0, 2.0, 0.5)
            ),
            control=FeedbackMpl(initial_mpl=3, window=20, baseline_transactions=300),
            measurement=MeasurementSpec(transactions=200),
            seed=3,
        )
        reports = execute_scenario(spec).control.shards
        assert [report.converged for report in reports] == [True, True, True]
        # re-pinned from [3, 2, 18] when zero-wait lock grants stopped
        # costing an event: a 33-seed paired run of this cell found no
        # per-shard shift in final MPL (exact sign and Wilcoxon tests)
        assert [report.final_mpl for report in reports] == [3, 2, 4]

    def test_shard_view_counts_only_its_own_completions(self):
        system = ClusteredSystem(
            ClusterConfig.scale_out(_base(mpl=4, arrival_rate=40.0), 2)
        )
        view = system.shard_view(0)
        records = view.run_transactions(30)
        assert len(records) == 30
        assert len(view.collector.records) == 30
        # the other shard kept serving while we observed shard 0
        assert len(system.collector.records) >= 30
        with pytest.raises(ValueError):
            view.run_transactions(0)


class TestShardedFigure:
    def test_grid_registered_for_cli_and_bench(self):
        assert figures.FIGURE_GRIDS["sh"](True) == figures.sharded_grid(fast=True)
        from repro.experiments.__main__ import _FIGURES
        assert "sh" in _FIGURES

    def test_grid_covers_every_policy_and_shard_count(self):
        grid = figures.sharded_grid(fast=True)
        assert {spec.shards for spec in grid} >= set(figures.SHARD_COUNTS)
        assert {spec.routing for spec in grid} == set(ROUTING_POLICIES)
        # fingerprints must be valid and distinct per cell
        digests = {spec.fingerprint() for spec in grid}
        # overlap between the shard sweep and the policy panel is the
        # only allowed duplication
        assert len(digests) >= len(grid) - len(figures.SHARD_MPLS_FAST)

    def test_figure_runs_end_to_end(self):
        panels = figures.sharded_cluster(
            fast=True, mpls=(2,), shard_counts=(1, 2)
        )
        assert [p.figure for p in panels] == ["SH-a", "SH-b", "SH-po", "SH-tv"]
        throughput = panels[0]
        # weak scaling: 2 shards carry roughly twice the load
        one, two = (s.ys[0] for s in throughput.series)
        assert two > 1.5 * one
        for panel in panels[2:]:
            assert {s.label for s in panel.series} == set(ROUTING_POLICIES)
        assert "Figure SH-a" in throughput.render()

    def test_weighted_runspec_rebuilds_a_weighted_cluster(self):
        spec = scenario_for(
            get_setup(1), mpl=8, transactions=100, seed=3,
            shards=2, routing="weighted", routing_weights=(1.0, 3.0),
        )
        config = spec.build_config()
        assert isinstance(config, ClusterConfig)
        assert config.routing_weights == (1.0, 3.0)
        # the MPL split follows the weights
        assert [c.mpl for c in config.shards] == [2, 6]
