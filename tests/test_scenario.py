"""The Scenario API: composition, fingerprints, execution, CLI.

The heart of the suite is compatibility: every legacy run shape used
by the figure grids must keep its exact content digest through
``scenario_for`` (the golden corpus pinned in
``tests/data/scenario_golden_fingerprints.json``), and an all-default
scenario must run bit-identically to a directly built system.  On top of that:
the JSON codec round-trips, the trace arrival seam replays
deterministically, and the two controller-carrying control specs
(``FeedbackMpl``, ``PerClassSlo``) drive their loops from pure data.
"""

import dataclasses
import hashlib
import json
import os

import pytest

from repro.core.arrivals import (
    ClosedArrivals,
    ModulatedArrivals,
    OpenArrivals,
    PartlyOpenArrivals,
    PiecewiseRate,
    SinusoidRate,
    TraceArrivals,
)
from repro.core.cluster import ClusterConfig, build_system
from repro.core.controller import (
    ControllerReport,
    ElasticReport,
    PerClassSloController,
    SloReport,
)
from repro.core.faults import (
    DegradeShard,
    FaultSpec,
    KillShard,
    RestoreShard,
)
from repro.core.scenario import (
    ClusterSlo,
    ElasticMpl,
    FeedbackMpl,
    MeasurementSpec,
    PerClassSlo,
    ScenarioSpec,
    ScenarioValidationError,
    StaticMpl,
    TopologySpec,
    WorkloadRef,
    component_fingerprint,
    demo_scenarios,
    execute_scenario,
)
from repro.core.simulation import SimulatedSystem
from repro.core.sources import TraceReplay
from repro.core.system import SystemConfig
from repro.dbms.config import InternalPolicy
from repro.dbms.transaction import Priority
from repro.experiments import figures
from repro.experiments.__main__ import main as cli_main
from repro.experiments.parallel import execute_spec
from repro.experiments.runner import scenario_for
from repro.workloads.setups import get_setup
from repro.workloads.traces import get_trace

GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                      "scenario_golden_fingerprints.json")


class TestGoldenCorpus:
    """Every legacy grid shape keeps its pre-scenario cache key."""

    @pytest.fixture(scope="class")
    def corpus(self):
        with open(GOLDEN, encoding="utf-8") as handle:
            return json.load(handle)["corpus"]

    def test_grid_fingerprints_match_corpus(self, corpus):
        expected = {}
        for entry in corpus:
            expected.setdefault((entry["grid"], entry["fast"]), set()).add(
                entry["fingerprint"]
            )
        for (grid, fast), want in sorted(expected.items()):
            got = {s.fingerprint() for s in figures.FIGURE_GRIDS[grid](fast=fast)}
            assert got == want, f"grid {grid} fast={fast} digests drifted"

    def test_grids_are_scenarios(self):
        for key, builder in figures.FIGURE_GRIDS.items():
            assert all(isinstance(s, ScenarioSpec) for s in builder(fast=True)), key

    def test_legacy_runspec_shapes_round_trip(self, corpus):
        """Corpus entries expressible via scenario_for rebuild + match."""
        checked = 0
        for entry in corpus:
            if entry["grid"] in ("po", "sh"):
                continue  # carry arrival specs not captured in the row
            spec = scenario_for(
                get_setup(entry["setup_id"]),
                mpl=entry["mpl"],
                transactions=entry["transactions"],
                seed=entry["seed"],
                policy=entry["policy"],
                high_priority_fraction=entry["high_priority_fraction"],
                arrival_rate=entry["arrival_rate"],
                warmup_fraction=entry["warmup_fraction"],
            )
            assert spec.fingerprint() == entry["fingerprint"]
            checked += 1
        assert checked > 100

    def test_json_round_trip_preserves_every_grid_fingerprint(self):
        for key, builder in figures.FIGURE_GRIDS.items():
            for spec in builder(fast=True):
                clone = ScenarioSpec.from_json_dict(
                    json.loads(json.dumps(spec.to_json_dict()))
                )
                assert clone == spec, key
                assert clone.fingerprint() == spec.fingerprint(), key


class TestLegacyAdapter:
    """Static single-engine scenarios keep their pre-scenario behaviour."""

    LEGACY_PINS = {
        (1, 5, 300, 11, "fifo", 0.0, None):
            "47affd2ecb66d0aa7dffcdf436ed6259a0de0e2c618fac76ec253345849028d6",
        (3, None, 150, 7, "priority", 0.1, None):
            "c3b9eb7fc51d133c3fa37fda4d1d12175caa7b3ce6342e4567935a1f0ceb2bf1",
        (5, 2, 100, 5, "fifo", 0.0, 4.0):
            "184cdbf8ff63ec4ddbc2232944bbe681d8867188388469de33f6c048f0a13889",
    }

    def test_pinned_digests_via_scenario(self):
        for (sid, mpl, txns, seed, policy, high, rate), digest in (
            self.LEGACY_PINS.items()
        ):
            scenario = ScenarioSpec(
                workload=WorkloadRef(setup_id=sid),
                control=StaticMpl(mpl),
                measurement=MeasurementSpec(transactions=txns),
                policy=policy,
                high_priority_fraction=high,
                arrival_rate=rate,
                seed=seed,
            )
            assert scenario.fingerprint() == digest

    def test_all_default_scenario_equals_default_runspec(self):
        assert ScenarioSpec().fingerprint() == scenario_for(
            get_setup(1)
        ).fingerprint()

    def test_default_scenario_result_is_bit_identical_to_direct_run(self):
        scenario = ScenarioSpec(
            control=StaticMpl(4), measurement=MeasurementSpec(transactions=150),
            seed=3,
        )
        outcome = execute_scenario(scenario)
        setup = get_setup(1)
        config = SystemConfig(
            workload=setup.workload, hardware=setup.hardware,
            isolation=setup.isolation, mpl=4, seed=3,
        )
        direct = SimulatedSystem(config).run(transactions=150)
        assert outcome.result == direct
        assert outcome.control is None
        assert execute_spec(scenario).result == direct

    def test_sharded_runspec_config_via_scenario(self):
        spec = scenario_for(
            get_setup(1), mpl=8, transactions=100, seed=3, shards=2
        )
        config = spec.build_config()
        assert isinstance(config, ClusterConfig)
        assert config.num_shards == 2
        assert config.global_mpl == 8

    def test_build_system_dispatches_on_scenario(self):
        system = build_system(ScenarioSpec(control=StaticMpl(2)))
        assert isinstance(system, SimulatedSystem)
        assert system.frontend.mpl == 2
        with pytest.raises(TypeError):
            build_system(42)

    def test_tag_not_hashed(self):
        assert ScenarioSpec(tag="x").fingerprint() == ScenarioSpec().fingerprint()


class TestComposition:
    """The axes are orthogonal and individually fingerprinted."""

    def test_component_fingerprints_are_orthogonal(self):
        base = ScenarioSpec()
        variants = {
            "workload": dataclasses.replace(
                base, workload=WorkloadRef(setup_id=3)
            ),
            "arrival": dataclasses.replace(base, arrival=OpenArrivals(rate=5.0)),
            "topology": dataclasses.replace(
                base, topology=TopologySpec(shards=2)
            ),
            "control": dataclasses.replace(base, control=StaticMpl(7)),
            "measurement": dataclasses.replace(
                base, measurement=MeasurementSpec(transactions=99)
            ),
        }
        reference = base.component_fingerprints()
        for axis, variant in variants.items():
            fingerprints = variant.component_fingerprints()
            assert fingerprints[axis] != reference[axis], axis
            for other in reference:
                if other != axis:
                    assert fingerprints[other] == reference[other], (axis, other)
            assert variant.fingerprint() != base.fingerprint(), axis

    def test_component_fingerprint_of_none_arrival_is_stable(self):
        assert component_fingerprint(None) == component_fingerprint(None)

    def test_non_default_metrics_change_fingerprint(self):
        base = ScenarioSpec()
        extra = dataclasses.replace(
            base,
            measurement=MeasurementSpec(metrics=("standard", "percentiles")),
        )
        assert extra.fingerprint() != base.fingerprint()

    def test_control_spec_changes_fingerprint_beyond_config(self):
        static = ScenarioSpec(control=StaticMpl(8))
        feedback = ScenarioSpec(control=FeedbackMpl(initial_mpl=8))
        slo = ScenarioSpec(
            control=PerClassSlo(initial_mpl=8),
            policy="priority",
            high_priority_fraction=0.1,
        )
        digests = {static.fingerprint(), feedback.fingerprint(), slo.fingerprint()}
        assert len(digests) == 3

    def test_accessor_properties(self):
        scenario = ScenarioSpec(
            workload=WorkloadRef(setup_id=4),
            topology=TopologySpec(shards=2, routing="hash"),
            control=StaticMpl(6),
            measurement=MeasurementSpec(transactions=77, warmup_fraction=0.1),
        )
        assert scenario.setup_id == 4
        assert scenario.mpl == 6
        assert scenario.transactions == 77
        assert scenario.warmup_fraction == 0.1
        assert scenario.shards == 2
        assert scenario.routing == "hash"
        assert not scenario.is_open
        assert ScenarioSpec(arrival_rate=5.0).is_open
        assert ScenarioSpec(arrival=OpenArrivals(rate=2.0)).is_open
        assert not ScenarioSpec(arrival=ClosedArrivals()).is_open


class TestValidation:
    def test_workload_ref_needs_exactly_one_source(self):
        with pytest.raises(ValueError):
            WorkloadRef(setup_id=None, trace=None)
        with pytest.raises(ValueError):
            WorkloadRef(setup_id=1, trace="online-retailer")

    def test_topology_validation(self):
        with pytest.raises(ValueError):
            TopologySpec(shards=0)
        with pytest.raises(ValueError):
            TopologySpec(routing="nope")
        with pytest.raises(ValueError):
            TopologySpec(shards=2, routing_weights=(1.0,))
        with pytest.raises(ValueError):
            TopologySpec(shards=2, routing_weights=(1.0, 0.0))

    def test_measurement_validation(self):
        with pytest.raises(ValueError):
            MeasurementSpec(transactions=0)
        with pytest.raises(ValueError):
            MeasurementSpec(warmup_fraction=1.0)
        with pytest.raises(ValueError):
            MeasurementSpec(metrics=())
        with pytest.raises(ValueError):
            MeasurementSpec(metrics=("percentiles",))
        with pytest.raises(ValueError):
            MeasurementSpec(metrics=("standard", "nope"))

    def test_control_validation(self):
        with pytest.raises(ValueError):
            StaticMpl(0)
        with pytest.raises(ValueError):
            FeedbackMpl(max_throughput_loss=1.5)
        with pytest.raises(ValueError):
            FeedbackMpl(initial_mpl=0)
        with pytest.raises(ValueError):
            FeedbackMpl(baseline_transactions=1)
        with pytest.raises(ValueError):
            FeedbackMpl(initial_mpl=4, window=1)
        with pytest.raises(ValueError):
            FeedbackMpl(initial_mpl=4, step=0)
        with pytest.raises(ValueError):
            FeedbackMpl(baseline_throughput=50.0)  # missing its RT half
        with pytest.raises(ValueError):
            FeedbackMpl(baseline_throughput=0.0, baseline_response_time=0.1,
                        initial_mpl=2)
        with pytest.raises(ValueError):
            # explicit baseline carries no utilizations to jump-start from
            FeedbackMpl(baseline_throughput=50.0, baseline_response_time=0.1)

    def test_sharded_feedback_needs_explicit_initial_mpl(self):
        with pytest.raises(ValueError):
            ScenarioSpec(
                topology=TopologySpec(shards=2),
                control=FeedbackMpl(initial_mpl=None),
            )
        with pytest.raises(ValueError):
            PerClassSlo(high_p95_target_s=0.0)
        with pytest.raises(ValueError):
            PerClassSlo(initial_mpl=0)
        with pytest.raises(ValueError):
            PerClassSlo(initial_mpl=9, max_mpl=8)
        # rejected by the spec itself, before any system is built
        for spec in (PerClassSlo, ClusterSlo):
            for bad in ({"window": 1}, {"step": 0},
                        {"max_iterations": 0}, {"max_iterations": -1}):
                with pytest.raises(ValueError):
                    spec(**bad)

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            ScenarioSpec(workload="setup 1")
        with pytest.raises(ValueError):
            ScenarioSpec(topology="1 shard")
        with pytest.raises(ValueError):
            ScenarioSpec(control="static")
        with pytest.raises(ValueError):
            ScenarioSpec(measurement="default")
        with pytest.raises(ValueError):
            ScenarioSpec(arrival=OpenArrivals(rate=1.0), arrival_rate=2.0)
        with pytest.raises(ValueError):
            ScenarioSpec(high_priority_fraction=1.5)

    def test_per_class_slo_needs_high_traffic_and_one_shard(self):
        with pytest.raises(ValueError):
            ScenarioSpec(control=PerClassSlo())
        with pytest.raises(ValueError):
            ScenarioSpec(
                control=PerClassSlo(),
                high_priority_fraction=0.1,
                topology=TopologySpec(shards=2),
            )

    def test_trace_arrivals_validation(self):
        with pytest.raises(ValueError):
            TraceArrivals("online-retailer", time_scale=0.0)
        with pytest.raises(ValueError):
            TraceArrivals("online-retailer", transactions=0)
        with pytest.raises(ValueError):
            TraceArrivals("no-such-trace")

    def test_trace_arrivals_reject_zero_span_loop(self, tmp_path):
        # a single-record (or all-equal-timestamp) trace has zero span:
        # loop=True would wrap with zero period and livelock the source.
        # Pre-fix this was only discovered by hanging the simulation.
        single = tmp_path / "single.csv"
        single.write_text("0.0,0.01\n")
        with pytest.raises(ValueError, match="span is zero"):
            TraceArrivals(f"file:{single}", loop=True)
        equal = tmp_path / "equal.csv"
        equal.write_text("0.0,0.01\n0.0,0.02\n0.0,0.03\n")
        with pytest.raises(ValueError, match="span is zero"):
            TraceArrivals(f"file:{equal}", loop=True)
        # without looping the same traces are fine (finite replay)
        assert TraceArrivals(f"file:{single}", loop=False).digest
        assert TraceArrivals(f"file:{equal}", loop=False).digest


class TestJsonCodec:
    ZOO = [
        ScenarioSpec(),
        ScenarioSpec(
            arrival=PartlyOpenArrivals(
                session_rate=5.0, mean_session_length=4.0, think_time_s=0.1
            ),
            topology=TopologySpec(
                shards=2, routing="weighted", routing_weights=(1.0, 3.0)
            ),
            control=StaticMpl(12),
            seed=3,
        ),
        ScenarioSpec(
            arrival=ModulatedArrivals(
                SinusoidRate(base=40.0, amplitude=10.0, period=15.0, phase=0.5)
            ),
            control=FeedbackMpl(initial_mpl=4, window=80),
        ),
        ScenarioSpec(
            arrival=ModulatedArrivals(
                PiecewiseRate(points=((0.0, 10.0), (4.0, 20.0)), period=8.0)
            ),
        ),
        ScenarioSpec(
            workload=WorkloadRef(
                setup_id=None, trace="auction-site", trace_transactions=500
            ),
            arrival=TraceArrivals(
                "auction-site", transactions=500, time_scale=2.0, loop=True
            ),
        ),
        ScenarioSpec(
            policy="priority",
            high_priority_fraction=0.1,
            internal=InternalPolicy.pow_locks(),
            control=PerClassSlo(high_p95_target_s=0.3),
        ),
        ScenarioSpec(
            internal=InternalPolicy.cpu_priorities(),
            arrival_rate=7.5,
            measurement=MeasurementSpec(
                transactions=250, warmup_fraction=0.1,
                metrics=("standard", "percentiles"),
            ),
            tag="zoo",
        ),
    ]

    @pytest.mark.parametrize("spec", ZOO, ids=range(len(ZOO)))
    def test_round_trip(self, spec):
        clone = ScenarioSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.fingerprint() == spec.fingerprint()

    def test_round_trip_is_canonical(self):
        spec = self.ZOO[1]
        once = spec.to_json(indent=2)
        twice = ScenarioSpec.from_json(once).to_json(indent=2)
        assert once == twice

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec.from_json_dict({"unknown_knob": 1})
        with pytest.raises(ValueError):
            ScenarioSpec.from_json_dict({"workload": {"setup": 1}})
        with pytest.raises(ValueError):
            ScenarioSpec.from_json_dict({"measurement": {"warmup": 0.1}})

    def test_bad_payload_shapes_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec.from_json_dict([1, 2])
        with pytest.raises(ValueError):
            ScenarioSpec.from_json_dict({"workload": "setup 1"})
        with pytest.raises(ValueError):
            ScenarioSpec.from_json_dict({"arrival": {"rate": 5.0}})
        with pytest.raises(ValueError):
            ScenarioSpec.from_json_dict({"arrival": {"type": "nope"}})
        with pytest.raises(ValueError):
            ScenarioSpec.from_json_dict({"control": {"type": "nope"}})
        with pytest.raises(ValueError):
            ScenarioSpec.from_json_dict(
                {"arrival": {"type": "modulated", "rate_function": {"base": 1}}}
            )
        with pytest.raises(ValueError):
            ScenarioSpec.from_json_dict(
                {"arrival": {"type": "modulated",
                             "rate_function": {"type": "nope"}}}
            )
        with pytest.raises(ValueError):
            ScenarioSpec.from_json_dict({"internal": "pow"})
        with pytest.raises(ValueError):
            ScenarioSpec.from_json_dict({"internal": {"locks": "pow"}})
        with pytest.raises(ValueError):
            ScenarioSpec.from_json_dict({"control": {"mpl": 5}})

    def test_unregistered_spec_cannot_encode(self):
        class Rogue(StaticMpl):
            pass

        with pytest.raises(ValueError):
            ScenarioSpec(control=Rogue(2)).to_json_dict()

    def test_control_base_class_is_abstract(self):
        from repro.core.scenario import ControlSpec

        with pytest.raises(NotImplementedError):
            ControlSpec().config_mpl()
        with pytest.raises(NotImplementedError):
            ControlSpec().apply(None, None)

    def test_internal_policy_round_trip(self):
        for policy in (InternalPolicy.pow_locks(), InternalPolicy.cpu_priorities()):
            spec = ScenarioSpec(internal=policy)
            assert ScenarioSpec.from_json(spec.to_json()).internal == policy


class TestTraceArrivals:
    def test_digest_is_stable_and_content_sensitive(self):
        a = TraceArrivals("online-retailer", transactions=300)
        b = TraceArrivals("online-retailer", transactions=300)
        assert a.digest and a.digest == b.digest
        assert TraceArrivals("online-retailer", transactions=301).digest != a.digest
        assert TraceArrivals("online-retailer", transactions=300, seed=1).digest != a.digest
        assert TraceArrivals("auction-site", transactions=300).digest != a.digest

    def test_digest_changes_scenario_fingerprint(self):
        def fingerprint(**kwargs):
            return ScenarioSpec(
                arrival=TraceArrivals("online-retailer", **kwargs)
            ).fingerprint()

        assert fingerprint(transactions=300) == fingerprint(transactions=300)
        assert fingerprint(transactions=300) != fingerprint(transactions=400)

    def test_replay_is_deterministic(self):
        spec = ScenarioSpec(
            workload=WorkloadRef(
                setup_id=None, trace="online-retailer", trace_transactions=600
            ),
            arrival=TraceArrivals("online-retailer", transactions=600),
            control=StaticMpl(8),
            measurement=MeasurementSpec(transactions=300),
        )
        assert execute_scenario(spec).result == execute_scenario(spec).result

    def test_replay_follows_trace_timestamps(self):
        trace = get_trace("online-retailer", 50)
        system = build_system(
            ScenarioSpec(
                arrival=TraceArrivals("online-retailer", transactions=50),
                control=StaticMpl(4),
            )
        )
        assert isinstance(system.source, TraceReplay)
        records = system.run_transactions(50)
        arrivals = sorted(r.arrival_time for r in records)
        expected = [r.arrival_time for r in trace.records]
        assert arrivals == pytest.approx(expected)

    def test_time_scale_stretches_arrivals(self):
        system = build_system(
            ScenarioSpec(
                arrival=TraceArrivals(
                    "online-retailer", transactions=50, time_scale=2.0
                ),
                control=StaticMpl(4),
            )
        )
        records = system.run_transactions(50)
        trace = get_trace("online-retailer", 50)
        assert min(r.arrival_time for r in records) == pytest.approx(
            2.0 * trace.records[0].arrival_time
        )

    def test_loop_wraps_past_trace_end(self):
        system = build_system(
            ScenarioSpec(
                arrival=TraceArrivals(
                    "online-retailer", transactions=40, loop=True
                ),
                control=StaticMpl(4),
            )
        )
        records = system.run_transactions(100)
        assert len(records) == 100
        assert system.source.replayed >= 100

    def test_demo_trace_scenarios_run(self):
        demos = demo_scenarios()
        for name in ("trace-retailer", "trace-auction"):
            outcome = execute_scenario(
                dataclasses.replace(
                    demos[name], measurement=MeasurementSpec(
                        transactions=200, metrics=("standard", "percentiles")
                    )
                )
            )
            assert outcome.result.completed > 0
            assert outcome.result.throughput > 0
            assert outcome.percentiles["all"]["p95"] > 0


class TestFeedbackScenario:
    def test_feedback_runs_from_spec_and_reports(self):
        spec = ScenarioSpec(
            control=FeedbackMpl(
                initial_mpl=None, window=80, baseline_transactions=400
            ),
            measurement=MeasurementSpec(transactions=200),
            seed=5,
        )
        outcome = execute_scenario(spec)
        assert isinstance(outcome.control, ControllerReport)
        assert outcome.control.final_mpl >= 1
        assert outcome.result.completed >= 160
        # the reported window excludes the control phase
        assert outcome.result.mpl == outcome.control.final_mpl

    def test_explicit_baseline_skips_the_twin_run(self):
        """A pre-measured baseline produces the same loop as a twin run."""
        twin = ScenarioSpec(control=StaticMpl(None),
                            measurement=MeasurementSpec(transactions=400),
                            seed=5)
        reference = execute_scenario(twin).result
        injected = ScenarioSpec(
            control=FeedbackMpl(
                initial_mpl=4, window=80,
                baseline_throughput=reference.throughput,
                baseline_response_time=reference.mean_response_time,
            ),
            measurement=MeasurementSpec(transactions=200),
            seed=5,
        )
        measured = ScenarioSpec(
            control=FeedbackMpl(
                initial_mpl=4, window=80, baseline_transactions=400,
            ),
            measurement=MeasurementSpec(transactions=200),
            seed=5,
        )
        assert (execute_scenario(injected).control
                == execute_scenario(measured).control)

    def test_open_arrival_spec_jump_starts_like_arrival_rate(self):
        """The §4.2 RT model applies however the open regime is spelled."""
        from repro.core.tuner import model_jump_start
        from repro.core.controller import Thresholds

        reference = execute_scenario(ScenarioSpec(
            arrival_rate=40.0, control=StaticMpl(None),
            measurement=MeasurementSpec(transactions=400), seed=5,
        )).result
        legacy = ScenarioSpec(arrival_rate=40.0)
        spelled = ScenarioSpec(arrival=OpenArrivals(rate=40.0))
        assert legacy.is_open and spelled.is_open
        thresholds = Thresholds()
        assert model_jump_start(
            legacy.build_config(), reference, thresholds, is_open=legacy.is_open
        ) == model_jump_start(
            spelled.build_config(), reference, thresholds, is_open=spelled.is_open
        )

    def test_feedback_on_cluster_tunes_each_shard(self):
        spec = ScenarioSpec(
            arrival=PartlyOpenArrivals.for_load(80.0, 4.0, think_time_s=0.1),
            topology=TopologySpec(shards=2, routing="least_in_flight"),
            control=FeedbackMpl(
                initial_mpl=2, window=60, baseline_transactions=300
            ),
            measurement=MeasurementSpec(transactions=200),
            seed=5,
        )
        outcome = execute_scenario(spec)
        assert len(outcome.control.shards) == 2
        assert all(r.final_mpl >= 1 for r in outcome.control.shards)
        payload = outcome.to_json_dict()
        assert payload["control"]["type"] == "shards"
        assert len(payload["control"]["shards"]) == 2


class TestPerClassSlo:
    """The new controller: SLO held, LOW throughput sacrificed knowingly."""

    @staticmethod
    def _scenario(target, seed=7, **kwargs):
        return ScenarioSpec(
            workload=WorkloadRef(setup_id=1),
            policy="priority",
            high_priority_fraction=0.1,
            control=PerClassSlo(
                high_p95_target_s=target, initial_mpl=6, window=120,
                max_mpl=32, max_iterations=15, **kwargs,
            ),
            measurement=MeasurementSpec(
                transactions=500, metrics=("standard", "percentiles")
            ),
            seed=seed,
        )

    def test_converges_under_time_varying_load(self):
        demo = demo_scenarios()["slo-tv"]
        outcome = execute_scenario(demo)
        report = outcome.control
        assert isinstance(report, SloReport)
        assert report.converged
        # the accepted operating point met the SLO when observed
        accepted = [o for o in report.trajectory
                    if o.feasible and o.mpl == report.final_mpl]
        assert accepted
        assert accepted[-1].high_p95 <= demo.control.high_p95_target_s

    def test_high_p95_held_under_target(self):
        scenario = self._scenario(0.5)
        outcome = execute_scenario(scenario)
        report = outcome.control
        assert report.converged
        final_obs = [o for o in report.trajectory if o.mpl == report.final_mpl]
        assert final_obs[-1].feasible
        assert final_obs[-1].high_p95 <= 0.5
        # measured post-control HIGH p95 stays in the target's band
        assert outcome.percentiles[str(int(Priority.HIGH))]["p95"] <= 2 * 0.5

    def test_monotone_low_throughput_sacrifice(self):
        """Tighter targets cost MPL, and below the knee, LOW throughput."""
        outcomes = [
            execute_scenario(self._scenario(target))
            for target in (0.5, 0.15, 0.06)
        ]
        finals = [o.control.final_mpl for o in outcomes]
        assert finals == sorted(finals, reverse=True)
        assert finals[0] > finals[-1]

        def low_throughput(outcome):
            low = outcome.result.count_by_class.get(int(Priority.LOW), 0)
            return outcome.result.throughput * low / outcome.result.completed

        loose, mid, tight = (low_throughput(o) for o in outcomes)
        # saturation hides the first step (both above the knee) ...
        assert mid <= loose * 1.10
        # ... but the sub-knee operating point pays visibly
        assert tight < 0.9 * loose

    def test_unattainable_target_holds_the_floor(self):
        outcome = execute_scenario(self._scenario(0.001))
        assert outcome.control.final_mpl == 1
        assert not outcome.control.converged

    def test_controller_validation(self):
        system = build_system(ScenarioSpec(control=StaticMpl(2)))
        with pytest.raises(ValueError):
            PerClassSloController(system, target_p95_s=0.0, initial_mpl=2)
        with pytest.raises(ValueError):
            PerClassSloController(system, target_p95_s=0.1, initial_mpl=0)
        with pytest.raises(ValueError):
            PerClassSloController(
                system, target_p95_s=0.1, initial_mpl=4, max_mpl=2
            )
        with pytest.raises(ValueError):
            PerClassSloController(
                system, target_p95_s=0.1, initial_mpl=2, window=1
            )
        with pytest.raises(ValueError):
            PerClassSloController(
                system, target_p95_s=0.1, initial_mpl=2, step=0
            )
        for budget in (0, -1):
            with pytest.raises(ValueError, match="max_iterations"):
                PerClassSloController(
                    system, target_p95_s=0.1, initial_mpl=2,
                    max_iterations=budget,
                )


class TestScenarioCli:
    def _write(self, tmp_path, payload):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_show_normalizes_a_spec_file(self, tmp_path, capsys):
        path = self._write(tmp_path, {"control": {"type": "static", "mpl": 5}})
        assert cli_main(["scenario", "show", path]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["control"] == {"type": "static", "mpl": 5}
        assert shown["workload"]["setup_id"] == 1

    def test_fingerprint_matches_api(self, tmp_path, capsys):
        path = self._write(tmp_path, ScenarioSpec().to_json_dict())
        assert cli_main(["scenario", "fingerprint", path, "--components"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fingerprint"] == ScenarioSpec().fingerprint()
        assert payload["components"] == ScenarioSpec().component_fingerprints()

    def test_grid_show_then_fingerprint_round_trip(self, tmp_path, capsys):
        assert cli_main(["scenario", "show", "--grid", "smoke"]) == 0
        shown = capsys.readouterr().out
        path = tmp_path / "grid.json"
        path.write_text(shown)
        assert cli_main(["scenario", "fingerprint", str(path)]) == 0
        from_file = json.loads(capsys.readouterr().out)
        assert cli_main(["scenario", "fingerprint", "--grid", "smoke"]) == 0
        direct = json.loads(capsys.readouterr().out)
        assert from_file == direct

    def test_run_per_class_slo_from_json(self, tmp_path, capsys):
        spec = ScenarioSpec(
            policy="priority",
            high_priority_fraction=0.1,
            control=PerClassSlo(
                high_p95_target_s=0.5, initial_mpl=4, window=60,
                max_mpl=16, max_iterations=6,
            ),
            measurement=MeasurementSpec(
                transactions=150, metrics=("standard", "percentiles")
            ),
        )
        path = self._write(tmp_path, spec.to_json_dict())
        out_path = tmp_path / "outcome.json"
        assert cli_main(
            ["scenario", "run", path, "--output", str(out_path)]
        ) == 0
        outcome = json.loads(out_path.read_text())
        assert outcome["control"]["type"] == "per_class_slo"
        assert outcome["control"]["final_mpl"] >= 1
        assert outcome["result"]["throughput"] > 0
        assert outcome["fingerprint"] == spec.fingerprint()
        assert outcome["percentiles"]

    def test_run_demo_by_name(self, capsys):
        assert cli_main(["scenario", "run", "--demo", "trace-retailer"]) == 0
        outcome = json.loads(capsys.readouterr().out)
        assert outcome["result"]["completed"] > 0

    def test_list_demos(self, capsys):
        assert cli_main(["scenario", "--list-demos"]) == 0
        names = capsys.readouterr().out.split()
        assert "slo-tv" in names and "trace-retailer" in names
        assert cli_main(["scenario", "show", "--list-demos"]) == 0

    def test_missing_action_errors(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["scenario"])

    def test_input_source_errors(self, tmp_path, capsys):
        assert cli_main(["scenario", "show"]) == 2
        assert cli_main(["scenario", "show", "--grid", "nope"]) == 2
        assert cli_main(["scenario", "show", "--demo", "nope"]) == 2
        assert cli_main(["scenario", "show", str(tmp_path / "missing.json")]) == 2
        path = self._write(tmp_path, {"control": {"type": "static", "mpl": 5}})
        assert cli_main(["scenario", "show", path, "--grid", "smoke"]) == 2


class TestDemos:
    def test_every_demo_builds_and_fingerprints(self):
        demos = demo_scenarios()
        assert set(demos) == {
            "trace-retailer", "trace-auction", "slo-tv", "failover",
        }
        digests = {name: spec.fingerprint() for name, spec in demos.items()}
        assert len(set(digests.values())) == len(digests)
        for spec in demos.values():
            clone = ScenarioSpec.from_json(spec.to_json())
            assert clone.fingerprint() == spec.fingerprint()


class TestScenarioV2:
    """Replica groups, faults, elasticity, timelines — the v2 axes."""

    FAULTED = dict(
        topology=TopologySpec(shards=2, replicas_per_shard=1),
        faults=FaultSpec(events=(
            KillShard(at=0.5, shard=0),
            RestoreShard(at=1.5, shard=0),
        )),
    )

    def test_topology_v2_validation(self):
        with pytest.raises(ValueError):
            TopologySpec(replicas_per_shard=-1)
        with pytest.raises(ValueError):
            TopologySpec(read_fanout="nope")
        with pytest.raises(ValueError):
            TopologySpec(election_timeout_s=-0.1)
        with pytest.raises(ValueError):
            MeasurementSpec(timeline_bucket_s=0.0)

    def test_faults_need_a_clustered_topology(self):
        with pytest.raises(ValueError):
            ScenarioSpec(faults=FaultSpec(events=(KillShard(at=1.0, shard=0),)))
        with pytest.raises(ValueError):
            # event shard out of range for the topology
            ScenarioSpec(
                topology=TopologySpec(shards=2),
                faults=FaultSpec(events=(KillShard(at=1.0, shard=2),)),
            )
        with pytest.raises(ValueError):
            ScenarioSpec(faults="kill")
        # a replicated single shard IS clustered: faults are fine
        ScenarioSpec(
            topology=TopologySpec(shards=1, replicas_per_shard=1),
            faults=FaultSpec(events=(KillShard(at=1.0, shard=0),)),
        )

    def test_elastic_needs_a_cluster_and_enough_mpl(self):
        with pytest.raises(ValueError):
            ElasticMpl(mpl=0)
        with pytest.raises(ValueError):
            ElasticMpl(interval_s=0.0)
        with pytest.raises(ValueError):
            ElasticMpl(low_watermark=0.9, high_watermark=0.5)
        with pytest.raises(ValueError):
            ElasticMpl(min_shards=0)
        with pytest.raises(ValueError):
            ScenarioSpec(control=ElasticMpl(mpl=8))  # single engine
        with pytest.raises(ValueError):
            ScenarioSpec(
                topology=TopologySpec(shards=4),
                control=ElasticMpl(mpl=2),  # cannot cover 4 shards
            )
        with pytest.raises(ValueError):
            ElasticMpl(mpl=8).apply(
                SimulatedSystem(ScenarioSpec().build_config()), ScenarioSpec()
            )

    def test_v2_axes_round_trip_with_stable_fingerprints(self):
        spec = ScenarioSpec(
            arrival=OpenArrivals(rate=90.0),
            topology=TopologySpec(
                shards=2, routing="least_in_flight",
                replicas_per_shard=1, read_fanout="least_in_flight",
                election_timeout_s=0.25,
            ),
            control=ElasticMpl(
                mpl=12, interval_s=0.5, high_watermark=0.8,
                low_watermark=0.2, min_shards=1,
            ),
            faults=FaultSpec(events=(
                KillShard(at=0.5, shard=0),
                DegradeShard(at=1.0, shard=1, factor=0.5),
                RestoreShard(at=1.5, shard=0),
            )),
            measurement=MeasurementSpec(
                transactions=200,
                metrics=("standard", "percentiles", "timeline"),
                timeline_bucket_s=0.5,
            ),
        )
        clone = ScenarioSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.fingerprint() == spec.fingerprint()
        payload = spec.to_json_dict()
        assert payload["control"]["type"] == "elastic"
        assert payload["faults"]["events"][0]["type"] == "kill"
        # the fault axis is individually fingerprinted
        assert "faults" in spec.component_fingerprints()

    def test_default_v2_fields_do_not_change_legacy_digests(self):
        """Explicitly-default v2 knobs hash like they don't exist."""
        legacy = ScenarioSpec(topology=TopologySpec(shards=2))
        explicit = ScenarioSpec(topology=TopologySpec(
            shards=2, replicas_per_shard=0, read_fanout="round_robin",
            election_timeout_s=0.5,
        ))
        assert explicit.fingerprint() == legacy.fingerprint()
        assert (
            ScenarioSpec(measurement=MeasurementSpec(timeline_bucket_s=1.0))
            .fingerprint() == ScenarioSpec().fingerprint()
        )

    def test_validate_collects_every_problem_with_paths(self):
        payload = {
            "nope": 1,
            "topology": {"shards": 0},
            "control": {"type": "wat"},
            "faults": {"events": [{"type": "zap"}], "oops": 2},
            "measurement": {"transactions": -5},
        }
        with pytest.raises(ScenarioValidationError) as excinfo:
            ScenarioSpec.from_json_dict(payload)
        paths = [path for path, _message in excinfo.value.errors]
        assert "/nope" in paths
        assert "/topology/shards" in paths
        assert "/control" in paths
        assert "/faults/oops" in paths
        assert "/faults/events/0" in paths
        assert "/measurement/transactions" in paths
        assert len(paths) >= 6
        # the message is one line per problem
        assert str(excinfo.value).count("\n") >= len(paths)

    def test_validate_reports_cross_field_problems_at_the_root(self):
        with pytest.raises(ScenarioValidationError) as excinfo:
            ScenarioSpec.from_json_dict({
                "faults": {"events": [
                    {"type": "kill", "at": 1.0, "shard": 0}
                ]},
            })
        assert any(path == "" for path, _message in excinfo.value.errors)
        with pytest.raises(ScenarioValidationError):
            ScenarioSpec.from_json_dict([1, 2])

    def test_validate_accepts_what_from_json_dict_accepts(self):
        # one decoder: the old name is the same classmethod
        assert ScenarioSpec.validate.__func__ is ScenarioSpec.from_json_dict.__func__
        for spec in (ScenarioSpec(), demo_scenarios()["failover"]):
            payload = spec.to_json_dict()
            assert ScenarioSpec.validate(payload) == spec

    def test_failover_demo_executes_with_timeline_and_fault_log(self):
        # the demo is sized so the restore (t=8s) fires mid-run
        demo = demo_scenarios()["failover"]
        outcome = execute_scenario(demo)
        assert outcome.result.completed >= 900  # 1200 minus warmup
        kinds = [fault["kind"] for fault in outcome.faults]
        assert kinds == ["kill", "restore"]
        assert outcome.faults[0]["at"] == pytest.approx(3.0)
        assert outcome.timeline
        assert {"t", "completions", "throughput", "mean_response_time",
                "p95_response_time"} <= set(outcome.timeline[0])
        payload = outcome.to_json_dict()
        assert payload["control"]["type"] == "elastic"
        assert payload["faults"] == outcome.faults
        assert payload["timeline"] == outcome.timeline
        report = outcome.control
        assert isinstance(report, ElasticReport)
        assert sum(report.final_mpls) == demo.control.mpl

    def test_timeline_works_on_a_single_engine(self):
        outcome = execute_scenario(ScenarioSpec(
            arrival_rate=50.0,
            control=StaticMpl(8),
            measurement=MeasurementSpec(
                transactions=150, metrics=("standard", "timeline"),
                timeline_bucket_s=0.5,
            ),
        ))
        assert outcome.timeline
        assert sum(row["completions"] for row in outcome.timeline) == 150
        # buckets are anchored at absolute t=0 and strictly increasing
        ts = [row["t"] for row in outcome.timeline]
        assert ts == sorted(ts)
        assert all(t == pytest.approx(round(t / 0.5) * 0.5) for t in ts)

    def test_run_failover_demo_via_cli(self, tmp_path, capsys):
        path = tmp_path / "failover.json"
        path.write_text(demo_scenarios()["failover"].to_json())
        out_path = tmp_path / "outcome.json"
        assert cli_main(
            ["scenario", "run", str(path), "--output", str(out_path)]
        ) == 0
        outcome = json.loads(out_path.read_text())
        assert outcome["control"]["type"] == "elastic"
        assert [f["kind"] for f in outcome["faults"]] == ["kill", "restore"]
        assert outcome["timeline"]

    def test_cli_reports_every_validation_problem(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "nope": 1,
            "topology": {"shards": 0},
            "faults": {"events": [{"type": "zap"}]},
        }))
        assert cli_main(["scenario", "show", str(path)]) == 2
        err = capsys.readouterr().err
        assert "/nope" in err
        assert "/topology" in err
        assert "/faults/events/0" in err


class TestTopologySpelling:
    """A run description spells its topology as ``topology=TopologySpec(...)``."""

    def test_defaults_and_topology_spelling_do_not_warn(self):
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            ScenarioSpec()
            ScenarioSpec(topology=TopologySpec(shards=2))

    def test_loose_and_topology_spellings_fingerprint_identically(self):
        loose = scenario_for(
            get_setup(1), mpl=8, shards=2, routing="least_in_flight"
        )
        explicit = ScenarioSpec(
            control=StaticMpl(8),
            topology=TopologySpec(shards=2, routing="least_in_flight"),
        )
        assert loose.fingerprint() == explicit.fingerprint()
        assert loose.topology == explicit.topology

    def test_spec_for_uses_the_topology_spelling(self):
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            plain = scenario_for(get_setup(1), mpl=4)
            sharded = scenario_for(
                get_setup(1), mpl=4, shards=2, routing="least_in_flight"
            )
        assert plain.topology == TopologySpec()
        assert sharded.topology == TopologySpec(
            shards=2, routing="least_in_flight"
        )


NAN = float("nan")

#: One malformed payload per row: (dotted field, bad value, the path the
#: decoder must report).  Every one of these used to decode.
MALFORMED = [
    ("seed", "abc", "/seed"),
    ("seed", 1.5, "/seed"),
    ("seed", True, "/seed"),
    ("policy", "nope", "/policy"),
    ("tag", 5, "/tag"),
    ("arrival_rate", -1, "/arrival_rate"),
    ("arrival_rate", "x", "/arrival_rate"),
    ("measurement.transactions", 10.5, "/measurement/transactions"),
    ("measurement.transactions", True, "/measurement/transactions"),
    ("measurement.timeline_bucket_s", NAN, "/measurement/timeline_bucket_s"),
    ("topology.shards", 2.5, "/topology/shards"),
    ("topology.shards", True, "/topology/shards"),
    ("topology.election_timeout_s", NAN, "/topology/election_timeout_s"),
    ("control.mpl", 2.5, "/control/mpl"),
    ("workload.setup_id", "1", "/workload/setup_id"),
    ("workload.setup_id", 99, "/workload/setup_id"),
    ("arrival", {"type": "open", "rate": NAN}, "/arrival/rate"),
    ("arrival", {"type": "open", "rate": float("inf")}, "/arrival/rate"),
    ("arrival", {"type": "closed", "num_clients": 2.5}, "/arrival/num_clients"),
    ("control", {"type": "feedback", "window": 10.5}, "/control/window"),
    ("control", {"type": "elastic", "interval_s": NAN}, "/control/interval_s"),
    (
        "control",
        {"type": "per_class_slo", "high_p95_target_s": NAN},
        "/control/high_p95_target_s",
    ),
    (
        "arrival",
        {"type": "modulated", "rate_function": {
            "type": "sinusoid", "base": NAN, "amplitude": 1.0, "period": 5.0,
        }},
        "/arrival/rate_function/base",
    ),
]


class TestMalformedPayloads:
    """The decoder checks every field's type and rules, at its path."""

    @pytest.mark.parametrize(
        "field,value,path", MALFORMED,
        ids=[f"{field}={value!r}" for field, value, _path in MALFORMED],
    )
    def test_rejected_at_the_field_path(self, field, value, path):
        payload = ScenarioSpec().to_json_dict()
        *parents, name = field.split(".")
        holder = payload
        for parent in parents:
            holder = holder[parent]
        holder[name] = value
        # through JSON text, as a spec file arrives
        text = json.dumps(payload)
        with pytest.raises(ScenarioValidationError) as excinfo:
            ScenarioSpec.from_json(text)
        assert [where for where, _message in excinfo.value.errors] == [path]

    def test_policy_names_follow_make_policy(self):
        assert ScenarioSpec.from_json_dict({"policy": "FIFO"}).policy == "FIFO"
        with pytest.raises(ValueError, match="/policy"):
            ScenarioSpec(policy="nope")

    def test_python_constructors_meet_the_same_rules(self):
        with pytest.raises(ScenarioValidationError, match="/rate"):
            OpenArrivals(rate=float("nan"))
        with pytest.raises(ScenarioValidationError, match="/shards"):
            TopologySpec(shards=2.5)
        # an int where a float is annotated is kept as it is: the two
        # spellings are distinct specs with distinct fingerprints
        assert OpenArrivals(rate=5).rate == 5
        assert isinstance(OpenArrivals(rate=5).rate, int)
        assert (
            ScenarioSpec(arrival=OpenArrivals(rate=5)).fingerprint()
            != ScenarioSpec(arrival=OpenArrivals(rate=5.0)).fingerprint()
        )

    @pytest.mark.parametrize("control", [
        {"type": "static", "mpl": 2},
        {"type": "feedback", "initial_mpl": 2},
        {"type": "elastic", "mpl": 2},
    ], ids=["static", "feedback", "elastic"])
    def test_mpl_below_the_shard_count_is_refused(
        self, control, tmp_path, capsys
    ):
        # static and feedback payloads used to decode, then crash in
        # split_mpl when fingerprinted or run (exit 1 with a traceback)
        payload = {"topology": {"shards": 4}, "control": control}
        with pytest.raises(ScenarioValidationError) as excinfo:
            ScenarioSpec.from_json_dict(payload)
        assert [where for where, _message in excinfo.value.errors] == [""]
        assert "cannot cover 4 shards" in str(excinfo.value)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload))
        assert cli_main(["scenario", "fingerprint", str(path)]) == 2
        assert cli_main(["scenario", "run", str(path)]) == 2
        assert "cannot cover 4 shards" in capsys.readouterr().err

    def test_cli_refuses_a_nan_rate_without_simulating(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.core import scenario as scenario_module

        def no_runs(spec):
            raise AssertionError("a rejected spec must not be simulated")

        monkeypatch.setattr(scenario_module, "execute_scenario", no_runs)
        path = tmp_path / "nan.json"
        path.write_text('{"arrival": {"type": "open", "rate": NaN}}')
        assert cli_main(["scenario", "run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "/arrival/rate" in captured.err


#: sha256 of the newline-joined ``spec.to_json()`` of every registered
#: grid (fast and full) and every demo.  Result-cache entries and the
#: fuzz corpus are written in this encoding; the golden corpus pins
#: fingerprints only, so this is what pins the wire format itself.
WIRE_DIGESTS = {
    ("grid", "2", True): "2034c98e9f6088c0f4aef07f4666e1a442e038d68edd70a869f6e8fbd0ecfed4",
    ("grid", "2", False): "bcedd500fd10663aa7bffebd13dc75ede4b9d991aa7400c940337991f1cf51e0",
    ("grid", "3", True): "31d146fd80adb24e25502ba1d2a4b7927d8d28c93d73196262bdfc1743d4cd34",
    ("grid", "3", False): "adb65f6fa909789f0814a5666078cdb37d35176e340b006ceafc72956ee4b936",
    ("grid", "4", True): "3b8cef8ffc6bb200d4570b35e16151d388b2638db304fe5be5c296e7570316f3",
    ("grid", "4", False): "8c821ff414258f35c19e8e017168374006dd00879ef67f18df1baffdfc483b34",
    ("grid", "5", True): "887e9cebe8603001abf4f746e71f7ec1b572b36e927ab187aea89cc80a597025",
    ("grid", "5", False): "9defdcf2d8e4d34b810c484397597328f65fe66111fc401b3a3168c7353e45ff",
    ("grid", "smoke", True): "726e7eb76bd69bcba6f9d975a9456f8972188d89aea05169b08e7a9082a497f1",
    ("grid", "smoke", False): "2379b6774786523a9065b78daa4c4930ab37b6cdd36ac7fe6b53f0dcc148eefd",
    ("grid", "sh", True): "738623d6c1090a2cea65c142739dc42ebe333c3af5afb58076c20926a318b169",
    ("grid", "sh", False): "e90d5276734d26b61265ce4f70036fe218e54729291243e17937e274a572c552",
    ("grid", "ft", True): "a516e965a75ed9d9a35a99689207d953656ff1cfed75e4aa5d202587fc9d4ddf",
    ("grid", "ft", False): "60ed271f679cff3c785035c179d64ed777051d11d314df75786f7b6aede6ccda",
    ("grid", "rf", True): "a03da04fdce0124706077f56e4832c7b1892d86888160ac829df9d26af6bbb6f",
    ("grid", "rf", False): "5c5d7416bb9e72b4e3c9d8a7f63759d80fff5d0cf3c2e84c64c856e4d2cc07a9",
    ("grid", "rs", True): "9506e87f1f1f2affafeda12382ff535f18ffc9b617e9dae0f29b7caa52eff786",
    ("grid", "rs", False): "a3a1d3e549a9a4908afda85e184851cd5ddeac4741035cac25c4806ebaa10ea6",
    ("grid", "xs", True): "b0c006c41743cf032219f16b837700281bc439e995600e51416afff722d9445d",
    ("grid", "xs", False): "d12534a51a2d55783d9117d4e44e30042c6db06e9e6fd85542861520e541a760",
    ("grid", "es", True): "44af5fc9c13b1d840dfd7f467ec68ef79f7a45b0f35fd5e99ab6165aeaab5389",
    ("grid", "es", False): "05e07b5fecb484afa2fd57606eb4378b29002077dfb7c13541af22d0950307ae",
    ("grid", "po", True): "691b2edc129fdcfbf7190234aa607af5c593005de216bdc2e2029af774304096",
    ("grid", "po", False): "8b322bdfdafe5ed249bd3d2a0e18156c957dc28c853484cc75b62624e44bc53f",
    ("demo", "trace-retailer", None): "11e494b94cf70bd706ab383b8dedbb4479cfd093d5b45ef62665da7eaea2d996",
    ("demo", "trace-auction", None): "01e8a577957fce222975aabbc15a6e293d61fff6c20464f7b97fb50b0f53dc1d",
    ("demo", "slo-tv", None): "2e63245cd9c6746d184bc0686c1640c79480ac1a58e075681712858b68977917",
    ("demo", "failover", None): "7c10b17e06ee276b90f977f6d4a7d3de8a12bd86b30ec27704cc2dc282984864",
}


class TestWireFormat:
    def test_every_grid_and_demo_encodes_as_pinned(self):
        def digest(specs):
            text = "\n".join(spec.to_json() for spec in specs)
            return hashlib.sha256(text.encode()).hexdigest()

        got = {}
        for key, builder in figures.FIGURE_GRIDS.items():
            for fast in (True, False):
                got[("grid", key, fast)] = digest(builder(fast=fast))
        for name, spec in demo_scenarios().items():
            got[("demo", name, None)] = digest([spec])
        assert got == WIRE_DIGESTS
