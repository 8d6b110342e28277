"""The scenario fuzzer: walker determinism, oracles, shrinker, corpus.

The fuzzer is itself part of the reproduction's safety net, so it gets
the same treatment as the simulator: the walk must be a pure function
of its seed, every spec it emits must survive the codec round trip
(the one decoder accepts it), the shrinker must converge on strictly-smaller reproducers, and
the checked-in corpus must replay green from any working directory.
"""

import dataclasses
import json
import os

import pytest

from repro.core import spec_codec

from repro.core.faults import FaultSpec, KillShard, RestoreShard
from repro.core.resilience import ResilienceSpec
from repro.core.scenario import (
    ClusterSlo,
    MeasurementSpec,
    ScenarioSpec,
    ScenarioValidationError,
    StaticMpl,
    TopologySpec,
    WorkloadRef,
)
from repro.experiments import fuzz
from repro.experiments.fuzz import (
    ORACLES,
    OracleFailure,
    ScenarioWalker,
    check_scenario,
    fault_timeline_is_safe,
    replay_corpus,
    run_fuzz,
    shrink_scenario,
    walk_rules_hold,
    write_reproducer,
)

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "data", "fuzz_corpus")


class TestWalkerDeterminism:
    def test_same_seed_same_fingerprint_sequence(self):
        first = [s.fingerprint() for s in ScenarioWalker(seed=7).specs(30)]
        second = [s.fingerprint() for s in ScenarioWalker(seed=7).specs(30)]
        assert first == second

    def test_different_seeds_diverge(self):
        first = [s.fingerprint() for s in ScenarioWalker(seed=0).specs(12)]
        second = [s.fingerprint() for s in ScenarioWalker(seed=1).specs(12)]
        assert first != second

    def test_walk_explores_rather_than_repeats(self):
        fingerprints = [
            s.fingerprint() for s in ScenarioWalker(seed=0).specs(40)
        ]
        # a mutation step can occasionally be a no-op, but the walk must
        # not get stuck in one place
        assert len(set(fingerprints)) >= 30


class TestWalkerValidity:
    def test_every_emitted_spec_validates_and_round_trips(self):
        for spec in ScenarioWalker(seed=3).specs(60):
            decoded = ScenarioSpec.from_json_dict(spec.to_json_dict())
            assert decoded.fingerprint() == spec.fingerprint()

    def test_fault_timelines_are_always_safe(self):
        for spec in ScenarioWalker(seed=5).specs(80):
            if spec.faults is None:
                continue
            assert fault_timeline_is_safe(
                spec.faults.events,
                spec.topology.shards,
                spec.topology.replicas_per_shard,
            )

    def test_walk_exercises_the_resilience_axis(self):
        resilient = [
            spec for spec in ScenarioWalker(seed=4).specs(40)
            if spec.resilience is not None
        ]
        assert len(resilient) >= 4
        # the interesting sub-mechanisms each show up in the walk
        assert any(s.resilience.max_attempts > 0 for s in resilient)
        assert any(s.resilience.breaker_enabled for s in resilient)

    def test_walk_exercises_the_distributed_axis(self):
        distributed = [
            spec for spec in ScenarioWalker(seed=4).specs(40)
            if spec.distributed is not None
        ]
        assert len(distributed) >= 4
        # reconciliation keeps the 2PC shape runnable: enough shards
        # for the fan-out, no replica groups, timeout-abort armed
        for spec in distributed:
            assert spec.topology.shards >= 2
            assert spec.topology.replicas_per_shard == 0
            assert 2 <= spec.distributed.fanout_k <= spec.topology.shards
            assert spec.distributed.abort_on_prepare_timeout
        assert any(s.distributed.fanout_k > 2 for s in distributed)

    def test_resilient_specs_respect_the_cross_field_rules(self):
        # _reconcile must deliver constructor-valid combinations: the
        # constructor itself enforces these, so reaching it with a bad
        # combo would raise inside specs()
        for spec in ScenarioWalker(seed=2).specs(60):
            if spec.resilience is None:
                continue
            assert spec.topology.replicas_per_shard == 0
            if spec.resilience.breaker_enabled:
                assert spec.topology.shards >= 2
            if spec.resilience.queue_cap is not None:
                assert spec.is_open


class TestCodecDrivenWalk:
    """The walk draws from the spec codec, so its coverage follows the
    codec: every union member and every optional axis, no hand list."""

    def test_bounded_walk_reaches_every_union_member_and_optional_axis(self):
        optional_axes = {
            name for name, field in spec_codec.plan(ScenarioSpec).items()
            if spec_codec.shape(field.hint)[0] == "optional"
        }
        reached, set_axes, unset_axes = set(), set(), set()

        def visit(value):
            if dataclasses.is_dataclass(value):
                reached.add(type(value))
                for field in dataclasses.fields(value):
                    visit(getattr(value, field.name))
            elif isinstance(value, tuple):
                for item in value:
                    visit(item)

        for spec in ScenarioWalker(seed=0).specs(200):
            assert walk_rules_hold(spec)
            visit(spec)
            for name in optional_axes:
                target = set_axes if getattr(spec, name) is not None else unset_axes
                target.add(name)
        for base, members in spec_codec.UNIONS.items():
            missing = set(members.values()) - reached
            assert not missing, f"{base.__name__}: never drew {missing}"
        assert ClusterSlo in reached
        assert set_axes == unset_axes == optional_axes

    def test_shrink_replaces_a_union_member_with_the_field_default(
        self, monkeypatch
    ):
        def needs_shards(ctx):
            if ctx.spec.topology.shards >= 2:
                raise OracleFailure("sharded specs are (pretend-)broken")

        monkeypatch.setitem(fuzz.ORACLES, "toy", needs_shards)
        monkeypatch.setattr(fuzz, "_STRUCTURAL", fuzz._STRUCTURAL + ("toy",))

        spec = ScenarioSpec(
            topology=TopologySpec(shards=2),
            control=ClusterSlo(initial_mpl=4, window=30, max_iterations=2),
            high_priority_fraction=0.2,
            measurement=MeasurementSpec(transactions=60),
            arrival_rate=60.0,
        )
        minimized = shrink_scenario(spec, "toy", max_rounds=30)
        assert minimized.topology.shards == 2
        assert minimized.control == ScenarioSpec().control


class TestFaultTimelineSafety:
    def test_single_survivor_is_safe(self):
        events = (KillShard(at=0.4, shard=0),)
        assert fault_timeline_is_safe(events, shards=2, replicas=0)

    def test_killing_every_shard_is_unsafe(self):
        events = (KillShard(at=0.4, shard=0), KillShard(at=0.6, shard=1))
        assert not fault_timeline_is_safe(events, shards=2, replicas=0)

    def test_restore_revives_a_shard_for_later_kills(self):
        events = (
            KillShard(at=0.4, shard=0),
            RestoreShard(at=0.8, shard=0),
            KillShard(at=1.0, shard=1),
        )
        assert fault_timeline_is_safe(events, shards=2, replicas=0)

    def test_order_is_by_time_not_tuple_position(self):
        # same events, shuffled: the restore at 0.8 still precedes the
        # kill at 1.0, so the timeline stays safe
        events = (
            KillShard(at=1.0, shard=1),
            RestoreShard(at=0.8, shard=0),
            KillShard(at=0.4, shard=0),
        )
        assert fault_timeline_is_safe(events, shards=2, replicas=0)

    def test_replicas_do_not_relax_the_model(self):
        events = (KillShard(at=0.4, shard=0), KillShard(at=0.6, shard=1))
        assert not fault_timeline_is_safe(events, shards=2, replicas=2)


class TestOracles:
    def test_clean_scenario_passes_every_oracle(self):
        spec = ScenarioSpec(
            topology=TopologySpec(shards=2),
            control=StaticMpl(mpl=6),
            measurement=MeasurementSpec(transactions=40),
            arrival_rate=50.0,
            seed=3,
        )
        assert check_scenario(spec, check_jobs=True) is None

    def test_oracle_names_are_the_report_vocabulary(self):
        assert set(ORACLES) == {
            "codec-roundtrip",
            "conservation",
            "mpl-sanity",
            "disposition",
            "atomicity",
            "replay",
            "jobs-invariance",
        }

    def test_resilient_scenario_passes_every_oracle(self):
        spec = ScenarioSpec(
            topology=TopologySpec(shards=2, routing="least_in_flight"),
            control=StaticMpl(mpl=8),
            resilience=ResilienceSpec(
                deadline_s=1.0, max_attempts=1, base_backoff_s=0.01,
                jitter_fraction=0.5, queue_cap=12,
            ),
            measurement=MeasurementSpec(transactions=60),
            arrival_rate=60.0,
            seed=4,
        )
        assert check_scenario(spec, check_jobs=True) is None


class TestShrinker:
    def _rich_spec(self):
        return ScenarioSpec(
            workload=WorkloadRef(setup_id=2),
            topology=TopologySpec(
                shards=2, routing="least_in_flight", replicas_per_shard=1,
            ),
            control=StaticMpl(mpl=8),
            faults=FaultSpec(events=(
                KillShard(at=0.4, shard=0),
                RestoreShard(at=1.0, shard=0),
            )),
            measurement=MeasurementSpec(
                transactions=120,
                metrics=("standard", "percentiles", "timeline"),
            ),
            high_priority_fraction=0.2,
            arrival_rate=60.0,
            seed=9,
        )

    def test_shrink_converges_to_a_simpler_failing_spec(self, monkeypatch):
        def toy_oracle(ctx):
            raise OracleFailure("toy: fails on every spec")

        # register as a structural oracle so shrinking never has to
        # execute candidate scenarios
        monkeypatch.setitem(fuzz.ORACLES, "toy", toy_oracle)
        monkeypatch.setattr(fuzz, "_STRUCTURAL", fuzz._STRUCTURAL + ("toy",))

        spec = self._rich_spec()
        minimized = shrink_scenario(spec, "toy", max_rounds=30)
        verdict = check_scenario(minimized)
        assert verdict is not None and verdict[0] == "toy"
        assert minimized.faults is None
        assert minimized.topology.replicas_per_shard == 0
        assert minimized.measurement.transactions <= 30
        assert minimized.measurement.metrics == ("standard",)
        assert minimized.high_priority_fraction == 0.0

    def test_shrink_preserves_the_failing_property(self, monkeypatch):
        def needs_faults(ctx):
            if ctx.spec.faults is not None:
                raise OracleFailure("faulted specs are (pretend-)broken")

        monkeypatch.setitem(fuzz.ORACLES, "toy", needs_faults)
        monkeypatch.setattr(fuzz, "_STRUCTURAL", fuzz._STRUCTURAL + ("toy",))

        minimized = shrink_scenario(self._rich_spec(), "toy", max_rounds=30)
        # everything else shrinks, but the faults axis must survive —
        # dropping it would make the failure vanish
        assert minimized.faults is not None
        assert minimized.topology.shards >= 2

    def test_shrink_simplifies_the_resilience_axis(self, monkeypatch):
        def toy_oracle(ctx):
            raise OracleFailure("toy: fails on every spec")

        monkeypatch.setitem(fuzz.ORACLES, "toy", toy_oracle)
        monkeypatch.setattr(fuzz, "_STRUCTURAL", fuzz._STRUCTURAL + ("toy",))

        spec = ScenarioSpec(
            topology=TopologySpec(shards=2, routing="least_in_flight"),
            control=StaticMpl(mpl=8),
            resilience=ResilienceSpec(
                deadline_s=1.0, high_deadline_s=3.0, max_attempts=2,
                base_backoff_s=0.05, jitter_fraction=0.5, queue_cap=8,
                breaker_enabled=True,
            ),
            measurement=MeasurementSpec(transactions=100),
            arrival_rate=60.0,
            seed=6,
        )
        minimized = shrink_scenario(spec, "toy", max_rounds=30)
        # the whole axis is droppable for an axis-independent failure
        assert minimized.resilience is None

    def test_shrink_keeps_resilience_when_the_failure_needs_it(
        self, monkeypatch
    ):
        def needs_resilience(ctx):
            if ctx.spec.resilience is not None:
                raise OracleFailure("resilient specs are (pretend-)broken")

        monkeypatch.setitem(fuzz.ORACLES, "toy", needs_resilience)
        monkeypatch.setattr(fuzz, "_STRUCTURAL", fuzz._STRUCTURAL + ("toy",))

        spec = ScenarioSpec(
            topology=TopologySpec(shards=2, routing="least_in_flight"),
            control=StaticMpl(mpl=8),
            resilience=ResilienceSpec(
                deadline_s=1.0, high_deadline_s=3.0, max_attempts=2,
                base_backoff_s=0.05, jitter_fraction=0.5, queue_cap=8,
                breaker_enabled=True,
            ),
            measurement=MeasurementSpec(transactions=100),
            arrival_rate=60.0,
            seed=6,
        )
        minimized = shrink_scenario(spec, "toy", max_rounds=30)
        assert minimized.resilience is not None
        # ...but the knobs the failure does not need are simplified away
        assert not minimized.resilience.breaker_enabled
        assert minimized.resilience.queue_cap is None
        assert minimized.resilience.max_attempts == 0
        assert minimized.resilience.jitter_fraction == 0.0
        assert minimized.resilience.high_deadline_s is None


class TestCorpus:
    def test_checked_in_corpus_replays_green(self):
        failures = replay_corpus(CORPUS_DIR)
        assert failures == []

    def test_corpus_has_the_contracted_minimum(self):
        entries = [
            name for name in os.listdir(CORPUS_DIR) if name.endswith(".json")
        ]
        assert len(entries) >= 3

    def test_reproducer_round_trip(self, tmp_path):
        spec = ScenarioSpec(
            topology=TopologySpec(shards=2),
            measurement=MeasurementSpec(transactions=40),
            arrival_rate=45.0,
            seed=4,
        )
        path = write_reproducer(
            str(tmp_path), spec, "conservation", "exemplar", seed=0,
            iteration=1,
        )
        payload = json.loads(open(path, encoding="utf-8").read())
        assert payload["format"] == fuzz.CORPUS_FORMAT
        assert payload["fingerprint"] == spec.fingerprint()
        assert replay_corpus(str(tmp_path)) == []

    def test_replay_flags_entries_the_validator_now_accepts(self, tmp_path):
        # an expect=validation_error entry that the decoder accepts is
        # a regression: the guard it pinned has been lost
        payload = {
            "format": fuzz.CORPUS_FORMAT,
            "expect": "validation_error",
            "oracle": "validate-accepts",
            "spec": ScenarioSpec().to_json_dict(),
        }
        target = tmp_path / "repro-bogus.json"
        target.write_text(json.dumps(payload))
        failures = replay_corpus(str(tmp_path))
        assert len(failures) == 1
        assert "accepted" in failures[0]


class TestCampaign:
    def test_small_campaign_is_deterministic_and_green(self):
        first = run_fuzz(seed=11, iterations=6, check_jobs_every=3)
        second = run_fuzz(seed=11, iterations=6, check_jobs_every=3)
        assert first.ok
        assert first.jobs_checked == 2
        assert first.fingerprints == second.fingerprints
        assert len(first.fingerprints) == 6

    def test_report_serializes(self):
        report = run_fuzz(seed=2, iterations=2, check_jobs_every=0)
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["fuzzer"] == "scenario-walk"
        assert payload["iterations"] == 2
        assert payload["failures"] == []

    def test_failures_produce_minimized_reproducers(self, tmp_path,
                                                    monkeypatch):
        def toy_oracle(ctx):
            raise OracleFailure("every spec is (pretend-)broken")

        monkeypatch.setitem(fuzz.ORACLES, "toy", toy_oracle)
        monkeypatch.setattr(fuzz, "_STRUCTURAL", fuzz._STRUCTURAL + ("toy",))

        report = run_fuzz(
            seed=0, iterations=2, check_jobs_every=0,
            corpus_dir=str(tmp_path),
        )
        assert not report.ok
        failure = report.failures[0]
        assert failure.oracle == "toy"
        assert failure.minimized is not None
        assert failure.reproducer_path is not None
        written = json.loads(
            open(failure.reproducer_path, encoding="utf-8").read()
        )
        assert written["oracle"] == "toy"
        decoded = ScenarioSpec.from_json_dict(written["spec"])
        assert decoded.fingerprint() == failure.minimized.fingerprint()


class TestCli:
    def test_fuzz_cli_green_run(self, tmp_path, capsys):
        from repro.experiments.__main__ import fuzz_main

        code = fuzz_main([
            "--seed", "3", "--iterations", "2", "--check-jobs-every", "0",
            "--corpus-dir", str(tmp_path),
            "--output", str(tmp_path / "report.json"),
        ])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["iterations"] == 2
        assert report["failures"] == []

    def test_fuzz_cli_replay_mode(self, capsys):
        from repro.experiments.__main__ import fuzz_main

        assert fuzz_main(["--replay", "--corpus-dir", CORPUS_DIR,
                          "--check-jobs-every", "0"]) == 0

    def test_fuzz_cli_rejects_bad_iterations(self, capsys):
        from repro.experiments.__main__ import fuzz_main

        assert fuzz_main(["--iterations", "0"]) == 2


class TestValidationRejectsFuzzedEdgeCases:
    """The bugs this fuzzer flushed out stay fixed at the spec layer."""

    def test_nan_routing_weight_is_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            TopologySpec(
                shards=2, routing="weighted",
                routing_weights=(float("nan"), 1.0),
            )

    def test_validate_payload_with_nan_weight_is_rejected(self):
        payload = ScenarioSpec(
            topology=TopologySpec(shards=2)
        ).to_json_dict()
        payload["topology"]["routing"] = "weighted"
        payload["topology"]["routing_weights"] = [float("nan"), 1.0]
        with pytest.raises(ScenarioValidationError):
            ScenarioSpec.from_json_dict(payload)

    def test_non_finite_fault_time_is_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            KillShard(at=float("nan"), shard=0)
        with pytest.raises(ValueError, match="finite"):
            KillShard(at=float("inf"), shard=0)
