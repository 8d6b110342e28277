"""Tests for the resilience layer (PR 9).

Covers the spec axis (validation paths, codec, fingerprint
compatibility), the mechanisms in isolation (queue-policy removal, the
engine's deadline abort, the breaker state machine), the installed
gate's exactly-once disposition accounting on single-engine and
clustered systems, determinism (bit-identical replay with jittered
backoff, ``--jobs 2`` invariance), and the retry-storm figure's
goodput gap.
"""

import dataclasses
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arrivals import OpenArrivals
from repro.core.cluster import ClusteredSystem
from repro.core.faults import DegradeShard, FaultSpec, KillShard, RestoreShard
from repro.core.policies import FifoPolicy, PriorityPolicy, SjfPolicy
from repro.core.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    GOODPUT_STARVATION_LIMIT,
    GoodputStarved,
    IfCurrent,
    ResilienceRuntime,
    ResilienceSpec,
    RetryLedger,
    ShardBreaker,
    StarvationGuard,
)
from repro.core.scenario import (
    MeasurementSpec,
    PerClassSlo,
    ScenarioSpec,
    ScenarioValidationError,
    StaticMpl,
    TopologySpec,
    component_fingerprint,
    run_scenario,
)
from repro.dbms.transaction import Priority, Transaction, TxStatus
from repro.experiments import figures
from repro.sim.random import derive_seed

# the PR 8 pins: the resilience axis must not move any resilience-off
# digest (fingerprint omission at None is the compatibility mechanism)
PINNED_DEFAULT = (
    "360205e58fed441f9d11ad31752d4372fb832046f778a02b0384d41a4fe71e03"
)
PINNED_SHARDED = (
    "22975e7f0704ce5b8f379bf6d00587183dca7e84751e061e39165b4fe14fc4cb"
)


def _tx(tid, priority=Priority.LOW, cpu=0.01):
    return Transaction(
        tid=tid, type_name="t", cpu_demand=cpu, page_accesses=0,
        priority=priority,
    )


def _resilient_spec(
    resilience,
    *,
    shards=1,
    rate=60.0,
    transactions=200,
    faults=None,
    seed=5,
    **kwargs,
):
    return ScenarioSpec(
        arrival=OpenArrivals(rate=rate),
        topology=TopologySpec(
            shards=shards,
            routing="least_in_flight" if shards > 1 else "round_robin",
        ),
        control=StaticMpl(8 * shards),
        faults=faults,
        resilience=resilience,
        measurement=MeasurementSpec(transactions=transactions),
        seed=seed,
        **kwargs,
    )


class TestResilienceSpecValidation:
    def test_defaults_are_inert_and_valid(self):
        spec = ResilienceSpec()
        assert spec.deadline_s is None
        assert spec.max_attempts == 0
        assert spec.queue_cap is None
        assert not spec.breaker_enabled

    @pytest.mark.parametrize("field,value", [
        ("deadline_s", 0.0),
        ("deadline_s", -1.0),
        ("deadline_s", float("nan")),
        ("deadline_s", float("inf")),
        ("high_deadline_s", 0.0),
        ("max_attempts", -1),
        ("max_attempts", 1.5),
        ("base_backoff_s", -0.1),
        ("backoff_multiplier", 0.5),
        ("jitter_fraction", -0.1),
        ("jitter_fraction", 1.5),
        ("queue_cap", 0),
        ("queue_cap", True),
        ("shed_policy", "coin_flip"),
        ("breaker_enabled", "yes"),
        ("breaker_window", 0),
        ("breaker_ewma_alpha", 0.0),
        ("breaker_ewma_alpha", 1.5),
        ("breaker_timeout_threshold", 0.0),
        ("breaker_response_time_s", 0.0),
        ("breaker_open_s", 0.0),
        ("breaker_probes", 0),
    ])
    def test_bad_field_values_raise(self, field, value):
        with pytest.raises(ValueError):
            ResilienceSpec(**{field: value})

    def test_retries_need_explicit_backoff(self):
        with pytest.raises(ValueError, match="base_backoff_s"):
            ResilienceSpec(deadline_s=1.0, max_attempts=2)
        # saying 0.0 out loud is how a spec asks for instant retries
        ResilienceSpec(deadline_s=1.0, max_attempts=2, base_backoff_s=0.0)

    def test_field_errors_carry_json_pointer_paths(self):
        # the constructor reports every bad field, at paths relative to
        # the spec; the decoder adds unknown keys and the axis prefix
        with pytest.raises(ScenarioValidationError) as excinfo:
            ResilienceSpec(max_attempts=-1, queue_cap=0)
        assert [path for path, _ in excinfo.value.errors] == [
            "/max_attempts", "/queue_cap",
        ]
        payload = ScenarioSpec().to_json_dict()
        payload["resilience"] = {"max_attempts": -1, "queue_cap": 0, "mystery": 1}
        with pytest.raises(ScenarioValidationError) as excinfo:
            ScenarioSpec.from_json_dict(payload)
        errors = dict(excinfo.value.errors)
        assert "/resilience/max_attempts" in errors
        assert "/resilience/queue_cap" in errors
        assert errors["/resilience/mystery"] == "unknown field"

    def test_validate_prefixes_resilience_paths(self):
        payload = ScenarioSpec().to_json_dict()
        payload["resilience"] = {"max_attempts": -1, "deadline_s": 0.0}
        with pytest.raises(ScenarioValidationError) as excinfo:
            ScenarioSpec.from_json_dict(payload)
        paths = [path for path, _ in excinfo.value.errors]
        assert "/resilience/max_attempts" in paths
        assert "/resilience/deadline_s" in paths

    def test_validate_reports_cross_field_at_resilience_root(self):
        payload = ScenarioSpec().to_json_dict()
        payload["resilience"] = {"deadline_s": 1.0, "max_attempts": 2}
        with pytest.raises(ScenarioValidationError) as excinfo:
            ScenarioSpec.from_json_dict(payload)
        assert ("/resilience", (
            "max_attempts > 0 needs an explicit finite base_backoff_s "
            "(say 0.0 to retry immediately)"
        )) in excinfo.value.errors

    def test_validate_rejects_non_object_resilience(self):
        payload = ScenarioSpec().to_json_dict()
        payload["resilience"] = 7
        with pytest.raises(ScenarioValidationError) as excinfo:
            ScenarioSpec.from_json_dict(payload)
        assert any(path == "/resilience" for path, _ in excinfo.value.errors)

    def test_resilience_needs_unreplicated_topology(self):
        with pytest.raises(ValueError, match="replicas_per_shard"):
            _resilient_spec(
                ResilienceSpec(deadline_s=1.0), shards=2,
            ).__class__(
                topology=TopologySpec(shards=2, replicas_per_shard=1),
                resilience=ResilienceSpec(deadline_s=1.0),
            )

    def test_breakers_need_a_sharded_topology(self):
        with pytest.raises(ValueError, match="shards > 1"):
            ScenarioSpec(resilience=ResilienceSpec(breaker_enabled=True))
        ScenarioSpec(
            topology=TopologySpec(shards=2),
            resilience=ResilienceSpec(breaker_enabled=True),
        )

    def test_per_class_deadline_selection(self):
        spec = ResilienceSpec(deadline_s=1.0, high_deadline_s=3.0)
        assert spec.deadline_for(Priority.LOW) == 1.0
        assert spec.deadline_for(Priority.HIGH) == 3.0
        assert ResilienceSpec(deadline_s=1.0).deadline_for(Priority.HIGH) == 1.0

    def test_shedding_requires_open_arrivals(self):
        # closed clients resubmit the instant a shed releases them, so
        # a population above mpl + queue_cap livelocks the simulation
        # at a single timestamp — the constructor rejects the combo
        with pytest.raises(ValueError, match="externally driven"):
            ScenarioSpec(resilience=ResilienceSpec(queue_cap=6))
        _resilient_spec(ResilienceSpec(queue_cap=6))  # open arrivals: fine

    def test_slo_control_requires_truly_single_engine(self):
        # the fuzzer found PerClassSlo + a replicated 1-shard topology
        # crashing mid-run; the constructor now rejects it up front
        with pytest.raises(ValueError, match="single engine"):
            ScenarioSpec(
                topology=TopologySpec(shards=1, replicas_per_shard=1),
                control=PerClassSlo(),
                high_priority_fraction=0.3,
                policy="priority",
            )


class TestResilienceCodec:
    def test_round_trip_preserves_spec_and_fingerprint(self):
        spec = _resilient_spec(
            ResilienceSpec(
                deadline_s=0.8, high_deadline_s=2.0, max_attempts=2,
                base_backoff_s=0.05, jitter_fraction=0.5, queue_cap=16,
                shed_policy="by_class", breaker_enabled=True,
            ),
            shards=2,
        )
        payload = json.loads(spec.to_json())
        decoded = ScenarioSpec.from_json_dict(payload)
        assert decoded == spec
        assert decoded.fingerprint() == spec.fingerprint()
        assert decoded.to_json() == spec.to_json()

    def test_none_stays_none(self):
        payload = ScenarioSpec().to_json_dict()
        assert payload["resilience"] is None
        assert ScenarioSpec.from_json_dict(payload).resilience is None

    def test_decode_rejects_unknown_and_bad_fields(self):
        with pytest.raises(ScenarioValidationError, match="unknown field"):
            ScenarioSpec.from_json_dict({"resilience": {"not_a_knob": 1}})
        with pytest.raises(ScenarioValidationError, match="/resilience/max_attempts"):
            ScenarioSpec.from_json_dict({"resilience": {"max_attempts": -2}})


class TestResilienceFingerprints:
    def test_resilience_off_digests_are_unchanged(self):
        assert ScenarioSpec().fingerprint() == PINNED_DEFAULT
        sharded = ScenarioSpec(
            topology=TopologySpec(shards=4, routing="least_in_flight")
        )
        assert sharded.fingerprint() == PINNED_SHARDED

    def test_resilience_axis_changes_the_digest(self):
        base = ScenarioSpec()
        resilient = dataclasses.replace(
            base, resilience=ResilienceSpec(deadline_s=1.0)
        )
        assert resilient.fingerprint() != base.fingerprint()
        # ...and each distinct knob setting digests differently
        other = dataclasses.replace(
            base, resilience=ResilienceSpec(deadline_s=2.0)
        )
        assert other.fingerprint() != resilient.fingerprint()

    def test_component_fingerprints_include_resilience(self):
        components = ScenarioSpec().component_fingerprints()
        assert "resilience" in components
        assert components["resilience"] == component_fingerprint(None)


class TestPolicyRemoval:
    @pytest.mark.parametrize("policy_factory", [
        FifoPolicy, PriorityPolicy, SjfPolicy,
    ])
    def test_remove_middle_preserves_order(self, policy_factory):
        policy = policy_factory()
        txs = [_tx(i, cpu=0.01 * (i + 1)) for i in range(5)]
        for tx in txs:
            policy.push(tx)
        assert policy.remove(txs[2])
        assert len(policy) == 4
        assert not policy.remove(txs[2])  # already gone
        remaining = [policy.pop().tid for _ in range(4)]
        assert sorted(remaining) == [0, 1, 3, 4]
        assert remaining == sorted(remaining)  # order intact for all three

    @pytest.mark.parametrize("policy_factory", [
        FifoPolicy, PriorityPolicy, SjfPolicy,
    ])
    def test_iteration_sees_every_queued_tx(self, policy_factory):
        policy = policy_factory()
        txs = [_tx(i) for i in range(4)]
        for tx in txs:
            policy.push(tx)
        assert {tx.tid for tx in policy} == {0, 1, 2, 3}

    def test_priority_remove_keeps_class_order(self):
        policy = PriorityPolicy()
        policy.push(_tx(1, Priority.LOW))
        policy.push(_tx(2, Priority.HIGH))
        policy.push(_tx(3, Priority.LOW))
        policy.push(_tx(4, Priority.HIGH))
        assert policy.remove(
            next(tx for tx in policy if tx.tid == 2)
        )
        assert [policy.pop().tid for _ in range(3)] == [4, 1, 3]


class TestShardBreaker:
    SPEC = ResilienceSpec(
        breaker_window=4, breaker_ewma_alpha=0.5,
        breaker_timeout_threshold=0.5, breaker_open_s=1.0,
        breaker_probes=2,
    )

    def _tripped(self):
        breaker = ShardBreaker(self.SPEC)
        for i in range(4):
            breaker.observe(now=float(i) * 0.1, response_time=0.2,
                            timed_out=True)
        assert breaker.state == BREAKER_OPEN
        return breaker

    def test_trips_only_after_the_window_fills(self):
        breaker = ShardBreaker(self.SPEC)
        for i in range(3):
            breaker.observe(now=0.1 * i, response_time=0.2, timed_out=True)
            assert breaker.state == BREAKER_CLOSED  # window not full yet
        breaker.observe(now=0.3, response_time=0.2, timed_out=True)
        assert breaker.state == BREAKER_OPEN

    def test_open_rejects_until_timeout_then_probes(self):
        breaker = self._tripped()
        assert not breaker.admit(now=0.5)
        # after breaker_open_s the first admit flips to half-open
        assert breaker.admit(now=1.5)
        assert breaker.state == BREAKER_HALF_OPEN
        assert breaker.admit(now=1.5)  # second probe fits
        assert not breaker.admit(now=1.5)  # probe budget exhausted

    def test_successful_probe_closes_with_fresh_window(self):
        breaker = self._tripped()
        assert breaker.admit(now=1.5)
        breaker.observe(now=1.6, response_time=0.05, timed_out=False)
        assert breaker.state == BREAKER_CLOSED
        # the stale unhealthy EWMA cannot re-trip before a new window
        assert breaker.samples == 0

    def test_failed_probe_reopens(self):
        breaker = self._tripped()
        assert breaker.admit(now=1.5)
        breaker.observe(now=1.7, response_time=0.3, timed_out=True)
        assert breaker.state == BREAKER_OPEN
        assert not breaker.admit(now=1.8)

    def test_response_time_limit_trips_without_timeouts(self):
        spec = dataclasses.replace(self.SPEC, breaker_response_time_s=0.1)
        breaker = ShardBreaker(spec)
        for i in range(4):
            breaker.observe(now=0.1 * i, response_time=0.5, timed_out=False)
        assert breaker.state == BREAKER_OPEN

    def test_transitions_are_recorded_for_the_health_report(self):
        breaker = self._tripped()
        breaker.admit(now=1.5)
        breaker.observe(now=1.6, response_time=0.05, timed_out=False)
        states = [(t["from"], t["to"]) for t in breaker.transitions]
        assert states == [
            (BREAKER_CLOSED, BREAKER_OPEN),
            (BREAKER_OPEN, BREAKER_HALF_OPEN),
            (BREAKER_HALF_OPEN, BREAKER_CLOSED),
        ]
        report = breaker.jsonable()
        assert report["state"] == BREAKER_CLOSED
        assert len(report["transitions"]) == 3


def _assert_exactly_once(runtime):
    assert runtime.admitted == (
        runtime.completed + runtime.timed_out + runtime.shed
        + runtime.in_flight
    )
    tally = {}
    for disposition in runtime.dispositions().values():
        tally[disposition] = tally.get(disposition, 0) + 1
    assert tally.get("completed", 0) == runtime.completed
    assert tally.get("timed_out", 0) == runtime.timed_out
    assert tally.get("shed", 0) == runtime.shed
    assert tally.get("in_flight", 0) == runtime.in_flight


def _assert_cluster_conserved(system):
    router = system.router
    for index, shard in enumerate(system.shards):
        frontend = shard.frontend
        held = (
            frontend.completed + frontend.in_service
            + frontend.queue_length + frontend.removed
        )
        placed = (
            router.routed_by_shard[index]
            + router.rerouted_to[index]
            - router.rerouted_from[index]
        )
        assert placed == held
        assert shard.collector.arrivals == router.routed_by_shard[index]


class TestResilienceRuntime:
    def test_single_engine_deadline_and_retry_accounting(self):
        system, outcome = run_scenario(_resilient_spec(
            ResilienceSpec(
                deadline_s=0.3, max_attempts=2, base_backoff_s=0.05,
            ),
            rate=80.0,
        ))
        runtime = system.resilience
        _assert_exactly_once(runtime)
        summary = outcome.resilience
        assert summary["timed_out"] + summary["shed"] > 0
        assert summary["retries"] > 0
        assert summary["attempts_resolved"] >= summary["completed"]
        # the collector only ever saw commits (goodput-clean records)
        assert all(
            r.response_time <= 0.3 + 1e-9 for r in system.collector.records
        )

    def test_timed_out_transactions_are_aborted_not_committed(self):
        system, _ = run_scenario(_resilient_spec(
            ResilienceSpec(deadline_s=0.2), rate=90.0, transactions=120,
        ))
        runtime = system.resilience
        assert runtime.timed_out > 0
        aborted = [
            st.tx for st in runtime._state.values()
            if st.disposition == "timed_out"
        ]
        assert aborted
        assert all(tx.status is not TxStatus.COMMITTED for tx in aborted)

    def test_queue_cap_sheds_and_counts_distinctly(self):
        system, outcome = run_scenario(_resilient_spec(
            ResilienceSpec(queue_cap=4), rate=150.0, transactions=150,
        ))
        runtime = system.resilience
        _assert_exactly_once(runtime)
        assert runtime.shed > 0
        assert runtime.timeout_events == 0  # no deadline armed
        assert system.frontend.queue_length <= 4
        assert outcome.resilience["shed"] == runtime.shed

    def test_by_class_shedding_protects_high_priority(self):
        system, _ = run_scenario(_resilient_spec(
            ResilienceSpec(queue_cap=4, shed_policy="by_class"),
            rate=150.0, transactions=150, policy="priority",
            high_priority_fraction=0.3,
        ))
        runtime = system.resilience
        shed_by_class = runtime.per_class["shed"]
        assert shed_by_class.get(Priority.LOW, 0) > 0
        assert shed_by_class.get(Priority.HIGH, 0) <= shed_by_class[Priority.LOW]

    def test_cluster_conservation_under_faults_and_retries(self):
        spec = _resilient_spec(
            ResilienceSpec(
                deadline_s=0.5, max_attempts=2, base_backoff_s=0.05,
                jitter_fraction=0.5, queue_cap=12, breaker_enabled=True,
                breaker_window=8,
            ),
            shards=2, rate=110.0, transactions=300,
            faults=FaultSpec(events=(
                DegradeShard(at=0.5, shard=1, factor=0.4),
                KillShard(at=1.0, shard=0),
                RestoreShard(at=2.0, shard=0),
            )),
        )
        system, outcome = run_scenario(spec)
        _assert_exactly_once(system.resilience)
        _assert_cluster_conserved(system)
        health = outcome.shard_health
        assert [entry["shard"] for entry in health] == [0, 1]
        assert health[1]["degrade_factor"] == pytest.approx(0.4)
        assert health[0]["degrade_factor"] is None
        for entry in health:
            assert {"alive", "in_rotation", "mpl", "routed", "rerouted_from",
                    "rerouted_to", "in_service", "queue_length",
                    "completed"} <= set(entry)
            assert entry["breaker"]["state"] in (
                BREAKER_CLOSED, BREAKER_OPEN, BREAKER_HALF_OPEN
            )

    def test_outer_event_fires_once_at_final_disposition(self):
        # a closed loop over the gate: every disposition (commit,
        # terminal timeout, shed) must release the client exactly once,
        # or the run below would hang instead of completing
        # deadline chosen so the run mixes commits with timeouts: a
        # deadline the closed clients can never meet would stall the
        # measurement window (no commits ever reach the collector)
        spec = ScenarioSpec(
            topology=TopologySpec(shards=1),
            control=StaticMpl(4),
            resilience=ResilienceSpec(
                deadline_s=1.0, max_attempts=1, base_backoff_s=0.0,
            ),
            measurement=MeasurementSpec(transactions=120),
            seed=9,
        )
        system, _ = run_scenario(spec)
        runtime = system.resilience
        _assert_exactly_once(runtime)
        assert runtime.completed > 0

    def test_resilience_off_system_has_no_gate(self):
        system, outcome = run_scenario(ScenarioSpec(
            measurement=MeasurementSpec(transactions=60),
        ))
        assert system.resilience is None
        assert outcome.resilience is None
        assert outcome.shard_health is None


class TestResilienceDeterminism:
    JITTERED = ResilienceSpec(
        deadline_s=0.4, max_attempts=3, base_backoff_s=0.05,
        backoff_multiplier=2.0, jitter_fraction=0.5, queue_cap=10,
        shed_policy="by_class", breaker_enabled=True, breaker_window=8,
    )

    def _spec(self):
        return _resilient_spec(
            self.JITTERED, shards=2, rate=100.0, transactions=250,
            faults=FaultSpec(events=(
                KillShard(at=0.8, shard=0), RestoreShard(at=1.8, shard=0),
            )),
        )

    def test_replay_is_bit_identical_with_jittered_backoff(self):
        first = run_scenario(self._spec())[1]
        second = run_scenario(self._spec())[1]
        assert json.dumps(first.to_json_dict(), sort_keys=True) == (
            json.dumps(second.to_json_dict(), sort_keys=True)
        )

    def test_jobs_2_reproduces_the_in_process_run(self, tmp_path):
        from repro.experiments.parallel import ParallelRunner

        spec = self._spec()
        direct = run_scenario(spec)[1].result
        parallel = ParallelRunner(jobs=2, cache_dir=str(tmp_path)).run([spec])[0]
        assert json.dumps(parallel.to_json_dict(), sort_keys=True) == (
            json.dumps(direct.to_json_dict(), sort_keys=True)
        )

    def test_seed_changes_the_jitter_stream(self):
        base = self._spec()
        other = dataclasses.replace(base, seed=base.seed + 1)
        assert run_scenario(base)[1].result.to_json_dict() != (
            run_scenario(other)[1].result.to_json_dict()
        )


class TestGoodputStarvation:
    """A saturated retry storm must refuse to run forever.

    With open arrivals and a completion-counted window, zero
    steady-state goodput means the stop condition can never be met
    (found by the fuzzer: walk seed 0, iteration 48 — pinned in
    ``tests/data/fuzz_corpus/repro-goodput-starved-retry-storm.json``).
    """

    STORM = ResilienceSpec(
        deadline_s=0.004, max_attempts=1, base_backoff_s=0.0,
    )

    def _starving_spec(self):
        # the deadline is far below any achievable response time at
        # this load, so not a single admission ever commits
        return _resilient_spec(
            self.STORM, rate=800.0, transactions=50, seed=7,
        )

    def test_starved_run_raises_instead_of_hanging(self):
        with pytest.raises(GoodputStarved, match="goodput starved"):
            run_scenario(self._starving_spec())

    def test_the_refusal_is_deterministic(self):
        errors = []
        for _ in range(2):
            with pytest.raises(GoodputStarved) as info:
                run_scenario(self._starving_spec())
            errors.append(str(info.value))
        assert errors[0] == errors[1]
        assert f"{GOODPUT_STARVATION_LIMIT} consecutive" in errors[0]

    def test_the_fuzzer_accepts_a_deterministic_starvation(self):
        from repro.experiments.fuzz import check_scenario

        assert check_scenario(self._starving_spec()) is None

    def test_a_large_retry_budget_still_starves(self):
        """Every failed attempt counts, retried or not: a storm whose
        retry budget outlasts any horizon still trips the guard.  A
        guard counting only terminal dispositions returns here."""
        from repro.core.cluster import build_system

        spec = _resilient_spec(
            ResilienceSpec(
                deadline_s=0.004, max_attempts=5000, base_backoff_s=0.0,
                backoff_multiplier=1.0,
            ),
            rate=200.0, transactions=50, seed=7,
        )
        system = build_system(spec.build_config())
        ResilienceRuntime(spec.resilience, seed=spec.seed).install(system)
        system.source.start()
        with pytest.raises(
            GoodputStarved,
            match=f"{GOODPUT_STARVATION_LIMIT} consecutive failed attempts",
        ):
            system.sim.run(until=0.6)

    def test_commits_reset_the_streak(self):
        spec = _resilient_spec(
            ResilienceSpec(deadline_s=0.5, max_attempts=1,
                           base_backoff_s=0.0),
            rate=60.0, transactions=120, seed=7,
        )
        system, _ = run_scenario(spec)
        runtime = system.resilience
        # the gate may lag the collector by the stop-boundary record
        assert runtime.completed >= 119
        assert runtime.starvation.streak == 0


class TestRetryCore:
    """The backoff, ledger and guard the gate and the 2PC coordinator share."""

    def _ledger(self, attempts, tid=42):
        ledger = RetryLedger(_tx(tid))
        ledger.attempts = attempts
        return ledger

    def test_resilience_backoff_has_no_exponent_cap(self):
        delays = [
            self._ledger(attempts).backoff(1, "resilience", 0.01, 3.0, 0.0)
            for attempts in (1, 2, 3, 12, 30)
        ]
        assert delays == [
            0.01, 0.01 * 3.0, 0.01 * 9.0, 0.01 * 3.0 ** 11, 0.01 * 3.0 ** 29,
        ]

    def test_2pc_backoff_caps_the_exponent_at_ten(self):
        from repro.core.distributed import (
            RETRY_BACKOFF_MULTIPLIER,
            RETRY_BASE_BACKOFF_S,
            RETRY_MAX_EXPONENT,
        )

        assert RETRY_MAX_EXPONENT == 10

        def unjittered(attempts):
            return self._ledger(attempts).backoff(
                1, "2pc", RETRY_BASE_BACKOFF_S, RETRY_BACKOFF_MULTIPLIER,
                0.0, cap=RETRY_MAX_EXPONENT,
            )

        assert [unjittered(a) for a in (1, 2, 11)] == [0.01, 0.02, 0.01 * 2.0 ** 10]
        assert unjittered(12) == unjittered(11) == unjittered(40)

    def test_jitter_is_drawn_from_the_per_tid_stream(self):
        ledger = self._ledger(3, tid=42)
        stream = random.Random(derive_seed(7, "2pc", 42))
        for _ in range(3):
            delay = ledger.backoff(7, "2pc", 0.01, 2.0, 0.5, cap=10)
            assert delay == 0.01 * 2.0 ** 2 * (1.0 + 0.5 * stream.random())
        # another tid, or another layer's stream name, draws apart
        first = self._ledger(3, tid=42).backoff(7, "2pc", 0.01, 2.0, 0.5)
        assert self._ledger(3, tid=43).backoff(7, "2pc", 0.01, 2.0, 0.5) != first
        assert self._ledger(3, tid=42).backoff(7, "resilience", 0.01, 2.0, 0.5) != first

    def test_zero_jitter_draws_nothing(self):
        ledger = self._ledger(2)
        ledger.backoff(7, "resilience", 0.01, 2.0, 0.0)
        assert ledger.rng is None

    def test_guard_raises_at_exactly_the_limit(self):
        guard = StarvationGuard("goodput starved", lambda: "failed attempts")
        for _ in range(GOODPUT_STARVATION_LIMIT - 1):
            guard.fail(1.0)
        with pytest.raises(GoodputStarved) as info:
            guard.fail(1.0)
        assert str(info.value) == (
            f"goodput starved at t=1.000: {GOODPUT_STARVATION_LIMIT} "
            "consecutive failed attempts"
        )

    def test_a_commit_resets_the_guard(self):
        guard = StarvationGuard("goodput starved", lambda: "failed attempts")
        for _ in range(GOODPUT_STARVATION_LIMIT - 1):
            guard.fail(0.0)
        guard.commit()
        assert guard.streak == 0
        for _ in range(GOODPUT_STARVATION_LIMIT - 1):
            guard.fail(0.0)
        assert guard.streak == GOODPUT_STARVATION_LIMIT - 1

    def test_fire_outer_fires_once(self):
        from repro.sim.engine import Simulator

        sim = Simulator()
        ledger = RetryLedger(_tx(1), sim.event())
        outer = ledger.outer
        ledger.fire_outer()
        ledger.fire_outer()  # a no-op, not a double fire
        sim.run()
        assert outer.processed and outer.value is ledger.tx

    def test_stale_generation_callbacks_are_dropped(self):
        from repro.sim.engine import Simulator

        sim = Simulator()
        ledger = RetryLedger(_tx(1))
        calls = []
        sim.timeout(1.0).add_callback(IfCurrent(ledger, calls.append, "stale"))
        ledger.generation += 1
        sim.timeout(2.0).add_callback(IfCurrent(ledger, calls.append, "current"))
        sim.run()
        assert calls == ["current"]


class TestResilienceInvariants:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        shards=st.integers(min_value=1, max_value=3),
        max_attempts=st.integers(min_value=0, max_value=2),
        queue_cap=st.sampled_from([None, 6, 12]),
        with_faults=st.booleans(),
    )
    @settings(max_examples=10, deadline=None)
    def test_exactly_once_and_conservation_hold(
        self, seed, shards, max_attempts, queue_cap, with_faults
    ):
        faults = None
        if with_faults and shards > 1:
            faults = FaultSpec(events=(
                KillShard(at=0.4, shard=0), RestoreShard(at=1.2, shard=0),
            ))
        spec = _resilient_spec(
            ResilienceSpec(
                deadline_s=0.5,
                max_attempts=max_attempts,
                base_backoff_s=0.02 if max_attempts else None,
                jitter_fraction=0.25 if max_attempts else 0.0,
                queue_cap=queue_cap,
            ),
            shards=shards, rate=40.0 * shards, transactions=80,
            faults=faults, seed=seed,
        )
        system, _ = run_scenario(spec)
        _assert_exactly_once(system.resilience)
        if isinstance(system, ClusteredSystem):
            _assert_cluster_conserved(system)


class TestResilienceFigure:
    def test_grid_covers_the_three_variants(self):
        specs = figures.resilience_grid(fast=True)
        assert [spec.tag for spec in specs] == [
            "rs-baseline", "rs-naive", "rs-hardened",
        ]
        assert specs[0].resilience is None
        assert specs[1].resilience.base_backoff_s == 0.0
        assert specs[1].resilience.queue_cap is None
        assert specs[2].resilience.breaker_enabled
        assert figures.FIGURE_GRIDS["rs"](True) == specs

    def test_timeline_carries_the_goodput_columns(self):
        spec = figures._rs_spec("hardened", duration_s=6.0)
        outcome = run_scenario(spec)[1]
        for row in outcome.timeline:
            assert {"goodput", "attempt_throughput", "timeouts", "sheds",
                    "retries"} <= set(row)
            assert row["attempt_throughput"] >= row["goodput"] - 1e-9

    def test_hardening_beats_the_naive_retry_storm(self):
        naive = run_scenario(figures._rs_spec("naive", duration_s=12.0))[1]
        hardened = run_scenario(
            figures._rs_spec("hardened", duration_s=12.0)
        )[1]
        # the acceptance gap: same deadline and retry budget, but
        # backoff + shedding + breakers hold goodput where instant
        # retries collapse it
        assert hardened.result.throughput > naive.result.throughput * 1.3
        assert naive.resilience["retries"] > hardened.resilience["retries"]
