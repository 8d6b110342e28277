"""Property-based invariants for cross-shard 2PC + cluster SLO control.

Seeded hypothesis sweeps over the distributed axis (shard count,
cross-shard fraction, fan-out, coordinator placement, seed) and fault
schedules assert the simulated two-phase commit never loses or
half-commits an atom:

* ledger conservation — ``commits + in_flight == cross_shard`` and
  ``commits + aborts <= attempts <= commits + aborts + in_flight``
  through any mix, including kill -> elect -> restore timelines;
* atomicity — the coordinator's self-check list stays empty: no branch
  ever commits under an abort decision or vice versa;
* strict 2PL through prepare — a branch parked at its commit gate
  still holds every lock it acquired;
* distributed runs are deterministic — bit-identical replay and
  identical results for any ``--jobs N``;
* ``cross_shard_fraction=0`` is result-identical to the same scenario
  without the axis, and the axis fingerprints orthogonally.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distributed import DistributedSpec, TwoPhaseCoordinator
from repro.core.faults import FaultSpec, KillShard, RestoreShard
from repro.core.resilience import GoodputStarved, ResilienceSpec
from repro.core.scenario import (
    ClusterSlo,
    MeasurementSpec,
    ScenarioSpec,
    ScenarioValidationError,
    StaticMpl,
    TopologySpec,
    WorkloadRef,
    execute_scenario,
    run_scenario,
)
from repro.experiments.figures import _xs_spec
from repro.experiments.parallel import ParallelRunner


def _dspec(
    shards=2,
    fraction=0.3,
    fanout=2,
    seed=11,
    transactions=60,
    mpl=None,
    coordinator="hash",
    prepare_timeout_s=5.0,
    abort_on_prepare_timeout=True,
    faults=None,
    metrics=("standard",),
):
    """A closed-loop distributed scenario with ample MPL headroom."""
    return ScenarioSpec(
        workload=WorkloadRef(setup_id=1),
        topology=TopologySpec(shards=shards, routing="hash"),
        control=StaticMpl(mpl=mpl if mpl is not None else 3 * shards),
        distributed=DistributedSpec(
            cross_shard_fraction=fraction,
            fanout_k=min(fanout, shards),
            prepare_timeout_s=prepare_timeout_s,
            coordinator=coordinator,
            abort_on_prepare_timeout=abort_on_prepare_timeout,
        ),
        measurement=MeasurementSpec(transactions=transactions, metrics=metrics),
        faults=faults,
        seed=seed,
        tag="inv-2pc",
    )


def _assert_ledger_conserved(report):
    """The 2PC ledger's conservation laws (the fuzzer's atomicity oracle)."""
    assert report["atomicity_violations"] == []
    assert report["commits"] + report["in_flight"] == report["cross_shard"]
    settled = report["commits"] + report["aborts"]
    assert settled <= report["attempts"] <= settled + report["in_flight"]
    assert report["aborts"] == sum(report["aborts_by_cause"].values())


class TestTwoPhaseLedger:
    @given(
        shards=st.integers(min_value=2, max_value=4),
        fraction=st.sampled_from([0.05, 0.2, 0.5, 1.0]),
        fanout=st.integers(min_value=2, max_value=4),
        coordinator=st.sampled_from(["hash", "lowest"]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=10, deadline=None)
    def test_ledger_conserved_through_any_mix(
        self, shards, fraction, fanout, coordinator, seed
    ):
        system, outcome = run_scenario(_dspec(
            shards=shards, fraction=fraction, fanout=fanout,
            coordinator=coordinator, seed=seed,
        ))
        _assert_ledger_conserved(outcome.distributed)
        # sibling branches (negative tids) never reach the collector
        assert all(r.tid >= 0 for r in system.collector.records)
        # every admitted transaction is either single- or cross-shard
        report = outcome.distributed
        assert report["single_shard"] + report["cross_shard"] > 0

    @given(
        fraction=st.sampled_from([0.2, 0.5, 1.0]),
        seed=st.integers(min_value=0, max_value=10_000),
        restore=st.booleans(),
    )
    @settings(max_examples=8, deadline=None)
    def test_conserved_under_participant_death(self, fraction, seed, restore):
        """Kill a shard mid-run (restore it or not): attempts with a
        branch queued there abort as participant deaths, nothing is
        lost, and the ledger still balances."""
        events = [KillShard(at=0.4, shard=0)]
        if restore:
            events.append(RestoreShard(at=1.0, shard=0))
        system, outcome = run_scenario(_dspec(
            shards=3, fraction=fraction, fanout=3, seed=seed,
            faults=FaultSpec(events=tuple(events)),
        ))
        _assert_ledger_conserved(outcome.distributed)
        assert outcome.shard_health is not None
        assert all(r.tid >= 0 for r in system.collector.records)

    def test_prepare_timeout_abort_is_gated_by_the_flag(self):
        """With ``abort_on_prepare_timeout=False`` a lapsed prepare
        timer counts but never aborts: every atom still commits."""
        _, outcome = run_scenario(_dspec(
            fraction=1.0, mpl=8, transactions=40,
            prepare_timeout_s=0.001, abort_on_prepare_timeout=False,
        ))
        report = outcome.distributed
        assert report["prepare_timeouts"] > 0
        assert report["aborts"] == 0
        _assert_ledger_conserved(report)

    def test_prepared_branch_still_holds_its_locks(self, monkeypatch):
        """Strict 2PL through the prepare gate: a branch parked waiting
        for the commit decision holds every lock it acquired."""
        observed = []
        original = TwoPhaseCoordinator.prepared

        def spy(self, tx):
            gate = original(self, tx)
            entry = self._branch_of.get(tx.tid)
            if gate is not None and entry is not None and tx.lock_requests:
                ltx, pos = entry
                frontend = ltx.frontends[pos]
                if frontend is not None and ltx.decided is None:
                    held = frontend.engine.lockmgr.held_by(tx.tid)
                    wanted = {item for item, _ in tx.lock_requests}
                    observed.append(wanted <= held)
            return gate

        monkeypatch.setattr(TwoPhaseCoordinator, "prepared", spy)
        run_scenario(_dspec(fraction=1.0, mpl=8, transactions=40))
        assert observed, "no branch ever parked at the prepare gate"
        assert all(observed)


class TestResilienceComposition:
    def test_resilient_retries_reenter_2pc(self):
        """PR 9's deadline/retry gate composes with 2PC: a timed-out
        cross-shard attempt aborts atomically and the retry re-enters
        the coordinator, not the bare router."""
        import dataclasses as dc
        spec = dc.replace(
            _dspec(fraction=0.5, mpl=4, transactions=80, seed=7,
                   prepare_timeout_s=0.5),
            resilience=ResilienceSpec(
                deadline_s=0.4, max_attempts=3, base_backoff_s=0.01
            ),
        )
        _, outcome = run_scenario(spec)
        _assert_ledger_conserved(outcome.distributed)
        resilience = outcome.resilience
        # the deadline actually bit, and retries flowed through 2PC
        assert resilience["timeout_events"] > 0
        assert resilience["retries"] > 0
        assert outcome.distributed["aborts"] > 0

    def test_unrelieved_abort_storm_raises_goodput_starved(self):
        """A prepare timeout far below any branch's service time can
        never commit; the coordinator's starvation guard refuses to
        spin forever (mirroring the resilience layer's)."""
        with pytest.raises(GoodputStarved, match="2PC goodput starved"):
            run_scenario(_dspec(
                fraction=1.0, mpl=2, transactions=20,
                prepare_timeout_s=0.0001,
            ))


class TestAtomicitySelfCheck:
    """The coordinator's own ledger must flag a half-committed atom."""

    def _coordinator(self):
        from repro.sim.engine import Simulator

        coordinator = TwoPhaseCoordinator(DistributedSpec(), seed=1)
        coordinator.sim = Simulator()
        return coordinator

    def _ltx(self, statuses):
        from repro.core.distributed import _DistributedTx
        from repro.dbms.transaction import Transaction, TxStatus

        branches = []
        for pos, status in enumerate(statuses):
            tx = Transaction(
                tid=pos if pos == 0 else -pos,
                type_name="t", cpu_demand=0.0, page_accesses=0,
                lock_requests=[], is_update=False,
            )
            tx.status = getattr(TxStatus, status)
            branches.append(tx)
        return _DistributedTx(branches[0], tuple(branches), (0, 1), 0)

    def test_finish_commit_flags_an_unfinished_branch(self):
        coordinator = self._coordinator()
        ltx = self._ltx(["COMMITTED", "ABORTED"])
        ltx.decided = "commit"
        coordinator._finish_commit(ltx)
        assert len(coordinator.atomicity_violations) == 1
        assert coordinator.atomicity_violations[0]["status"] == "ABORTED"

    def test_branch_commit_under_abort_decision_is_flagged(self):
        import types

        coordinator = self._coordinator()
        ltx = self._ltx(["COMMITTED", "COMMITTED"])
        ltx.decided = "abort"
        ltx.generation = 1
        coordinator._on_branch_done(
            ltx, 0, 1, types.SimpleNamespace(value=ltx.branches[0])
        )
        assert len(coordinator.atomicity_violations) == 1
        assert coordinator.atomicity_violations[0]["decided"] == "abort"


class TestDistributedDeterminism:
    def _spec(self):
        return _dspec(
            shards=3, fraction=0.5, fanout=3, seed=23, transactions=80,
            faults=FaultSpec(events=(
                KillShard(at=0.5, shard=1),
                RestoreShard(at=1.2, shard=1),
            )),
            metrics=("standard", "percentiles", "timeline"),
        )

    def test_replay_is_bit_identical(self):
        first = json.dumps(
            execute_scenario(self._spec()).to_json_dict(), sort_keys=True
        )
        second = json.dumps(
            execute_scenario(self._spec()).to_json_dict(), sort_keys=True
        )
        assert first == second

    def test_results_identical_for_any_jobs_n(self):
        grid = [
            _xs_spec(2, 0.2, "static", transactions=120, seed=3),
            _xs_spec(2, 0.5, "static", transactions=120, seed=3),
        ]
        serial = ParallelRunner(jobs=1).run(grid)
        parallel = ParallelRunner(jobs=2).run(grid)
        for a, b in zip(serial, parallel):
            assert a.throughput == b.throughput
            assert a.mean_response_time == b.mean_response_time
            assert a.completed == b.completed


class TestFractionZeroIdentity:
    def test_fraction_zero_is_result_identical_to_no_axis(self):
        base = ScenarioSpec(
            workload=WorkloadRef(setup_id=1),
            topology=TopologySpec(shards=2, routing="hash"),
            control=StaticMpl(mpl=6),
            measurement=MeasurementSpec(
                transactions=80, metrics=("standard", "percentiles")
            ),
            seed=9,
        )
        import dataclasses as dc
        zero = dc.replace(
            base, distributed=DistributedSpec(cross_shard_fraction=0.0)
        )
        plain = execute_scenario(base)
        zeroed = execute_scenario(zero)
        assert plain.result.to_json_dict() == zeroed.result.to_json_dict()
        assert plain.percentiles == zeroed.percentiles
        report = zeroed.distributed
        assert report["cross_shard"] == 0
        assert report["attempts"] == 0


class TestAxisFingerprints:
    def test_the_axis_changes_the_digest_orthogonally(self):
        digests = {
            _dspec(fraction=f, transactions=50, seed=1).fingerprint()
            for f in (0.1, 0.5, 1.0)
        }
        base = ScenarioSpec(
            workload=WorkloadRef(setup_id=1),
            topology=TopologySpec(shards=2, routing="hash"),
            control=StaticMpl(mpl=6),
            measurement=MeasurementSpec(transactions=50),
            seed=1,
            tag="inv-2pc",
        )
        digests.add(base.fingerprint())
        assert len(digests) == 4

    def test_component_fingerprints_cover_the_axis(self):
        spec = _dspec()
        components = spec.component_fingerprints()
        assert "distributed" in components
        none_digest = ScenarioSpec().component_fingerprints()["distributed"]
        assert components["distributed"] != none_digest


class TestCodecAndValidation:
    def test_spec_round_trips_with_cluster_slo_control(self):
        spec = ScenarioSpec(
            workload=WorkloadRef(setup_id=1),
            topology=TopologySpec(shards=4, routing="hash"),
            control=ClusterSlo(
                high_p95_target_s=0.4, initial_mpl=32, window=120, max_mpl=128
            ),
            distributed=DistributedSpec(
                cross_shard_fraction=0.2, fanout_k=3,
                prepare_timeout_s=1.5, coordinator="lowest",
            ),
            measurement=MeasurementSpec(transactions=200),
            policy="priority",
            high_priority_fraction=0.2,
            arrival_rate=120.0,
            seed=5,
        )
        decoded = ScenarioSpec.from_json_dict(
            json.loads(json.dumps(spec.to_json_dict()))
        )
        assert decoded == spec
        assert decoded.fingerprint() == spec.fingerprint()

    def test_distributed_codec_round_trips(self):
        spec = DistributedSpec(
            cross_shard_fraction=0.5, fanout_k=4,
            prepare_timeout_s=2.0, coordinator="lowest",
            abort_on_prepare_timeout=False,
        )
        scenario = dataclasses.replace(_dspec(shards=4), distributed=spec)
        payload = json.loads(scenario.to_json())
        assert payload["distributed"] == dataclasses.asdict(spec)
        assert ScenarioSpec.from_json_dict(payload).distributed == spec
        payload = ScenarioSpec().to_json_dict()
        assert payload["distributed"] is None
        assert ScenarioSpec.from_json_dict(payload).distributed is None

    def test_validate_reports_json_pointer_paths(self):
        payload = ScenarioSpec(
            workload=WorkloadRef(setup_id=1),
            topology=TopologySpec(shards=2, routing="hash"),
            distributed=DistributedSpec(),
        ).to_json_dict()
        payload["distributed"]["fanout_k"] = 1
        payload["distributed"]["coordinator"] = "quorum"
        payload["distributed"]["bogus"] = True
        with pytest.raises(ScenarioValidationError) as excinfo:
            ScenarioSpec.from_json_dict(payload)
        paths = {path for path, _ in excinfo.value.errors}
        assert "/distributed/fanout_k" in paths
        assert "/distributed/coordinator" in paths
        assert "/distributed/bogus" in paths

    def test_validate_rejects_cross_field_rule_breaks(self):
        payload = _dspec().to_json_dict()
        payload["topology"]["shards"] = 1
        with pytest.raises(ScenarioValidationError, match="sharded topology"):
            ScenarioSpec.from_json_dict(payload)
        payload = _dspec(shards=2).to_json_dict()
        payload["distributed"]["fanout_k"] = 5
        with pytest.raises(ScenarioValidationError, match="cannot exceed"):
            ScenarioSpec.from_json_dict(payload)

    def test_field_errors_check_defaults_for_missing_keys(self):
        # keys the payload leaves out take their (valid) defaults
        payload = _dspec(shards=2).to_json_dict()
        payload["distributed"] = {"cross_shard_fraction": 2.0}
        with pytest.raises(ScenarioValidationError) as excinfo:
            ScenarioSpec.from_json_dict(payload)
        assert excinfo.value.errors == [
            ("/distributed/cross_shard_fraction", "must be <= 1, got 2.0"),
        ]
        payload["distributed"] = "nope"
        with pytest.raises(ScenarioValidationError) as excinfo:
            ScenarioSpec.from_json_dict(payload)
        assert [path for path, _ in excinfo.value.errors] == ["/distributed"]

    def test_field_errors_cover_every_field(self):
        with pytest.raises(ScenarioValidationError) as excinfo:
            DistributedSpec(
                cross_shard_fraction=float("nan"),
                fanout_k="two",
                prepare_timeout_s=0.0,
                coordinator="hash",
                abort_on_prepare_timeout=1,
            )
        errors = dict(excinfo.value.errors)
        assert set(errors) == {
            "/cross_shard_fraction", "/fanout_k", "/prepare_timeout_s",
            "/abort_on_prepare_timeout",
        }
        with pytest.raises(ScenarioValidationError) as excinfo:
            DistributedSpec(prepare_timeout_s="soon")
        errors = dict(excinfo.value.errors)
        assert "must be a finite number" in errors["/prepare_timeout_s"]

    def test_constructor_and_decoder_reject_bad_values(self):
        with pytest.raises(ScenarioValidationError, match="/cross_shard_fraction"):
            DistributedSpec(cross_shard_fraction=1.5)
        payload = _dspec(shards=2).to_json_dict()
        payload["distributed"] = {"fanout_k": 0}
        with pytest.raises(ScenarioValidationError, match="/distributed/fanout_k"):
            ScenarioSpec.from_json_dict(payload)

    def test_install_requires_a_sharded_topology(self):
        coordinator = TwoPhaseCoordinator(DistributedSpec(), seed=1)
        with pytest.raises(ValueError, match="sharded topology"):
            coordinator.install(object())
