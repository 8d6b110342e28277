"""The two highest-feasible SLO controllers, driven directly.

``ClusterSloController`` is checked for its own validation and for the
unattainable-target branch (hold the one-slot-per-shard floor).  The
outcome-digest pins hold every SLO cell's full outcome JSON fixed, so
a refactor of the shared walk, observation window or load weights
cannot move a single simulated number unnoticed; the same digests must
hold for the outcome a warm cache serves.
"""

import dataclasses
import functools
import hashlib
import json
import sys

import pytest

from repro.core.cluster import build_system
from repro.core.controller import ClusterSloController
from repro.core.scenario import (
    MeasurementSpec,
    PerClassSlo,
    ScenarioSpec,
    StaticMpl,
    TopologySpec,
    WorkloadRef,
    demo_scenarios,
    execute_scenario,
)
from repro.experiments.figures import cross_shard_grid
from repro.experiments.parallel import ParallelRunner, ResultCache


def _unattainable_xs_cell() -> ScenarioSpec:
    """The fast 2-shard, no-2PC xs SLO cell with a 1 ms HIGH p95 target."""
    cell = _cells()["xs-2x-slo-f0"]
    return dataclasses.replace(
        cell, control=dataclasses.replace(cell.control, high_p95_target_s=0.001)
    )


def _per_class_cell(target: float) -> ScenarioSpec:
    """One of ``TestPerClassSlo``'s single-engine cells (seed 7)."""
    return ScenarioSpec(
        workload=WorkloadRef(setup_id=1),
        policy="priority",
        high_priority_fraction=0.1,
        control=PerClassSlo(
            high_p95_target_s=target, initial_mpl=6, window=120,
            max_mpl=32, max_iterations=15,
        ),
        measurement=MeasurementSpec(
            transactions=500, metrics=("standard", "percentiles")
        ),
        seed=7,
    )


@functools.lru_cache(maxsize=None)
def _cells():
    cells = {
        spec.tag: spec for spec in cross_shard_grid(fast=True) if "-slo-" in spec.tag
    }
    cells["slo-tv"] = demo_scenarios()["slo-tv"]
    return cells


@functools.lru_cache(maxsize=None)
def _outcome(name: str):
    if name == "xs-2x-slo-f0-unattainable":
        return execute_scenario(_unattainable_xs_cell())
    if name.startswith("per-class-slo-"):
        return execute_scenario(_per_class_cell(float(name.rsplit("-", 1)[1])))
    return execute_scenario(_cells()[name])


class TestClusterSloController:
    @staticmethod
    def _system():
        return build_system(
            ScenarioSpec(topology=TopologySpec(shards=2), control=StaticMpl(4))
        )

    @pytest.mark.parametrize("bad", [
        {"target_p95_s": 0.0},
        {"initial_mpl": 1},  # below one slot per shard
        {"initial_mpl": 8, "max_mpl": 4},
        {"window": 1},
        {"step": 0},
        {"max_iterations": 0},
        {"max_iterations": -3},
    ])
    def test_validation(self, bad):
        kwargs = {"target_p95_s": 0.1, "initial_mpl": 4, **bad}
        with pytest.raises(ValueError):
            ClusterSloController(self._system(), **kwargs)

    def test_unattainable_target_holds_the_floor(self):
        report = _outcome("xs-2x-slo-f0-unattainable").control
        assert report.final_mpl == 2
        assert report.final_split == (1, 1)
        assert report.converged is False
        # the walk stepped down to the floor and found it infeasible too
        assert report.trajectory[-1].mpl == 2
        assert not report.trajectory[-1].feasible


#: sha256 of each cell's canonical outcome JSON (sort_keys, compact
#: separators), recorded with CPython 3.11.
PINNED_OUTCOME_DIGESTS = {
    "xs-2x-slo-f0": "e279e370fdc4ce0448c3ea58e87afc98ac9e6f4f41204b20ea45009eb6757ad0",
    "xs-2x-slo-f0.2": "8e0f9981a7429981064bdbc36e8b50771636117e0339ec01c18d5b4996fa626b",
    "xs-2x-slo-f0.5": "bb545b17ea3da41332bee71d4e393ed840273f91051726895679605385d3d843",
    "xs-4x-slo-f0": "beadc82150a19c041639ed3bc85cf4e97d356a3c925c1fb6d801827347ba30bc",
    "xs-4x-slo-f0.2": "00b6030afc290316ad983cecc2d7c4a86d5377af60fb05f18a0b825be6e91218",
    "xs-4x-slo-f0.5": "68bf30139605da701e802bb2f15a4e32d97f9b621a04a9b6b8d7210838bb2540",
    "xs-2x-slo-f0-unattainable":
        "e82b73fafe864bfc796a15e6cf93caf91a0ef3887955f15ab0b6d3277c41cac8",
    "slo-tv": "432495520644d7fe24c38ebfa2f36a3d14782e7dfed6f5c663edc1deab1db11c",
    "per-class-slo-0.5": "8a87c8b8f8d4066d5cdf16a53be0877fa6b7204f8257a63f8ddadcef391cfc09",
    "per-class-slo-0.15": "a4187912113697bcb33ce9a8b699d963d2fcafbaab631b7b5834f5337fd24dd2",
    "per-class-slo-0.06": "24d087bea2220c8b1ba7e1a18b1c36971eda185a793ce545da0b50fc35d522d0",
    "per-class-slo-0.001": "0fff8ee604c1491029bc0b8353fd770cd3f562ea8d33f9ae909007dab63b9be4",
}


@pytest.mark.skipif(
    sys.version_info >= (3, 12),
    reason="sum() over floats is compensated from CPython 3.12 on, so outcome "
    "means differ in the last bits from the 3.11-recorded digests",
)
@pytest.mark.parametrize("name", sorted(PINNED_OUTCOME_DIGESTS))
def test_outcome_digest_is_pinned(name):
    assert _digest(_outcome(name)) == PINNED_OUTCOME_DIGESTS[name]


@pytest.mark.skipif(
    sys.version_info >= (3, 12),
    reason="same 3.11-recorded digests as test_outcome_digest_is_pinned",
)
@pytest.mark.parametrize("name", sorted(PINNED_OUTCOME_DIGESTS))
def test_outcome_digest_holds_when_served_warm(name, tmp_path):
    outcome = _outcome(name)
    ResultCache(str(tmp_path)).store(outcome.fingerprint, outcome.spec, outcome)
    runner = ParallelRunner(jobs=1, cache_dir=str(tmp_path))
    (served,) = runner.run_outcomes([outcome.spec])
    assert runner.stats.executed == 0
    assert _digest(served) == PINNED_OUTCOME_DIGESTS[name]


def _digest(outcome) -> str:
    payload = json.dumps(
        outcome.to_json_dict(), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode()).hexdigest()
