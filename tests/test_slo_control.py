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
    "xs-2x-slo-f0": "67dcdc01de77a2faf6c85e576f236f89710fcf96fc3d16fc47a5bde457cf18a3",
    "xs-2x-slo-f0.2": "f1d179938adf5f09305671bc16a0d36827a69e2ba0703d47658fe14a213ea0a8",
    "xs-2x-slo-f0.5": "b58e0006cc08c1202d37444754d0acb8860c69e7913d618c08409e07b588b1cc",
    "xs-4x-slo-f0": "585f4aff6fbf62ab2ead4fdbbda4ffe07a60806eb02132ed2b0fda69153ccba3",
    "xs-4x-slo-f0.2": "7b4a46a7b36f9eaf00ee3d6b1abbfb0ad2518387a5755478652f4c7194eb5608",
    "xs-4x-slo-f0.5": "f50887f781db8f37e7cfc86bb8c21848f782457cc6757a5ac1420404d6f47609",
    "xs-2x-slo-f0-unattainable":
        "b6359d680e763fa60f5256d8621789cb9a3d8a5b7f1e0f6604cd26c0d9727bf8",
    "slo-tv": "12332684cbaab69815af97386f9de924be30e036a76f4b67c2bfa31c1ac97e97",
    "per-class-slo-0.5": "7750e0fce83a78b220c14f3dae0da50e25200bd6998cd324c16d224a3685c1da",
    "per-class-slo-0.15": "9a1804124f047305addaa67aed7c8be54e544376ddc927bc4ba2ac0c313e4e1b",
    "per-class-slo-0.06": "9793999316d717351ae8238e27408d80df13967958cf5d33b01c3312387ba6ab",
    "per-class-slo-0.001": "291110e4f9daef37306aa6a4b2fcdac6cb87d6eeeaaffd754b33ab0eb0da7202",
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
