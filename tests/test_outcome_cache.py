"""Whole-outcome cache entries.

The result cache stores each run's full :class:`ScenarioOutcome`, so the
figures that read control reports, timelines, percentiles and the
fault, resilience, shard-health and 2PC blocks (``s4.3``, ``tv``,
``ft``, ``rs``, ``xs``) go through the runner like every other grid.
Covered here: the outcome codec on one cell of every control-report
shape and optional block, entries stored from a bare ``RunResult``
(what the repo benchmark writes), schema-version misses, and warm
reruns of the five figures simulating nothing.
"""

import functools
import json
import os

import pytest

from repro.core.arrivals import ModulatedArrivals, PartlyOpenArrivals, SinusoidRate
from repro.core.cluster import ClusteredSystem
from repro.core.scenario import (
    FeedbackMpl,
    MeasurementSpec,
    ScenarioOutcome,
    ScenarioSpec,
    TopologySpec,
    WorkloadRef,
    demo_scenarios,
    execute_scenario,
)
from repro.core.simulation import SimulatedSystem
from repro.experiments import figures
from repro.experiments.__main__ import main as cli_main
from repro.experiments.parallel import (
    OUTCOME_SCHEMA,
    ParallelRunner,
    ResultCache,
    execute_spec,
    using_runner,
)
from repro.experiments.runner import scenario_for, tuning_scenario
from repro.workloads.setups import get_setup

OUTCOME_BLOCKS = (
    "percentiles", "timeline", "faults", "resilience", "shard_health",
    "distributed",
)


@functools.lru_cache(maxsize=None)
def _cells():
    """The ``--demo`` scenarios plus one fast cell of each outcome figure."""
    cells = dict(demo_scenarios())
    cells["ft"] = figures.fault_tolerance_grid(fast=True, shard_counts=(2,))[0]
    cells["rs"] = figures._rs_spec("hardened", duration_s=12.0)
    cells["xs"] = next(
        spec for spec in figures.cross_shard_grid(fast=True)
        if spec.tag == "xs-2x-slo-f0.2"
    )
    cells["s4.3"] = tuning_scenario(get_setup(1), transactions=600)
    cells["tv"] = ScenarioSpec(
        workload=WorkloadRef(setup_id=1),
        arrival=ModulatedArrivals(
            SinusoidRate(base=45.0, amplitude=15.0, period=20.0)
        ),
        control=FeedbackMpl(
            initial_mpl=2, window=100,
            baseline_throughput=60.0, baseline_response_time=0.05,
        ),
        measurement=MeasurementSpec(transactions=200),
        tag="tv",
    )
    cells["shards"] = ScenarioSpec(
        arrival=PartlyOpenArrivals.for_load(80.0, 4.0, think_time_s=0.1),
        topology=TopologySpec(shards=2, routing="least_in_flight"),
        control=FeedbackMpl(initial_mpl=2, window=60, baseline_transactions=300),
        measurement=MeasurementSpec(transactions=200),
        seed=5,
    )
    return cells


@functools.lru_cache(maxsize=None)
def _live(name: str) -> ScenarioOutcome:
    return execute_scenario(_cells()[name])


def _canonical(outcome: ScenarioOutcome) -> str:
    return json.dumps(outcome.to_json_dict(), sort_keys=True)


class TestOutcomeCodec:
    def test_cells_cover_every_report_shape_and_block(self):
        shapes = {type(_live(name).control).__name__ for name in _cells()}
        assert shapes == {
            "NoneType", "ControllerReport", "SloReport", "ElasticReport",
            "ClusterSloReport", "ShardReports",
        }
        for block in OUTCOME_BLOCKS:
            assert any(getattr(_live(name), block) for name in _cells()), block

    @pytest.mark.parametrize("name", sorted(_cells()))
    def test_round_trip(self, name):
        outcome = _live(name)
        payload = outcome.to_json_dict()
        decoded = ScenarioOutcome.from_json_dict(payload, outcome.spec)
        assert decoded.to_json_dict() == payload

    @pytest.mark.parametrize("name", sorted(_cells()))
    def test_json_text_round_trip_restores_dataclasses_and_tuples(self, name):
        outcome = _live(name)
        text = _canonical(outcome)
        decoded = ScenarioOutcome.from_json_dict(json.loads(text), outcome.spec)
        assert decoded.spec is outcome.spec
        assert decoded.result == outcome.result
        assert decoded.control == outcome.control
        assert _canonical(decoded) == text

    def test_parallel_outcomes_match_serial(self):
        specs = [_cells()[name] for name in sorted(_cells())]
        serial = ParallelRunner(jobs=1).run_outcomes(specs)
        pooled = ParallelRunner(jobs=2).run_outcomes(specs)
        assert [_canonical(o) for o in pooled] == [_canonical(o) for o in serial]
        assert [_canonical(o) for o in serial] == [
            _canonical(_live(name)) for name in sorted(_cells())
        ]


def _entry_path(cache_dir: str, key: str) -> str:
    return os.path.join(cache_dir, key[:2], f"{key}.json")


class TestCacheEntries:
    @staticmethod
    def _spec():
        return scenario_for(get_setup(1), mpl=3, transactions=100, seed=4)

    def test_bare_result_entry_serves_run_and_is_upgraded_by_run_outcomes(
        self, tmp_path
    ):
        spec = self._spec()
        key = spec.fingerprint()
        result = execute_spec(spec).result
        ResultCache(str(tmp_path)).store(key, spec, result)

        runner = ParallelRunner(jobs=1, cache_dir=str(tmp_path))
        assert runner.run([spec]) == [result]
        assert runner.stats.executed == 0
        assert runner.stats.cache_hits == 1

        (outcome,) = runner.run_outcomes([spec])
        assert runner.stats.executed == 1
        assert outcome.result == result
        with open(_entry_path(str(tmp_path), key), encoding="utf-8") as handle:
            assert json.load(handle)["schema"] == OUTCOME_SCHEMA

        warm = ParallelRunner(jobs=1, cache_dir=str(tmp_path))
        (again,) = warm.run_outcomes([spec])
        assert warm.stats.executed == 0
        assert _canonical(again) == _canonical(outcome)

    def test_other_schema_version_is_a_miss(self, tmp_path):
        spec = self._spec()
        key = spec.fingerprint()
        runner = ParallelRunner(jobs=1, cache_dir=str(tmp_path))
        runner.run_outcomes([spec])
        path = _entry_path(str(tmp_path), key)
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["schema"] = OUTCOME_SCHEMA + 1
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        assert ResultCache(str(tmp_path)).load(key, spec) is None
        runner.run_outcomes([spec])
        assert runner.stats.executed == 1
        assert runner.stats.cache_hits == 0

    def test_every_cache_read_goes_through_load(self, tmp_path, monkeypatch):
        spec = self._spec()
        runner = ParallelRunner(jobs=1, cache_dir=str(tmp_path))
        runner.run_outcomes([spec])
        loads = []
        original = ResultCache.load

        def counting_load(self, key, spec=None):
            loads.append(spec is not None)
            return original(self, key, spec)

        monkeypatch.setattr(ResultCache, "load", counting_load)
        runner.run([spec])
        runner.run_outcomes([spec, spec])
        assert loads == [False, True]
        assert runner.stats.cache_hits == 1
        assert runner.stats.deduplicated == 1


def _render(result) -> list:
    panels = result if isinstance(result, list) else [result]
    return [panel.render() for panel in panels]


#: figure id -> a fast call of the figure function (s4.3 on two setups).
OUTCOME_FIGURES = {
    "s4.3": lambda: figures.controller_convergence(fast=True, setup_ids=(1, 5)),
    "tv": lambda: figures.time_varying_controller(fast=True),
    "ft": lambda: figures.fault_tolerance(fast=True),
    "rs": lambda: figures.resilience(fast=True),
    "xs": lambda: figures.cross_shard(fast=True),
}


@pytest.fixture(scope="module")
def cold_figures(tmp_path_factory):
    """Each outcome figure rendered once into its own fresh cache."""
    passes = {}
    for name, figure in OUTCOME_FIGURES.items():
        cache_dir = str(tmp_path_factory.mktemp(f"figure-{name}-cache"))
        runner = ParallelRunner(jobs=1, cache_dir=cache_dir)
        with using_runner(runner):
            rendered = _render(figure())
        passes[name] = (cache_dir, runner.totals, rendered)
    return passes


class TestOutcomeFiguresThroughRunner:
    def test_cold_tv_runs_everything_through_the_runner(self, cold_figures):
        _cache_dir, totals, _rendered = cold_figures["tv"]
        assert totals.executed == 3
        assert totals.cache_hits == 0

    @pytest.mark.parametrize("name", sorted(OUTCOME_FIGURES))
    def test_warm_rerun_builds_no_system(self, cold_figures, name, monkeypatch):
        cache_dir, totals, rendered = cold_figures[name]
        assert totals.executed > 0
        built = []
        for system_type in (SimulatedSystem, ClusteredSystem):
            original_init = system_type.__init__

            def counting_init(self, *args, _init=original_init, **kwargs):
                built.append(type(self).__name__)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(system_type, "__init__", counting_init)
        warm = ParallelRunner(jobs=1, cache_dir=cache_dir)
        with using_runner(warm):
            again = _render(OUTCOME_FIGURES[name]())
        assert built == []
        assert warm.totals.executed == 0
        assert warm.totals.cache_hits == totals.executed + totals.cache_hits
        assert again == rendered

    def test_warm_tv_footer_reports_nothing_simulated(self, cold_figures, capsys):
        cache_dir, _totals, rendered = cold_figures["tv"]
        assert cli_main(["tv", "--jobs", "1", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "3 cached / 0 simulated]" in out
        assert rendered[0] in out
