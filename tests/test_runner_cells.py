"""The runner's baseline and analytic cells.

A tuning scenario's no-MPL baseline is a cell of its own: the runner
runs it once per setup in a grid, caches it, and hands its result to
every tuning that needs it.  An analytic cell is a pure function of
JSON parameters, keyed and cached like a scenario.
"""

import json
import re

import pytest

from repro.core.scenario import (
    FeedbackMpl,
    MeasurementSpec,
    ScenarioSpec,
    StaticMpl,
    execute_scenario,
)
from repro.experiments import parallel
from repro.experiments.__main__ import main as cli_main
from repro.experiments.figures import FIGURE_GRIDS
from repro.experiments.parallel import AnalyticCell, ParallelRunner, ResultCache
from repro.experiments.runner import tuning_scenario
from repro.workloads.setups import get_setup

BUDGETS = (0.05, 0.20, 0.005)


def _tunings():
    """Three loss budgets for one setup: one shared baseline."""
    return [
        tuning_scenario(
            get_setup(1), max_throughput_loss=loss,
            max_response_time_increase=max(loss, 0.02),
            transactions=150, window=50, seed=5,
        )
        for loss in BUDGETS
    ]


def _canonical(outcome) -> str:
    return json.dumps(outcome.to_json_dict(), sort_keys=True)


class TestBaselineCells:
    def test_baseline_spec_is_the_unlimited_twin(self):
        spec = _tunings()[0]
        twin = spec.control.baseline_spec(spec)
        assert twin.control == StaticMpl(None)
        assert twin.measurement == MeasurementSpec(
            transactions=spec.control.baseline_transactions,
            warmup_fraction=spec.measurement.warmup_fraction,
        )
        assert (twin.workload, twin.arrival, twin.topology, twin.seed) == (
            spec.workload, spec.arrival, spec.topology, spec.seed,
        )
        # every budget of the setup names the same twin
        assert {t.control.baseline_spec(t).fingerprint() for t in _tunings()} == {
            twin.fingerprint()
        }

    def test_explicit_baseline_needs_no_twin(self):
        control = FeedbackMpl(
            initial_mpl=4, baseline_throughput=10.0, baseline_response_time=1.0
        )
        assert control.baseline_spec(ScenarioSpec(control=control)) is None
        assert StaticMpl(3).baseline_spec(ScenarioSpec()) is None

    def test_one_baseline_per_setup_and_none_when_warm(self, tmp_path, monkeypatch):
        executed = []
        original = parallel.execute_spec

        def recording(spec, baseline=None):
            executed.append(spec)
            return original(spec, baseline)

        monkeypatch.setattr(parallel, "execute_spec", recording)
        tunings = _tunings()
        twin_key = tunings[0].control.baseline_spec(tunings[0]).fingerprint()
        cold = ParallelRunner(jobs=1, cache_dir=str(tmp_path))
        cold_outcomes = cold.run_outcomes(tunings)
        baselines = [s for s in executed if not isinstance(s.control, FeedbackMpl)]
        assert [s.fingerprint() for s in baselines] == [twin_key]
        assert (cold.stats.executed, cold.stats.baseline_runs) == (3, 1)
        assert (cold.stats.simulated, cold.stats.cached) == (4, 0)

        executed.clear()
        loaded = []
        original_load = ResultCache.load

        def recording_load(self, key, spec=None):
            loaded.append(key)
            return original_load(self, key, spec)

        monkeypatch.setattr(ResultCache, "load", recording_load)
        warm = ParallelRunner(jobs=1, cache_dir=str(tmp_path))
        warm_outcomes = warm.run_outcomes(tunings)
        assert executed == []
        assert twin_key not in loaded
        assert (warm.stats.simulated, warm.stats.cached) == (0, 3)
        assert [_canonical(o) for o in warm_outcomes] == [
            _canonical(o) for o in cold_outcomes
        ]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_runner_outcome_equals_standalone_run(self, jobs):
        tunings = _tunings()
        served = ParallelRunner(jobs=jobs).run_outcomes(tunings)
        for spec, outcome in zip(tunings, served):
            standalone = execute_scenario(spec)
            assert outcome.control == standalone.control
            assert outcome.result == standalone.result
            assert _canonical(outcome) == _canonical(standalone)


def _cells():
    return [
        AnalyticCell(
            "repro.experiments.figures:mpl_ps_response_time",
            {"arrival_rate": 14.0, "mpl": 3, "service_mean": 0.05, "service_scv": 5.0},
        ),
        AnalyticCell(
            "repro.experiments.tables:trace_demand_moments",
            {"name": "online-retailer", "transactions": 300},
        ),
    ]


class TestAnalyticCells:
    def test_cold_value_equals_warm_value_bit_for_bit(self, tmp_path):
        cells = _cells()
        cold = ParallelRunner(jobs=1, cache_dir=str(tmp_path))
        cold_values = cold.run_analytic(cells)
        assert cold.stats.executed == len(cells)
        warm = ParallelRunner(jobs=1, cache_dir=str(tmp_path))
        warm_values = warm.run_analytic(cells)
        assert (warm.stats.executed, warm.stats.cache_hits) == (0, len(cells))
        fresh = [cell.evaluate() for cell in cells]
        pooled = ParallelRunner(jobs=2).run_analytic(cells)
        assert json.dumps(cold_values) == json.dumps(warm_values)
        assert json.dumps(cold_values) == json.dumps(fresh) == json.dumps(pooled)
        rt, (mean, scv) = warm_values
        assert rt.hex() == fresh[0].hex()
        assert (mean.hex(), scv.hex()) == tuple(v.hex() for v in fresh[1])

    def test_key_follows_every_parameter(self):
        for cell in _cells():
            key = cell.fingerprint()
            assert key == AnalyticCell(cell.function, dict(cell.params)).fingerprint()
            for name, value in cell.params.items():
                changed = value + 1 if not isinstance(value, str) else value + "x"
                other = AnalyticCell(cell.function, {**cell.params, name: changed})
                assert other.fingerprint() != key, name
            assert AnalyticCell(cell.function + "x", cell.params).fingerprint() != key

    def test_key_never_collides_with_a_spec_fingerprint(self):
        fingerprints = {spec.fingerprint() for spec in FIGURE_GRIDS["4"](True)}
        assert all(re.fullmatch("[0-9a-f]{64}", key) for key in fingerprints)
        for cell in _cells():
            key = cell.fingerprint()
            assert not re.fullmatch("[0-9a-f]{64}", key)
            assert key not in fingerprints


class TestCliFooter:
    def test_cold_and_warm_footers_count_every_cell(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        footers = []
        for _ in range(2):
            assert cli_main(["c2", "10", "--cache-dir", cache]) == 0
            footers.append([
                line for line in capsys.readouterr().out.splitlines()
                if line.startswith("[")
            ])
        cold, warm = footers
        assert [line.split(" regenerated")[0] for line in cold] == [
            "[table c2", "[figure 10",
        ]
        assert cold[0].endswith(", 0 cached / 8 simulated]")
        assert cold[1].endswith(", 0 cached / 90 simulated]")
        assert warm[0].endswith(", 8 cached / 0 simulated]")
        assert warm[1].endswith(", 90 cached / 0 simulated]")

    def test_plain_tables_print_no_footer(self, capsys):
        assert cli_main(["--table", "1", "--table", "2"]) == 0
        assert not [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("[")
        ]
