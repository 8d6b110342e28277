"""Tests for the experiment runner helpers."""

import pytest

from repro.core.scenario import FeedbackMpl, execute_scenario
from repro.core.simulation import SimulatedSystem
from repro.dbms.config import InternalPolicy, IsolationLevel
from repro.experiments import figures
from repro.experiments.parallel import ParallelRunner, run_grid, using_runner
from repro.experiments.runner import setup_config, tuning_scenario
from repro.workloads.setups import get_setup


class TestSetupConfig:
    def test_carries_setup_pieces(self):
        setup = get_setup(14)  # UR isolation
        config = setup_config(setup, mpl=7, policy="priority")
        assert config.isolation is IsolationLevel.UR
        assert config.mpl == 7
        assert config.policy == "priority"
        assert config.hardware == setup.hardware

    def test_internal_policy_forwarded(self):
        config = setup_config(get_setup(1), internal=InternalPolicy.pow_locks())
        assert config.internal.lock_scheduling.value == "pow"

    def test_open_mode(self):
        config = setup_config(get_setup(1), arrival_rate=25.0)
        assert config.arrival_rate == 25.0


class TestTuneSetup:
    """Tuning a catalogue setup goes through ``tuning_scenario``."""

    def test_is_a_model_started_feedback_scenario(self):
        spec = tuning_scenario(get_setup(1), transactions=600, seed=4)
        assert isinstance(spec.control, FeedbackMpl)
        assert spec.control.initial_mpl is None
        assert spec.measurement.transactions == 1
        assert spec.seed == 4

    def test_produces_converging_result(self):
        spec = tuning_scenario(get_setup(1), transactions=600)
        outcome = execute_scenario(spec)
        assert outcome.result.mpl == outcome.control.final_mpl >= 1
        assert outcome.control.iterations >= 1
        assert outcome.control.trajectory[0].throughput > 0
        (result,) = run_grid([spec])
        assert result == outcome.result

    def test_looser_budget_allows_lower_mpl(self):
        tight, loose = run_grid([
            tuning_scenario(get_setup(8), max_throughput_loss=loss,
                            transactions=500)
            for loss in (0.05, 0.30)
        ])
        assert loose.mpl <= tight.mpl


class RecordingRunner(ParallelRunner):
    """A runner that remembers every spec submitted to it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.submitted = []

    def run(self, specs):
        self.submitted.extend(specs)
        return super().run(specs)


class TestFigureTuningGrid:
    """Figures 12/13 tune through cached FeedbackMpl grids."""

    @pytest.fixture(scope="class")
    def warmed(self, tmp_path_factory):
        cache_dir = str(tmp_path_factory.mktemp("figure12-cache"))
        runner = RecordingRunner(jobs=1, cache_dir=cache_dir)
        with using_runner(runner):
            panels = figures.figure12(fast=True, seed=5)
        return cache_dir, runner, panels

    def test_figure_seed_reaches_every_tuning_spec(self, warmed):
        _cache_dir, runner, _panels = warmed
        tunings = [spec for spec in runner.submitted
                   if isinstance(spec.control, FeedbackMpl)]
        assert len(tunings) == 3
        assert all(spec.seed == 5 for spec in runner.submitted)

    def test_warm_rerun_builds_no_system(self, warmed, monkeypatch):
        cache_dir, _runner, panels = warmed
        built = []
        original_init = SimulatedSystem.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            original_init(self, *args, **kwargs)

        monkeypatch.setattr(SimulatedSystem, "__init__", counting_init)
        warm = ParallelRunner(jobs=1, cache_dir=cache_dir)
        with using_runner(warm):
            again = figures.figure12(fast=True, seed=5)
        assert built == []
        assert warm.totals.executed == 0
        assert [p.render() for p in again] == [p.render() for p in panels]
