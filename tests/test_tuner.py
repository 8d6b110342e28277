"""Tests for the model-jump-started MPL tuner."""

import pytest

from repro.core.arrivals import OpenArrivals
from repro.core.controller import Thresholds
from repro.core.scenario import execute_scenario
from repro.core.system import SystemConfig
from repro.core.tuner import (
    MplTuner,
    model_initial_mpl_response_time,
    model_initial_mpl_throughput,
)
from repro.dbms.config import HardwareConfig
from repro.experiments.runner import scenario_for, tuning_scenario
from repro.workloads.setups import get_setup
from repro.workloads.synthetic import synthetic_workload


class TestModelJumpStarts:
    def test_throughput_start_grows_with_resources(self):
        few = model_initial_mpl_throughput({"disk": 0.9}, {"disk": 1}, 0.05)
        many = model_initial_mpl_throughput({"disk": 0.9}, {"disk": 4}, 0.05)
        assert many > few

    def test_throughput_start_single_resource_is_one(self):
        assert model_initial_mpl_throughput({"cpu": 0.99}, {"cpu": 1}, 0.05) == 1

    def test_response_time_start_grows_with_scv(self):
        low = model_initial_mpl_response_time(0.7, 2.0, 0.10)
        high = model_initial_mpl_response_time(0.7, 15.0, 0.10)
        assert high > low

    def test_response_time_start_grows_with_load(self):
        relaxed = model_initial_mpl_response_time(0.7, 15.0, 0.10)
        loaded = model_initial_mpl_response_time(0.9, 15.0, 0.10)
        assert loaded >= relaxed


class TestTuner:
    def _config(self):
        return SystemConfig(
            workload=synthetic_workload("s", demand_mean_ms=5.0, scv=1.0),
            hardware=HardwareConfig(num_cpus=1, num_disks=1, memory_mb=3072,
                                    bufferpool_mb=1024),
            num_clients=30,
            seed=5,
        )

    def test_tune_produces_feasible_low_mpl(self):
        tuner = MplTuner(self._config(), baseline_transactions=1200, window=150)
        result = tuner.tune()
        assert result.final_mpl >= 1
        assert result.final_mpl < 30  # far below the client count
        assert result.baseline.throughput > 0
        assert result.initial_mpl == max(
            result.model_mpl_throughput, result.model_mpl_response_time
        )

    def test_tuning_a_paper_setup_converges_quickly(self):
        outcome = execute_scenario(
            tuning_scenario(get_setup(1), transactions=800)
        )
        assert outcome.control.converged
        assert outcome.control.iterations <= 12
        assert 1 <= outcome.result.mpl <= 20

    def test_thresholds_respected_in_report(self):
        tuner = MplTuner(
            self._config(),
            thresholds=Thresholds(max_throughput_loss=0.20),
            baseline_transactions=800,
            window=120,
        )
        result = tuner.tune()
        final_obs = [o for o in result.report.trajectory
                     if o.mpl == result.final_mpl]
        assert final_obs and final_obs[-1].feasible


class TestTuningScenarioParity:
    """MplTuner and the FeedbackMpl tuning scenario are one tuning path."""

    @pytest.mark.parametrize("setup_id", [1, 11])
    def test_same_trajectory_and_final_mpl(self, setup_id):
        setup = get_setup(setup_id)
        tuning = MplTuner(
            scenario_for(setup).build_config(), baseline_transactions=300
        ).tune()
        outcome = execute_scenario(tuning_scenario(setup, transactions=300))
        assert outcome.control == tuning.report
        assert outcome.result.mpl == tuning.final_mpl


class TestOpenRegime:
    """Every open spelling of the arrivals is tuned as an open system."""

    def _config(self, **arrivals):
        return SystemConfig(
            workload=synthetic_workload("s", demand_mean_ms=20.0, scv=15.0),
            hardware=HardwareConfig(num_cpus=1, num_disks=1, memory_mb=3072,
                                    bufferpool_mb=1024),
            seed=5,
            **arrivals,
        )

    def test_open_arrival_spec_tunes_like_arrival_rate(self):
        by_rate = MplTuner(
            self._config(arrival_rate=40.0), baseline_transactions=400
        ).tune()
        by_spec = MplTuner(
            self._config(arrival=OpenArrivals(rate=40.0)), baseline_transactions=400
        ).tune()
        # the §4.2 model ran: C² = 15 needs more than one slot
        assert by_rate.model_mpl_response_time > 1
        assert by_spec.model_mpl_response_time == by_rate.model_mpl_response_time
        assert by_spec.initial_mpl == by_rate.initial_mpl
        assert by_spec.final_mpl == by_rate.final_mpl
