"""Tests for the MPL feedback controller."""

import pytest

from repro.core.controller import Baseline, MplController, Thresholds
from repro.core.simulation import SimulatedSystem
from repro.core.system import SystemConfig
from repro.dbms.config import HardwareConfig
from repro.workloads.synthetic import synthetic_workload


def _fast_system(mpl=8, seed=3):
    config = SystemConfig(
        workload=synthetic_workload("s", demand_mean_ms=5.0, scv=1.0),
        hardware=HardwareConfig(num_cpus=1, num_disks=1, memory_mb=3072,
                                bufferpool_mb=1024),
        num_clients=30,
        mpl=mpl,
        seed=seed,
    )
    return SimulatedSystem(config)


def _baseline(seed=3):
    config = SystemConfig(
        workload=synthetic_workload("s", demand_mean_ms=5.0, scv=1.0),
        hardware=HardwareConfig(num_cpus=1, num_disks=1, memory_mb=3072,
                                bufferpool_mb=1024),
        num_clients=30,
        mpl=None,
        seed=seed,
    )
    result = SimulatedSystem(config).run(transactions=1500)
    return Baseline(throughput=result.throughput,
                    mean_response_time=result.mean_response_time)


class TestThresholds:
    def test_defaults(self):
        thresholds = Thresholds()
        assert thresholds.max_throughput_loss == 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            Thresholds(max_throughput_loss=1.0)
        with pytest.raises(ValueError):
            Thresholds(max_response_time_increase=-0.1)


class TestController:
    def test_converges_to_feasible_mpl(self):
        system = _fast_system(mpl=8)
        controller = MplController(
            system, baseline=_baseline(), thresholds=Thresholds(),
            initial_mpl=8, window=150,
        )
        report = controller.tune()
        assert report.converged
        assert report.final_mpl >= 1
        assert report.iterations <= controller.max_iterations
        # the system was left running at the chosen MPL
        assert system.frontend.mpl == report.final_mpl

    def test_trajectory_recorded(self):
        system = _fast_system(mpl=6)
        controller = MplController(
            system, baseline=_baseline(), thresholds=Thresholds(),
            initial_mpl=6, window=120,
        )
        report = controller.tune()
        assert len(report.trajectory) == report.iterations
        assert all(o.completed >= 120 for o in report.trajectory)

    def test_constant_step_mode_still_converges(self):
        system = _fast_system(mpl=5)
        controller = MplController(
            system, baseline=_baseline(), thresholds=Thresholds(),
            initial_mpl=5, window=120, adaptive=False,
        )
        report = controller.tune()
        assert report.final_mpl >= 1

    def test_infeasible_start_steps_up(self):
        """Start at MPL 1 on a multi-resource-ish system: must move up
        or prove 1 feasible."""
        system = _fast_system(mpl=1)
        baseline = _baseline()
        controller = MplController(
            system, baseline=baseline, thresholds=Thresholds(),
            initial_mpl=1, window=150,
        )
        report = controller.tune()
        first = report.trajectory[0]
        if not first.feasible:
            assert report.final_mpl > 1

    def test_validation(self):
        system = _fast_system()
        baseline = Baseline(throughput=10.0, mean_response_time=1.0)
        with pytest.raises(ValueError):
            MplController(system, baseline, Thresholds(), initial_mpl=0)
        with pytest.raises(ValueError):
            MplController(system, baseline, Thresholds(), initial_mpl=1, window=1)
        with pytest.raises(ValueError):
            MplController(system, baseline, Thresholds(), initial_mpl=1, step=0)
        with pytest.raises(ValueError, match="max_iterations"):
            MplController(system, baseline, Thresholds(), initial_mpl=1, max_iterations=0)
        with pytest.raises(ValueError):
            Baseline(throughput=0.0, mean_response_time=1.0)
