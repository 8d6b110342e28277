"""Tests for the assembled simulated system."""

import pytest

from repro.core.simulation import SimulatedSystem
from repro.core.system import RunResult, SystemConfig
from repro.dbms.config import HardwareConfig
from repro.dbms.transaction import Priority
from repro.workloads.synthetic import synthetic_workload


def _config(**kwargs):
    defaults = dict(
        workload=synthetic_workload("s", demand_mean_ms=10.0, scv=1.0),
        hardware=HardwareConfig(num_cpus=1, num_disks=1, memory_mb=3072,
                                bufferpool_mb=1024),
        num_clients=20,
        seed=3,
    )
    defaults.update(kwargs)
    return SystemConfig(**defaults)


def test_closed_run_completes_requested_transactions():
    system = SimulatedSystem(_config())
    result = system.run(transactions=300)
    assert result.completed == 240  # 20% warmup dropped
    assert result.throughput > 0
    assert result.mean_response_time > 0


def test_closed_saturated_throughput_matches_capacity():
    result = SimulatedSystem(_config(mpl=10)).run(transactions=800)
    # 10ms exponential demands on one CPU: ~100 tx/s at saturation
    assert result.throughput == pytest.approx(100.0, rel=0.1)


def test_same_seed_reproduces_exactly():
    a = SimulatedSystem(_config()).run(transactions=200)
    b = SimulatedSystem(_config()).run(transactions=200)
    assert a.throughput == b.throughput
    assert a.mean_response_time == b.mean_response_time


def test_different_seeds_differ():
    a = SimulatedSystem(_config(seed=1)).run(transactions=200)
    b = SimulatedSystem(_config(seed=2)).run(transactions=200)
    assert a.mean_response_time != b.mean_response_time


def test_open_system_mode():
    config = _config(arrival_rate=50.0, mpl=5)
    result = SimulatedSystem(config).run(transactions=400)
    # offered load 0.5 on a 100/s server: throughput tracks arrivals
    assert result.throughput == pytest.approx(50.0, rel=0.15)


def test_open_system_little_law():
    config = _config(arrival_rate=60.0, mpl=10)
    system = SimulatedSystem(config)
    result = system.run(transactions=1500)
    # E[N] = lambda E[T]; mean number in system from Little should be
    # consistent with response times (sanity, loose tolerance)
    assert result.mean_response_time < 0.2  # stable queue


def test_priority_fraction_splits_classes():
    config = _config(high_priority_fraction=0.3, policy="priority", mpl=2)
    result = SimulatedSystem(config).run(transactions=600)
    high = result.count_by_class.get(int(Priority.HIGH), 0)
    low = result.count_by_class.get(int(Priority.LOW), 0)
    assert high + low == result.completed
    assert high / result.completed == pytest.approx(0.3, abs=0.07)


def test_priority_policy_differentiates():
    config = _config(high_priority_fraction=0.1, policy="priority", mpl=1,
                     num_clients=40)
    result = SimulatedSystem(config).run(transactions=800)
    assert result.high_response_time < result.low_response_time
    assert result.differentiation > 2.0


def test_think_time_reduces_load():
    saturated = SimulatedSystem(_config()).run(transactions=400)
    relaxed = SimulatedSystem(
        _config(think_time_s=1.0)
    ).run(transactions=400)
    assert relaxed.mean_response_time < saturated.mean_response_time


def test_run_result_fields_populated():
    result = SimulatedSystem(_config(mpl=4)).run(transactions=300)
    assert isinstance(result, RunResult)
    assert result.mpl == 4
    assert set(result.utilizations) == {"cpu", "disk", "log"}
    assert result.sim_time > 0
    assert result.mean_external_wait >= 0
    assert result.restart_rate >= 0


def test_run_transactions_returns_window():
    system = SimulatedSystem(_config(mpl=2))
    first = system.run_transactions(50)
    second = system.run_transactions(50)
    assert len(first) == 50 and len(second) == 50
    assert second[0].completion_time >= first[-1].completion_time


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        SimulatedSystem(_config(arrival_rate=-1.0))
    system = SimulatedSystem(_config())
    with pytest.raises(ValueError):
        system.run_transactions(0)
    with pytest.raises(ValueError):
        system.run(transactions=100, warmup_fraction=1.0)
