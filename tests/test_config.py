"""Tests for hardware and policy configuration."""

import pytest

from repro.dbms.config import (
    HardwareConfig,
    InternalPolicy,
    IsolationLevel,
    LockSchedulingPolicy,
)
from repro.dbms.transaction import Priority


class TestHardwareConfig:
    def test_defaults_valid(self):
        hardware = HardwareConfig()
        assert hardware.num_cpus == 1
        assert hardware.cache_pages > 0

    def test_cache_scales_with_memory(self):
        small = HardwareConfig(memory_mb=512, bufferpool_mb=100)
        large = HardwareConfig(memory_mb=3072, bufferpool_mb=100)
        assert large.cache_pages > 4 * small.cache_pages

    def test_bufferpool_floor(self):
        # when memory is tiny the buffer pool still counts
        config = HardwareConfig(memory_mb=300, bufferpool_mb=1024)
        floor = int(0.75 * 1024 * 1024) // 4
        assert config.cache_pages == floor

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_cpus": 0},
            {"num_disks": 0},
            {"memory_mb": 0},
            {"cpu_speed": 0.0},
            {"disk_service_mean_ms": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            HardwareConfig(**kwargs)


class TestInternalPolicy:
    def test_stock_has_no_prioritization(self):
        policy = InternalPolicy.stock()
        assert policy.lock_scheduling is LockSchedulingPolicy.FIFO
        assert policy.cpu_weight(Priority.HIGH) == 1.0
        assert policy.cpu_weight(Priority.LOW) == 1.0

    def test_pow_policy(self):
        assert InternalPolicy.pow_locks().lock_scheduling is LockSchedulingPolicy.POW

    def test_cpu_priorities_weights(self):
        policy = InternalPolicy.cpu_priorities(high_weight=20.0, low_weight=1.0)
        assert policy.cpu_weight(Priority.HIGH) == 20.0
        assert policy.cpu_weight(Priority.LOW) == 1.0
        # unknown classes default to weight 1
        assert policy.cpu_weight(42) == 1.0


class TestIsolationLevel:
    def test_members(self):
        assert IsolationLevel.RR.value == "RR"
        assert IsolationLevel.UR.value == "UR"
