"""Tests for metrics collection and statistics."""

import pytest

from repro.dbms.transaction import Priority, Transaction
from repro.metrics.collector import MetricsCollector, TransactionRecord
from repro.metrics.stats import (
    confidence_interval,
    mean,
    percentile,
    relative_half_width,
    scv,
    variance,
)


def _record(tid, arrival, dispatch, completion, priority=Priority.LOW, restarts=0):
    return TransactionRecord(
        tid=tid, type_name="t", priority=priority,
        arrival_time=arrival, dispatch_time=dispatch,
        completion_time=completion, restarts=restarts, lock_wait_time=0.0,
    )


def _completed_tx(tid, arrival, dispatch, completion, priority=Priority.LOW):
    tx = Transaction(tid=tid, type_name="t", cpu_demand=0.01, page_accesses=0,
                     priority=priority)
    tx.arrival_time = arrival
    tx.dispatch_time = dispatch
    tx.completion_time = completion
    return tx


class TestStats:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        assert mean([]) == 0.0

    def test_variance_unbiased(self):
        assert variance([1.0, 3.0]) == pytest.approx(2.0)
        assert variance([5.0]) == 0.0

    def test_scv(self):
        assert scv([1.0, 1.0, 1.0]) == 0.0
        values = [0.5, 1.5]
        assert scv(values) == pytest.approx(variance(values) / 1.0)

    def test_confidence_interval_shrinks_with_samples(self):
        small = confidence_interval([1.0, 2.0, 3.0])[1]
        large = confidence_interval([1.0, 2.0, 3.0] * 30)[1]
        assert large < small

    def test_relative_half_width(self):
        assert relative_half_width([2.0, 2.0, 2.0, 2.0]) == 0.0
        assert relative_half_width([1.0]) == float("inf")

    def test_percentile(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == pytest.approx(50.5)
        assert percentile(values, 0) == 1
        assert percentile(values, 100) == 100
        with pytest.raises(ValueError):
            percentile(values, 150)


class TestTransactionRecord:
    def test_derived_times(self):
        record = _record(1, arrival=1.0, dispatch=2.0, completion=5.0)
        assert record.response_time == pytest.approx(4.0)
        assert record.execution_time == pytest.approx(3.0)
        assert record.external_wait == pytest.approx(1.0)


class TestCollector:
    def test_on_completion_requires_finished_tx(self):
        collector = MetricsCollector()
        tx = Transaction(tid=1, type_name="t", cpu_demand=0.0, page_accesses=0)
        with pytest.raises(ValueError):
            collector.on_completion(tx)

    def test_throughput_over_completion_span(self):
        collector = MetricsCollector()
        for tid in range(5):
            collector.on_completion(_completed_tx(tid, 0.0, 0.0, 1.0 + tid))
        # 5 completions spread over 4 seconds -> 1/s
        assert collector.throughput() == pytest.approx(1.0)

    def test_warmup_trims_prefix(self):
        collector = MetricsCollector()
        for tid in range(10):
            collector.on_completion(_completed_tx(tid, 0.0, 0.0, float(tid + 1)))
        assert len(collector.completed(warmup=4)) == 6
        with pytest.raises(ValueError):
            collector.completed(warmup=-1)

    def test_mean_response_time_by_class(self):
        collector = MetricsCollector()
        collector.on_completion(_completed_tx(1, 0.0, 0.0, 1.0, Priority.HIGH))
        collector.on_completion(_completed_tx(2, 0.0, 0.0, 3.0, Priority.LOW))
        collector.on_completion(_completed_tx(3, 0.0, 0.0, 5.0, Priority.LOW))
        assert collector.mean_response_time(priority=Priority.HIGH) == 1.0
        assert collector.mean_response_time(priority=Priority.LOW) == 4.0

    def test_restart_rate(self):
        collector = MetricsCollector()
        tx = _completed_tx(1, 0.0, 0.0, 1.0)
        tx.restarts = 2
        collector.on_completion(tx)
        collector.on_completion(_completed_tx(2, 0.0, 0.0, 2.0))
        assert collector.restart_rate() == pytest.approx(1.0)

    def test_empty_collector_safe(self):
        collector = MetricsCollector()
        assert collector.throughput() == 0.0
        assert collector.mean_response_time() == 0.0
        assert collector.restart_rate() == 0.0
