"""Tests for transaction descriptors."""

import pytest

from repro.dbms.transaction import Priority, Transaction, TxStatus


def _tx(**kwargs):
    defaults = dict(tid=1, type_name="t", cpu_demand=0.01, page_accesses=5)
    defaults.update(kwargs)
    return Transaction(**defaults)


def test_defaults():
    tx = _tx()
    assert tx.status is TxStatus.QUEUED
    assert tx.priority == Priority.LOW
    assert tx.restarts == 0
    assert tx.response_time is None
    assert tx.execution_time is None
    assert tx.external_wait is None


def test_timing_properties():
    tx = _tx()
    tx.arrival_time = 1.0
    tx.dispatch_time = 3.0
    tx.completion_time = 7.0
    assert tx.response_time == pytest.approx(6.0)
    assert tx.execution_time == pytest.approx(4.0)
    assert tx.external_wait == pytest.approx(2.0)


def test_validation():
    with pytest.raises(ValueError):
        _tx(cpu_demand=-1.0)
    with pytest.raises(ValueError):
        _tx(page_accesses=-1)


def test_priority_ordering():
    assert Priority.HIGH > Priority.LOW
    assert int(Priority.HIGH) == 1
