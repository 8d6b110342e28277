"""Tests for the external scheduling front-end (the MPL gate)."""

import pytest

from repro.core.frontend import ExternalScheduler
from repro.core.policies import PriorityPolicy
from repro.dbms.config import HardwareConfig
from repro.dbms.engine import DatabaseEngine
from repro.dbms.transaction import Priority, Transaction
from repro.metrics.collector import MetricsCollector
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams


def _system(mpl=None, policy=None, cpus=1):
    sim = Simulator()
    engine = DatabaseEngine(
        sim,
        HardwareConfig(num_cpus=cpus, num_disks=1, memory_mb=3072, bufferpool_mb=1024),
        db_pages=1000,
        streams=RandomStreams(5),
    )
    collector = MetricsCollector()
    frontend = ExternalScheduler(sim, engine, mpl=mpl, policy=policy, collector=collector)
    return sim, engine, frontend, collector


def _tx(tid, cpu=0.010, priority=Priority.LOW):
    return Transaction(
        tid=tid, type_name="t", cpu_demand=cpu, page_accesses=0, priority=priority
    )


def test_mpl_limits_concurrency():
    sim, engine, frontend, _ = _system(mpl=2)
    peak = {"value": 0}
    original_execute = engine.execute

    def spy(tx):
        process = original_execute(tx)
        peak["value"] = max(peak["value"], frontend.in_service)
        return process

    engine.execute = spy
    for tid in range(10):
        frontend.submit(_tx(tid))
    sim.run()
    assert peak["value"] <= 2
    assert frontend.completed == 10


def test_withdraw_pulls_back_only_queued_work():
    sim, _engine, frontend, _ = _system(mpl=1)
    running, queued = _tx(1), _tx(2)
    frontend.submit(running)
    frontend.submit(queued)
    assert frontend.withdraw(queued) is True
    assert (frontend.queue_length, frontend.removed) == (0, 1)
    # dispatched work stays with the engine and is not counted
    assert frontend.withdraw(running) is False
    assert frontend.removed == 1
    sim.run()
    assert frontend.completed == 1


def test_unlimited_mpl_dispatches_everything():
    sim, _engine, frontend, _ = _system(mpl=None)
    for tid in range(10):
        frontend.submit(_tx(tid))
    assert frontend.in_service == 10
    assert frontend.queue_length == 0
    sim.run()


def test_queue_holds_excess():
    sim, _engine, frontend, _ = _system(mpl=3)
    for tid in range(10):
        frontend.submit(_tx(tid))
    assert frontend.in_service == 3
    assert frontend.queue_length == 7
    sim.run()
    assert frontend.queue_length == 0


def test_completion_event_carries_transaction():
    sim, _engine, frontend, _ = _system(mpl=1)
    tx = _tx(1)
    done = frontend.submit(tx)
    sim.run()
    assert done.processed
    assert done.value is tx


def test_raising_mpl_dispatches_queued_work():
    sim, _engine, frontend, _ = _system(mpl=1)
    for tid in range(5):
        frontend.submit(_tx(tid, cpu=1.0))
    assert frontend.in_service == 1
    frontend.set_mpl(4)
    assert frontend.in_service == 4


def test_lowering_mpl_drains_gracefully():
    sim, _engine, frontend, _ = _system(mpl=4)
    for tid in range(8):
        frontend.submit(_tx(tid, cpu=0.010))
    assert frontend.in_service == 4
    frontend.set_mpl(1)
    # nothing evicted: the four in flight finish, then one at a time
    assert frontend.in_service == 4
    sim.run()
    assert frontend.completed == 8


def test_priority_policy_dispatches_high_first():
    sim, _engine, frontend, collector = _system(mpl=1, policy=PriorityPolicy())
    frontend.submit(_tx(1, cpu=0.010, priority=Priority.LOW))  # enters service
    frontend.submit(_tx(2, cpu=0.010, priority=Priority.LOW))
    frontend.submit(_tx(3, cpu=0.010, priority=Priority.HIGH))
    sim.run()
    order = [record.tid for record in collector.records]
    assert order == [1, 3, 2]


def test_collector_sees_arrivals_and_completions():
    sim, _engine, frontend, collector = _system(mpl=2)
    for tid in range(6):
        frontend.submit(_tx(tid))
    sim.run()
    assert collector.arrivals == 6
    assert len(collector.records) == 6


def test_arrival_time_stamped_on_submit():
    sim, _engine, frontend, _ = _system(mpl=1)

    def late():
        yield sim.timeout(5.0)
        tx = _tx(99)
        frontend.submit(tx)
        return tx

    process = sim.process(late())
    sim.run()
    assert process.value.arrival_time == pytest.approx(5.0)


def test_external_wait_measured():
    sim, _engine, frontend, collector = _system(mpl=1)
    frontend.submit(_tx(1, cpu=1.0))
    frontend.submit(_tx(2, cpu=1.0))
    sim.run()
    waits = {r.tid: r.external_wait for r in collector.records}
    assert waits[1] == pytest.approx(0.0)
    assert waits[2] == pytest.approx(1.0, rel=0.01)


def test_invalid_mpl_rejected():
    sim, engine, frontend, _ = _system()
    with pytest.raises(ValueError):
        ExternalScheduler(sim, engine, mpl=0)
    with pytest.raises(ValueError):
        frontend.set_mpl(0)
