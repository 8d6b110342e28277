"""Tests for the DBMS engine."""

import pytest

from repro.dbms.config import HardwareConfig, InternalPolicy, IsolationLevel
from repro.dbms.engine import DatabaseEngine
from repro.dbms.transaction import Priority, Transaction, TxStatus
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams


def _engine(sim, isolation=IsolationLevel.RR, internal=None, **hardware_kwargs):
    defaults = dict(num_cpus=1, num_disks=1, memory_mb=3072, bufferpool_mb=1024)
    defaults.update(hardware_kwargs)
    hardware = HardwareConfig(**defaults)
    return DatabaseEngine(
        sim, hardware, db_pages=100_000, streams=RandomStreams(3),
        isolation=isolation, internal=internal,
    )


def _tx(tid, cpu=0.010, pages=0, locks=None, update=False, priority=Priority.LOW):
    return Transaction(
        tid=tid, type_name="t", cpu_demand=cpu, page_accesses=pages,
        lock_requests=locks or [], is_update=update, priority=priority,
    )


def test_transaction_commits():
    sim = Simulator()
    engine = _engine(sim)
    tx = _tx(1)
    process = engine.execute(tx)
    sim.run()
    assert process.value is tx
    assert tx.status is TxStatus.COMMITTED
    assert tx.completion_time is not None
    assert engine.committed == 1
    assert engine.in_flight == 0


def test_cpu_only_transaction_takes_cpu_time():
    sim = Simulator()
    engine = _engine(sim)
    tx = _tx(1, cpu=0.020)
    engine.execute(tx)
    sim.run()
    assert sim.now == pytest.approx(0.020, rel=0.01)


def test_update_transaction_forces_log():
    sim = Simulator()
    engine = _engine(sim)
    engine.execute(_tx(1, update=True))
    sim.run()
    assert engine.log.writes == 1


def test_read_only_transaction_skips_log():
    sim = Simulator()
    engine = _engine(sim)
    engine.execute(_tx(1, update=False))
    sim.run()
    assert engine.log.writes == 0


def test_locks_released_after_commit():
    sim = Simulator()
    engine = _engine(sim)
    engine.execute(_tx(1, locks=[(5, True), (9, False)]))
    sim.run()
    assert engine.lockmgr.holders_of(5) == {}
    assert engine.lockmgr.holders_of(9) == {}


def test_uncommitted_read_skips_shared_locks():
    sim = Simulator()
    engine = _engine(sim, isolation=IsolationLevel.UR)
    holds = []
    tx = _tx(1, cpu=0.010, locks=[(5, False), (9, True)])
    original_acquire = engine.lockmgr.acquire

    def spy(tx_arg, item, exclusive):
        holds.append((item, exclusive))
        return original_acquire(tx_arg, item, exclusive)

    engine.lockmgr.acquire = spy
    engine.execute(tx)
    sim.run()
    assert holds == [(9, True)]  # the shared request was elided


def test_repeatable_read_takes_all_locks():
    sim = Simulator()
    engine = _engine(sim, isolation=IsolationLevel.RR)
    holds = []
    original_acquire = engine.lockmgr.acquire

    def spy(tx_arg, item, exclusive):
        holds.append((item, exclusive))
        return original_acquire(tx_arg, item, exclusive)

    engine.lockmgr.acquire = spy
    engine.execute(_tx(1, locks=[(5, False), (9, True)]))
    sim.run()
    assert (5, False) in holds and (9, True) in holds


def test_conflicting_transactions_serialize():
    sim = Simulator()
    engine = _engine(sim)
    a = _tx(1, cpu=0.050, locks=[(5, True)])
    b = _tx(2, cpu=0.050, locks=[(5, True)])
    engine.execute(a)
    engine.execute(b)
    sim.run()
    assert engine.committed == 2
    # with full lock conflict they cannot overlap on the hot item
    assert sim.now >= 0.095


def test_deadlock_restarts_and_eventually_commits():
    sim = Simulator()
    engine = _engine(sim)
    # opposite acquisition orders with CPU work between the acquisitions
    a = _tx(1, cpu=0.050, locks=[(1, True), (2, True)])
    b = _tx(2, cpu=0.050, locks=[(2, True), (1, True)])
    engine.execute(a)
    engine.execute(b)
    sim.run()
    assert engine.committed == 2
    # at least one deadlock restart happened (orders conflict head-on)
    assert engine.restarts >= 1
    assert engine.lockmgr.holders_of(1) == {}


def test_io_bound_transaction_uses_disks():
    sim = Simulator()
    hardware = HardwareConfig(num_cpus=1, num_disks=1, memory_mb=512,
                              bufferpool_mb=100)
    engine = DatabaseEngine(
        sim, hardware, db_pages=1_500_000, streams=RandomStreams(3),
    )
    assert engine.miss_probability > 0.5
    engine.execute(_tx(1, cpu=0.001, pages=40))
    sim.run()
    assert engine.disks.requests_served > 0


def test_utilization_snapshot_keys():
    sim = Simulator()
    engine = _engine(sim)
    engine.execute(_tx(1))
    sim.run()
    snapshot = engine.utilization_snapshot(sim.now)
    assert set(snapshot) == {"cpu", "disk", "log"}
    assert snapshot["cpu"] > 0.9


def test_cpu_weights_prioritize_high():
    sim = Simulator()
    engine = _engine(sim, internal=InternalPolicy.cpu_priorities(high_weight=20.0))
    high = _tx(1, cpu=0.100, priority=Priority.HIGH)
    low = _tx(2, cpu=0.100, priority=Priority.LOW)
    times = {}
    engine.execute(high).add_callback(lambda e: times.setdefault("high", sim.now))
    engine.execute(low).add_callback(lambda e: times.setdefault("low", sim.now))
    sim.run()
    assert times["high"] < times["low"]


def test_lock_schedule_spreads_locks():
    schedule = DatabaseEngine._lock_schedule(4, 8)
    assert tuple(schedule) == (0, 2, 4, 6)
    assert tuple(DatabaseEngine._lock_schedule(0, 5)) == ()
    assert tuple(DatabaseEngine._lock_schedule(3, 1)) == (0, 0, 0)
    # memoized: the same shape returns the same immutable schedule
    assert DatabaseEngine._lock_schedule(4, 8) is schedule
