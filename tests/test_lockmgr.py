"""Tests for the lock manager: 2PL, deadlocks, priority policies, POW."""

import pytest

from repro.dbms.config import LockSchedulingPolicy
from repro.dbms.lockmgr import DeadlockError, LockManager, LockMode
from repro.dbms.transaction import Priority, Transaction
from repro.sim.engine import Simulator


def _tx(tid, priority=Priority.LOW):
    return Transaction(
        tid=tid, type_name=f"t{tid}", cpu_demand=0.0, page_accesses=0,
        priority=priority,
    )


def test_exclusive_lock_blocks_second_writer():
    sim = Simulator()
    lockmgr = LockManager(sim)
    t1, t2 = _tx(1), _tx(2)
    log = []

    def holder():
        yield lockmgr.acquire(t1, 7, True)
        yield sim.timeout(2.0)
        lockmgr.release_all(t1)

    def waiter():
        yield sim.timeout(0.1)
        yield lockmgr.acquire(t2, 7, True)
        log.append(sim.now)

    sim.process(holder())
    sim.process(waiter())
    sim.run()
    assert log == [pytest.approx(2.0)]
    assert t2.lock_wait_time == pytest.approx(1.9)


def test_shared_locks_compatible():
    sim = Simulator()
    lockmgr = LockManager(sim)
    t1, t2 = _tx(1), _tx(2)
    granted = []

    def reader(tx):
        yield lockmgr.acquire(tx, 7, False)
        granted.append(sim.now)

    sim.process(reader(t1))
    sim.process(reader(t2))
    sim.run()
    assert granted == [0.0, 0.0]


def test_reader_behind_queued_writer_waits():
    """No barging: an S request behind a queued X request waits."""
    sim = Simulator()
    lockmgr = LockManager(sim)
    t1, t2, t3 = _tx(1), _tx(2), _tx(3)
    order = []

    def first_reader():
        yield lockmgr.acquire(t1, 7, False)
        yield sim.timeout(1.0)
        lockmgr.release_all(t1)

    def writer():
        yield sim.timeout(0.1)
        yield lockmgr.acquire(t2, 7, True)
        order.append(("writer", sim.now))
        yield sim.timeout(1.0)
        lockmgr.release_all(t2)

    def second_reader():
        yield sim.timeout(0.2)
        yield lockmgr.acquire(t3, 7, False)
        order.append(("reader", sim.now))

    sim.process(first_reader())
    sim.process(writer())
    sim.process(second_reader())
    sim.run()
    assert order == [("writer", pytest.approx(1.0)), ("reader", pytest.approx(2.0))]


def test_reentrant_grant():
    sim = Simulator()
    lockmgr = LockManager(sim)
    t1 = _tx(1)
    done = []

    def proc():
        yield lockmgr.acquire(t1, 7, True)
        yield lockmgr.acquire(t1, 7, True)  # re-entrant
        yield lockmgr.acquire(t1, 7, False)  # weaker mode, still held
        done.append(sim.now)

    sim.process(proc())
    sim.run()
    assert done == [0.0]


def test_zero_wait_grants_return_done_without_an_agenda_entry():
    sim = Simulator()
    lockmgr = LockManager(sim)
    t1, t2 = _tx(1), _tx(2)
    entries = len(sim._agenda)
    assert lockmgr.acquire(t1, 7, True) is sim.done  # new lock
    assert lockmgr.acquire(t1, 7, True) is sim.done  # re-entrant
    assert lockmgr.acquire(t1, 7, False) is sim.done  # weaker mode held
    assert lockmgr.acquire(t2, 8, False) is sim.done  # another new lock
    assert len(sim._agenda) == entries
    assert lockmgr.per_class[Priority.LOW].requests == 4
    blocked = lockmgr.acquire(t2, 7, False)  # a real wait still gets an event
    assert blocked is not sim.done and not blocked.triggered


def test_upgrade_waits_for_other_readers():
    sim = Simulator()
    lockmgr = LockManager(sim)
    t1, t2 = _tx(1), _tx(2)
    upgraded = []

    def upgrader():
        yield lockmgr.acquire(t1, 7, False)
        yield sim.timeout(0.1)
        yield lockmgr.acquire(t1, 7, True)  # upgrade S -> X
        upgraded.append(sim.now)

    def other_reader():
        yield lockmgr.acquire(t2, 7, False)
        yield sim.timeout(1.0)
        lockmgr.release_all(t2)

    sim.process(upgrader())
    sim.process(other_reader())
    sim.run()
    assert upgraded == [pytest.approx(1.0)]
    assert lockmgr.holders_of(7) == {1: True}


def test_deadlock_detected_and_requester_aborted():
    sim = Simulator()
    lockmgr = LockManager(sim)
    t1, t2 = _tx(1), _tx(2)
    failures = []

    def proc_a():
        yield lockmgr.acquire(t1, 1, True)
        yield sim.timeout(0.1)
        yield lockmgr.acquire(t1, 2, True)  # blocks on t2
        lockmgr.release_all(t1)

    def proc_b():
        yield lockmgr.acquire(t2, 2, True)
        yield sim.timeout(0.2)
        try:
            yield lockmgr.acquire(t2, 1, True)  # would close the cycle
        except DeadlockError:
            failures.append(sim.now)
            lockmgr.abort(t2)

    sim.process(proc_a())
    sim.process(proc_b())
    sim.run()
    assert failures == [pytest.approx(0.2)]
    assert lockmgr.deadlocks == 1
    # after t2 aborted, t1 got item 2 and finished; everything released
    assert lockmgr.holders_of(1) == {}
    assert lockmgr.holders_of(2) == {}


def test_priority_policy_reorders_waiters():
    sim = Simulator()
    lockmgr = LockManager(sim, policy=LockSchedulingPolicy.PRIORITY)
    holder = _tx(1)
    low = _tx(2, Priority.LOW)
    high = _tx(3, Priority.HIGH)
    order = []

    def holding():
        yield lockmgr.acquire(holder, 7, True)
        yield sim.timeout(1.0)
        lockmgr.release_all(holder)

    def wait(tx, name, delay):
        yield sim.timeout(delay)
        yield lockmgr.acquire(tx, 7, True)
        order.append(name)
        lockmgr.release_all(tx)

    sim.process(holding())
    sim.process(wait(low, "low", 0.1))  # queues first
    sim.process(wait(high, "high", 0.2))  # queues second but jumps ahead
    sim.run()
    assert order == ["high", "low"]


def test_fifo_policy_keeps_arrival_order():
    sim = Simulator()
    lockmgr = LockManager(sim, policy=LockSchedulingPolicy.FIFO)
    holder = _tx(1)
    low = _tx(2, Priority.LOW)
    high = _tx(3, Priority.HIGH)
    order = []

    def holding():
        yield lockmgr.acquire(holder, 7, True)
        yield sim.timeout(1.0)
        lockmgr.release_all(holder)

    def wait(tx, name, delay):
        yield sim.timeout(delay)
        yield lockmgr.acquire(tx, 7, True)
        order.append(name)
        lockmgr.release_all(tx)

    sim.process(holding())
    sim.process(wait(low, "low", 0.1))
    sim.process(wait(high, "high", 0.2))
    sim.run()
    assert order == ["low", "high"]


def test_pow_preempts_blocked_low_priority_holder():
    """POW: a low-priority holder that is itself waiting gets evicted."""
    sim = Simulator()
    preempted = []

    def preempt(tx):
        preempted.append(tx.tid)
        lockmgr.abort(tx)
        return True  # evicted

    lockmgr = LockManager(sim, policy=LockSchedulingPolicy.POW, preempt=preempt)
    blocker = _tx(1, Priority.LOW)
    victim = _tx(2, Priority.LOW)
    vip = _tx(3, Priority.HIGH)
    got = []

    def blocker_proc():
        yield lockmgr.acquire(blocker, 100, True)
        yield sim.timeout(10.0)
        lockmgr.release_all(blocker)

    def victim_proc():
        yield lockmgr.acquire(victim, 7, True)  # holds what vip wants
        yield sim.timeout(0.1)
        yield lockmgr.acquire(victim, 100, True)  # blocks behind blocker

    def vip_proc():
        yield sim.timeout(0.2)
        yield lockmgr.acquire(vip, 7, True)
        got.append(sim.now)

    sim.process(blocker_proc())
    sim.process(victim_proc())
    sim.process(vip_proc())
    sim.run()
    assert preempted == [2]
    assert lockmgr.preemptions == 1
    # vip obtained the lock right after the preemption, not after 10s
    assert got and got[0] < 1.0


def test_pow_does_not_preempt_running_holder():
    """POW only evicts holders that are blocked at another queue."""
    sim = Simulator()
    preempted = []

    def preempt(tx):
        preempted.append(tx.tid)
        lockmgr.abort(tx)
        return True  # evicted

    lockmgr = LockManager(sim, policy=LockSchedulingPolicy.POW, preempt=preempt)
    holder = _tx(1, Priority.LOW)
    vip = _tx(2, Priority.HIGH)
    got = []

    def holder_proc():
        yield lockmgr.acquire(holder, 7, True)
        yield sim.timeout(2.0)  # running, not lock-blocked
        lockmgr.release_all(holder)

    def vip_proc():
        yield sim.timeout(0.1)
        yield lockmgr.acquire(vip, 7, True)
        got.append(sim.now)

    sim.process(holder_proc())
    sim.process(vip_proc())
    sim.run()
    assert preempted == []
    assert got == [pytest.approx(2.0)]


def test_pow_requires_preempt_callback():
    sim = Simulator()
    with pytest.raises(ValueError):
        LockManager(sim, policy=LockSchedulingPolicy.POW)


def test_cancel_waits_removes_queued_request():
    sim = Simulator()
    lockmgr = LockManager(sim)
    t1, t2 = _tx(1), _tx(2)

    def holder():
        yield lockmgr.acquire(t1, 7, True)
        yield sim.timeout(1.0)
        lockmgr.release_all(t1)

    def waiter():
        yield sim.timeout(0.1)
        lockmgr.acquire(t2, 7, True)  # not yielded: stays queued
        yield sim.timeout(0.1)
        lockmgr.cancel_waits(t2)

    sim.process(holder())
    sim.process(waiter())
    sim.run()
    assert lockmgr.queue_length(7) == 0
    assert not lockmgr.is_waiting(t2)


def test_release_all_wakes_next_in_line():
    sim = Simulator()
    lockmgr = LockManager(sim)
    t1, t2, t3 = _tx(1), _tx(2), _tx(3)
    order = []

    def chain(tx, name, delay):
        yield sim.timeout(delay)
        yield lockmgr.acquire(tx, 7, True)
        order.append(name)
        yield sim.timeout(0.5)
        lockmgr.release_all(tx)

    sim.process(chain(t1, "a", 0.0))
    sim.process(chain(t2, "b", 0.1))
    sim.process(chain(t3, "c", 0.2))
    sim.run()
    assert order == ["a", "b", "c"]
    assert lockmgr.total_waiting == 0


def test_wait_statistics_accumulate():
    sim = Simulator()
    lockmgr = LockManager(sim)
    t1, t2 = _tx(1), _tx(2)

    def holder():
        yield lockmgr.acquire(t1, 7, True)
        yield sim.timeout(3.0)
        lockmgr.release_all(t1)

    def waiter():
        yield sim.timeout(1.0)
        yield lockmgr.acquire(t2, 7, True)
        lockmgr.release_all(t2)

    sim.process(holder())
    sim.process(waiter())
    sim.run()
    assert lockmgr.lock_waits == 1
    assert lockmgr.total_wait_time == pytest.approx(2.0)


def test_lock_mode_constants():
    assert LockMode.SHARED is False
    assert LockMode.EXCLUSIVE is True
