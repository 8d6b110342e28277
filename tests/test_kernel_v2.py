"""Kernel v2 edge cases: batched agenda, hooks, pools, composites.

Covers the corners the batched drain loop introduced: ``run(until=)``
landing exactly on an event timestamp, the timeout free-list boundary,
interrupting a process that is blocked inside a same-timestamp batch,
empty-agenda ``peek()``, the :class:`Agenda` API itself, in-kernel
:class:`KernelHooks` counting, and the composite-event callback
detachment (with its timeout-pool interaction).
"""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import (
    Agenda,
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    KernelHooks,
    SimulationError,
    Simulator,
    Timeout,
)


# -- run(until=) boundary -----------------------------------------------------


def test_run_until_exactly_on_event_timestamp_fires_the_event():
    sim = Simulator()
    fired = []
    sim.timeout(2.0).add_callback(lambda e: fired.append(sim.now))
    sim.timeout(5.0)
    sim.run(until=2.0)
    assert fired == [2.0]
    assert sim.now == 2.0
    # the later event is untouched
    assert sim.peek() == 5.0


def test_run_until_between_events_advances_clock_only():
    sim = Simulator()
    fired = []
    sim.timeout(1.0).add_callback(lambda e: fired.append(sim.now))
    sim.timeout(4.0).add_callback(lambda e: fired.append(sim.now))
    sim.run(until=2.5)
    assert fired == [1.0]
    assert sim.now == 2.5
    sim.run()
    assert fired == [1.0, 4.0]


def test_run_until_with_same_timestamp_cascade_finishes_the_instant():
    """Zero-delay events spawned at the until instant still fire."""
    sim = Simulator()
    order = []

    def chain(event):
        order.append("first")
        follow = sim.event()
        follow.add_callback(lambda e: order.append("second"))
        follow.succeed()

    sim.timeout(3.0).add_callback(chain)
    sim.run(until=3.0)
    assert order == ["first", "second"]
    assert sim.now == 3.0


# -- timeout free list --------------------------------------------------------


def test_timeout_pool_respects_limit():
    sim = Simulator()

    def churn():
        for _ in range(3 * Simulator.TIMEOUT_POOL_LIMIT):
            yield sim.timeout(0.001)

    sim.process(churn())
    sim.run()
    assert sim.timeout_reuses > 0
    assert len(sim._timeout_pool) <= Simulator.TIMEOUT_POOL_LIMIT


def test_timeout_pool_boundary_exact_fill():
    """Firing exactly LIMIT unreferenced timeouts fills, never overfills."""
    sim = Simulator()
    for _ in range(Simulator.TIMEOUT_POOL_LIMIT + 50):
        sim.timeout(1.0)  # unreferenced: all recyclable
    sim.run()
    assert len(sim._timeout_pool) == Simulator.TIMEOUT_POOL_LIMIT


def test_event_pool_recycles_unreferenced_fired_events():
    sim = Simulator()

    def proc():
        for _ in range(50):
            yield sim.fired()

    sim.process(proc())
    sim.run()
    assert len(sim._event_pool) > 0
    # pooled events come back pending and fresh
    event = sim.event()
    assert not event.triggered and not event.processed
    assert event.value is None and event.ok


# -- interrupt inside a same-timestamp batch ---------------------------------


def test_interrupt_of_process_blocked_inside_same_timestamp_batch():
    """Interrupting a process whose wakeup shares the current batch.

    Attacker and victim both wake at t=2.0; the attacker was scheduled
    first, so it runs first within the batch and interrupts the victim
    while the victim's own timeout is still pending *in the same
    batch*.  The victim must see exactly one Interrupt at t=2.0, and
    its detached timeout must fire without resuming it a second time.
    """
    sim = Simulator()
    log = []
    target = []

    def victim():
        try:
            yield sim.timeout(2.0)
            log.append("timer")
        except Interrupt as interrupt:
            log.append(("interrupted", sim.now, interrupt.cause))

    def attacker():
        yield sim.timeout(2.0)
        target[0].interrupt("batched")

    sim.process(attacker())  # scheduled first: wins the t=2.0 batch
    target.append(sim.process(victim()))
    sim.run()
    assert log == [("interrupted", 2.0, "batched")]
    assert target[0].processed  # victim finished exactly once


def test_interrupt_after_victim_resumed_in_batch_is_an_error():
    """A same-batch interrupt that loses the race hits a finished process."""
    sim = Simulator()
    target = []

    def victim():
        yield sim.timeout(2.0)

    def attacker():
        yield sim.timeout(2.0)
        target[0].interrupt("too-late")

    target.append(sim.process(victim()))  # victim's wakeup fires first
    sim.process(attacker())
    with pytest.raises(SimulationError):
        sim.run()


# -- peek ---------------------------------------------------------------------


def test_peek_on_empty_agenda_is_infinite():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(1.0)
    sim.run()
    assert sim.peek() == float("inf")


def test_peek_sees_same_instant_fifo_entries():
    sim = Simulator()
    sim.event().succeed()  # same-instant FIFO entry
    assert sim.peek() == 0.0


# -- Agenda -------------------------------------------------------------------


class TestAgenda:
    def test_schedule_orders_by_time_then_sequence(self):
        agenda = Agenda()
        sim = Simulator()
        a, b, c = Event(sim), Event(sim), Event(sim)
        agenda.schedule(a, 2.0)
        agenda.schedule(b, 1.0)
        agenda.schedule(c, 2.0)
        batch = []
        assert agenda.pop_batch(batch) == 1
        assert batch[0][2] is b
        batch.clear()
        assert agenda.pop_batch(batch) == 2
        assert [entry[2] for entry in batch] == [a, c]  # tie: schedule order

    def test_pop_batch_pops_whole_timestamp_run(self):
        agenda = Agenda()
        sim = Simulator()
        events = [Event(sim) for _ in range(5)]
        for event in events:
            agenda.schedule(event, 3.0)
        agenda.schedule(Event(sim), 4.0)
        batch = []
        assert agenda.pop_batch(batch) == 5
        assert [entry[2] for entry in batch] == events
        assert len(agenda) == 1

    def test_pop_batch_entries_can_be_pushed_back(self):
        agenda = Agenda()
        sim = Simulator()
        first, second = Event(sim), Event(sim)
        agenda.schedule(first, 1.0)
        agenda.schedule(second, 1.0)
        batch = []
        agenda.pop_batch(batch)
        heapq.heappush(agenda._heap, batch[1])  # put the tail back
        when, event = agenda.pop()
        assert when == 1.0 and event is second

    def test_pop_batch_on_empty_agenda_raises(self):
        agenda = Agenda()
        with pytest.raises(SimulationError):
            agenda.pop_batch([])

    def test_same_instant_entries_use_the_fifo(self):
        agenda = Agenda()
        sim = Simulator()
        event = Event(sim)
        agenda.schedule(event, 0.0)  # == agenda's current instant
        assert len(agenda._heap) == 0 and len(agenda._dq) == 1
        assert agenda.peek() == 0.0
        agenda.flush()
        assert len(agenda._heap) == 1 and len(agenda._dq) == 0

    def test_len_counts_both_lanes(self):
        agenda = Agenda()
        sim = Simulator()
        agenda.schedule(Event(sim), 0.0)
        agenda.schedule(Event(sim), 7.0)
        assert len(agenda) == 2
        assert bool(agenda)

    # delays are multiples of small binary fractions, so `now + delay`
    # often lands on a pending timestamp and exercises tie-breaking;
    # 0.0 exercises the same-instant FIFO
    @settings(max_examples=80, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(
                st.sampled_from((0.0, 0.0, 0.25, 0.25, 0.5, 1.0, 1.0, 2.75)),
                st.just("pop"),
                st.just("flush"),
            ),
            min_size=1,
            max_size=80,
        )
    )
    def test_pop_order_matches_a_time_then_insertion_model(self, ops):
        """Any schedule/pop/flush sequence pops in (when, insertion
        order), whether an entry went through the heap or the FIFO."""
        agenda = Agenda()
        sim = Simulator()
        events = []  # insertion order
        model = []  # pending (when, insertion index)
        for op in ops:
            if op == "flush":
                agenda.flush()
            elif op == "pop":
                if not model:
                    continue
                batch = []
                agenda.pop_batch(batch)
                earliest = min(when for when, _ in model)
                expected = [entry for entry in model if entry[0] == earliest]
                model = [entry for entry in model if entry[0] != earliest]
                assert [(when, events.index(event)) for when, _, event in batch] == expected
            else:
                event = Event(sim)
                when = agenda._now + op
                agenda.schedule(event, when)
                model.append((when, len(events)))
                events.append(event)
        assert len(agenda) == len(model)


# -- KernelHooks --------------------------------------------------------------


class TestKernelHooks:
    def test_run_stops_exactly_at_target_count(self):
        sim = Simulator()
        records = []

        def producer():
            for index in range(10):
                yield sim.timeout(1.0)
                records.append(index)

        sim.process(producer())
        sim.run(hooks=KernelHooks(records, 4))
        assert len(records) == 4
        assert sim.now == 4.0
        sim.run(hooks=KernelHooks(records, 7))
        assert len(records) == 7

    def test_already_satisfied_hooks_do_not_advance(self):
        sim = Simulator()
        sim.timeout(5.0)
        hooks = KernelHooks([1, 2], 2)
        assert hooks.satisfied()
        sim.run(hooks=hooks)
        assert sim.now == 0.0
        assert sim.peek() == 5.0

    def test_hooks_with_drained_agenda_returns(self):
        sim = Simulator()
        records = []
        sim.timeout(1.0).add_callback(lambda e: records.append(1))
        sim.run(hooks=KernelHooks(records, 5))  # drains before target
        assert records == [1]
        assert sim.peek() == float("inf")

    def test_stop_event_mid_batch_preserves_remaining_events(self):
        sim = Simulator()
        order = []
        first = sim.timeout(1.0)
        first.add_callback(lambda e: order.append("first"))
        second = sim.timeout(1.0)
        second.add_callback(lambda e: order.append("second"))
        value = sim.run(stop=first)
        assert order == ["first"]
        assert value is first.value
        # the rest of the t=1.0 batch is still pending
        assert sim.peek() == 1.0
        sim.run()
        assert order == ["first", "second"]


# -- composite events: callback detachment ------------------------------------


class TestCompositeDetach:
    def test_any_of_detaches_losers(self):
        sim = Simulator()
        slow = sim.timeout(5.0)
        fast = sim.timeout(1.0)
        any_event = AnyOf(sim, [slow, fast])
        sim.run(until=1.0)
        assert any_event.processed
        # the loser no longer carries the composite's callback
        assert slow._cb is None and not slow.callbacks

    def test_any_of_losers_return_to_timeout_pool(self):
        """Regression: detached losers must become recyclable again.

        Each iteration races a fast timeout against a slow one; once
        the composite fires, the loser is detached, so when it finally
        fires nothing references it and it returns to the free list.
        Before the detach fix the losers kept the composite's bound
        callback (pinning the whole AnyOf graph) and never recycled.
        """
        sim = Simulator()

        def proc():
            for _ in range(40):
                fast = sim.timeout(0.001)
                slow = sim.timeout(1000.0)
                yield sim.any_of([fast, slow])

        sim.process(proc())
        sim.run()
        assert len(sim._timeout_pool) > 0

    def test_all_of_detaches_on_early_failure(self):
        sim = Simulator()
        failing = sim.event()
        pending = sim.timeout(10.0)
        all_event = AllOf(sim, [failing, pending])
        failing.fail(ValueError("boom"))
        sim.run(until=0.5)
        assert all_event.processed and not all_event.ok
        assert pending._cb is None and not pending.callbacks

    def test_all_of_still_collects_every_value(self):
        sim = Simulator()
        events = [sim.timeout(t, value=t) for t in (1.0, 2.0, 3.0)]
        all_event = AllOf(sim, events)
        sim.run()
        assert sorted(all_event.value.values()) == [1.0, 2.0, 3.0]

    def test_any_of_fail_detaches_and_propagates(self):
        sim = Simulator()
        failing = sim.event()
        pending = sim.timeout(10.0)
        any_event = AnyOf(sim, [failing, pending])
        failing.fail(RuntimeError("first failure wins"))
        sim.run(until=0.5)
        assert any_event.processed and not any_event.ok
        assert pending._cb is None and not pending.callbacks


# -- fired() ------------------------------------------------------------------


def test_fired_event_fires_with_value_through_run():
    sim = Simulator()
    seen = []

    def proc():
        value = yield sim.fired("granted")
        seen.append((sim.now, value))

    sim.process(proc())
    sim.run()
    assert seen == [(0.0, "granted")]


def test_fired_preserves_scheduling_order_with_succeed():
    sim = Simulator()
    order = []
    a = sim.event()
    a.add_callback(lambda e: order.append("succeed"))
    a.succeed()
    b = sim.fired()
    b.add_callback(lambda e: order.append("fired"))
    sim.run()
    assert order == ["succeed", "fired"]


# -- Timeout identity through the free list -----------------------------------


def test_timeout_class_identity_preserved_through_recycling():
    sim = Simulator()
    timer = sim.timeout(1.0)
    assert isinstance(timer, Timeout)
    sim.run()

    def churn():
        for _ in range(20):
            served = yield sim.timeout(0.5, value="v")
            assert served == "v"

    sim.process(churn())
    sim.run()
    assert sim.timeout_reuses > 0
    assert isinstance(sim.timeout(1.0), Timeout)  # pool-served instance
