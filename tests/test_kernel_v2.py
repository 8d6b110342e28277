"""Kernel v2 edge cases: the two-lane agenda, hooks and pools.

Covers the corners the drain loop introduced: ``run(until=)`` landing
exactly on an event timestamp, the timeout free-list boundary,
interrupting a process that is blocked inside a same-timestamp batch,
empty-agenda ``peek()``, the :class:`Agenda` lanes and its
``retime``, the (time, insertion) firing order of :meth:`Simulator.run`
under every stop condition, in-kernel :class:`KernelHooks` counting,
and the shared zero-wait event :attr:`Simulator.done`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import (
    Agenda,
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


# delays are multiples of small binary fractions, so `now + delay` often
# lands on a pending timestamp and exercises tie-breaking; 0.0 exercises
# the same-instant FIFO
_DELAYS = st.sampled_from((0.0, 0.0, 0.25, 0.25, 0.5, 1.0, 1.0, 2.75))


# -- Agenda -------------------------------------------------------------------


class TestAgenda:
    def test_schedule_orders_by_time_then_sequence(self):
        sim = Simulator()
        order = []
        for name, when in (("a", 2.0), ("b", 1.0), ("c", 2.0)):
            event = Event(sim)
            event.add_callback(lambda e, name=name: order.append((sim.now, name)))
            sim._agenda.schedule(event, when)
        sim.run()
        assert order == [(1.0, "b"), (2.0, "a"), (2.0, "c")]  # tie: schedule order

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

    def test_retime_moves_the_head_with_a_fresh_sequence(self):
        sim = Simulator()
        order = []
        events = {}
        for name, when in (("a", 1.0), ("b", 2.0), ("c", 3.0)):
            events[name] = event = Event(sim)
            event.add_callback(lambda e, name=name: order.append((sim.now, name)))
            sim._agenda.schedule(event, when)
        assert sim._agenda.retime(events["a"], 3.0)
        assert len(sim._agenda) == 3  # moved, not duplicated
        sim.run()
        # a now ties with c and is younger, as if scheduled afresh
        assert order == [(2.0, "b"), (3.0, "c"), (3.0, "a")]

    def test_retime_refuses_the_current_instant(self):
        sim = Simulator()
        event = Event(sim)
        sim._agenda.schedule(event, 5.0)
        heap = list(sim._agenda._heap)
        assert not sim._agenda.retime(event, 0.0)  # == now
        assert sim._agenda._heap == heap and not sim._agenda._dq

    def test_retime_refuses_an_event_that_is_not_the_head(self):
        sim = Simulator()
        head, later, loose = Event(sim), Event(sim), Event(sim)
        sim._agenda.schedule(head, 1.0)
        sim._agenda.schedule(later, 2.0)
        heap = list(sim._agenda._heap)
        assert not sim._agenda.retime(later, 4.0)
        assert not sim._agenda.retime(loose, 4.0)  # not scheduled at all
        assert sim._agenda._heap == heap
        assert not Agenda().retime(head, 4.0)  # empty heap

    @settings(max_examples=80, deadline=None)
    @given(
        roots=st.lists(
            # a timeout and the timeouts its callback schedules, recursively
            st.recursive(
                st.tuples(_DELAYS, st.just(())),
                lambda children: st.tuples(
                    _DELAYS, st.lists(children, max_size=3).map(tuple)
                ),
                max_leaves=30,
            ),
            min_size=1,
            max_size=8,
        ),
        stops=st.lists(
            st.one_of(
                st.tuples(st.just("until"), _DELAYS),
                st.tuples(st.just("hooks"), st.integers(min_value=0, max_value=6)),
            ),
            max_size=6,
        ),
    )
    def test_pop_order_matches_a_time_then_insertion_model(self, roots, stops):
        """``run`` fires every timeout in (when, insertion order) — whether
        it was scheduled before the run or from inside a callback, went
        through the heap or the same-instant FIFO, and across every
        ``until=`` and :class:`KernelHooks` stop and resume."""
        sim = Simulator()
        fired = []
        pending = {}  # label -> (when, insertion index): the model
        inserted = [0]

        def schedule(node, label):
            delay, children = node
            pending[label] = (sim.now + delay, inserted[0])
            inserted[0] += 1
            sim.timeout(delay).add_callback(lambda e: fire(label, children))

        def fire(label, children):
            earliest = min(pending, key=pending.get)
            assert label == earliest and sim.now == pending.pop(label)[0]
            fired.append(label)
            for index, child in enumerate(children):
                schedule(child, label + (index,))

        for index, root in enumerate(roots):
            schedule(root, (index,))
        for kind, amount in stops:
            if kind == "until":
                until = sim.now + amount
                sim.run(until=until)
                assert sim.now == until
                assert all(when > until for when, _ in pending.values())
            else:
                target = len(fired) + amount
                sim.run(hooks=KernelHooks(fired, target))
                assert len(fired) == target or not pending
        sim.run()
        assert not pending and len(sim._agenda) == 0


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
        """A hooks target met by the first event of a same-timestamp
        batch stops the run there; the rest of the batch stays queued."""
        sim = Simulator()
        order = []
        sim.timeout(1.0).add_callback(lambda e: order.append("first"))
        sim.timeout(1.0).add_callback(lambda e: order.append("second"))
        sim.run(hooks=KernelHooks(order, 1))
        assert order == ["first"]
        # the rest of the t=1.0 batch is still pending
        assert sim.peek() == 1.0
        sim.run()
        assert order == ["first", "second"]


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


# -- Simulator.done: the shared zero-wait event ---------------------------------


def test_done_is_processed_and_cannot_fire_again():
    sim = Simulator()
    done = sim.done
    assert done.triggered and done.processed and done.ok and done.value is None
    with pytest.raises(SimulationError):
        done.succeed()
    with pytest.raises(SimulationError):
        done.fail(ValueError("x"))
    assert done.processed and done.value is None
    assert Simulator().done is not done  # one per simulator


def test_add_callback_on_done_runs_at_once():
    sim = Simulator()
    seen = []
    sim.done.add_callback(seen.append)
    assert seen == [sim.done]
    assert sim.done._cb is None and sim.done.callbacks is None


def test_yielding_done_resumes_in_the_same_step_without_an_agenda_entry():
    sim = Simulator()
    order = []

    def first():
        order.append("first:before")
        entries = len(sim._agenda)
        value = yield sim.done
        assert len(sim._agenda) == entries and value is None
        order.append("first:after")

    def second():
        order.append("second")
        yield sim.timeout(1.0)

    sim.process(first())
    sim.process(second())
    sim.run()
    # a scheduled zero-delay event would have let `second` run in between
    assert order == ["first:before", "first:after", "second"]


def test_done_never_reaches_a_free_list():
    sim = Simulator()

    def proc():
        for _ in range(5000):  # a long run resumes in a loop, not by recursion
            yield sim.done
        for _ in range(20):
            yield sim.event().succeed()
            yield sim.timeout(0.1)

    process = sim.process(proc())
    sim.run()
    assert process.processed and process.ok
    assert sim._event_pool and sim.timeout_reuses > 0  # the free lists did fill
    assert all(event is not sim.done for event in sim._event_pool)
    assert all(event is not sim.done for event in sim._timeout_pool)
    assert sim.event() is not sim.done
    assert sim.done.processed and sim.done.triggered


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
