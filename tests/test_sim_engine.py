"""Tests for the discrete-event kernel."""

import pytest

from repro.sim.engine import (
    Interrupt,
    SimulationError,
    Simulator,
    resolve_kernel_lane,
)


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(2.5)
    sim.run()
    assert sim.now == 2.5


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_run_until_stops_early():
    sim = Simulator()
    sim.timeout(10.0)
    sim.run(until=3.0)
    assert sim.now == 3.0


def test_run_until_in_past_rejected():
    sim = Simulator()
    sim.timeout(1.0)
    sim.run()
    with pytest.raises(SimulationError):
        sim.run(until=0.5)


def test_process_receives_timeout_value():
    sim = Simulator()
    seen = []

    def proc():
        value = yield sim.timeout(1.0, value="hello")
        seen.append(value)

    sim.process(proc())
    sim.run()
    assert seen == ["hello"]


def test_process_return_value_becomes_event_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        return 42

    process = sim.process(proc())
    sim.run()
    assert process.value == 42
    assert process.processed


def test_processes_wait_on_each_other():
    sim = Simulator()

    def inner():
        yield sim.timeout(2.0)
        return "inner-done"

    def outer():
        result = yield sim.process(inner())
        return result + "!"

    process = sim.process(outer())
    sim.run()
    assert process.value == "inner-done!"
    assert sim.now == 2.0


def test_same_time_events_fire_in_scheduling_order():
    sim = Simulator()
    order = []

    def make(name):
        def proc():
            yield sim.timeout(1.0)
            order.append(name)

        return proc

    for name in "abc":
        sim.process(make(name)())
    sim.run()
    assert order == ["a", "b", "c"]


def test_event_succeed_twice_rejected():
    sim = Simulator()
    event = sim.event()
    event.succeed()
    with pytest.raises(SimulationError):
        event.succeed()


def test_event_fail_requires_exception():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.event().fail("not an exception")  # type: ignore[arg-type]


def test_failed_event_raises_inside_process():
    sim = Simulator()
    caught = []

    def proc():
        event = sim.event()
        event.fail(ValueError("boom"))
        try:
            yield event
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(proc())
    sim.run()
    assert caught == ["boom"]


def test_exception_escaping_process_propagates_in_strict_mode():
    """Strict is the kernel's only mode: a process body's exception
    leaves ``run`` instead of failing the process event."""
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        raise RuntimeError("bug in process")

    sim.process(proc())
    with pytest.raises(RuntimeError):
        sim.run()


def test_interrupt_is_raised_in_target():
    sim = Simulator()
    log = []

    def victim():
        try:
            yield sim.timeout(100.0)
        except Interrupt as interrupt:
            log.append(("interrupted", sim.now, interrupt.cause))

    def attacker(target):
        yield sim.timeout(1.0)
        target.interrupt("because")

    target = sim.process(victim())
    sim.process(attacker(target))
    sim.run()
    assert log == [("interrupted", 1.0, "because")]


def test_interrupting_finished_process_rejected():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)

    process = sim.process(proc())
    sim.run()
    with pytest.raises(SimulationError):
        process.interrupt()


def test_yielding_non_event_is_an_error():
    sim = Simulator()

    def proc():
        yield 42  # type: ignore[misc]

    sim.process(proc())
    with pytest.raises(SimulationError):
        sim.run()


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(4.0)
    assert sim.peek() == 4.0


def test_step_walks_the_agenda_in_time_order():
    """Stepping one instant at a time with ``run(until=peek())``."""
    sim = Simulator()
    times = []
    for delay in (0.5, 0.5, 1.25, 0.0, 3.0):
        sim.timeout(delay).add_callback(lambda e: times.append(sim.now))
    while sim.peek() != float("inf"):
        sim.run(until=sim.peek())
    assert times == [0.0, 0.5, 0.5, 1.25, 3.0]


def test_resolve_kernel_lane_is_py():
    # benchmark artifacts record this value
    assert resolve_kernel_lane() == "py"


def test_callback_after_processed_runs_immediately():
    sim = Simulator()
    event = sim.timeout(1.0, value="x")
    sim.run()
    seen = []
    event.add_callback(lambda e: seen.append(e.value))
    assert seen == ["x"]


def test_many_callbacks_fire_in_registration_order():
    """The single-callback slot plus overflow list must preserve order."""
    sim = Simulator()
    event = sim.timeout(1.0)
    order = []
    for name in "abcd":
        event.add_callback(lambda e, name=name: order.append(name))
    sim.run()
    assert order == list("abcd")


def test_remove_callback_promotes_overflow_head():
    sim = Simulator()
    event = sim.timeout(1.0)
    order = []
    first = lambda e: order.append("first")  # noqa: E731
    event.add_callback(first)
    event.add_callback(lambda e: order.append("second"))
    event.add_callback(lambda e: order.append("third"))
    event.remove_callback(first)
    sim.run()
    assert order == ["second", "third"]


def test_remove_callback_after_processed_is_noop():
    sim = Simulator()
    event = sim.timeout(1.0)
    callback = lambda e: None  # noqa: E731
    event.add_callback(callback)
    sim.run()
    event.remove_callback(callback)  # must not raise


def test_timeouts_are_recycled_when_unreferenced():
    """The free list must engage on the yield-a-timeout hot path."""
    sim = Simulator()

    def proc():
        for _ in range(200):
            yield sim.timeout(0.001)

    sim.process(proc())
    sim.run()
    assert sim.timeout_reuses > 0


def test_referenced_timeouts_are_never_recycled():
    """Events user code still holds must keep their identity and state."""
    sim = Simulator()
    held = [sim.timeout(0.5, value=i) for i in range(5)]

    def churn():
        for _ in range(300):
            yield sim.timeout(0.01)

    sim.process(churn())
    sim.run()
    # the held events fired exactly once and kept their values
    assert [event.value for event in held] == list(range(5))
    assert all(event.processed for event in held)
    assert len(set(map(id, held))) == 5


def test_recycled_timeout_behaves_like_fresh():
    sim = Simulator()
    seen = []

    def proc():
        value = yield sim.timeout(1.0, value="first")
        seen.append(value)
        value = yield sim.timeout(1.0, value="second")
        seen.append(value)

    sim.process(proc())
    sim.run()
    assert seen == ["first", "second"]
    assert sim.now == 2.0


def test_interrupt_then_timer_fire_does_not_resume_twice():
    """A detached wait's original timer must not resume the process."""
    sim = Simulator()
    log = []

    def victim():
        try:
            yield sim.timeout(5.0)
            log.append("timer")
        except Interrupt:
            log.append("interrupted")
            yield sim.timeout(100.0)
            log.append("after")

    def attacker(target):
        yield sim.timeout(1.0)
        target.interrupt()

    target = sim.process(victim())
    sim.process(attacker(target))
    sim.run()
    assert log == ["interrupted", "after"]


def test_interrupt_before_the_first_step_resumes_once():
    """A process interrupted the instant it is created takes its first
    step, then the interrupt; the event that step waits on must not
    resume it a second time (it used to finish the process twice)."""
    sim = Simulator()
    log = []

    def victim():
        try:
            yield sim.timeout(0.0)
            log.append("timer")
        except Interrupt as interrupt:
            log.append(("interrupted", interrupt.cause))
        return "done"

    process = sim.process(victim())
    process.interrupt("at birth")
    assert process.interrupt_pending
    sim.run()
    assert log == [("interrupted", "at birth")]
    assert process.value == "done"
    assert not process.interrupt_pending
