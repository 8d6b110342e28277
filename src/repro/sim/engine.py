"""A minimal, deterministic discrete-event simulation engine.

The engine follows the classic event/process design (as popularized by
SimPy) but is intentionally small and dependency free:

* :class:`Simulator` owns the virtual clock and an :class:`Agenda`.
* :class:`Event` is a one-shot occurrence with callbacks and a value.
* :class:`Process` wraps a Python generator; each ``yield``-ed event
  suspends the process until the event fires.

Determinism matters for reproducing the paper's experiments, so ties in
time are broken by a monotonically increasing sequence number: two
events scheduled for the same instant fire in scheduling order.

The hot path is tuned for the workload the DBMS model generates —
millions of events, almost all of which have exactly one waiter:

* **Two-lane agenda** — the :class:`Agenda` owns the (time, sequence)
  total order behind one ``schedule`` entry point; events landing on
  the current instant (lock grants, completion notifications, process
  bootstraps) skip the heap for a plain FIFO.
* **One drain loop** — :meth:`Simulator.run` is the only way events
  fire: a single stack frame with every per-event lookup bound to a
  local.  Measurement loops hand the kernel a :class:`KernelHooks` so
  "run until N completions" is an inlined length check instead of an
  outer Python loop.
* **Single-waiter fast path** — an event stores its first callback in a
  dedicated slot and only allocates a callback list when a second
  waiter appears, so the common yield/resume cycle never touches a
  list.
* **Timeout recycling** — fired :class:`Timeout` events that nobody
  references anymore (checked via the CPython refcount) return to a
  per-simulator free list and are reused by the next
  :meth:`Simulator.timeout` call instead of being reallocated.
* **Allocation-free stepping** — :class:`Process` resumes its generator
  directly (no per-step closures, no per-interrupt closures) and
  schedules itself without intermediate helper events beyond the
  initial bootstrap.
* **Zero-wait grants** — :attr:`Simulator.done` is one shared,
  already-processed event; a waiter that yields it resumes in the same
  step, with no agenda entry.

None of this changes observable semantics: event ordering, values and
callback sequencing are identical to the straightforward
implementation.
"""

from __future__ import annotations

import heapq
import sys
from collections import deque
from typing import Any, Callable, Deque, Generator, List, Optional, Tuple


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""


class Interrupt(Exception):
    """Thrown into a process that another process interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Agenda:
    """The simulator's future-event set: a (time, sequence) total order.

    A binary heap of ``(when, sequence, event)`` entries plus a plain
    FIFO of *same-instant* events, behind a single :meth:`schedule`
    entry point — every scheduling site in the kernel
    (``Event.succeed``, ``Timeout``, the timeout free list,
    ``Simulator._schedule``) funnels through it, so the tie-breaking
    order has exactly one owner.

    The FIFO is the zero-delay fast path.  Most events the DBMS model
    fires are scheduled *at the current instant* (lock grants,
    completion notifications, process bootstraps); those skip the heap
    entirely — no entry tuple, no sequence number, no ``heappush`` /
    ``heappop`` — and are served in append order.  The combined order
    is exactly the (time, sequence) order of a single heap:

    * a heap entry at the current instant was necessarily scheduled at
      an *earlier* instant (``schedule`` routes anything landing on the
      current instant — even a positive delay rounded down by float
      addition — to the FIFO), so it is older than every FIFO entry and
      fires first;
    * FIFO entries fire in scheduling order among themselves;
    * everything else in the heap lies strictly in the future.

    Whenever control leaves the drain loop (:meth:`flush`, called on
    every :meth:`Simulator.run` exit), pending FIFO entries are folded
    back into the heap with fresh sequence numbers — they are the
    youngest entries at their timestamp, so the total order is
    unchanged and the heap alone is again authoritative.
    """

    __slots__ = ("_heap", "_dq", "_sequence", "_now")

    def __init__(self):
        self._heap: List[Tuple[float, int, "Event"]] = []
        self._dq: Deque["Event"] = deque()  # same-instant FIFO
        self._sequence = 0
        self._now = 0.0

    def schedule(self, event: "Event", when: float) -> None:
        """Add ``event`` at time ``when`` (ties fire in schedule order)."""
        if when == self._now:
            self._dq.append(event)
        else:
            self._sequence = sequence = self._sequence + 1
            heapq.heappush(self._heap, (when, sequence, event))

    def flush(self) -> None:
        """Fold pending same-instant entries into the heap.

        They receive fresh (youngest) sequence numbers at the current
        instant, which is exactly the order they already occupied.
        """
        dq = self._dq
        if dq:
            heap = self._heap
            now = self._now
            sequence = self._sequence
            push = heapq.heappush
            for event in dq:
                sequence += 1
                push(heap, (now, sequence, event))
            self._sequence = sequence
            dq.clear()

    def retime(self, event: "Event", when: float) -> bool:
        """Move ``event``, the heap's earliest entry, to time ``when``.

        One ``heapreplace`` with a fresh sequence number: the agenda
        ends up exactly as if the old entry had been dropped and
        ``schedule(event, when)`` called.  Refuses — returns False and
        changes nothing — when ``event`` is not the heap head, or when
        ``when`` is not in the future (``schedule`` would route the
        current instant to the FIFO).
        """
        heap = self._heap
        if not heap or heap[0][2] is not event or when <= self._now:
            return False
        self._sequence = sequence = self._sequence + 1
        heapq.heapreplace(heap, (when, sequence, event))
        return True

    def peek(self) -> float:
        """Time of the earliest entry, or ``inf`` when empty."""
        if self._dq:
            return self._now
        heap = self._heap
        return heap[0][0] if heap else float("inf")

    def __len__(self) -> int:
        return len(self._heap) + len(self._dq)

    def __bool__(self) -> bool:
        return bool(self._heap) or bool(self._dq)


def resolve_kernel_lane() -> str:
    """The kernel implementation every :class:`Simulator` runs: ``"py"``.

    Kept so benchmark artifacts can keep recording the kernel they
    measured; the pure-Python kernel is the only one.
    """
    return "py"


class KernelHooks:
    """Declarative stop condition the kernel polls inside its run loop.

    ``counter`` is any sized container that grows as the simulation
    progresses (in practice the metrics collector's completed-records
    list) and ``target`` the length at which :meth:`Simulator.run`
    returns.  The kernel checks ``len(counter) >= target`` right after
    each event's callbacks, so a run stops on exactly the event that
    completed the target-th record — with no Python loop (and no
    method call) per event outside the kernel.
    """

    __slots__ = ("counter", "target")

    def __init__(self, counter, target: int):
        self.counter = counter
        self.target = int(target)

    def satisfied(self) -> bool:
        """Whether the stop condition already holds."""
        return len(self.counter) >= self.target


class Event:
    """A one-shot occurrence inside a :class:`Simulator`.

    An event starts *pending*, becomes *triggered* once scheduled to
    fire, and finally *processed* after its callbacks ran.  Processes
    wait on events by yielding them.
    """

    __slots__ = ("sim", "_cb", "callbacks", "_value", "_ok", "_triggered", "_processed")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        # Single-waiter fast path: the first callback lives in ``_cb``;
        # ``callbacks`` is only allocated when a second waiter appears.
        self._cb: Optional[Callable[["Event"], None]] = None
        self.callbacks: Optional[list] = None
        self._value: Any = None
        self._ok = True
        self._triggered = False
        self._processed = False

    @property
    def triggered(self) -> bool:
        """Whether the event has been scheduled to fire."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """Whether the event's callbacks have already run."""
        return self._processed

    @property
    def value(self) -> Any:
        """The event's value (or exception) once triggered."""
        return self._value

    @property
    def ok(self) -> bool:
        """False when the event carries a failure (an exception)."""
        return self._ok

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Schedule this event to fire successfully after ``delay``."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if delay == 0.0:
            # same-instant fast lane (the overwhelmingly common case):
            # append straight onto the agenda's FIFO, exactly what
            # Agenda.schedule would do for when == now
            self._triggered = True
            self._value = value
            self._ok = True
            self.sim._agenda._dq.append(self)
            return self
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay!r}")
        self._triggered = True
        self._value = value
        self._ok = True
        sim = self.sim
        sim._agenda.schedule(self, sim.now + delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Schedule this event to fire carrying ``exception``."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._triggered = True
        self._value = exception
        self._ok = False
        self.sim._schedule(self, delay)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event fires.

        If the event was already processed the callback runs
        immediately.
        """
        if self._processed:
            callback(self)
        elif self._cb is None:
            self._cb = callback
        elif self.callbacks is None:
            self.callbacks = [callback]
        else:
            self.callbacks.append(callback)

    def remove_callback(self, callback: Callable[["Event"], None]) -> None:
        """Detach a pending callback (no-op if absent or already fired)."""
        if self._processed:
            return
        # == not `is`: bound methods are fresh objects on every access
        if self._cb == callback:
            # promote the overflow head to preserve callback order
            if self.callbacks:
                self._cb = self.callbacks.pop(0)
            else:
                self._cb = None
        elif self.callbacks is not None:
            try:
                self.callbacks.remove(callback)
            except ValueError:
                pass


class Timeout(Event):
    """An event that fires after a fixed virtual-time delay."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        # Inlined Event.__init__: timeouts are the most common event by
        # far, so their construction is kept flat.
        self.sim = sim
        self._cb = None
        self.callbacks = None
        self._value = value
        self._ok = True
        self._triggered = True
        self._processed = False
        sim._agenda.schedule(self, sim.now + delay)


class Process(Event):
    """A generator-based simulation process.

    The generator yields :class:`Event` instances; the process resumes
    when the yielded event fires, receiving the event's value as the
    result of the ``yield`` expression.  The process itself is an event
    that fires with the generator's return value, so processes can wait
    on each other.
    """

    __slots__ = (
        "_generator", "_waiting_on", "_bound_resume", "_interrupt_pending",
        "name",
    )

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator[Event, Any, Any],
        name: str = "",
    ):
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise SimulationError("Process requires a generator")
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        self._interrupt_pending = False
        # one bound method for the process's lifetime — registering a
        # waiter is a slot load instead of a method-object allocation
        self._bound_resume = self._resume
        self.name = name or getattr(generator, "__name__", "process")
        bootstrap = Event(sim)
        bootstrap._cb = self._bound_resume
        bootstrap._triggered = True  # inlined succeed(): fresh event
        sim._agenda._dq.append(bootstrap)

    @property
    def is_alive(self) -> bool:
        """Whether the underlying generator has not finished yet."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a
        process blocked on an event detaches it from that event.  The
        cause travels as the wakeup event's failure value — no
        per-interrupt closure is allocated.
        """
        if self._triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name}")
        waiting_on = self._waiting_on
        if waiting_on is not None:
            waiting_on.remove_callback(self._bound_resume)
        self._waiting_on = None
        self._interrupt_pending = True
        wakeup = Event(self.sim)
        wakeup._cb = self._interrupted
        wakeup.fail(Interrupt(cause))

    def _interrupted(self, wakeup: Event) -> None:
        # a process interrupted the instant it was created has not taken
        # its first step: that step runs before the wakeup lands and
        # waits on an event of its own, which must not resume it again
        self._interrupt_pending = False
        waiting_on = self._waiting_on
        if waiting_on is not None:
            waiting_on.remove_callback(self._bound_resume)
        self._resume(wakeup)

    @property
    def interrupt_pending(self) -> bool:
        """An interrupt has been thrown but the process has not yet run.

        Two tear-down paths can race at one instant (a 2PC prepare
        timeout and a resilience deadline both aborting the same
        branch); the second caller must not interrupt again — the
        wakeup it would schedule lands after the first interrupt has
        already finished the generator.
        """
        return self._interrupt_pending

    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome (the only
        stepping path: resumes, failures and interrupts all land here).

        A yielded event that is already processed (such as
        :attr:`Simulator.done`) resumes the generator again in the same
        step — a loop, so a long run of them cannot exhaust the stack.
        """
        self._waiting_on = None
        generator = self._generator
        while True:
            value = event._value
            try:
                if event._ok or not isinstance(value, BaseException):
                    target = generator.send(value)
                else:
                    target = generator.throw(value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            if not isinstance(target, Event):
                raise SimulationError(
                    f"process {self.name!r} yielded {target!r}, expected an Event"
                )
            if not target._processed:
                break
            event = target
        self._waiting_on = target
        # inlined add_callback: the single-waiter case is ~all of them
        if target._cb is None:
            target._cb = self._bound_resume
        else:
            target.add_callback(self._bound_resume)


class Simulator:
    """The simulation clock and event agenda.

    Usage::

        sim = Simulator()

        def hello():
            yield sim.timeout(3.0)
            return "done"

        proc = sim.process(hello())
        sim.run()
        assert sim.now == 3.0 and proc.value == "done"

    An exception escaping a process body propagates out of :meth:`run`.
    """

    #: Upper bound on the timeout free list (see :meth:`timeout`); also
    #: caps the plain-event free list behind :meth:`event`/:meth:`fired`.
    TIMEOUT_POOL_LIMIT = 256

    #: ``sys.getrefcount`` result for an object referenced only by one
    #: local variable (the argument slot accounts for the rest); a fired
    #: timeout at or below this count is provably unreferenced by user
    #: code and safe to recycle.
    _FREE_REFCOUNT = sys.getrefcount(object())

    def __init__(self):
        self.now: float = 0.0
        self._agenda = Agenda()
        # The same-instant fast lane, pre-bound once.  Components that
        # complete events on their hot paths (the CPU pool, disks, WAL,
        # front-end) cache this instead of reaching into the agenda
        # themselves, so the kernel keeps a single owner of the lane:
        # ``_fire_now(event)`` appends an event the caller has already
        # marked triggered.  It skips succeed()'s already-triggered
        # guard — callers must own the event's only completion site.
        self._fire_now = self._agenda._dq.append
        self._timeout_pool: list = []
        self._event_pool: list = []  # recycled plain Events (see run())
        #: One shared, already-processed event: what a zero-wait grant
        #: (an uncontended lock) hands back.  Yielding it resumes the
        #: process in the same step and adds no agenda entry;
        #: ``add_callback`` runs at once, ``succeed``/``fail`` raise.
        #: It is never scheduled, so it never reaches a free list.
        self.done = done = Event(self)
        done._triggered = done._processed = True
        #: Timeout events served from the free list (introspection/tests).
        self.timeout_reuses = 0

    # -- event factories ------------------------------------------------

    def event(self) -> Event:
        """Create a fresh pending event.

        Serves from the plain-event free list when possible; recycled
        instances are indistinguishable from fresh ones (the run loop
        only recycles events proven unreferenced via the refcount).
        """
        pool = self._event_pool
        if pool:
            event = pool.pop()
            event._value = None
            event._ok = True
            event._triggered = False
            event._processed = False
            return event
        return Event(self)

    def fired(self, value: Any = None) -> Event:
        """An event already scheduled to fire at the current instant.

        Equivalent to ``event().succeed(value)`` in one hop — for a
        grant that must still cost its waiter one same-instant step (a
        zero-demand CPU burst, an empty admission check; an
        uncontended lock hands back :attr:`done` instead).  Serves from the
        plain-event free list the run loop maintains (same
        refcount-proof recycling as timeouts).
        """
        pool = self._event_pool
        if pool:
            event = pool.pop()
            event._value = value
            event._ok = True
            event._triggered = True
            event._processed = False
        else:
            event = Event(self)
            event._triggered = True
            event._value = value
        self._agenda._dq.append(event)  # same-instant fast lane
        return event

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` time units from now.

        Serves from the pre-allocated free list of recycled timeouts
        when possible; recycled instances are indistinguishable from
        fresh ones (see :meth:`run` for the safety argument).
        """
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise SimulationError(f"negative timeout delay: {delay!r}")
            event = pool.pop()
            event._value = value
            event._ok = True
            event._triggered = True
            event._processed = False
            self._agenda.schedule(event, self.now + delay)
            self.timeout_reuses += 1
            return event
        return Timeout(self, delay, value)

    def process(self, generator: Generator[Event, Any, Any], name: str = "") -> Process:
        """Start a process from ``generator`` immediately."""
        return Process(self, generator, name=name)

    # -- scheduling -----------------------------------------------------

    def _schedule(self, event: Event, delay: float) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay!r}")
        self._agenda.schedule(event, self.now + delay)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` when idle."""
        return self._agenda.peek()

    def run(
        self, until: Optional[float] = None, hooks: Optional[KernelHooks] = None
    ) -> None:
        """Drain the agenda until a stop condition holds.

        Stops when the agenda empties, virtual time would pass
        ``until``, or ``hooks`` (a :class:`KernelHooks` count
        condition) is satisfied.

        This is the kernel hot loop: one stack frame, every per-event
        lookup bound to a local.  Same-instant runs drain straight off
        the agenda's FIFO (no entry tuples, no heap traffic); heap pops
        only happen when virtual time actually advances.
        After an event's callbacks ran, a plain :class:`Timeout` that
        nothing else references (verified via the CPython refcount, so
        events held by user code are never touched) is recycled into
        the timeout free list.  Every exit folds the pending FIFO back
        into the heap, so the agenda always reflects exactly the events
        that have not fired.
        """
        now = self.now
        if until is not None and until < now:
            raise SimulationError(f"until={until!r} lies in the past (now={now!r})")
        # locals-bound hot state
        agenda = self._agenda
        heap = agenda._heap
        dq = agenda._dq
        popleft = dq.popleft
        pop = heapq.heappop
        until_t = float("inf") if until is None else until
        counter = target = None
        if hooks is not None:
            counter = hooks.counter
            target = hooks.target
            if len(counter) >= target:
                return
        pool = self._timeout_pool
        pool_limit = self.TIMEOUT_POOL_LIMIT
        free_threshold = self._FREE_REFCOUNT + 1
        getrefcount = sys.getrefcount
        timeout_class = Timeout
        now_t = agenda._now
        event_class = Event
        event_pool = self._event_pool
        try:
            while True:
                # -- phase 1: heap entries at the current instant.
                #    These predate every FIFO entry (scheduling at the
                #    running instant always lands on the FIFO), so they
                #    go first; the heap cannot regain entries at now_t
                #    while the instant is being processed. ------------
                while heap and heap[0][0] == now_t:
                    event = pop(heap)[2]
                    event._processed = True
                    callback = event._cb
                    if callback is not None:
                        event._cb = None
                        callbacks = event.callbacks
                        if callbacks is None:
                            callback(event)
                        else:
                            event.callbacks = None
                            callback(event)
                            for callback in callbacks:
                                callback(event)
                    else:
                        callbacks = event.callbacks
                        if callbacks is not None:
                            event.callbacks = None
                            for callback in callbacks:
                                callback(event)
                    if (
                        event.__class__ is timeout_class
                        and len(pool) < pool_limit
                        and getrefcount(event) == free_threshold
                    ):
                        event._value = None
                        pool.append(event)
                    elif (
                        event.__class__ is event_class
                        and len(event_pool) < pool_limit
                        and getrefcount(event) == free_threshold
                    ):
                        event._value = None
                        event_pool.append(event)
                    if counter is not None and len(counter) >= target:
                        return
                # -- phase 2: the same-instant FIFO (may keep growing
                #    while it drains; nothing here touches the heap's
                #    now_t run, which is already empty) ---------------
                while dq:
                    event = popleft()
                    event._processed = True
                    callback = event._cb
                    if callback is not None:
                        event._cb = None
                        callbacks = event.callbacks
                        if callbacks is None:
                            callback(event)
                        else:
                            event.callbacks = None
                            callback(event)
                            for callback in callbacks:
                                callback(event)
                    else:
                        callbacks = event.callbacks
                        if callbacks is not None:
                            event.callbacks = None
                            for callback in callbacks:
                                callback(event)
                    if (
                        event.__class__ is event_class
                        and len(event_pool) < pool_limit
                        and getrefcount(event) == free_threshold
                    ):
                        event._value = None
                        event_pool.append(event)
                    elif (
                        event.__class__ is timeout_class
                        and len(pool) < pool_limit
                        and getrefcount(event) == free_threshold
                    ):
                        event._value = None
                        pool.append(event)
                    if counter is not None and len(counter) >= target:
                        return
                # -- phase 3: advance virtual time --------------------
                if heap:
                    when = heap[0][0]
                    if when > until_t:
                        self.now = until
                        agenda._now = until
                        return
                    now_t = when
                    self.now = when
                    agenda._now = when
                else:
                    break
        finally:
            # fold any pending same-instant entries back into the heap
            # so the agenda is self-contained between runs
            agenda.flush()
        if until is not None:
            self.now = until
            agenda._now = until
