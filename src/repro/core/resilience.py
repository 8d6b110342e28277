"""Resilience layer: deadlines, retry/backoff, shedding, circuit breaking.

The paper's external scheduler models an infinitely patient client: no
transaction ever times out, retries, or is refused.  Real front ends do
all three — and retrying on timeout is exactly the mechanism behind
metastable retry storms under overload.  The ``resilience`` axis
(:class:`~repro.core.resilience_spec.ResilienceSpec`) makes that
closed loop scenario data, and this module runs it:

* :class:`ShardBreaker` — per-shard health: EWMAs of observed response
  time and timeout rate; trips open when unhealthy, recovers through
  half-open probes.  The :class:`~repro.sim.station.RouterStation`
  consults breakers at admission (fail-open: if no breaker admits, the
  originally chosen shard takes the transaction anyway).
* :class:`ResilienceRuntime` — the live gate installed between the
  arrival source and the router/frontend by
  :func:`~repro.core.scenario.run_scenario`.  It owns the *outer*
  completion event (fired at the transaction's final disposition, so
  closed-loop clients never hang on a shed or timed-out transaction)
  and accounts every admitted transaction into exactly one bucket:
  completed, timed out, shed, or still in flight.

Determinism: backoff jitter for transaction ``tid`` is drawn from
``random.Random(derive_seed(seed, "resilience", tid))`` — its own
stream, untouched by engine draws — and shedding victims are chosen by
admission sequence number, so resilient runs stay bit-identical for
any ``--jobs N``.

Goodput vs. throughput: with a deadline armed, every commit happened
within its budget (late attempts are aborted), so *goodput* equals the
committed throughput while the retry storm's wasted work shows up as
the gap between *attempt throughput* (attempts resolving per second,
aborted ones included) and goodput.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Tuple

from repro.core.resilience_spec import ResilienceSpec
from repro.dbms.transaction import Transaction, TxStatus
from repro.sim.engine import Event, SimulationError, Simulator
from repro.sim.random import derive_seed


#: Consecutive terminal non-commit dispositions (timeouts + sheds with
#: not a single commit in between) after which the runtime refuses to
#: keep simulating: a completion-counted measurement window can never
#: fill once steady-state goodput is zero, so the run would otherwise
#: simply never terminate (open arrivals keep the agenda alive forever).
GOODPUT_STARVATION_LIMIT = 2000


class GoodputStarved(SimulationError):
    """Steady-state goodput hit zero; the completion target is unreachable.

    Raised by :class:`ResilienceRuntime` once
    :data:`GOODPUT_STARVATION_LIMIT` consecutive admissions were
    disposed without a single commit — the signature of a saturated
    retry storm (e.g. zero backoff against a deadline shorter than the
    achievable response time).  Deterministic: the trigger is an event
    count on the simulated timeline, never wall-clock.
    """

#: Circuit-breaker states (the classic three-state machine).
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"


class ShardBreaker:
    """Per-shard health: the closed → open → half-open state machine.

    ``observe`` feeds one resolved attempt (its response time and
    whether it timed out) into EWMAs; once at least ``breaker_window``
    samples accumulated and the shard looks unhealthy — timeout rate
    over ``breaker_timeout_threshold``, or mean response time over
    ``breaker_response_time_s`` when set — the breaker trips open for
    ``breaker_open_s`` of simulated time.  An open breaker rejects
    admissions until the window elapses, then admits up to
    ``breaker_probes`` concurrent probes; a successful probe closes the
    breaker (with a fresh sample window), a timed-out one re-opens it.
    """

    def __init__(self, spec: ResilienceSpec):
        self.spec = spec
        self.state = BREAKER_CLOSED
        self.ewma_response_time = 0.0
        self.ewma_timeout_rate = 0.0
        self.samples = 0
        self.transitions: List[Dict[str, Any]] = []
        self._open_until = 0.0
        self._probes_in_flight = 0

    def _transition(self, now: float, state: str) -> None:
        self.transitions.append({"t": now, "from": self.state, "to": state})
        self.state = state

    def admit(self, now: float) -> bool:
        """Whether routing may place a new transaction on this shard."""
        if self.state == BREAKER_OPEN:
            if now < self._open_until:
                return False
            self._transition(now, BREAKER_HALF_OPEN)
            self._probes_in_flight = 0
        if self.state == BREAKER_HALF_OPEN:
            if self._probes_in_flight >= self.spec.breaker_probes:
                return False
            self._probes_in_flight += 1
        return True

    def observe(self, now: float, response_time: float, timed_out: bool) -> None:
        """Feed one resolved attempt on this shard into the health EWMAs."""
        alpha = self.spec.breaker_ewma_alpha
        self.samples += 1
        self.ewma_response_time += alpha * (response_time - self.ewma_response_time)
        self.ewma_timeout_rate += alpha * (
            (1.0 if timed_out else 0.0) - self.ewma_timeout_rate
        )
        if self.state == BREAKER_HALF_OPEN:
            if self._probes_in_flight > 0:
                self._probes_in_flight -= 1
            if timed_out:
                self._trip(now)
            else:
                # recovered: close with a fresh sample window so the
                # stale unhealthy EWMA cannot re-trip instantly
                self._transition(now, BREAKER_CLOSED)
                self.samples = 0
            return
        if (
            self.state == BREAKER_CLOSED
            and self.samples >= self.spec.breaker_window
            and self._unhealthy()
        ):
            self._trip(now)

    def _unhealthy(self) -> bool:
        if self.ewma_timeout_rate > self.spec.breaker_timeout_threshold:
            return True
        limit = self.spec.breaker_response_time_s
        return limit is not None and self.ewma_response_time > limit

    def _trip(self, now: float) -> None:
        self._transition(now, BREAKER_OPEN)
        self._open_until = now + self.spec.breaker_open_s

    def jsonable(self) -> Dict[str, Any]:
        return {
            "state": self.state,
            "ewma_response_time": self.ewma_response_time,
            "ewma_timeout_rate": self.ewma_timeout_rate,
            "samples": self.samples,
            "transitions": list(self.transitions),
        }


class _TxState:
    """One admitted transaction's resilience bookkeeping."""

    __slots__ = (
        "tx", "outer", "attempts", "generation", "admitted_at",
        "frontend", "rng", "done", "seq", "disposition",
    )

    def __init__(self, tx: Transaction, outer: Optional[Event]):
        self.tx = tx
        self.outer = outer
        self.attempts = 0
        self.generation = 0
        self.admitted_at = 0.0
        self.frontend = None  # the owning shard's ExternalScheduler
        self.rng: Optional[random.Random] = None
        self.done = False
        self.seq = 0
        self.disposition: Optional[str] = None


class ResilienceRuntime:
    """The live gate: deadlines, retries, shedding, breaker feeding.

    Installed by :func:`~repro.core.scenario.run_scenario` between the
    arrival source and the router (clusters) or the external scheduler
    (single engine).  ``submit`` mirrors the frontend surface the
    arrival layer expects; the returned event fires at the
    transaction's *final* disposition — commit, terminal timeout, or
    terminal shed — never mid-retry.
    """

    def __init__(self, spec: ResilienceSpec, seed: int):
        self.spec = spec
        self.seed = seed
        self.sim: Optional[Simulator] = None
        self.inner = None  # router or single-engine frontend
        self.breakers: Optional[List[ShardBreaker]] = None
        self._is_cluster = False
        self._fire = None
        self._shard_of: Dict[int, int] = {}
        self._state: Dict[int, _TxState] = {}
        self._seq = 0
        # dispositions (exactly-once: every admitted tx lands in one)
        self.admitted = 0
        self.completed = 0
        self.timed_out = 0
        self.shed = 0
        #: Terminal non-commit dispositions since the last commit (the
        #: goodput-starvation trigger; see :class:`GoodputStarved`).
        self.starved_streak = 0
        # attempt-level counters (a tx can time out on every attempt)
        self.attempts_resolved = 0
        self.timeout_events = 0
        self.shed_events = 0
        self.retries = 0
        self.per_class: Dict[str, Dict[int, int]] = {
            "admitted": {}, "completed": {}, "timed_out": {},
            "shed": {}, "retries": {},
        }
        #: (sim_time, kind, priority) stream for the timeline buckets;
        #: kinds: "attempt", "timeout", "shed", "retry".
        self.events: List[Tuple[float, str, int]] = []

    # -- installation --------------------------------------------------------

    def install(self, system) -> "ResilienceRuntime":
        """Wire the gate into a built system (before anything runs)."""
        from repro.core.cluster import ClusteredSystem

        self.sim = system.sim
        self._fire = system.sim._fire_now
        if isinstance(system, ClusteredSystem):
            self._is_cluster = True
            self.inner = system.router
            frontends = [shard.frontend for shard in system.shards]
            if self.spec.breaker_enabled:
                self.breakers = [ShardBreaker(self.spec) for _ in frontends]
                system.router.breakers = self.breakers
        else:
            self.inner = system.frontend
            frontends = [system.frontend]
        for index, frontend in enumerate(frontends):
            frontend._resilience = self
            self._shard_of[id(frontend)] = index
        # the arrival source submits through the gate from now on
        system.source.frontend = self
        system.resilience = self
        return self

    # -- frontend surface (what the arrival layer calls) ---------------------

    def submit(self, tx: Transaction) -> Event:
        """Admit ``tx``; the event fires at its final disposition."""
        st = _TxState(tx, self.sim.event())
        self._state[tx.tid] = st
        self.admitted += 1
        self._bump("admitted", tx.priority)
        self._admit(st)
        if st.outer is not None:
            return st.outer
        # the tx was disposed synchronously during admission (e.g. shed
        # with no retries left); hand back an already-fired event so a
        # closed-loop client proceeds without blocking
        return self.sim.fired(tx)

    # -- admission / retry ---------------------------------------------------

    def _admit(self, st: _TxState) -> None:
        st.attempts += 1
        st.generation += 1
        generation = st.generation
        self._seq += 1
        st.seq = self._seq
        st.admitted_at = self.sim.now
        tx = st.tx
        if st.attempts > 1 and self._is_cluster:
            # the router's no-double-routing guard tracks tids; a retry
            # is a deliberate re-route
            self.inner.release(tx.tid)
        attempt = self.inner.submit(tx)
        if st.done or st.generation != generation:
            return  # shed synchronously during admission
        attempt.add_callback(
            lambda event, st=st, generation=generation:
                self._on_attempt_complete(st, generation)
        )
        deadline = self.spec.deadline_for(tx.priority)
        if deadline is not None:
            timer = self.sim.timeout(deadline)
            timer.add_callback(
                lambda _event, st=st, generation=generation:
                    self._on_deadline(st, generation)
            )

    def on_submitted(self, tx: Transaction, frontend) -> None:
        """Frontend hook: ``tx`` just entered ``frontend`` (submit/adopt).

        Notes the owning shard (retries and deadline aborts must reach
        the right queue/engine, and re-homing after a kill moves it)
        and enforces the admission-queue cap.
        """
        st = self._state.get(tx.tid)
        if st is None or st.done:
            return
        st.frontend = frontend
        self._enforce_cap(frontend)

    # -- resolution ----------------------------------------------------------

    def _on_attempt_complete(self, st: _TxState, generation: int) -> None:
        if st.done or st.generation != generation:
            return
        tx = st.tx
        now = self.sim.now
        self.attempts_resolved += 1
        self.events.append((now, "attempt", tx.priority))
        timed_out = tx.status is not TxStatus.COMMITTED
        self._observe(st, now - st.admitted_at, timed_out)
        if timed_out:
            self._register_timeout(st, now)
            self._fail(st)
            return
        st.generation += 1
        st.done = True
        st.disposition = "completed"
        self.completed += 1
        self.starved_streak = 0
        self._bump("completed", tx.priority)
        self._fire_outer(st)

    def _on_deadline(self, st: _TxState, generation: int) -> None:
        if st.done or st.generation != generation:
            return
        tx = st.tx
        frontend = st.frontend
        if frontend is not None and frontend.policy.remove(tx):
            # expired while still queued: never reached the engine
            frontend.removed += 1
            distributed = getattr(frontend, "_distributed", None)
            if distributed is not None:
                distributed.on_external_removed(tx)
            now = self.sim.now
            self._observe(st, now - st.admitted_at, True)
            self._register_timeout(st, now)
            self._fail(st)
            return
        # in flight: abort through the engine; the completion callback
        # resolves the attempt (a process that finished this same
        # instant resolves as a commit instead — the abort is a no-op)
        if frontend is not None:
            frontend.engine.abort(tx)

    def _register_timeout(self, st: _TxState, now: float) -> None:
        self.timeout_events += 1
        self.events.append((now, "timeout", st.tx.priority))

    def _fail(self, st: _TxState) -> None:
        """A failed attempt (timeout or shed): retry or dispose."""
        st.generation += 1  # invalidate this attempt's pending timers
        tx = st.tx
        if st.attempts <= self.spec.max_attempts:
            self.retries += 1
            self._bump("retries", tx.priority)
            self.events.append((self.sim.now, "retry", tx.priority))
            delay = self.spec.base_backoff_s * (
                self.spec.backoff_multiplier ** (st.attempts - 1)
            )
            if self.spec.jitter_fraction > 0.0:
                if st.rng is None:
                    st.rng = random.Random(
                        derive_seed(self.seed, "resilience", tx.tid)
                    )
                delay *= 1.0 + self.spec.jitter_fraction * st.rng.random()
            generation = st.generation
            timer = self.sim.timeout(delay)
            timer.add_callback(
                lambda _event, st=st, generation=generation:
                    self._retry(st, generation)
            )
            return
        st.done = True
        kind = "shed" if st.disposition == "shedding" else "timed_out"
        st.disposition = kind
        if kind == "shed":
            self.shed += 1
            self._bump("shed", tx.priority)
        else:
            self.timed_out += 1
            self._bump("timed_out", tx.priority)
        self._fire_outer(st)
        self.starved_streak += 1
        if self.starved_streak >= GOODPUT_STARVATION_LIMIT:
            raise GoodputStarved(
                f"goodput starved at t={self.sim.now:.3f}: "
                f"{self.starved_streak} consecutive admissions disposed "
                f"without a commit (admitted={self.admitted} "
                f"completed={self.completed} timed_out={self.timed_out} "
                f"shed={self.shed}); a completion-counted measurement "
                "window cannot fill — raise the deadline, add backoff, "
                "or shed earlier"
            )

    def _retry(self, st: _TxState, generation: int) -> None:
        if st.done or st.generation != generation:
            return
        st.disposition = None
        self._admit(st)

    # -- shedding ------------------------------------------------------------

    def _enforce_cap(self, frontend) -> None:
        cap = self.spec.queue_cap
        if cap is None:
            return
        while frontend.queue_length > cap:
            victim = self._pick_victim(frontend)
            if victim is None or not frontend.policy.remove(victim):
                return
            frontend.removed += 1
            distributed = getattr(frontend, "_distributed", None)
            if distributed is not None:
                distributed.on_external_removed(victim)
            st = self._state[victim.tid]
            now = self.sim.now
            self.shed_events += 1
            self.events.append((now, "shed", victim.priority))
            st.disposition = "shedding"  # tells _fail which bucket
            self._fail(st)

    def _pick_victim(self, frontend) -> Optional[Transaction]:
        # 2PC sibling branches are not admissions and carry no _TxState
        # — the shed loop only ever evicts tracked logical work
        queued = [tx for tx in frontend.policy if tx.tid in self._state]
        if not queued:
            return None

        def seq_of(tx: Transaction) -> int:
            return self._state[tx.tid].seq

        if self.spec.shed_policy == "reject_oldest":
            return min(queued, key=seq_of)
        if self.spec.shed_policy == "by_class":
            # lowest class sheds first; the newest of that class goes
            return max(queued, key=lambda tx: (-tx.priority, seq_of(tx)))
        return max(queued, key=seq_of)  # reject_newest

    # -- breaker feeding -----------------------------------------------------

    def _observe(self, st: _TxState, response_time: float, timed_out: bool) -> None:
        if self.breakers is None or st.frontend is None:
            return
        index = self._shard_of.get(id(st.frontend))
        if index is not None:
            self.breakers[index].observe(self.sim.now, response_time, timed_out)

    # -- plumbing ------------------------------------------------------------

    def _bump(self, counter: str, priority: int) -> None:
        per_class = self.per_class[counter]
        per_class[priority] = per_class.get(priority, 0) + 1

    def _fire_outer(self, st: _TxState) -> None:
        outer, st.outer = st.outer, None
        if outer is None:
            return
        # inlined outer.succeed(tx): known untriggered
        outer._triggered = True
        outer._value = st.tx
        self._fire(outer)

    # -- accounting views ----------------------------------------------------

    @property
    def in_flight(self) -> int:
        """Admitted transactions not yet finally disposed."""
        return sum(1 for st in self._state.values() if not st.done)

    def dispositions(self) -> Dict[int, str]:
        """tid → final bucket (``in_flight`` while undecided)."""
        return {
            tid: (st.disposition if st.done else "in_flight")
            for tid, st in self._state.items()
        }

    def report_jsonable(self) -> Dict[str, Any]:
        """The outcome-JSON resilience block (goodput vs. throughput)."""
        def classes(counter: str) -> Dict[str, int]:
            return {
                str(int(priority)): count
                for priority, count in sorted(self.per_class[counter].items())
            }

        return {
            "admitted": self.admitted,
            "completed": self.completed,
            "timed_out": self.timed_out,
            "shed": self.shed,
            "in_flight": self.in_flight,
            "attempts_resolved": self.attempts_resolved,
            "timeout_events": self.timeout_events,
            "shed_events": self.shed_events,
            "retries": self.retries,
            "per_class": {
                name: classes(name) for name in sorted(self.per_class)
            },
            "breakers": (
                [breaker.jsonable() for breaker in self.breakers]
                if self.breakers is not None else None
            ),
        }
