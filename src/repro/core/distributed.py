"""Distributed transactions: simulated two-phase commit across shards.

The paper schedules one MPL in front of one database; our cluster
(PRs 3/6/9) still treats shards as fully independent, which real
sharded OLTP is not.  The ``distributed`` axis
(:class:`~repro.core.distributed_spec.DistributedSpec`) makes the
dependence scenario data, and this module runs it:

* :class:`TwoPhaseCoordinator` — the live runtime installed between
  the arrival source (or the resilience gate) and the router.  A
  cross-shard transaction becomes K *branches*: the original
  transaction runs its share on its home shard, sibling branches (with
  negative tids, invisible to the collector) run theirs on the other
  participants.  Each branch executes normally under strict 2PL, then
  *prepares* — the WAL force at commit doubles as the prepare log
  force — and parks on a commit gate **still holding its locks**.
  When the last participant prepares, the coordinator decides commit
  and releases every gate; on a prepare timeout, a participant abort,
  or a participant death the attempt aborts through the existing
  :meth:`~repro.dbms.engine.DatabaseEngine.abort` path (locks
  released), and the transaction retries — via PR 9's resilience
  backoff when that axis is present, else via the coordinator's own
  deterministic exponential backoff.

Determinism: the cross-shard pick and the participant window are pure
functions of the transaction id (SplitMix64, no RNG draws), sibling
tids come from a decrementing counter in submission order, and retry
jitter for transaction ``tid`` is drawn from
``random.Random(derive_seed(seed, "2pc", tid))`` — distributed runs
are bit-identical for any ``--jobs N``, and a
``cross_shard_fraction=0`` run is bit-identical to the same scenario
without the axis.

Atomicity is self-checked: a branch that commits under a non-commit
decision (or aborts under a commit decision) is recorded in
``atomicity_violations``, which the fuzzer's 2PC oracle asserts empty.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Tuple

from repro.core.distributed_spec import DistributedSpec
from repro.core.resilience import GOODPUT_STARVATION_LIMIT, GoodputStarved
from repro.dbms.transaction import Transaction, TxStatus
from repro.sim.engine import Event, Simulator
from repro.sim.random import derive_seed
from repro.sim.station import HashRouting


#: Salt mixed into the cross-shard draw so it is independent of the
#: participant-window pick (both hash the same tid).
_FRACTION_SALT = 0xD1B54A32D192ED03

#: Internal-retry backoff (no resilience axis): base delay, geometric
#: multiplier, exponent cap, and jitter fraction of itself.
RETRY_BASE_BACKOFF_S = 0.01
RETRY_BACKOFF_MULTIPLIER = 2.0
RETRY_MAX_EXPONENT = 10
RETRY_JITTER_FRACTION = 0.5


class _DistributedTx:
    """One logical cross-shard transaction's 2PC bookkeeping."""

    __slots__ = (
        "tx", "branches", "shards", "home_pos", "frontends", "outer",
        "decided", "generation", "attempts", "prepared", "resolved",
        "resolved_count", "relaunch_pending", "external_disposed",
        "gates", "rng",
    )

    def __init__(
        self,
        tx: Transaction,
        branches: Tuple[Transaction, ...],
        shards: Tuple[int, ...],
        home_pos: int,
    ):
        self.tx = tx
        self.branches = branches
        self.shards = shards
        self.home_pos = home_pos
        self.frontends: List[Any] = [None] * len(branches)
        self.outer: Optional[Event] = None
        #: None while undecided; "commit" / "abort" once decided.
        self.decided: Optional[str] = None
        self.generation = 0
        self.attempts = 0
        self.prepared: set = set()
        self.resolved: List[bool] = [False] * len(branches)
        self.resolved_count = 0
        #: A resubmission arrived while the prior attempt's branches
        #: were still resolving; launch fires at the last resolution.
        self.relaunch_pending = False
        #: The resilience layer removed the home branch from a queue
        #: itself and owns the disposition — don't fire the outer.
        self.external_disposed = False
        self.gates: Dict[int, Event] = {}
        self.rng: Optional[random.Random] = None


class TwoPhaseCoordinator:
    """The live 2PC runtime between the arrival layer and the router.

    Speaks the frontend surface the arrival source and the resilience
    runtime expect (``submit`` / ``release``): single-shard
    transactions pass straight through to the router (zero extra event
    operations — a ``cross_shard_fraction=0`` run is bit-identical to
    the same scenario without the axis), cross-shard ones are split
    into branches and driven through prepare → commit.  Installed by
    :func:`~repro.core.scenario.run_scenario` *after* the resilience
    runtime, splicing in as its ``inner`` when present.
    """

    def __init__(self, spec: DistributedSpec, seed: int):
        self.spec = spec
        self.seed = seed
        self.sim: Optional[Simulator] = None
        self.router = None
        self.num_shards = 0
        self._frontends: List[Any] = []
        self._fire = None
        self._external_retries = False
        #: branch tid → (logical tx, branch position); covers the home
        #: tid and every (negative) sibling tid.
        self._branch_of: Dict[int, Tuple[_DistributedTx, int]] = {}
        #: home tid → logical tx, while not fully committed.
        self._live: Dict[int, _DistributedTx] = {}
        self._next_sibling_tid = -1
        # counters (the outcome-JSON distributed block)
        self.single_shard = 0
        self.cross_shard = 0
        self.attempts = 0
        self.commits = 0
        self.aborts = 0
        self.aborts_by_cause: Dict[str, int] = {}
        self.prepare_timeouts = 0
        self.retries = 0
        #: Consecutive abort decisions with no commit in between (the
        #: goodput-starvation trigger, mirroring the resilience layer).
        self.starved_streak = 0
        #: 2PC safety self-checks; the fuzzer's atomicity oracle
        #: asserts this stays empty.
        self.atomicity_violations: List[Dict[str, Any]] = []

    # -- installation --------------------------------------------------------

    def install(self, system) -> "TwoPhaseCoordinator":
        """Wire the coordinator into a built cluster (before anything runs)."""
        from repro.core.cluster import ClusteredSystem

        if not isinstance(system, ClusteredSystem):
            raise ValueError(
                "distributed transactions need a sharded topology (shards > 1)"
            )
        self.sim = system.sim
        self._fire = system.sim._fire_now
        self.router = system.router
        self.num_shards = len(system.shards)
        self._frontends = [shard.frontend for shard in system.shards]
        for shard in system.shards:
            shard.frontend._distributed = self
            shard.engine.two_phase = self
        if system.resilience is not None:
            # splice under the resilience gate: its retries re-enter 2PC
            self._external_retries = True
            system.resilience.inner = self
        else:
            system.source.frontend = self
        system.distributed = self
        return self

    # -- frontend surface (arrival layer / resilience runtime) ---------------

    def submit(self, tx: Transaction) -> Event:
        """Admit ``tx``; cross-shard work returns the *logical* event."""
        entry = self._branch_of.get(tx.tid)
        if entry is not None and entry[0].tx is tx:
            # resilience resubmission of a known cross-shard transaction
            ltx = entry[0]
            ltx.outer = self.sim.event()
            if ltx.resolved_count < len(ltx.branches):
                ltx.relaunch_pending = True
            else:
                self._launch(ltx)
            return ltx.outer
        if not self._is_cross_shard(tx):
            self.single_shard += 1
            return self.router.submit(tx)
        self.cross_shard += 1
        ltx = self._split(tx)
        ltx.outer = self.sim.event()
        self._launch(ltx)
        return ltx.outer

    def release(self, tid: int) -> None:
        """Forget a routed tid (resilience retry hook); branch releases
        happen per-branch inside :meth:`_launch`."""
        if tid not in self._branch_of:
            self.router.release(tid)

    # -- the deterministic split ---------------------------------------------

    def _is_cross_shard(self, tx: Transaction) -> bool:
        fraction = self.spec.cross_shard_fraction
        if fraction <= 0.0 or self.num_shards < 2 or tx.tid < 0:
            return False
        if fraction >= 1.0:
            return True
        draw = HashRouting.mix(tx.tid ^ _FRACTION_SALT) * 2.0 ** -64
        return draw < fraction

    def _split(self, tx: Transaction) -> _DistributedTx:
        """Fan ``tx``'s demand across K participant branches.

        Participants are a contiguous window of shards starting at the
        tid's hash pick (the same pick ``hash`` routing would make), so
        a cross-shard transaction touches its own partition plus its
        K-1 neighbours.  The home branch *is* the original transaction
        (demand shrunk in place, once); siblings are fresh transactions
        with negative tids so the collector and the resilience layer
        never mistake them for logical work.
        """
        k = min(self.spec.fanout_k, self.num_shards)
        start = HashRouting.mix(tx.tid) % self.num_shards
        shards = tuple((start + j) % self.num_shards for j in range(k))
        home_shard = shards[0] if self.spec.coordinator == "hash" else min(shards)
        home_pos = shards.index(home_shard)

        cpu_share = tx.cpu_demand / k
        pages, extra = divmod(tx.page_accesses, k)
        locks = list(tx.lock_requests)
        branches: List[Transaction] = []
        for pos in range(k):
            branch_pages = pages + (1 if pos < extra else 0)
            branch_locks = locks[pos::k]
            if pos == home_pos:
                tx.cpu_demand = cpu_share
                tx.page_accesses = branch_pages
                tx.lock_requests = branch_locks
                branches.append(tx)
                continue
            sibling = Transaction(
                tid=self._next_sibling_tid,
                type_name=tx.type_name,
                cpu_demand=cpu_share,
                page_accesses=branch_pages,
                lock_requests=branch_locks,
                is_update=tx.is_update,
                priority=tx.priority,
            )
            self._next_sibling_tid -= 1
            branches.append(sibling)
        ltx = _DistributedTx(tx, tuple(branches), shards, home_pos)
        for pos, branch in enumerate(branches):
            self._branch_of[branch.tid] = (ltx, pos)
        self._live[tx.tid] = ltx
        return ltx

    # -- attempt lifecycle ----------------------------------------------------

    def _launch(self, ltx: _DistributedTx) -> None:
        """Start one attempt: submit every branch to its participant."""
        ltx.generation += 1
        ltx.attempts += 1
        self.attempts += 1
        ltx.decided = None
        ltx.external_disposed = False
        ltx.relaunch_pending = False
        ltx.prepared.clear()
        ltx.gates.clear()
        ltx.resolved = [False] * len(ltx.branches)
        ltx.resolved_count = 0
        generation = ltx.generation
        router = self.router
        for pos, branch in enumerate(ltx.branches):
            if ltx.decided == "abort":
                # a synchronous shed aborted the attempt mid-launch;
                # branches never submitted resolve in place
                self._mark_resolved(ltx, pos)
                continue
            router.release(branch.tid)
            done = router.submit_to(branch, ltx.shards[pos])
            done.add_callback(
                lambda event, ltx=ltx, pos=pos, generation=generation:
                    self._on_branch_done(ltx, pos, generation, event)
            )
        if ltx.decided == "abort":
            self._maybe_finish_abort(ltx)
            return
        timer = self.sim.timeout(self.spec.prepare_timeout_s)
        timer.add_callback(
            lambda _event, ltx=ltx, generation=generation:
                self._on_prepare_timeout(ltx, generation)
        )

    # -- engine hooks ---------------------------------------------------------

    def prepared(self, tx: Transaction) -> Optional[Event]:
        """Engine hook at the commit point: the branch's prepare vote.

        Non-branch transactions return None immediately (no gate, no
        event operations).  A preparing branch parks on the returned
        commit gate *holding its locks*; the last participant to
        prepare decides commit, fires every parked gate, and proceeds
        synchronously (None).
        """
        entry = self._branch_of.get(tx.tid)
        if entry is None:
            return None
        ltx, pos = entry
        if ltx.decided == "commit":
            return None
        if ltx.decided == "abort":
            # the abort interrupt is already in flight; park so it
            # lands at this yield instead of committing a doomed branch
            return self.sim.event()
        if self._abort_pending(ltx, pos):
            # this branch's own tear-down (a resilience deadline, a POW
            # preemption) was thrown this instant but has not landed:
            # park without voting, so the interrupt arrives at this
            # yield instead of after a commit decision
            return self.sim.event()
        ltx.prepared.add(pos)
        if len(ltx.prepared) == len(ltx.branches):
            if self._parked_abort_pending(ltx):
                # a parked participant's abort is in flight — its
                # interrupt detached it from its commit gate, so a
                # commit decision now would lose that branch and
                # half-abort the atom; withhold the decision and let
                # the landing interrupt abort the attempt atomically
                gate = self.sim.event()
                ltx.gates[pos] = gate
                return gate
            self._decide_commit(ltx)
            return None
        gate = self.sim.event()
        ltx.gates[pos] = gate
        return gate

    def _abort_pending(self, ltx: _DistributedTx, pos: int) -> bool:
        frontend = ltx.frontends[pos]
        return frontend is not None and frontend.engine.abort_pending(
            ltx.branches[pos]
        )

    def _parked_abort_pending(self, ltx: _DistributedTx) -> bool:
        return any(self._abort_pending(ltx, pos) for pos in ltx.gates)

    def commit_pinned(self, tx: Transaction) -> bool:
        """Whether ``tx`` is a branch of a decided-commit 2PC attempt.

        The engine refuses external aborts for pinned branches — once
        every participant prepared and the decision is commit, no
        deadline may half-abort the atom.
        """
        entry = self._branch_of.get(tx.tid)
        return entry is not None and entry[0].decided == "commit"

    # -- decisions ------------------------------------------------------------

    def _decide_commit(self, ltx: _DistributedTx) -> None:
        ltx.decided = "commit"
        self.commits += 1
        self.starved_streak = 0
        gates, ltx.gates = ltx.gates, {}
        for gate in gates.values():
            # inlined gate.succeed(): known untriggered
            gate._triggered = True
            gate._value = None
            self._fire(gate)

    def _abort_attempt(
        self, ltx: _DistributedTx, cause: str,
        resolved_pos: Optional[int] = None,
    ) -> None:
        """Decide abort: every unresolved branch is removed or interrupted."""
        ltx.decided = "abort"
        ltx.prepared.clear()
        ltx.gates.clear()  # parked branches resolve via their interrupts
        self.aborts += 1
        self.aborts_by_cause[cause] = self.aborts_by_cause.get(cause, 0) + 1
        self.starved_streak += 1
        if resolved_pos is not None:
            self._mark_resolved(ltx, resolved_pos)
        for pos, branch in enumerate(ltx.branches):
            if ltx.resolved[pos]:
                continue
            frontend = ltx.frontends[pos]
            if frontend is None:
                continue  # not yet submitted; _launch resolves it
            if frontend.policy.remove(branch):
                # still queued: never reached the engine
                frontend.removed += 1
                self._mark_resolved(ltx, pos)
                continue
            # in flight (or parked at its gate): abort through the
            # engine; the branch-done callback resolves it.  A branch
            # that finished this same instant resolves via its pending
            # callback instead — abort() returns False then.
            frontend.engine.abort(branch)
        if self.starved_streak >= GOODPUT_STARVATION_LIMIT:
            raise GoodputStarved(
                f"2PC goodput starved at t={self.sim.now:.3f}: "
                f"{self.starved_streak} consecutive cross-shard aborts "
                f"without a commit (cross_shard={self.cross_shard} "
                f"commits={self.commits} aborts={self.aborts}); raise "
                "prepare_timeout_s, lower cross_shard_fraction, or give "
                "the cluster more MPL headroom"
            )
        self._maybe_finish_abort(ltx)

    def _on_prepare_timeout(self, ltx: _DistributedTx, generation: int) -> None:
        if ltx.generation != generation or ltx.decided is not None:
            return
        self.prepare_timeouts += 1
        if self.spec.abort_on_prepare_timeout:
            self._abort_attempt(ltx, "prepare_timeout")

    # -- resolution -----------------------------------------------------------

    def _mark_resolved(self, ltx: _DistributedTx, pos: int) -> None:
        if not ltx.resolved[pos]:
            ltx.resolved[pos] = True
            ltx.resolved_count += 1

    def _on_branch_done(
        self, ltx: _DistributedTx, pos: int, generation: int, event: Event
    ) -> None:
        if ltx.generation != generation:
            return  # stale attempt
        branch: Transaction = event.value
        committed = branch.status is TxStatus.COMMITTED
        if ltx.decided is None:
            if not committed:
                # external abort (a resilience deadline) reached a
                # branch before any 2PC decision: abort the attempt —
                # and rescind its prepare vote, or a later sibling
                # prepare would decide commit over a dead participant
                self._abort_attempt(ltx, "branch_abort", resolved_pos=pos)
                return
            # a branch must park at the prepare gate until a decision
            # exists; a commit before one is a coordinator bug
            self.atomicity_violations.append({
                "t": self.sim.now,
                "tid": ltx.tx.tid,
                "branch_tid": branch.tid,
                "decided": None,
                "status": branch.status.name,
            })
        elif committed != (ltx.decided == "commit"):
            self.atomicity_violations.append({
                "t": self.sim.now,
                "tid": ltx.tx.tid,
                "branch_tid": branch.tid,
                "decided": ltx.decided,
                "status": branch.status.name,
            })
        self._mark_resolved(ltx, pos)
        if ltx.decided == "commit":
            if pos == ltx.home_pos:
                self._fire_outer(ltx)
            if ltx.resolved_count == len(ltx.branches):
                self._finish_commit(ltx)
            return
        self._maybe_finish_abort(ltx)

    def _finish_commit(self, ltx: _DistributedTx) -> None:
        for branch in ltx.branches:
            if branch.status is not TxStatus.COMMITTED:
                self.atomicity_violations.append({
                    "t": self.sim.now,
                    "tid": ltx.tx.tid,
                    "branch_tid": branch.tid,
                    "decided": "commit",
                    "status": branch.status.name,
                })
        self._live.pop(ltx.tx.tid, None)

    def _maybe_finish_abort(self, ltx: _DistributedTx) -> None:
        if ltx.decided != "abort" or ltx.resolved_count < len(ltx.branches):
            return
        if ltx.relaunch_pending:
            self._launch(ltx)
            return
        if self._external_retries:
            # the resilience layer owns retry/dispose; the home
            # transaction leaves ABORTED, which its attempt callback
            # reads as a timeout — unless resilience itself removed the
            # home branch from a queue and already disposed the attempt
            if not ltx.external_disposed:
                self._fire_outer(ltx)
            return
        # internal retries: deterministic exponential backoff + jitter
        self.retries += 1
        exponent = min(ltx.attempts - 1, RETRY_MAX_EXPONENT)
        delay = RETRY_BASE_BACKOFF_S * RETRY_BACKOFF_MULTIPLIER ** exponent
        if ltx.rng is None:
            ltx.rng = random.Random(derive_seed(self.seed, "2pc", ltx.tx.tid))
        delay *= 1.0 + RETRY_JITTER_FRACTION * ltx.rng.random()
        generation = ltx.generation
        timer = self.sim.timeout(delay)
        timer.add_callback(
            lambda _event, ltx=ltx, generation=generation:
                self._relaunch(ltx, generation)
        )

    def _relaunch(self, ltx: _DistributedTx, generation: int) -> None:
        if ltx.generation != generation or ltx.decided != "abort":
            return
        self._launch(ltx)

    def _fire_outer(self, ltx: _DistributedTx) -> None:
        outer, ltx.outer = ltx.outer, None
        if outer is None:
            return
        # inlined outer.succeed(tx): known untriggered
        outer._triggered = True
        outer._value = ltx.tx
        self._fire(outer)

    # -- external notifications ----------------------------------------------

    def on_submitted(self, tx: Transaction, frontend) -> None:
        """Frontend hook: a branch just entered ``frontend`` (submit/adopt).

        Tracks the branch's *actual* frontend — router fallback during
        a fault timeline can land a branch off its planned participant.
        """
        entry = self._branch_of.get(tx.tid)
        if entry is None:
            return
        ltx, pos = entry
        ltx.frontends[pos] = frontend

    def on_external_removed(self, tx: Transaction) -> None:
        """Resilience hook: ``tx`` was pulled out of an external queue
        (deadline expiry in queue, load shedding).

        No completion callback will ever fire for it, so the branch
        resolves here; an undecided attempt aborts.  When the removed
        branch is the home, the resilience layer already owns the
        disposition — the coordinator must not fire the outer too.
        """
        entry = self._branch_of.get(tx.tid)
        if entry is None:
            return
        ltx, pos = entry
        if pos == ltx.home_pos:
            ltx.external_disposed = True
        if ltx.decided is None:
            self._abort_attempt(ltx, "external_removed", resolved_pos=pos)
            return
        self._mark_resolved(ltx, pos)
        self._maybe_finish_abort(ltx)

    def on_shard_killed(self, index: int) -> None:
        """Cluster hook, *before* the kill drains/re-routes the queue.

        Participant death: undecided attempts with a branch queued on
        the dying shard abort now, so their branches are pulled out of
        the queue here rather than re-homed onto a wrong participant.
        In-flight branches drain to completion (fail-stop at the
        admission boundary), exactly like every other transaction.
        """
        frontend = self._frontends[index]
        for ltx in list(self._live.values()):
            if ltx.decided is not None:
                continue
            for pos, branch in enumerate(ltx.branches):
                if (
                    not ltx.resolved[pos]
                    and ltx.frontends[pos] is frontend
                    and branch.status is TxStatus.QUEUED
                ):
                    self._abort_attempt(ltx, "participant_death")
                    break

    # -- accounting -----------------------------------------------------------

    def report_jsonable(self) -> Dict[str, Any]:
        """The outcome-JSON distributed block."""
        return {
            "single_shard": self.single_shard,
            "cross_shard": self.cross_shard,
            "attempts": self.attempts,
            "commits": self.commits,
            "aborts": self.aborts,
            "aborts_by_cause": {
                cause: count
                for cause, count in sorted(self.aborts_by_cause.items())
            },
            "prepare_timeouts": self.prepare_timeouts,
            "retries": self.retries,
            "in_flight": sum(
                1 for ltx in self._live.values() if ltx.decided != "commit"
            ),
            "atomicity_violations": list(self.atomicity_violations),
        }
