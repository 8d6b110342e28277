"""The feedback controller that finds the lowest feasible MPL (§4.3).

The controller alternates *observation* and *reaction* phases against a
live system:

* An observation phase collects completed transactions until the
  window both (a) contains enough samples for stable estimates (the
  paper sizes this via confidence intervals, landing at ≈ 100
  transactions) and (b) exhibits representative load — windows with
  unusually few arrivals are extended rather than acted on.
* The reaction phase compares windowed throughput and mean response
  time against the no-MPL baseline: if either penalty exceeds the
  DBA's threshold the MPL steps up; if the MPL is feasible the
  controller probes one step down, and it declares convergence once
  it sits at a feasible MPL whose immediate predecessor is known
  infeasible.

Adjustments are deliberately small and constant (±1): the queueing
models give the loop a close-to-optimal starting value, so it
converges in a handful of iterations anyway — the paper reports < 10,
and ``benchmarks/test_bench_controller.py`` measures ours.

The SLO controllers (one engine, or a sharded cluster) search for the
*highest* MPL whose HIGH p95 meets a target, through one walk
(:func:`highest_feasible_walk`) that takes the actuator applying an MPL
and the floor it may not cross.  :class:`MplController` keeps its own
loop: it gallops down even inside a known bracket, and
``adaptive=False`` is the paper's constant-step ablation.  What the
loops are given and what they report is data in
:mod:`repro.core.control_types`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.control_types import (
    Baseline,
    ClusterSloObservation,
    ClusterSloReport,
    ControllerReport,
    ElasticAction,
    ElasticReport,
    Observation,
    SloObservation,
    SloReport,
    Thresholds,
    check_loop_ranges,
)
from repro.core.simulation import SimulatedSystem
from repro.dbms.transaction import Priority
from repro.metrics import stats


class MplController:
    """Feedback loop adjusting a live system's MPL.

    Parameters
    ----------
    system:
        The running :class:`~repro.core.simulation.SimulatedSystem`.
    baseline:
        No-MPL reference throughput / response time.
    thresholds:
        Acceptable penalties.
    initial_mpl:
        Starting MPL — ideally the queueing models' prediction (see
        :meth:`~repro.core.scenario.FeedbackMpl.tune_engine`); a poor
        start still converges, just more slowly.
    window:
        Minimum completed transactions per observation (paper: ≈ 100).
    step:
        Constant reaction-step size.
    """

    #: Window relative-CI above which the window keeps being extended.
    MAX_RELATIVE_CI = 0.3
    #: Upper bound on window extensions (heavy-tailed workloads need
    #: several hundred samples for a stable mean; see §4.3's
    #: confidence-interval sizing).
    MAX_EXTENSIONS = 8
    #: Windows whose arrival count falls below this fraction of the
    #: running mean are considered unrepresentative and extended.
    MIN_LOAD_FRACTION = 0.5

    def __init__(
        self,
        system: SimulatedSystem,
        baseline: Baseline,
        thresholds: Thresholds,
        initial_mpl: int,
        window: int = 100,
        step: int = 1,
        max_iterations: int = 40,
        adaptive: bool = True,
        max_mpl: int = 512,
        check_response_time: bool = True,
    ):
        check_loop_ranges(initial_mpl, window, step, max_mpl, max_iterations)
        self.system = system
        self.baseline = baseline
        self.thresholds = thresholds
        self.initial_mpl = initial_mpl
        self.window = window
        self.step = step
        self.max_iterations = max_iterations
        self.adaptive = adaptive
        self.max_mpl = max_mpl
        # In a closed system the mean response time is tied to
        # throughput by Little's law (N = X * R with N fixed), so the
        # throughput check subsumes the RT check; the tuner disables
        # the direct RT comparison there because finite-run RT
        # estimates of the MPL'd and unlimited systems carry different
        # transient biases.
        self.check_response_time = check_response_time
        self._window_arrivals: List[int] = []

    # -- observation -----------------------------------------------------------

    def _observe(self, mpl: int) -> Observation:
        """Collect one representative, statistically stable window."""
        records = self.system.run_transactions(self.window)
        response_times = [r.response_time for r in records]
        # Extend while the estimate is too noisy (the paper's
        # confidence-interval sizing) or the window's load was
        # unrepresentative.
        extensions = 0
        while (
            extensions < self.MAX_EXTENSIONS
            and self._needs_extension(records, response_times)
        ):
            extensions += 1
            records = records + self.system.run_transactions(self.window)
            response_times = [r.response_time for r in records]
        elapsed = records[-1].completion_time - records[0].completion_time
        throughput = (len(records) - 1) / elapsed if elapsed > 0 else 0.0
        mean_rt = stats.mean(response_times)
        loss = max(0.0, 1.0 - throughput / self.baseline.throughput)
        rt_ref = self.baseline.mean_response_time
        increase = max(0.0, mean_rt / rt_ref - 1.0) if rt_ref > 0 else 0.0
        # Feasibility is a statistical comparison: only declare a
        # penalty too large when it exceeds the threshold by more than
        # the window's own estimation uncertainty, otherwise noisy
        # windows on heavy-tailed workloads send the loop on runaway
        # up-walks.
        throughput_noise = min(0.25, stats.relative_half_width(_gaps(records)))
        rt_noise = min(0.5, stats.relative_half_width(response_times))
        feasible = loss <= self.thresholds.max_throughput_loss + throughput_noise
        if self.check_response_time:
            feasible = feasible and (
                increase
                <= self.thresholds.max_response_time_increase + rt_noise
            )
        return Observation(
            mpl=mpl,
            completed=len(records),
            throughput=throughput,
            mean_response_time=mean_rt,
            throughput_loss=loss,
            response_time_increase=increase,
            feasible=feasible,
        )

    #: Relative CI required of the throughput estimate (via the mean
    #: inter-completion gap); throughput is the feasibility-deciding
    #: metric, so it gets the tighter bound.
    MAX_THROUGHPUT_CI = 0.08

    def _needs_extension(self, records, response_times) -> bool:
        if stats.relative_half_width(response_times) > self.MAX_RELATIVE_CI:
            return True
        if stats.relative_half_width(_gaps(records)) > self.MAX_THROUGHPUT_CI:
            return True
        arrivals = self.system.collector.arrivals
        self._window_arrivals.append(arrivals)
        if len(self._window_arrivals) >= 3:
            window_growth = arrivals - self._window_arrivals[-2]
            past = [
                b - a
                for a, b in zip(self._window_arrivals, self._window_arrivals[1:])
            ]
            typical = stats.mean(past)
            if typical > 0 and window_growth < self.MIN_LOAD_FRACTION * typical:
                return True
        return False

    # -- the control loop -------------------------------------------------------

    def tune(self) -> ControllerReport:
        """Run observation/reaction iterations until convergence.

        Convergence: the controller sits at a feasible MPL whose
        immediate predecessor is known infeasible (the lowest feasible
        value), or the iteration budget runs out.

        In ``adaptive`` mode (the default) the downward probe doubles
        its step while observations stay feasible and then refines the
        bracket by bisection — a small extension of the paper's
        constant-step loop that keeps convergence under ~10 iterations
        even when the worst-case queueing model starts far above the
        real optimum.  ``adaptive=False`` reproduces the paper's
        constant ±step loop exactly (the ablation benchmark compares
        the two).
        """
        mpl = self.initial_mpl
        trajectory: List[Observation] = []
        lowest_feasible: Optional[int] = None
        highest_infeasible = 0
        step = self.step
        for iteration in range(1, self.max_iterations + 1):
            self.system.frontend.set_mpl(mpl)
            observation = self._observe(mpl)
            trajectory.append(observation)
            if observation.feasible:
                if lowest_feasible is None or mpl < lowest_feasible:
                    lowest_feasible = mpl
                if mpl - 1 <= highest_infeasible:
                    return ControllerReport(mpl, iteration, True, trajectory)
                if self.adaptive:
                    next_mpl = max(highest_infeasible + 1, mpl - step)
                    step *= 2
                else:
                    next_mpl = mpl - self.step
                mpl = max(1, next_mpl)
            else:
                if mpl > highest_infeasible:
                    highest_infeasible = mpl
                if lowest_feasible is not None and lowest_feasible - 1 <= mpl:
                    self.system.frontend.set_mpl(lowest_feasible)
                    return ControllerReport(lowest_feasible, iteration, True, trajectory)
                if self.adaptive and lowest_feasible is not None:
                    # bisect the (infeasible, feasible) bracket
                    mpl = (mpl + lowest_feasible) // 2
                    step = self.step
                else:
                    if mpl >= self.max_mpl:
                        # even the cap is infeasible: accept it (the
                        # thresholds are unattainable on this system)
                        self.system.frontend.set_mpl(self.max_mpl)
                        return ControllerReport(self.max_mpl, iteration, False, trajectory)
                    if self.adaptive:
                        next_mpl = mpl + step
                        step *= 2
                    else:
                        next_mpl = mpl + self.step
                    mpl = min(next_mpl, self.max_mpl)
        final = lowest_feasible if lowest_feasible is not None else mpl
        self.system.frontend.set_mpl(final)
        return ControllerReport(final, self.max_iterations, False, trajectory)


def _gaps(records) -> List[float]:
    """Inter-completion gaps of a record window."""
    return [b.completion_time - a.completion_time for a, b in zip(records, records[1:])]


# -- per-class SLO control -----------------------------------------------------

#: SLO windows are extended until they contain at least this many
#: HIGH-class completions — a p95 over fewer samples is noise.
MIN_HIGH_SAMPLES = 20
#: Upper bound on window extensions per SLO observation.
MAX_HIGH_EXTENSIONS = 6


def observe_high_class(system, window: int, target_p95_s: float) -> Dict[str, Any]:
    """One SLO window: every observation field but the MPL (and split).

    Extends the window, at most :data:`MAX_HIGH_EXTENSIONS` times, until
    it holds :data:`MIN_HIGH_SAMPLES` HIGH completions.
    """
    records = system.run_transactions(window)
    extensions = 0
    while (
        extensions < MAX_HIGH_EXTENSIONS
        and sum(1 for r in records if r.priority == Priority.HIGH)
        < MIN_HIGH_SAMPLES
    ):
        extensions += 1
        records = records + system.run_transactions(window)
    high = [r.response_time for r in records if r.priority == Priority.HIGH]
    low_count = len(records) - len(high)
    elapsed = records[-1].completion_time - records[0].completion_time
    p95 = stats.percentile(high, 95.0)
    return {
        "completed": len(records),
        "high_count": len(high),
        "high_p95": p95,
        "low_throughput": low_count / elapsed if elapsed > 0 else 0.0,
        "feasible": bool(high) and p95 <= target_p95_s,
    }


def highest_feasible_walk(
    actuate: Callable[[int], Any],
    observe: Callable[[int], Any],
    floor: int,
    initial_mpl: int,
    step: int,
    max_mpl: int,
    max_iterations: int,
) -> Tuple[int, int, bool, list]:
    """Search for the highest MPL whose observation is feasible.

    Each iteration applies an MPL through ``actuate`` and judges it by
    ``observe(mpl).feasible``.  Feasible probes walk up, infeasible ones
    down, with a doubling stride until the bracket closes, then bisect.
    It converges at a feasible MPL whose successor is known infeasible
    or that reaches ``max_mpl``; an infeasible ``floor`` (unattainable
    target) or a spent budget ends it unconverged.

    Returns ``(final_mpl, iterations, converged, trajectory)``.
    """
    mpl = initial_mpl
    trajectory: list = []
    highest_feasible: Optional[int] = None
    lowest_infeasible: Optional[int] = None
    stride = step
    for iteration in range(1, max_iterations + 1):
        actuate(mpl)
        observation = observe(mpl)
        trajectory.append(observation)
        if observation.feasible:
            if highest_feasible is None or mpl > highest_feasible:
                highest_feasible = mpl
            if mpl >= max_mpl or (
                lowest_infeasible is not None and mpl + 1 >= lowest_infeasible
            ):
                return mpl, iteration, True, trajectory
            if lowest_infeasible is None:
                mpl = min(max_mpl, mpl + stride)
                stride *= 2
            else:
                mpl = (mpl + lowest_infeasible) // 2
                stride = step
        else:
            if lowest_infeasible is None or mpl < lowest_infeasible:
                lowest_infeasible = mpl
            if highest_feasible is not None and mpl - 1 <= highest_feasible:
                actuate(highest_feasible)
                return highest_feasible, iteration, True, trajectory
            if mpl <= floor:
                return floor, iteration, False, trajectory
            if highest_feasible is None:
                mpl = max(floor, mpl - stride)
                stride *= 2
            else:
                mpl = (mpl + highest_feasible) // 2
                stride = step
    final = highest_feasible if highest_feasible is not None else floor
    actuate(final)
    return final, max_iterations, False, trajectory


class PerClassSloController:
    """Hold HIGH's p95 under a target while maximizing LOW throughput.

    The dual of :class:`MplController`: there the MPL steps *up* until
    throughput/response penalties vanish (lowest feasible MPL); here
    the DBA's constraint is a latency SLO on the HIGH class, and the
    MPL is the lever — a lower MPL means fewer transactions competing
    inside the DBMS, so prioritized HIGH work finishes faster, at the
    cost of LOW throughput.  The loop is :func:`highest_feasible_walk`
    on the engine's ``set_mpl`` with a floor of 1: feasible windows
    probe upward (reclaiming LOW throughput), infeasible ones step
    down, and it converges at a feasible MPL whose immediate successor
    is known infeasible.

    Requires a running system whose workload carries HIGH-priority
    transactions (e.g. ``high_priority_fraction > 0`` with the
    ``priority`` external queue policy).
    """

    def __init__(
        self,
        system: SimulatedSystem,
        target_p95_s: float,
        initial_mpl: int,
        window: int = 150,
        step: int = 1,
        max_mpl: int = 128,
        max_iterations: int = 30,
    ):
        if target_p95_s <= 0:
            raise ValueError(f"target_p95_s must be positive, got {target_p95_s!r}")
        check_loop_ranges(initial_mpl, window, step, max_mpl, max_iterations)
        self.system = system
        self.target_p95_s = target_p95_s
        self.initial_mpl = initial_mpl
        self.window = window
        self.step = step
        self.max_mpl = max_mpl
        self.max_iterations = max_iterations

    def _observe(self, mpl: int) -> SloObservation:
        return SloObservation(
            mpl=mpl, **observe_high_class(self.system, self.window, self.target_p95_s)
        )

    def tune(self) -> SloReport:
        """Run observation/reaction iterations until convergence.

        Convergence: the controller sits at a feasible MPL whose
        immediate successor is known infeasible (the highest feasible
        value), or the feasible region reaches ``max_mpl``, or the
        iteration budget runs out.
        """
        return SloReport(*highest_feasible_walk(
            self.system.frontend.set_mpl, self._observe, 1,
            self.initial_mpl, self.step, self.max_mpl, self.max_iterations,
        ))


# -- shard load weights (clusters) ---------------------------------------------

#: Split weight for dead/parked shards: small enough that the
#: largest-remainder split leaves them the minimum of 1, without
#: dividing by zero.
PARKED_WEIGHT = 1e-9


def load_weights(system) -> List[float]:
    """Load-proportional global-MPL split weights for a cluster.

    Each routable shard weighs 1 + in-service + queued, so hot shards
    and cross-shard fan-in pull capacity; every other shard gets
    :data:`PARKED_WEIGHT`.
    """
    router = system.router
    return [
        1.0 + shard.frontend.in_service + shard.frontend.queue_length
        if router.routable(index)
        else PARKED_WEIGHT
        for index, shard in enumerate(system.shards)
    ]


# -- elastic capacity control (clusters) --------------------------------------


class ElasticCapacityController:
    """Re-splits a cluster's global MPL toward hot shards, on the clock.

    A simulated-time process ticks every ``interval_s``: it measures
    each routable shard's load (admitted + queued), re-splits the
    global MPL proportionally to load via
    :meth:`~repro.core.cluster.ShardedExternalScheduler.set_global_mpl`
    (shards that are dead or parked get the floor of 1), and manages
    the rotation — parking the least-loaded shard when the cluster's
    admitted fraction falls below ``low_watermark`` and re-activating a
    parked shard when it climbs above ``high_watermark``.  Every input
    is deterministic simulation state, so elastic runs stay
    bit-identical for any ``--jobs N``.

    The loop ends after ``max_ticks`` so a run whose workload drains
    early still terminates (the kernel stops on its completion target
    regardless).
    """

    def __init__(
        self,
        system,
        global_mpl: int,
        interval_s: float = 2.0,
        high_watermark: float = 0.85,
        low_watermark: float = 0.25,
        min_shards: int = 1,
        max_ticks: int = 1000,
    ):
        if global_mpl < len(system.shards):
            raise ValueError(
                f"global MPL {global_mpl} cannot cover "
                f"{len(system.shards)} shards (need >= 1 each)"
            )
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s!r}")
        if not 0.0 <= low_watermark < high_watermark <= 1.0:
            # inverted watermarks would park on one tick and re-activate
            # on the next, forever
            raise ValueError(
                "watermarks must satisfy 0 <= low < high <= 1, got "
                f"low={low_watermark!r} high={high_watermark!r}"
            )
        if min_shards < 1:
            raise ValueError(f"min_shards must be >= 1, got {min_shards!r}")
        if max_ticks < 1:
            raise ValueError(f"max_ticks must be >= 1, got {max_ticks!r}")
        self.system = system
        self.global_mpl = global_mpl
        self.interval_s = interval_s
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self.min_shards = min_shards
        self.max_ticks = max_ticks
        self.report = ElasticReport(interval_s=interval_s, global_mpl=global_mpl)
        self._last_mpls: Optional[tuple] = None

    def install(self) -> "ElasticCapacityController":
        """Arm the tick process; the initial even split applies now."""
        mpls = self.system.scheduler.set_global_mpl(self.global_mpl)
        self._last_mpls = tuple(mpls)
        self.report.final_mpls = tuple(mpls)
        self.system.sim.process(self._loop(), name="elastic")
        return self

    def _loop(self):
        sim = self.system.sim
        for _tick in range(self.max_ticks):
            yield sim.timeout(self.interval_s)
            self._rebalance()

    # -- one tick ----------------------------------------------------------

    def _log(self, kind: str, mpls: tuple, detail: str) -> None:
        self.report.actions.append(ElasticAction(self.system.sim.now, kind, mpls, detail))

    def _rebalance(self) -> None:
        system = self.system
        active = system.router.live_targets()
        if not active:
            return
        loads = [
            shard.frontend.in_service + shard.frontend.queue_length
            for shard in system.shards
        ]
        admitted = sum(system.shards[i].frontend.in_service for i in active)
        utilization = admitted / max(1, self.global_mpl)
        self._manage_rotation(active, loads, utilization)
        mpls = tuple(
            system.scheduler.set_global_mpl(
                self.global_mpl, weights=load_weights(system)
            )
        )
        self.report.final_mpls = mpls
        if mpls != self._last_mpls:
            self._last_mpls = mpls
            self._log("resplit", mpls, f"loads={tuple(loads)}")

    def _manage_rotation(
        self, active: List[int], loads: List[int], utilization: float
    ) -> None:
        system = self.system
        router = system.router
        if utilization > self.high_watermark:
            # scale out: bring the lowest-index parked shard back
            for index in range(len(system.shards)):
                if router.alive[index] and not router.in_rotation[index]:
                    router.set_rotation(index, True)
                    self._log("activate", (), f"shard {index} back in rotation "
                                              f"(utilization {utilization:.2f})")
                    return
            return
        if utilization < self.low_watermark and len(active) > self.min_shards:
            # scale in: park the least-loaded active shard (ties to the
            # highest index, so shard 0 parks last) and let it drain
            index = min(reversed(active), key=lambda i: loads[i])
            router.set_rotation(index, False)
            self._log("park", (), f"shard {index} parked (utilization {utilization:.2f})")

# -- cluster-wide SLO control (clusters) ---------------------------------------


class ClusterSloController:
    """Hold the *cluster-wide* HIGH p95 under a target while maximizing
    LOW throughput, driving the global MPL split as one lever.

    :class:`PerClassSloController` lifted from single-engine to cluster
    scope: the observation window is the cluster collector (every
    shard's completions), and the actuator re-splits the *global* MPL
    across shards via
    :meth:`~repro.core.cluster.ShardedExternalScheduler.set_global_mpl`
    with health-aware weights — :func:`load_weights`, with shards whose
    circuit breaker is not closed discounted.  The search is the same
    :func:`highest_feasible_walk`, except the floor is one MPL slot per
    shard (``split_mpl`` needs that) — a 2PC branch parked at its
    prepare gate occupies a slot, so a cluster starved below
    one-per-shard would distributed-deadlock.
    """

    #: Weight multiplier for shards whose breaker is open/half-open.
    UNHEALTHY_DISCOUNT = 0.25

    def __init__(
        self,
        system,
        target_p95_s: float,
        initial_mpl: int,
        window: int = 150,
        step: int = 2,
        max_mpl: int = 256,
        max_iterations: int = 30,
    ):
        if target_p95_s <= 0:
            raise ValueError(f"target_p95_s must be positive, got {target_p95_s!r}")
        self.floor = len(system.shards)
        check_loop_ranges(
            initial_mpl, window, step, max_mpl, max_iterations, floor=self.floor
        )
        self.system = system
        self.target_p95_s = target_p95_s
        self.initial_mpl = initial_mpl
        self.window = window
        self.step = step
        self.max_mpl = max_mpl
        self.max_iterations = max_iterations
        self._last_split: tuple = ()

    def _split_weights(self) -> List[float]:
        """Health-aware weights for the global-MPL split."""
        system = self.system
        weights = load_weights(system)
        resilience = getattr(system, "resilience", None)
        breakers = resilience.breakers if resilience is not None else None
        for index, breaker in enumerate(breakers or ()):
            if system.router.routable(index) and breaker.state != "closed":
                weights[index] *= self.UNHEALTHY_DISCOUNT
        return weights

    def _apply(self, mpl: int) -> None:
        self._last_split = tuple(
            self.system.scheduler.set_global_mpl(
                mpl, weights=self._split_weights()
            )
        )

    def _observe(self, mpl: int) -> ClusterSloObservation:
        return ClusterSloObservation(
            mpl=mpl,
            split=self._last_split,
            **observe_high_class(self.system, self.window, self.target_p95_s),
        )

    def tune(self) -> ClusterSloReport:
        """Run observation/reaction iterations until convergence.

        Convergence mirrors :meth:`PerClassSloController.tune`: the
        loop sits at a feasible global MPL whose immediate successor is
        known infeasible, or the feasible region reaches ``max_mpl``,
        or the iteration budget runs out.  The split is re-derived from
        live health at every reaction, so the same global MPL can land
        differently as shards heat up or trip their breakers.
        """
        final, iterations, converged, trajectory = highest_feasible_walk(
            self._apply, self._observe, self.floor,
            self.initial_mpl, self.step, self.max_mpl, self.max_iterations,
        )
        last = trajectory[-1]
        if not converged and not last.feasible and last.mpl == self.floor:
            # even one slot per shard misses the SLO: the target is
            # unattainable on this cluster — hold the floor, split with
            # fresh weights
            self._apply(self.floor)
        return ClusterSloReport(
            final_mpl=final, final_split=self._last_split,
            iterations=iterations, converged=converged,
            trajectory=trajectory,
        )
