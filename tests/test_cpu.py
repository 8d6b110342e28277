"""Tests for the weighted processor-sharing CPU pool."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.dbms.cpu import ProcessorSharingPool
from repro.sim.engine import SimulationError, Simulator


def _finish_time(sim, event):
    done = {}
    event.add_callback(lambda e: done.setdefault("t", sim.now))
    return done


def test_single_job_runs_at_full_speed():
    sim = Simulator()
    cpu = ProcessorSharingPool(sim, cores=1)
    record = _finish_time(sim, cpu.execute(2.0))
    sim.run()
    assert record["t"] == pytest.approx(2.0)


def test_two_equal_jobs_share_one_core():
    sim = Simulator()
    cpu = ProcessorSharingPool(sim, cores=1)
    first = _finish_time(sim, cpu.execute(1.0))
    second = _finish_time(sim, cpu.execute(1.0))
    sim.run()
    # both progress at rate 1/2, finishing together at t=2
    assert first["t"] == pytest.approx(2.0)
    assert second["t"] == pytest.approx(2.0)


def test_two_jobs_on_two_cores_run_independently():
    sim = Simulator()
    cpu = ProcessorSharingPool(sim, cores=2)
    first = _finish_time(sim, cpu.execute(1.0))
    second = _finish_time(sim, cpu.execute(3.0))
    sim.run()
    assert first["t"] == pytest.approx(1.0)
    assert second["t"] == pytest.approx(3.0)


def test_single_job_cannot_use_two_cores():
    sim = Simulator()
    cpu = ProcessorSharingPool(sim, cores=2)
    record = _finish_time(sim, cpu.execute(2.0))
    sim.run()
    assert record["t"] == pytest.approx(2.0)  # capped at one core


def test_three_jobs_two_cores_processor_sharing():
    sim = Simulator()
    cpu = ProcessorSharingPool(sim, cores=2)
    records = [_finish_time(sim, cpu.execute(1.0)) for _ in range(3)]
    sim.run()
    # each runs at 2/3 until the pool drains; equal demands finish together
    for record in records:
        assert record["t"] == pytest.approx(1.5)


def test_late_arrival_slows_running_job():
    sim = Simulator()
    cpu = ProcessorSharingPool(sim, cores=1)
    first = _finish_time(sim, cpu.execute(2.0))

    def late():
        yield sim.timeout(1.0)
        second = cpu.execute(1.0)
        record = _finish_time(sim, second)
        return record

    process = sim.process(late())
    sim.run()
    # first runs alone [0,1) (1 unit done), shares [1,3) (rate 1/2):
    # finishes at 3.  The late 1-unit job also finishes at 3.
    assert first["t"] == pytest.approx(3.0)
    assert process.value["t"] == pytest.approx(3.0)


def test_weighted_sharing_ratio():
    sim = Simulator()
    cpu = ProcessorSharingPool(sim, cores=1)
    heavy = _finish_time(sim, cpu.execute(3.0, weight=3.0))
    light = _finish_time(sim, cpu.execute(1.0, weight=1.0))
    sim.run()
    # rates 3/4 and 1/4; both need time 4 for their demand
    assert heavy["t"] == pytest.approx(4.0)
    assert light["t"] == pytest.approx(4.0)


def test_weight_cap_at_one_core():
    sim = Simulator()
    cpu = ProcessorSharingPool(sim, cores=2)
    # huge weight still limited to one core
    vip = _finish_time(sim, cpu.execute(1.0, weight=100.0))
    other = _finish_time(sim, cpu.execute(1.0, weight=1.0))
    sim.run()
    assert vip["t"] == pytest.approx(1.0)
    assert other["t"] == pytest.approx(1.0)  # spare core serves it fully


def test_zero_demand_completes_immediately():
    sim = Simulator()
    cpu = ProcessorSharingPool(sim, cores=1)
    event = cpu.execute(0.0)
    assert event.triggered


def test_busy_core_time_tracks_work():
    sim = Simulator()
    cpu = ProcessorSharingPool(sim, cores=1)
    cpu.execute(2.0)
    sim.run()
    assert cpu.busy_core_time == pytest.approx(2.0)
    assert cpu.utilization(4.0) == pytest.approx(0.5)


def test_work_completed_accumulates():
    sim = Simulator()
    cpu = ProcessorSharingPool(sim, cores=1)
    cpu.execute(1.5)
    cpu.execute(0.5)
    sim.run()
    assert cpu.work_completed == pytest.approx(2.0)


def test_speed_scales_service():
    sim = Simulator()
    cpu = ProcessorSharingPool(sim, cores=1, speed=2.0)
    record = _finish_time(sim, cpu.execute(2.0))
    sim.run()
    assert record["t"] == pytest.approx(1.0)


def test_invalid_arguments():
    sim = Simulator()
    with pytest.raises(ValueError):
        ProcessorSharingPool(sim, cores=0)
    cpu = ProcessorSharingPool(sim, cores=1)
    with pytest.raises(ValueError):
        cpu.execute(-1.0)
    with pytest.raises(ValueError):
        cpu.execute(1.0, weight=0.0)
    # NaN passes `< 0` / `<= 0` checks; an infinite demand never completes
    for demand in (math.nan, math.inf):
        with pytest.raises(ValueError):
            cpu.execute(demand)
    for weight in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            cpu.execute(1.0, weight=weight)


@pytest.mark.parametrize(
    "demand, weight", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)]
)
def test_rejected_job_leaves_the_pool_untouched(demand, weight):
    sim = Simulator()
    cpu = ProcessorSharingPool(sim, cores=2)
    with pytest.raises(ValueError):
        cpu.execute(demand, weight=weight)
    # nothing was admitted: a later job runs alone, the clock stops
    record = _finish_time(sim, cpu.execute(1.0))
    sim.run(until=5.0)
    assert record["t"] == pytest.approx(1.0)
    assert cpu.active_jobs == 0


def test_active_jobs_counter():
    sim = Simulator()
    cpu = ProcessorSharingPool(sim, cores=1)
    cpu.execute(1.0)
    cpu.execute(1.0)
    assert cpu.active_jobs == 2
    sim.run()
    assert cpu.active_jobs == 0


def test_many_jobs_conservation():
    """Total work served equals total demand regardless of arrival mix."""
    sim = Simulator()
    cpu = ProcessorSharingPool(sim, cores=3)
    demands = [0.5, 1.0, 1.5, 2.0, 0.25, 0.75]

    def submit(delay, demand):
        def proc():
            yield sim.timeout(delay)
            yield cpu.execute(demand)

        sim.process(proc())

    for index, demand in enumerate(demands):
        submit(index * 0.2, demand)
    sim.run()
    assert cpu.work_completed == pytest.approx(sum(demands))
    assert cpu.busy_core_time == pytest.approx(sum(demands))


def _armed_timers(sim, cpu):
    agenda = sim._agenda
    entries = [entry[2] for entry in agenda._heap] + list(agenda._dq)
    return [event for event in entries if event._cb == cpu._timer_callback]


def test_pool_keeps_one_live_timer_and_superseded_ones_never_fire():
    """Every admission re-arms the timer; only the live one calls back."""
    sim = Simulator()
    cpu = ProcessorSharingPool(sim, cores=2)
    callbacks = []
    retimes = {True: 0, False: 0}
    on_timer, retime = cpu._timer_callback, cpu._retime

    def timer_spy(event):
        assert event is cpu._timer  # never a superseded timer
        callbacks.append(sim.now)
        on_timer(event)

    def retime_spy(event, when):
        moved = retime(event, when)
        retimes[moved] += 1
        return moved

    cpu._timer_callback, cpu._retime = timer_spy, retime_spy
    finished = []

    def job(delay, bursts):
        yield sim.timeout(delay)
        for demand in bursts:
            yield cpu.execute(demand)
            finished.append(sim.now)
            assert len(_armed_timers(sim, cpu)) <= 1

    # back-to-back bursts re-arm a timer that is the agenda's head (moved
    # in place); delayed arrivals re-arm one that is not (disarmed)
    jobs = [
        (0.0, (0.3, 0.2, 0.5)), (0.0, (0.25, 0.4)),
        (0.1, (0.6, 0.1, 0.15)), (0.35, (0.05, 0.7)),
    ]
    for delay, bursts in jobs:
        sim.process(job(delay, bursts))
    sim.run()
    assert retimes[True] > 0 and retimes[False] > 0
    # one callback per completion instant, each through the live timer
    assert callbacks == sorted(set(finished))
    assert cpu.active_jobs == 0 and cpu._timer is None
    assert cpu.work_completed == pytest.approx(sum(sum(b) for _, b in jobs))
    assert sim.timeout_reuses > 0  # fired and disarmed timers recycle


# -- set_weight ------------------------------------------------------------


def test_set_weight_reshares_a_running_job():
    sim = Simulator()
    cpu = ProcessorSharingPool(sim, cores=1)
    first = _finish_time(sim, cpu.execute(2.0))  # handle 1
    second = _finish_time(sim, cpu.execute(2.0))  # handle 2

    def reweight():
        yield sim.timeout(1.0)
        cpu.set_weight(1, 3.0)

    sim.process(reweight())
    sim.run()
    # [0,1): both at 1/2, 1.5 left each; then 3/4 vs 1/4: the first
    # finishes at 1 + 1.5/0.75 = 3, the second has 1.0 left, alone: 4
    assert first["t"] == pytest.approx(3.0)
    assert second["t"] == pytest.approx(4.0)
    assert cpu.busy_core_time == pytest.approx(4.0)


def test_set_weight_back_to_one_restores_equal_sharing():
    sim = Simulator()
    cpu = ProcessorSharingPool(sim, cores=1)
    first = _finish_time(sim, cpu.execute(1.0, weight=4.0))
    second = _finish_time(sim, cpu.execute(1.0))
    cpu.set_weight(1, 1.0)
    sim.run()
    assert first["t"] == pytest.approx(2.0)
    assert second["t"] == pytest.approx(2.0)


def test_set_weight_rejects_unknown_and_finished_handles():
    sim = Simulator()
    cpu = ProcessorSharingPool(sim, cores=1)
    with pytest.raises(SimulationError):
        cpu.set_weight(1, 2.0)
    cpu.execute(1.0)
    sim.run()
    with pytest.raises(SimulationError):
        cpu.set_weight(1, 2.0)  # finished: no longer active


def test_set_weight_to_the_same_weight_keeps_the_schedule():
    sim = Simulator()
    cpu = ProcessorSharingPool(sim, cores=2)
    record = _finish_time(sim, cpu.execute(2.0, weight=4.0))

    def reweight():
        yield sim.timeout(0.5)
        cpu.set_weight(1, 4.0)  # alone in its class: the class empties and refills

    sim.process(reweight())
    sim.run()
    assert record["t"] == pytest.approx(2.0)

@pytest.mark.parametrize("weight", [0.0, -1.0, math.nan, math.inf])
def test_set_weight_rejects_bad_weights(weight):
    sim = Simulator()
    cpu = ProcessorSharingPool(sim, cores=1)
    record = _finish_time(sim, cpu.execute(1.0))
    with pytest.raises(ValueError):
        cpu.set_weight(1, weight)
    sim.run(until=5.0)
    assert record["t"] == pytest.approx(1.0)


# -- exact-arithmetic reference ----------------------------------------------


def _reference_rates(weights, cores, speed):
    """Weighted max-min shares of ``cores * speed``, one core per job at most."""
    rates, active, capacity = {}, dict(weights), cores * speed
    while active:
        per_weight = capacity / sum(active.values())
        capped = [h for h, w in active.items() if w * per_weight >= speed]
        if not capped:
            rates.update((h, w * per_weight) for h, w in active.items())
            break
        for handle in capped:
            rates[handle] = speed
            capacity -= speed
            del active[handle]
    return rates


def _reference_schedule(cores, speed, arrivals, reweight):
    """Exact completion times (Fractions) and order of a scripted run.

    ``arrivals`` is ``[(time, demand, weight)]`` in time order; job
    ``i`` gets handle ``i + 1``.  ``reweight`` is ``(time, handle,
    weight)`` or None; it applies after the completions of its instant
    and only to a job still running.
    """
    remaining, weights, done = {}, {}, {}
    now, upcoming = Fraction(0), list(enumerate(arrivals, start=1))
    while upcoming or remaining or reweight:
        rates = _reference_rates(weights, cores, speed)
        horizon = [now + remaining[h] / rates[h] for h in remaining if rates[h]]
        horizon += [upcoming[0][1][0]] if upcoming else []
        horizon += [reweight[0]] if reweight else []
        step = min(horizon)
        for handle in remaining:
            remaining[handle] -= rates[handle] * (step - now)
        now = step
        for handle in sorted(h for h, left in remaining.items() if left == 0):
            done[handle] = now
            del remaining[handle], weights[handle]
        while upcoming and upcoming[0][1][0] == now:
            handle, (_time, demand, weight) = upcoming.pop(0)
            remaining[handle], weights[handle] = demand, weight
        if reweight and reweight[0] == now:
            if reweight[1] in weights:
                weights[reweight[1]] = reweight[2]
            reweight = None
    return done


_QUARTERS = st.integers(min_value=1, max_value=12).map(lambda q: Fraction(q, 4))


@st.composite
def _scripts(draw):
    cores = draw(st.integers(min_value=1, max_value=4))
    speed = draw(st.sampled_from([Fraction(1), Fraction(2)]))
    gaps = draw(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=8))
    times = [Fraction(sum(gaps[: i + 1]), 4) for i in range(len(gaps))]
    arrivals = [
        (time, draw(_QUARTERS), Fraction(draw(st.sampled_from([1, 4, 20]))))
        for time in times
    ]
    reweight = None
    if draw(st.booleans()):
        reweight = (
            draw(st.integers(min_value=0, max_value=40).map(lambda q: Fraction(q, 4))),
            draw(st.integers(min_value=1, max_value=len(arrivals))),
            Fraction(draw(st.sampled_from([1, 4, 20]))),
        )
    return cores, speed, arrivals, reweight


@given(script=_scripts())
@settings(max_examples=150, deadline=None)
def test_pool_matches_exact_max_min_schedule(script):
    """The float pool computes the exact PS schedule up to rounding."""
    cores, speed, arrivals, reweight = script
    expected = _reference_schedule(cores, speed, arrivals, reweight)
    if reweight is not None:
        time, handle, _weight = reweight
        # a job finishing at the reweight instant is ambiguous in float
        assume(expected[handle] != time)
        if not (arrivals[handle - 1][0] <= time < expected[handle]):
            reweight = None  # not running then: the reference ignored it
    sim = Simulator()
    pool = ProcessorSharingPool(sim, cores=cores, speed=float(speed))
    fired = []

    def play_script():
        steps = [
            (t, "arrive", (handle, float(d), float(w)))
            for handle, (t, d, w) in enumerate(arrivals, start=1)
        ]
        if reweight is not None:
            # after arrivals of the same instant, as in the reference
            steps.append((reweight[0], "reweight", reweight[1:]))
        steps.sort(key=lambda step: (step[0], step[1] == "reweight"))
        for time, kind, args in steps:
            if float(time) > sim.now:
                yield sim.timeout(float(time) - sim.now)
            if kind == "reweight":
                pool.set_weight(args[0], float(args[1]))
                continue
            handle, demand, weight = args
            event = pool.execute(demand, weight)
            event.add_callback(lambda e, h=handle: fired.append((h, sim.now)))

    sim.process(play_script())
    sim.run()
    assert sorted(fired) == sorted(
        (h, pytest.approx(float(t), rel=1e-9)) for h, t in expected.items()
    )
    # completions fire in time order, and same-instant ones in submission order
    assert [h for h, _t in fired] == sorted(expected, key=lambda h: (expected[h], h))
    assert pool.active_jobs == 0
    total = float(sum(demand for _t, demand, _w in arrivals))
    assert pool.work_completed == pytest.approx(total, rel=1e-9)
    assert pool.busy_core_time * pool.speed == pytest.approx(pool.work_completed, rel=1e-9)
