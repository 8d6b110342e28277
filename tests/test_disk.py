"""Tests for the FCFS disks and the striped array."""

import random

import pytest

from repro.dbms.disk import Disk, DiskArray
from repro.sim.distributions import Deterministic
from repro.sim.engine import Simulator


def _completion_times(sim, events):
    times = {}
    for index, event in enumerate(events):
        event.add_callback(lambda e, i=index: times.setdefault(i, sim.now))
    return times


def test_single_request_takes_service_time():
    sim = Simulator()
    disk = Disk(sim, Deterministic(0.008), random.Random(0))
    times = _completion_times(sim, [disk.submit()])
    sim.run()
    assert times[0] == pytest.approx(0.008)


def test_fcfs_ordering():
    sim = Simulator()
    disk = Disk(sim, Deterministic(1.0), random.Random(0))
    times = _completion_times(sim, [disk.submit() for _ in range(3)])
    sim.run()
    assert times[0] == pytest.approx(1.0)
    assert times[1] == pytest.approx(2.0)
    assert times[2] == pytest.approx(3.0)


def test_busy_time_and_utilization():
    sim = Simulator()
    disk = Disk(sim, Deterministic(0.5), random.Random(0))
    disk.submit()
    disk.submit()
    sim.run()
    assert disk.busy_time == pytest.approx(1.0)
    assert disk.requests_served == 2
    assert disk.utilization(2.0) == pytest.approx(0.5)


def test_queue_length_excludes_in_service():
    sim = Simulator()
    disk = Disk(sim, Deterministic(1.0), random.Random(0))
    disk.submit()
    disk.submit()
    disk.submit()
    assert disk.queue_length == 2


def test_array_stripes_round_robin():
    sim = Simulator()
    array = DiskArray(sim, 3, Deterministic(1.0), random.Random(0))
    home = array.assign_home()
    for sequence in range(6):
        array.submit(home, sequence)
    sim.run()
    # six requests over three disks = two each
    assert [d.requests_served for d in array.disks] == [2, 2, 2]


def test_array_homes_rotate():
    sim = Simulator()
    array = DiskArray(sim, 4, Deterministic(1.0), random.Random(0))
    homes = [array.assign_home() for _ in range(6)]
    assert homes == [0, 1, 2, 3, 0, 1]


def test_array_parallelism():
    sim = Simulator()
    array = DiskArray(sim, 2, Deterministic(1.0), random.Random(0))
    events = [array.submit(0, 0), array.submit(1, 0)]  # different disks
    times = _completion_times(sim, events)
    sim.run()
    assert times[0] == pytest.approx(1.0)
    assert times[1] == pytest.approx(1.0)  # served in parallel


def test_array_utilization_averages_disks():
    sim = Simulator()
    array = DiskArray(sim, 2, Deterministic(1.0), random.Random(0))
    array.submit(0, 0)
    sim.run()
    assert array.utilization(1.0) == pytest.approx(0.5)


def test_invalid_disk_count():
    sim = Simulator()
    with pytest.raises(ValueError):
        DiskArray(sim, 0, Deterministic(1.0), random.Random(0))
