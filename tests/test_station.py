"""Tests for the Station metrics base and the resources built on it."""

import pytest

from repro.core.system import SystemConfig
from repro.dbms.config import HardwareConfig
from repro.dbms.cpu import ProcessorSharingPool
from repro.dbms.disk import Disk, DiskArray
from repro.dbms.engine import DatabaseEngine
from repro.dbms.lockmgr import LockManager
from repro.dbms.transaction import Priority, Transaction
from repro.dbms.wal import LogManager
from repro.sim.distributions import Deterministic
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.sim.station import ClassStats, Station
from repro.workloads.setups import get_setup


def _engine(sim=None, hardware=None, seed=1):
    sim = sim or Simulator()
    return sim, DatabaseEngine(
        sim,
        hardware or HardwareConfig(),
        db_pages=10_000,
        streams=RandomStreams(seed),
    )


class TestProtocol:
    def test_every_resource_is_a_station(self):
        sim, engine = _engine()
        for station in (engine.cpu, engine.disks, engine.log, engine.lockmgr):
            assert isinstance(station, Station)

    def test_engine_cpu_is_the_processor_sharing_pool(self):
        sim, engine = _engine()
        assert type(engine.cpu) is ProcessorSharingPool

    def test_engine_station_registry(self):
        sim, engine = _engine()
        assert set(engine.stations) == {"cpu", "disk", "log", "locks"}
        assert engine.stations["cpu"] is engine.cpu
        assert engine.stations["locks"] is engine.lockmgr

    def test_snapshot_reports_only_servers(self):
        """The lock table (is_server=False) stays out of snapshots,
        keeping RunResult.utilizations byte-compatible with old runs."""
        sim, engine = _engine()
        assert set(engine.utilization_snapshot(1.0)) == {"cpu", "disk", "log"}


class TestPerClassMetrics:
    def test_cpu_records_by_priority(self):
        sim = Simulator()
        cpu = ProcessorSharingPool(sim, cores=1)
        cpu.execute(2.0, priority=int(Priority.HIGH))
        cpu.execute(1.0, priority=int(Priority.LOW))
        sim.run()
        stats = cpu.class_stats()
        assert stats[int(Priority.HIGH)].requests == 1
        assert stats[int(Priority.HIGH)].service_time == pytest.approx(2.0)
        assert stats[int(Priority.LOW)].requests == 1
        assert cpu.requests_served == 2

    def test_disk_records_service_and_wait(self):
        sim = Simulator()
        disk = Disk(sim, Deterministic(0.5), rng=None)
        first = disk.submit(priority=0)
        second = disk.submit(priority=1)
        sim.run()
        assert first.processed and second.processed
        stats = disk.class_stats()
        assert stats[0].requests == 1
        assert stats[0].wait_time == pytest.approx(0.0)
        assert stats[1].wait_time == pytest.approx(0.5)  # queued behind first
        assert disk.busy_time == pytest.approx(1.0)

    def test_disk_array_merges_member_stats(self):
        sim = Simulator()
        array = DiskArray(sim, 2, Deterministic(0.25), rng=None)
        for sequence in range(4):
            array.submit(array.assign_home(), sequence, priority=2)
        sim.run()
        assert array.requests_served == 4
        merged = array.class_stats()
        assert merged[2].requests == 4
        assert merged[2].service_time == pytest.approx(1.0)

    def test_log_records_write_service_and_wait(self):
        sim = Simulator()
        streams = RandomStreams(3)
        log = LogManager(sim, Deterministic(0.01), streams.stream("log"))
        log.commit(priority=1)  # starts the first write immediately
        log.commit()  # pends behind it, forced by the second write
        sim.run()
        stats = log.class_stats()
        assert stats[1].requests == 1
        assert stats[1].service_time == pytest.approx(0.01)
        assert stats[1].wait_time == pytest.approx(0.0)
        assert stats[0].requests == 1
        assert stats[0].wait_time == pytest.approx(0.01)

    def test_lockmgr_records_grant_waits(self):
        sim = Simulator()
        lockmgr = LockManager(sim)
        holder = Transaction(tid=1, type_name="t", cpu_demand=0, page_accesses=0,
                             lock_requests=[], priority=int(Priority.LOW))
        waiter = Transaction(tid=2, type_name="t", cpu_demand=0, page_accesses=0,
                             lock_requests=[], priority=int(Priority.HIGH))
        lockmgr.acquire(holder, item=7, exclusive=True)
        blocked = lockmgr.acquire(waiter, item=7, exclusive=True)
        sim.run()
        assert not blocked.processed

        def releaser():
            yield sim.timeout(0.3)
            lockmgr.release_all(holder)

        sim.process(releaser())
        sim.run()
        assert blocked.processed
        stats = lockmgr.class_stats()
        assert stats[int(Priority.LOW)].requests == 1
        assert stats[int(Priority.HIGH)].wait_time == pytest.approx(0.3)

    def test_engine_class_stats_snapshot(self):
        setup = get_setup(1)
        config = SystemConfig(
            workload=setup.workload, hardware=setup.hardware,
            isolation=setup.isolation, mpl=4, seed=2,
            high_priority_fraction=0.3, policy="priority",
        )
        from repro.core.simulation import SimulatedSystem

        system = SimulatedSystem(config)
        system.run_transactions(100)
        snapshot = system.engine.class_stats_snapshot()
        assert set(snapshot) == {"cpu", "disk", "log", "locks"}
        cpu_classes = snapshot["cpu"]
        assert int(Priority.LOW) in cpu_classes
        assert int(Priority.HIGH) in cpu_classes
        assert cpu_classes[int(Priority.LOW)]["requests"] > 0

    def test_class_stats_repr_and_dict(self):
        stats = ClassStats()
        stats.requests = 2
        assert stats.as_dict() == {
            "requests": 2, "service_time": 0.0, "wait_time": 0.0
        }
