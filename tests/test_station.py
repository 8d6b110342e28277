"""Tests for the unified Station protocol and its implementations."""

import pytest

from repro.core.system import SystemConfig, run_system
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
from repro.sim.station import ClassStats, DelayStation, Station
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

    def test_duplicate_station_rejected(self):
        sim, engine = _engine()
        with pytest.raises(ValueError):
            engine.add_station(DelayStation(sim, name="cpu"))

    def test_snapshot_reports_only_servers(self):
        """The lock table (is_server=False) stays out of snapshots,
        keeping RunResult.utilizations byte-compatible with old runs."""
        sim, engine = _engine()
        assert set(engine.utilization_snapshot(1.0)) == {"cpu", "disk", "log"}

    def test_default_acquire_release_are_immediate(self):
        sim = Simulator()
        station = DelayStation(sim)
        event = station.acquire()
        station.release()
        sim.run()
        assert event.processed

    def test_serve_unimplemented_raises(self):
        sim = Simulator()
        lockmgr = LockManager(sim)
        with pytest.raises(NotImplementedError):
            lockmgr.serve(1.0)

    def test_sampled_service_stations_reject_explicit_demand(self):
        """Disk/array/log sample their own times; a caller-provided
        demand must fail loudly instead of being silently ignored."""
        sim = Simulator()
        streams = RandomStreams(3)
        disk = Disk(sim, Deterministic(0.5), rng=None)
        array = DiskArray(sim, 2, Deterministic(0.25), rng=None)
        log = LogManager(sim, Deterministic(0.01), streams.stream("log"))
        for station in (disk, array, log):
            with pytest.raises(ValueError):
                station.serve(0.005)


class TestPerClassMetrics:
    def test_cpu_records_by_priority(self):
        sim = Simulator()
        cpu = ProcessorSharingPool(sim, cores=1)
        cpu.serve(2.0, priority=int(Priority.HIGH))
        cpu.serve(1.0, priority=int(Priority.LOW))
        sim.run()
        stats = cpu.class_stats()
        assert stats[int(Priority.HIGH)].requests == 1
        assert stats[int(Priority.HIGH)].service_time == pytest.approx(2.0)
        assert stats[int(Priority.LOW)].requests == 1
        assert cpu.requests_served == 2

    def test_disk_records_service_and_wait(self):
        sim = Simulator()
        disk = Disk(sim, Deterministic(0.5), rng=None)
        first = disk.serve(priority=0)
        second = disk.serve(priority=1)
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
        for _ in range(4):
            array.serve(priority=2)
        sim.run()
        assert array.requests_served == 4
        merged = array.class_stats()
        assert merged[2].requests == 4
        assert merged[2].service_time == pytest.approx(1.0)

    def test_log_records_write_service_and_wait(self):
        sim = Simulator()
        streams = RandomStreams(3)
        log = LogManager(sim, Deterministic(0.01), streams.stream("log"))
        log.serve(priority=1)  # starts the first write immediately
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
            lockmgr.release(holder)

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
        from repro.core.system import SimulatedSystem

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


class TestDelayStation:
    def test_fixed_delay(self):
        sim = Simulator()
        station = DelayStation(sim, name="net")
        done = station.serve(0.25)
        sim.run()
        assert done.processed
        assert sim.now == pytest.approx(0.25)
        assert station.busy_time == pytest.approx(0.25)

    def test_sampled_delay(self):
        sim = Simulator()
        streams = RandomStreams(5)
        station = DelayStation(
            sim, delay=Deterministic(0.1), rng=streams.stream("net")
        )
        station.serve()
        sim.run()
        assert sim.now == pytest.approx(0.1)

    def test_sampling_without_rng_rejected(self):
        sim = Simulator()
        station = DelayStation(sim, delay=Deterministic(0.1))
        with pytest.raises(ValueError):
            station.serve()

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            DelayStation(sim).serve(-1.0)

    def test_infinite_server_no_queueing(self):
        sim = Simulator()
        station = DelayStation(sim)
        events = [station.serve(0.5) for _ in range(10)]
        sim.run()
        assert sim.now == pytest.approx(0.5)  # all in parallel
        assert all(e.processed for e in events)
        # Little's law view: 10 concurrent * 0.5s over 0.5s elapsed
        assert station.utilization(0.5) == pytest.approx(10.0)


class TestNetworkDelayDropIn:
    def test_engine_gains_network_station(self):
        sim, engine = _engine(hardware=HardwareConfig(network_delay_ms=5.0))
        assert engine.network is not None
        assert "network" in engine.stations
        assert "network" in engine.utilization_snapshot(1.0)

    def test_network_delay_inflates_response_time(self):
        import dataclasses

        setup = get_setup(1)
        base = SystemConfig(
            workload=setup.workload, hardware=setup.hardware,
            isolation=setup.isolation, mpl=4, seed=2,
        )
        delayed = dataclasses.replace(
            base,
            hardware=dataclasses.replace(setup.hardware, network_delay_ms=40.0),
        )
        fast = run_system(base, transactions=150)
        slow = run_system(delayed, transactions=150)
        assert slow.mean_response_time > fast.mean_response_time

    def test_network_field_omitted_from_fingerprint_at_default(self):
        hardware = HardwareConfig()
        from repro.core.system import canonical_jsonable

        encoded = canonical_jsonable(hardware)
        assert "network_delay_ms" not in encoded
        with_delay = canonical_jsonable(HardwareConfig(network_delay_ms=1.0))
        assert with_delay["network_delay_ms"] == 1.0

    def test_negative_network_delay_rejected(self):
        with pytest.raises(ValueError):
            HardwareConfig(network_delay_ms=-1.0)
