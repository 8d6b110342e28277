"""Tests for the workload generators and the Table 1/2 catalog."""

import hashlib
import os
import random

import pytest

from repro.core.arrivals import TraceArrivals
from repro.core.system import canonical_json
from repro.dbms.config import IsolationLevel
from repro.metrics import stats
from repro.sim.distributions import Deterministic, Exponential
from repro.workloads.setups import (
    NUM_CLIENTS,
    SETUPS,
    WORKLOADS,
    WORKLOAD_MEMORY,
    get_setup,
    get_workload,
)
from repro.workloads.spec import TransactionType, WorkloadSpec
from repro.workloads.synthetic import synthetic_workload
from repro.workloads.tpcc import tpcc_workload
from repro.workloads.tpcw import tpcw_workload
from repro.workloads.traces import (
    auction_site_trace,
    get_trace,
    load_trace_file,
    online_retailer_trace,
    trace_workload,
)


def _sample_cpu_scv(spec, n=30_000, seed=2):
    rng = random.Random(seed)
    demands = [spec.sample_transaction(rng, i).cpu_demand for i in range(n)]
    return stats.mean(demands), stats.scv(demands)


class TestWorkloadSpec:
    def _spec(self, **kwargs):
        tx_type = TransactionType(
            name="only", weight=1.0,
            cpu_demand=Exponential(0.01),
            page_accesses=Deterministic(10),
            hot_locks=1, shared_locks=2, exclusive_locks=1,
        )
        defaults = dict(name="w", types=(tx_type,), db_mb=100)
        defaults.update(kwargs)
        return WorkloadSpec(**defaults)

    def test_db_pages(self):
        assert self._spec(db_mb=4).db_pages == 1024  # 4 MB of 4 KB pages

    def test_sample_transaction_fields(self):
        spec = self._spec()
        tx = spec.sample_transaction(random.Random(0), 7)
        assert tx.tid == 7
        assert tx.cpu_demand > 0
        assert tx.page_accesses >= 0
        assert len(tx.lock_requests) >= 1

    def test_locks_sorted_when_not_disordered(self):
        spec = self._spec(lock_disorder=0.0)
        rng = random.Random(0)
        for tid in range(50):
            tx = spec.sample_transaction(rng, tid)
            items = [item for item, _mode in tx.lock_requests]
            assert items == sorted(items)

    def test_locks_deduplicated_strongest_mode(self):
        spec = self._spec(hot_set_size=1, lock_disorder=0.0)
        rng = random.Random(0)
        tx = spec.sample_transaction(rng, 1)
        items = [item for item, _mode in tx.lock_requests]
        assert len(items) == len(set(items))

    def test_demand_moments_match_sampling(self):
        spec = self._spec()
        mean, scv = spec.demand_moments(0.008, 0.5)
        rng = random.Random(1)
        sampled = [
            spec.sample_transaction(rng, i).cpu_demand + 10 * 0.5 * 0.008
            for i in range(30_000)
        ]
        assert mean == pytest.approx(stats.mean(sampled), rel=0.05)

    def test_update_fraction(self):
        spec = self._spec()
        assert spec.update_fraction() == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            self._spec(db_mb=0)
        with pytest.raises(ValueError):
            WorkloadSpec(name="w", types=(), db_mb=10)


class TestTpccWorkload:
    def test_cpu_mean_calibrated(self):
        spec = tpcc_workload("t", db_mb=1024, cpu_mean_ms=15.0,
                             pages_mean=40.0, warehouses=10)
        mean, _scv = spec.cpu_demand_moments()
        assert mean == pytest.approx(0.015, rel=1e-6)

    def test_scv_in_paper_band(self):
        """The paper measures C^2 in 1.0-1.5 for TPC-C (3.2)."""
        spec = tpcc_workload("t", db_mb=1024, cpu_mean_ms=15.0,
                             pages_mean=40.0, warehouses=10)
        _mean, scv = _sample_cpu_scv(spec)
        assert 0.9 <= scv <= 1.8

    def test_mix_is_tpcc(self):
        spec = tpcc_workload("t", db_mb=1024, cpu_mean_ms=15.0,
                             pages_mean=40.0, warehouses=10)
        names = {t.name for t in spec.types}
        assert names == {"NewOrder", "Payment", "OrderStatus", "Delivery", "StockLevel"}
        assert spec.update_fraction() == pytest.approx(0.92)

    def test_hot_set_scales_with_warehouses(self):
        small = tpcc_workload("s", 1024, 15.0, 40.0, warehouses=10)
        large = tpcc_workload("l", 6144, 5.0, 31.0, warehouses=60)
        assert large.hot_set_size == 6 * small.hot_set_size

    def test_invalid_warehouses(self):
        with pytest.raises(ValueError):
            tpcc_workload("t", 1024, 15.0, 40.0, warehouses=0)


class TestTpcwWorkload:
    def test_browsing_scv_near_paper_value(self):
        """The paper measures C^2 ~= 15 for TPC-W (3.2)."""
        spec = tpcw_workload("t", db_mb=300, cpu_mean_ms=105.0,
                             pages_mean=30.0, mix="browsing")
        _mean, scv = _sample_cpu_scv(spec, n=60_000)
        assert 10.0 <= scv <= 22.0

    def test_ordering_mix_has_more_updates(self):
        browsing = tpcw_workload("b", 300, 105.0, 30.0, mix="browsing")
        ordering = tpcw_workload("o", 300, 55.0, 25.0, mix="ordering")
        assert ordering.update_fraction() > browsing.update_fraction()

    def test_cpu_mean_calibrated(self):
        spec = tpcw_workload("t", 300, 105.0, 30.0, mix="browsing")
        mean, _ = spec.cpu_demand_moments()
        assert mean == pytest.approx(0.105, rel=1e-6)

    def test_unknown_mix_rejected(self):
        with pytest.raises(ValueError):
            tpcw_workload("t", 300, 105.0, 30.0, mix="banana")


class TestSyntheticWorkload:
    @pytest.mark.parametrize("scv", [1.0, 2.0, 5.0, 15.0])
    def test_scv_dialled_in(self, scv):
        spec = synthetic_workload("s", demand_mean_ms=50.0, scv=scv)
        mean, measured = _sample_cpu_scv(spec, n=60_000)
        assert mean == pytest.approx(0.050, rel=0.05)
        assert measured == pytest.approx(scv, rel=0.25)

    def test_io_fraction_splits_demand(self):
        spec = synthetic_workload("s", demand_mean_ms=100.0, scv=2.0,
                                  io_fraction=0.4)
        mean, _ = spec.cpu_demand_moments()
        assert mean == pytest.approx(0.060, rel=1e-6)
        assert spec.page_access_mean() == pytest.approx(0.040 / 0.008, rel=1e-6)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            synthetic_workload("s", demand_mean_ms=-1.0, scv=1.0)
        with pytest.raises(ValueError):
            synthetic_workload("s", demand_mean_ms=1.0, scv=1.0, io_fraction=1.0)


class TestTraces:
    def test_retailer_scv_near_two(self):
        trace = online_retailer_trace(transactions=20_000)
        assert trace.demand_scv == pytest.approx(2.0, rel=0.15)

    def test_auction_scv_near_two(self):
        trace = auction_site_trace(transactions=20_000)
        assert trace.demand_scv == pytest.approx(2.2, rel=0.15)

    def test_arrivals_are_increasing(self):
        trace = online_retailer_trace(transactions=100)
        arrivals = [r.arrival_time for r in trace.records]
        assert arrivals == sorted(arrivals)
        assert arrivals[0] > 0

    def test_trace_workload_preserves_moments(self):
        trace = online_retailer_trace(transactions=5000)
        spec = trace_workload(trace)
        mean, scv = spec.cpu_demand_moments()
        demands = trace.demands
        assert mean == pytest.approx(stats.mean(demands), rel=1e-9)

    def test_traces_are_reproducible(self):
        a = online_retailer_trace(transactions=100, seed=1)
        b = online_retailer_trace(transactions=100, seed=1)
        assert a.demands == b.demands


FIXTURE_CSV = os.path.join(os.path.dirname(__file__), "data", "trace_fixture.csv")
FIXTURE_JSONL = os.path.join(os.path.dirname(__file__), "data", "trace_fixture.jsonl")


class TestFileTraces:
    def test_csv_fixture_loads(self):
        trace = load_trace_file(FIXTURE_CSV)
        assert trace.name == "trace_fixture.csv"
        assert len(trace.records) == 12
        assert trace.records[0].arrival_time == 0.0
        assert trace.records[-1].service_demand == 0.031
        # the duplicate timestamp (two arrivals at 0.125) survives
        assert [r.arrival_time for r in trace.records].count(0.125) == 2

    def test_digest_is_file_sha256(self):
        with open(FIXTURE_CSV, "rb") as fh:
            expected = hashlib.sha256(fh.read()).hexdigest()
        assert load_trace_file(FIXTURE_CSV).digest == expected

    def test_jsonl_parses_same_records_with_different_digest(self):
        csv_trace = load_trace_file(FIXTURE_CSV)
        jsonl_trace = load_trace_file(FIXTURE_JSONL)
        assert jsonl_trace.records == csv_trace.records
        # identity is the file bytes, not the parsed floats: a format
        # change deliberately invalidates cached results
        assert jsonl_trace.digest != csv_trace.digest

    def test_get_trace_routes_file_prefix(self):
        trace = get_trace(f"file:{FIXTURE_CSV}")
        assert trace.records == load_trace_file(FIXTURE_CSV).records
        # memoized: the file is read once per process
        assert get_trace(f"file:{FIXTURE_CSV}") is trace

    def test_file_traces_take_no_generation_params(self):
        with pytest.raises(ValueError, match="no generation parameters"):
            get_trace(f"file:{FIXTURE_CSV}", transactions=10)

    def test_rewritten_file_is_not_served_stale(self, tmp_path):
        # pre-fix the memo was keyed by name alone, so a file whose
        # bytes changed within one process kept returning the old
        # records under the old digest
        path = tmp_path / "rewrite.csv"
        path.write_text("0.0,0.01\n1.0,0.01\n")
        first = get_trace(f"file:{path}")
        assert len(first.records) == 2
        path.write_text("0.0,0.01\n1.0,0.01\n2.0,0.02\n")
        second = get_trace(f"file:{path}")
        assert len(second.records) == 3
        assert second.digest != first.digest

    def test_rejects_negative_timestamps(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("-5.0,0.01\n1.0,0.01\n")
        with pytest.raises(ValueError, match=">= 0"):
            load_trace_file(str(path))

    def test_trace_arrivals_digest_is_file_sha256(self):
        with open(FIXTURE_CSV, "rb") as fh:
            expected = hashlib.sha256(fh.read()).hexdigest()
        spec = TraceArrivals(trace_name=f"file:{FIXTURE_CSV}")
        assert expected in canonical_json(spec)

    def test_rejects_decreasing_timestamps(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.5,0.01\n0.25,0.01\n")
        with pytest.raises(ValueError, match="non-decreasing"):
            load_trace_file(str(path))

    def test_rejects_negative_demand(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,-0.01\n")
        with pytest.raises(ValueError, match="negative service demand"):
            load_trace_file(str(path))

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# only a comment\n")
        with pytest.raises(ValueError, match="no records"):
            load_trace_file(str(path))

    def test_rejects_non_numeric_data_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp,demand\n0.0,0.01\nnope,0.02\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_trace_file(str(path))

    def test_jsonl_pair_and_object_rows_mix(self, tmp_path):
        path = tmp_path / "mix.jsonl"
        path.write_text('{"timestamp": 0.0, "demand": 0.01}\n[0.5, 0.02]\n')
        trace = load_trace_file(str(path))
        assert [r.service_demand for r in trace.records] == [0.01, 0.02]

    def test_jsonl_rejects_bad_shapes(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"timestamp": 0.0}\n')
        with pytest.raises(ValueError, match="keys"):
            load_trace_file(str(path))
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ValueError, match="pair"):
            load_trace_file(str(path))


class TestSetupCatalog:
    def test_six_workloads(self):
        assert len(WORKLOADS) == 6
        assert set(WORKLOAD_MEMORY) == set(WORKLOADS)

    def test_seventeen_setups(self):
        assert len(SETUPS) == 17
        assert [s.setup_id for s in SETUPS] == list(range(1, 18))

    def test_table2_rows_match_paper(self):
        s1 = get_setup(1)
        assert (s1.workload_name, s1.num_cpus, s1.num_disks, s1.isolation) == (
            "W_CPU-inventory", 1, 1, IsolationLevel.RR,
        )
        s8 = get_setup(8)
        assert (s8.workload_name, s8.num_disks) == ("W_IO-inventory", 4)
        s17 = get_setup(17)
        assert (s17.workload_name, s17.isolation) == (
            "W_CPU-inventory", IsolationLevel.UR,
        )

    def test_hardware_from_table1_memory(self):
        setup = get_setup(5)  # W_IO-inventory: 512 MB memory, 100 MB pool
        hardware = setup.hardware
        assert hardware.memory_mb == 512
        assert hardware.bufferpool_mb == 100
        # a 6 GB database against that machine is I/O bound
        assert hardware.cache_pages * 4 < setup.workload.db_mb * 1024 // 4

    def test_io_workloads_miss_and_cpu_workloads_hit(self):
        from repro.dbms.bufferpool import AnalyticBufferPool

        def hit_probability(setup_id):
            setup = get_setup(setup_id)
            pool = AnalyticBufferPool(setup.workload.db_pages,
                                      setup.hardware.cache_pages)
            return pool.hit_probability

        assert hit_probability(1) == 1.0  # W_CPU-inventory fully cached
        assert hit_probability(3) == 1.0  # W_CPU-browsing fully cached
        assert hit_probability(5) < 0.3  # W_IO-inventory mostly misses

    def test_get_helpers_validate(self):
        with pytest.raises(KeyError):
            get_setup(0)
        with pytest.raises(KeyError):
            get_setup(18)
        with pytest.raises(KeyError):
            get_workload("nope")

    def test_describe_mentions_pieces(self):
        text = get_setup(12).describe()
        assert "W_CPU+IO-inventory" in text and "2 CPU" in text

    def test_num_clients_constant(self):
        assert NUM_CLIENTS == 100
