"""Reproductions of the paper's tables and the §3.2 variability study."""

from __future__ import annotations

import random
from typing import List

from repro.dbms.bufferpool import AnalyticBufferPool
from repro.experiments.parallel import AnalyticCell, run_analytic
from repro.experiments.report import ascii_table
from repro.metrics import stats
from repro.workloads.setups import (
    SETUPS,
    WORKLOADS,
    WORKLOAD_LOAD,
    WORKLOAD_MEMORY,
)
from repro.workloads.traces import TRACE_FACTORIES


def table1() -> str:
    """Table 1: the six workloads with their configurations."""
    rows: List[List[str]] = []
    for name, spec in WORKLOADS.items():
        memory_mb, pool_mb = WORKLOAD_MEMORY[name]
        cpu_load, io_load = WORKLOAD_LOAD[name]
        rows.append(
            [
                name,
                spec.benchmark,
                spec.configuration,
                f"{spec.db_mb} MB",
                f"{memory_mb} MB",
                f"{pool_mb} MB",
                cpu_load,
                io_load,
            ]
        )
    return ascii_table(
        [
            "Workload",
            "Benchmark",
            "Configuration",
            "Database",
            "Main memory",
            "Bufferpool",
            "CPU load",
            "IO load",
        ],
        rows,
        title="Table 1: workloads",
    )


def table2() -> str:
    """Table 2: the seventeen setups."""
    rows = [
        [
            str(s.setup_id),
            s.workload_name,
            str(s.num_cpus),
            str(s.num_disks),
            s.isolation.value,
        ]
        for s in SETUPS
    ]
    return ascii_table(
        ["Setup", "Workload", "Number CPUs", "Number disks", "Isolation level"],
        rows,
        title="Table 2: setups",
    )


def workload_demand_moments(name: str, samples: int, seed: int) -> List[float]:
    """Sampled [mean, C²] of total service demand for a workload.

    Demands combine CPU with the expected physical I/O given the
    workload's Table 1 machine, i.e. the same quantity the paper
    computes from its measurement intervals.
    """
    spec = WORKLOADS[name]
    memory_mb, pool_mb = WORKLOAD_MEMORY[name]
    from repro.dbms.config import HardwareConfig

    hardware = HardwareConfig(memory_mb=memory_mb, bufferpool_mb=pool_mb)
    pool = AnalyticBufferPool(
        spec.db_pages,
        hardware.cache_pages,
        hot_access_fraction=spec.hot_access_fraction,
        hot_page_fraction=spec.hot_page_fraction,
    )
    miss = 1.0 - pool.hit_probability
    disk_s = hardware.disk_service_mean_ms / 1000.0
    rng = random.Random(seed)
    demands = []
    for tid in range(samples):
        tx = spec.sample_transaction(rng, tid)
        demands.append(tx.cpu_demand + tx.page_accesses * miss * disk_s)
    return [stats.mean(demands), stats.scv(demands)]


def trace_demand_moments(name: str, transactions: int) -> List[float]:
    """[mean, C²] of a generated production trace's service demands."""
    trace = TRACE_FACTORIES[name](transactions)
    return [stats.mean(trace.demands), trace.demand_scv]


def variability_table(samples: int = 20_000, seed: int = 5) -> str:
    """§3.2: demand C² of the benchmarks vs the production traces.

    The paper reports C² of 1.0–1.5 for TPC-C configurations, ≈ 15 for
    TPC-W, and ≈ 2 for the commercial traces.  Each workload's and
    trace's moments are an analytic cell, so a warm run samples nothing.
    """
    labels = list(WORKLOADS) + [f"trace: {name}" for name in TRACE_FACTORIES]
    moments = run_analytic(
        [
            AnalyticCell(
                f"{__name__}:workload_demand_moments",
                {"name": name, "samples": samples, "seed": seed},
            )
            for name in WORKLOADS
        ]
        + [
            AnalyticCell(
                f"{__name__}:trace_demand_moments",
                {"name": name, "transactions": samples // 2},
            )
            for name in TRACE_FACTORIES
        ]
    )
    rows = [
        [label, f"{mean * 1000:.1f} ms", f"{scv:.2f}"]
        for label, (mean, scv) in zip(labels, moments)
    ]
    return ascii_table(
        ["Workload / trace", "Mean demand", "C^2"],
        rows,
        title="Service-demand variability (paper 3.2)",
    )
