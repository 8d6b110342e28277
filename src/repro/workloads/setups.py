"""Table 1's six workloads and Table 2's seventeen setups, as data.

The calibration constants (CPU means, page-touch means) are chosen so
the simulated saturation throughputs land near the paper's figures —
see the module docstrings of :mod:`repro.workloads.tpcc` and
:mod:`repro.workloads.tpcw` and EXPERIMENTS.md for the paper-vs-
measured comparison.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.specclass import specclass
from repro.dbms.config import HardwareConfig, IsolationLevel
from repro.workloads.spec import WorkloadSpec
from repro.workloads.tpcc import tpcc_workload
from repro.workloads.tpcw import tpcw_workload

#: Number of closed-loop clients used in every experiment (§2.2).
NUM_CLIENTS = 100


def _build_workloads() -> Dict[str, WorkloadSpec]:
    return {
        "W_CPU-inventory": tpcc_workload(
            "W_CPU-inventory",
            db_mb=1024,
            cpu_mean_ms=15.0,
            pages_mean=40.0,
            warehouses=10,
            configuration="10 warehouses, 1GB",
        ),
        "W_CPU-browsing": tpcw_workload(
            "W_CPU-browsing",
            db_mb=300,
            cpu_mean_ms=105.0,
            pages_mean=30.0,
            mix="browsing",
            emulated_browsers=100,
            configuration="Browsing 100 EBs, 10K items, 140K customers",
        ),
        "W_IO-browsing": tpcw_workload(
            "W_IO-browsing",
            db_mb=2048,
            cpu_mean_ms=250.0,
            pages_mean=90.0,
            mix="browsing",
            emulated_browsers=500,
            configuration="Browsing 500 EBs, 10K items, 288K customers",
        ),
        "W_IO-inventory": tpcc_workload(
            "W_IO-inventory",
            db_mb=6144,
            cpu_mean_ms=5.0,
            pages_mean=31.0,
            warehouses=60,
            configuration="60 warehouses, 6GB",
        ),
        "W_CPU+IO-inventory": tpcc_workload(
            "W_CPU+IO-inventory",
            db_mb=1024,
            cpu_mean_ms=15.0,
            pages_mean=35.0,
            warehouses=10,
            configuration="10 warehouses, 1GB",
        ),
        "W_CPU-ordering": tpcw_workload(
            "W_CPU-ordering",
            db_mb=300,
            cpu_mean_ms=55.0,
            pages_mean=25.0,
            mix="ordering",
            emulated_browsers=100,
            configuration="Ordering 100 EBs, 10K items, 140K customers",
        ),
    }


#: Table 1: workload name → WorkloadSpec.
WORKLOADS: Dict[str, WorkloadSpec] = _build_workloads()

#: Table 1's memory columns: workload → (main memory MB, buffer pool MB).
WORKLOAD_MEMORY: Dict[str, Tuple[int, int]] = {
    "W_CPU-inventory": (3072, 1024),
    "W_CPU-browsing": (3072, 512),
    "W_IO-browsing": (512, 100),
    "W_IO-inventory": (512, 100),
    "W_CPU+IO-inventory": (1024, 1024),
    "W_CPU-ordering": (3072, 512),
}

#: Table 1's qualitative load columns: workload → (cpu load, io load).
WORKLOAD_LOAD: Dict[str, Tuple[str, str]] = {
    "W_CPU-inventory": ("high", "low"),
    "W_CPU-browsing": ("high", "low"),
    "W_IO-browsing": ("low", "high"),
    "W_IO-inventory": ("low", "high"),
    "W_CPU+IO-inventory": ("high", "high"),
    "W_CPU-ordering": ("high", "low"),
}


@specclass(frozen=True)
class Setup:
    """One row of Table 2: a workload on a concrete machine."""

    setup_id: int
    workload_name: str
    num_cpus: int
    num_disks: int
    isolation: IsolationLevel

    @property
    def workload(self) -> WorkloadSpec:
        """The workload spec this setup runs."""
        return WORKLOADS[self.workload_name]

    @property
    def hardware(self) -> HardwareConfig:
        """The machine: Table 2's CPU/disk counts + Table 1's memory."""
        memory_mb, bufferpool_mb = WORKLOAD_MEMORY[self.workload_name]
        return HardwareConfig(
            num_cpus=self.num_cpus,
            num_disks=self.num_disks,
            memory_mb=memory_mb,
            bufferpool_mb=bufferpool_mb,
        )

    def describe(self) -> str:
        """One-line human-readable description."""
        return (
            f"setup {self.setup_id}: {self.workload_name}, "
            f"{self.num_cpus} CPU(s), {self.num_disks} disk(s), "
            f"{self.isolation.value}"
        )


_RR = IsolationLevel.RR
_UR = IsolationLevel.UR

#: Table 2: the seventeen experimental setups.
SETUPS: Tuple[Setup, ...] = (
    Setup(1, "W_CPU-inventory", 1, 1, _RR),
    Setup(2, "W_CPU-inventory", 2, 1, _RR),
    Setup(3, "W_CPU-browsing", 1, 1, _RR),
    Setup(4, "W_CPU-browsing", 2, 1, _RR),
    Setup(5, "W_IO-inventory", 1, 1, _RR),
    Setup(6, "W_IO-inventory", 1, 2, _RR),
    Setup(7, "W_IO-inventory", 1, 3, _RR),
    Setup(8, "W_IO-inventory", 1, 4, _RR),
    Setup(9, "W_IO-browsing", 1, 1, _RR),
    Setup(10, "W_IO-browsing", 1, 4, _RR),
    Setup(11, "W_CPU+IO-inventory", 1, 1, _RR),
    Setup(12, "W_CPU+IO-inventory", 2, 4, _RR),
    Setup(13, "W_CPU-ordering", 1, 1, _RR),
    Setup(14, "W_CPU-ordering", 1, 1, _UR),
    Setup(15, "W_CPU-ordering", 2, 1, _RR),
    Setup(16, "W_CPU-ordering", 2, 1, _UR),
    Setup(17, "W_CPU-inventory", 1, 1, _UR),
)


def get_workload(name: str) -> WorkloadSpec:
    """Look up a Table 1 workload by name."""
    try:
        return WORKLOADS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; known: {sorted(WORKLOADS)}"
        ) from None


def get_setup(setup_id: int) -> Setup:
    """Look up a Table 2 setup by its 1-based id."""
    if not 1 <= setup_id <= len(SETUPS):
        raise KeyError(f"setup ids run 1..{len(SETUPS)}, got {setup_id!r}")
    return SETUPS[setup_id - 1]
