"""The benchmark's workloads: the inputs each one runs.

Every workload is built from the public grid builders in
:mod:`repro.experiments.figures` and handed to the program as finished
:class:`~repro.core.scenario.ScenarioSpec` cells (or, for
``figures-warm``, as command-line targets).  The workload seed comes
from the benchmark's ``--seed``; the program never sees it except
through the specs.

``scale`` shrinks every cell (transactions, durations) for the
benchmark's own tests; the recorded runs always use ``scale=1``.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Tuple

#: The MPL sweep of the closed workloads (the paper's 1..30 axis).
CLOSED_MPLS = (1, 2, 3, 5, 7, 10, 15, 20, 30)

#: closed-io thins the sweep: its cells cost ~4x a CPU-bound cell per
#: transaction, and five points still span the 1..30 knee.
IO_MPLS = (1, 3, 7, 15, 30)

#: Completions measured per closed-cpu / closed-io cell.
CPU_TRANSACTIONS = 1000
IO_TRANSACTIONS = 300

#: cluster-faults: the fast xs grid's 2PC cells (static and ClusterSlo)
#: lengthened from 300 to 400 completions per shard, and the full rs
#: grid's resilient cells (20 simulated seconds instead of the fast 12).
XS_SHARDS = (2, 4)
XS_FRACTIONS = (0.2, 0.5)
XS_TXNS_PER_SHARD = 400
RS_VARIANTS = ("naive", "hardened")

#: figures-warm: one cacheable grid figure plus the targets whose work
#: bypasses the result cache today.  Figure 11 (42-47 s a pass), s4.3
#: (10 s a cold+warm pair, half a run), tier-1 and ``all`` are left out:
#: too long to repeat, and 11 and s4.3 run the same ``tune_setup`` path
#: (MplTuner -> MplController) that 12 and 13 exercise.
FIGURE_TARGETS = ("4", "10", "12", "13", "tv")
GRID_FIGURE = "4"
TINY_FIGURE_TARGETS = ("tv",)


@dataclasses.dataclass(frozen=True)
class Workload:
    """One named input set: its cells and its CLI targets.

    Why each workload exists is recorded in ``BENCHMARK.json``.
    """

    name: str
    #: scale -> the scenario cells one pass simulates.
    cells: Callable[[float], list]
    #: ``python -m repro.experiments`` targets; None for workloads that
    #: only simulate cells.  The CLI's figures carry their own fixed
    #: seeds, so the benchmark seed does not reach these.
    targets: Tuple[str, ...] | None = None

    def cli_targets(self, scale: float) -> Tuple[str, ...]:
        return TINY_FIGURE_TARGETS if scale < 1.0 else self.targets


def _scaled(count: int, scale: float, floor: int = 40) -> int:
    return max(floor, int(count * scale))


def _closed_cpu(scale: float) -> list:
    from repro.experiments import figures

    return figures.throughput_grid(
        (1, 2, 15), CLOSED_MPLS, _scaled(CPU_TRANSACTIONS, scale)
    )


def _closed_io(scale: float) -> list:
    from repro.experiments import figures

    return figures.throughput_grid(
        (5, 6, 7, 8, 9, 10), IO_MPLS, _scaled(IO_TRANSACTIONS, scale)
    )


def _lengthened(spec, transactions: int):
    return dataclasses.replace(
        spec, measurement=dataclasses.replace(spec.measurement, transactions=transactions)
    )


def _cluster_faults(scale: float) -> list:
    from repro.experiments import figures

    xs = [
        _lengthened(spec, _scaled(XS_TXNS_PER_SHARD, scale) * spec.shards)
        for spec in figures.cross_shard_grid(fast=True)
        if spec.shards in XS_SHARDS
        and spec.distributed is not None
        and spec.distributed.cross_shard_fraction in XS_FRACTIONS
    ]
    rs = [
        _lengthened(spec, _scaled(spec.measurement.transactions, scale))
        for spec in figures.resilience_grid(fast=False)
        if spec.tag[len("rs-"):] in RS_VARIANTS
    ]
    return xs + rs


def _grid_figure_cells(scale: float) -> list:
    """The cacheable grid figure's cells, exactly as the CLI builds them
    (with the figure's own seeds); tiny runs keep two of them."""
    from repro.experiments import figures

    cells = figures.FIGURE_GRIDS[GRID_FIGURE](True)
    if scale < 1.0:
        cells = [cells[0], cells[len(cells) // 2]]
    return cells


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("closed-cpu", _closed_cpu),
        Workload("closed-io", _closed_io),
        Workload("cluster-faults", _cluster_faults),
        Workload("figures-warm", _grid_figure_cells, FIGURE_TARGETS),
    )
}


def build_cells(name: str, seed: int, scale: float = 1.0) -> List:
    """Build and validate one pass's cells through the public codec.

    Each statically controlled cell of a simulated workload gets its
    own scenario seed derived from ``seed``: with one seed shared by
    every cell, the whole pass would draw one database and one
    transaction stream, and the cost per transaction would swing by a
    fifth between seeds on closed-io.  Cells under a feedback
    controller (ClusterSlo) keep their figure's seed: how many probes
    the controller's search takes swings 1x-3x with the seed, which
    would make the length of a pass a lottery.  figures-warm keeps the
    seeds its figure is published with.  Each spec is round-tripped
    through :meth:`ScenarioSpec.validate`; the decoded spec must hash
    like the built one.
    """
    from repro.core.scenario import ScenarioSpec, StaticMpl
    from repro.sim.random import derive_seed

    workload = WORKLOADS[name]
    built = workload.cells(scale)
    if workload.targets is None:
        built = [
            dataclasses.replace(spec, seed=derive_seed(seed, "perfbench", name, index))
            if isinstance(spec.control, StaticMpl) else spec
            for index, spec in enumerate(built)
        ]
    cells = []
    for spec in built:
        decoded = ScenarioSpec.validate(spec.to_json_dict())
        if decoded.fingerprint() != spec.fingerprint():
            raise ValueError(f"cell {spec.tag!r} does not survive the codec")
        cells.append(decoded)
    return cells
