"""Experiment harness: one entry point per table and figure.

Run ``python -m repro.experiments --list`` to see everything that can
be regenerated; each figure/table function is also importable for
programmatic use and is wrapped by a benchmark in ``benchmarks/``.
"""

from repro.experiments.figures import (
    FigureResult,
    Series,
    controller_convergence,
    figure2,
    figure3,
    figure4,
    figure5,
    figure7,
    figure10,
    figure11,
    figure12,
    figure13,
    section32_response_time,
)
from repro.experiments.runner import mpl_sweep, run_setup, tuning_scenario
from repro.experiments.tables import table1, table2, variability_table

__all__ = [
    "FigureResult",
    "Series",
    "controller_convergence",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "figure7",
    "figure10",
    "figure11",
    "figure12",
    "figure13",
    "mpl_sweep",
    "run_setup",
    "section32_response_time",
    "table1",
    "table2",
    "tuning_scenario",
    "variability_table",
]
