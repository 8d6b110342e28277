"""Experiment harness: one entry point per table and figure.

Run ``python -m repro.experiments --list`` to see everything that can
be regenerated; each figure/table function is also importable for
programmatic use and is wrapped by a benchmark in ``benchmarks/``.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.experiments.figures": (
        "FigureResult", "Series", "controller_convergence", "figure2", "figure3",
        "figure4", "figure5", "figure7", "figure10", "figure11", "figure12", "figure13",
        "section32_response_time",
    ),
    "repro.experiments.runner": ("mpl_sweep", "run_setup", "tuning_scenario"),
    "repro.experiments.tables": ("table1", "table2", "variability_table"),
})
