"""Discrete-event simulation kernel.

This subpackage provides the substrate on which the simulated DBMS
(:mod:`repro.dbms`) runs: a deterministic event loop with generator
based processes, drained only by :meth:`Simulator.run`
(:mod:`repro.sim.engine`); the per-class metrics base every resource
shares and the cluster front-end router (:mod:`repro.sim.station`);
seeded random-number streams (:mod:`repro.sim.random`); and the family
of service-time distributions used throughout the paper, including
two-phase hyperexponential fitting from a mean and a squared
coefficient of variation (:mod:`repro.sim.distributions`).
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.sim.engine": (
        "Agenda", "Event", "Interrupt", "KernelHooks", "Process", "SimulationError",
        "Simulator", "Timeout", "resolve_kernel_lane",
    ),
    "repro.sim.distributions": (
        "BlockSampler", "Deterministic", "Distribution", "Empirical", "Erlang",
        "Exponential", "Hyperexponential", "LogNormal", "Mixture", "Pareto", "Uniform",
        "fit_hyperexponential",
    ),
    "repro.sim.random": ("RandomStreams",),
})
