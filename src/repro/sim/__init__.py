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

from repro.sim.engine import (
    Agenda,
    Event,
    Interrupt,
    KernelHooks,
    Process,
    SimulationError,
    Simulator,
    Timeout,
    resolve_kernel_lane,
)
from repro.sim.distributions import (
    BlockSampler,
    Deterministic,
    Distribution,
    Empirical,
    Erlang,
    Exponential,
    Hyperexponential,
    LogNormal,
    Mixture,
    Pareto,
    Uniform,
    fit_hyperexponential,
)
from repro.sim.random import RandomStreams

__all__ = [
    "Agenda",
    "BlockSampler",
    "Deterministic",
    "Distribution",
    "Empirical",
    "Erlang",
    "Event",
    "Exponential",
    "Hyperexponential",
    "Interrupt",
    "KernelHooks",
    "LogNormal",
    "Mixture",
    "Pareto",
    "Process",
    "RandomStreams",
    "SimulationError",
    "Simulator",
    "Timeout",
    "Uniform",
    "fit_hyperexponential",
    "resolve_kernel_lane",
]
