"""Prioritization experiments: external vs internal scheduling (§5).

The helpers here run paired experiments under common random numbers:

* :func:`evaluate_external_prioritization` — priority-ordered external
  queue at a given MPL, against the same system with no priorities
  and no MPL (the paper's "No Prio" reference in Figure 11).
* :func:`evaluate_internal_prioritization` — no MPL limit, but the
  DBMS internals prioritize: POW lock scheduling for lock-bound
  workloads, weighted CPU shares for CPU-bound ones (§5.2–5.3).
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.core.system import RunResult, SystemConfig
from repro.dbms.config import InternalPolicy
from repro.workloads.setups import Setup

#: The paper's §5 assignment: 10% of transactions are high priority.
HIGH_PRIORITY_FRACTION = 0.10


@dataclasses.dataclass(frozen=True)
class PrioritizationOutcome:
    """Results of one prioritization experiment.

    ``high`` / ``low`` / ``overall`` are mean response times (seconds)
    under prioritization; ``no_prio`` is the overall mean of the
    untouched system (no priorities, no MPL).
    """

    label: str
    mpl: Optional[int]
    high: float
    low: float
    overall: float
    no_prio: float
    throughput: float
    no_prio_throughput: float

    @property
    def differentiation(self) -> float:
        """How many times better high fares than low (paper's factor)."""
        if self.high <= 0:
            return 0.0
        return self.low / self.high

    @property
    def low_penalty(self) -> float:
        """Low-class response time relative to no prioritization."""
        if self.no_prio <= 0:
            return 0.0
        return self.low / self.no_prio

    @property
    def overall_penalty(self) -> float:
        """Overall response-time inflation vs the untouched system."""
        if self.no_prio <= 0:
            return 0.0
        return self.overall / self.no_prio

    @property
    def throughput_loss(self) -> float:
        """Throughput loss vs the untouched system."""
        if self.no_prio_throughput <= 0:
            return 0.0
        return max(0.0, 1.0 - self.throughput / self.no_prio_throughput)


def outcome_from_runs(
    label: str,
    mpl: Optional[int],
    result: RunResult,
    no_prio: RunResult,
) -> PrioritizationOutcome:
    """Assemble an outcome from a prioritized run and its reference.

    Figure reproductions that execute both runs through the parallel
    grid use this to build the outcome without re-running anything.
    """
    return PrioritizationOutcome(
        label=label,
        mpl=mpl,
        high=result.high_response_time,
        low=result.low_response_time,
        overall=result.mean_response_time,
        no_prio=no_prio.mean_response_time,
        throughput=result.throughput,
        no_prio_throughput=no_prio.throughput,
    )


def _base_config(setup: Setup, seed: int) -> SystemConfig:
    return SystemConfig(
        workload=setup.workload,
        hardware=setup.hardware,
        isolation=setup.isolation,
        seed=seed,
    )


def _no_prio_reference(setup: Setup, seed: int, transactions: int) -> RunResult:
    from repro.core.simulation import run_system

    config = dataclasses.replace(
        _base_config(setup, seed), mpl=None, policy="fifo",
        high_priority_fraction=0.0,
    )
    return run_system(config, transactions)


def evaluate_external_prioritization(
    setup: Setup,
    mpl: Optional[int],
    transactions: int = 1500,
    seed: int = 11,
    label: str = "",
    no_prio: Optional[RunResult] = None,
) -> PrioritizationOutcome:
    """External priority scheduling at a fixed MPL vs the stock system."""
    from repro.core.simulation import run_system

    if no_prio is None:
        no_prio = _no_prio_reference(setup, seed, transactions)
    config = dataclasses.replace(
        _base_config(setup, seed),
        mpl=mpl,
        policy="priority",
        high_priority_fraction=HIGH_PRIORITY_FRACTION,
    )
    result = run_system(config, transactions)
    return outcome_from_runs(label or f"ext mpl={mpl}", mpl, result, no_prio)


def evaluate_internal_prioritization(
    setup: Setup,
    internal: InternalPolicy,
    transactions: int = 1500,
    seed: int = 11,
    label: str = "internal",
    no_prio: Optional[RunResult] = None,
) -> PrioritizationOutcome:
    """Internal prioritization (POW locks or CPU weights), no MPL limit."""
    from repro.core.simulation import run_system

    if no_prio is None:
        no_prio = _no_prio_reference(setup, seed, transactions)
    config = dataclasses.replace(
        _base_config(setup, seed),
        mpl=None,
        policy="fifo",
        internal=internal,
        high_priority_fraction=HIGH_PRIORITY_FRACTION,
    )
    result = run_system(config, transactions)
    return outcome_from_runs(label, None, result, no_prio)
