"""Prioritization outcomes: external vs internal scheduling (§5).

A §5 experiment is a pair of scenario cells run under common random
numbers: the prioritized run and the untouched reference (same seed,
no priorities, no MPL: the paper's "No Prio").  External
prioritization dispatches the external queue highest-priority-first
at a (tuned) MPL; internal prioritization sets no MPL limit and lets
the DBMS internals prioritize: POW lock scheduling for lock-bound
workloads, weighted CPU shares for CPU-bound ones (§5.2–5.3).
Figures 11–13 run both cells through the scenario runner;
:func:`outcome_from_runs` turns the pair into a
:class:`PrioritizationOutcome`.
"""

from __future__ import annotations

from typing import Optional

from repro.core.specclass import specclass
from repro.core.system import RunResult


@specclass(frozen=True)
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

