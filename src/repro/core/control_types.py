"""What the MPL controllers are given and what they report.

Pure data shared by the control specs of :mod:`repro.core.scenario`
and the live controllers of :mod:`repro.core.controller`: the DBA's
tolerances (:class:`Thresholds`), the no-MPL reference
(:class:`Baseline`) and how long a tuning measures it
(:func:`scaled_baseline_transactions`), the range checks every
observe-then-step loop shares (:func:`check_loop_ranges`), and each
loop's observations and report.  A cached scenario outcome decodes
its control report into these types without loading a controller.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, List, Optional

from repro.core.specclass import specclass

if TYPE_CHECKING:
    from repro.core.system import SystemConfig


def check_loop_ranges(
    initial_mpl: Optional[int],
    window: int,
    step: int,
    max_mpl: Optional[int] = None,
    max_iterations: Optional[int] = None,
    floor: int = 1,
) -> None:
    """Reject knobs no observe-then-step loop can run with.

    ``None`` skips a check (a model jump-start leaves ``initial_mpl``
    open); ``floor`` is the lowest MPL the loop may apply.
    """
    if initial_mpl is not None and initial_mpl < floor:
        raise ValueError(
            f"initial_mpl must be >= {floor} (one MPL slot per shard), "
            f"got {initial_mpl!r}"
        )
    if max_mpl is not None and max_mpl < initial_mpl:
        raise ValueError(
            f"max_mpl {max_mpl!r} must be >= initial_mpl {initial_mpl!r}"
        )
    if window < 2:
        raise ValueError(f"window must be >= 2, got {window!r}")
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step!r}")
    if max_iterations is not None and max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations!r}")


def miss_probability(config: SystemConfig) -> float:
    """The analytic buffer-pool miss probability of a config."""
    from repro.dbms.bufferpool import AnalyticBufferPool

    pool = AnalyticBufferPool(
        config.workload.db_pages,
        config.hardware.cache_pages,
        hot_access_fraction=config.workload.hot_access_fraction,
        hot_page_fraction=config.workload.hot_page_fraction,
    )
    return 1.0 - pool.hit_probability


def scaled_baseline_transactions(config: SystemConfig, transactions: int) -> int:
    """The no-MPL baseline's run length, scaled by the demand C².

    Heavy-tailed workloads need proportionally longer measurements for
    a stable mean (the window-sizing argument of §4.3 applied to the
    baseline itself), so ``transactions`` is multiplied by the
    workload's demand C², clamped to [1, 8].
    """
    _mean, demand_scv = config.workload.demand_moments(
        config.hardware.disk_service_mean_ms / 1000.0,
        miss_probability=miss_probability(config),
    )
    return int(transactions * min(8.0, max(1.0, demand_scv)))


@specclass(frozen=True)
class Thresholds:
    """The DBA's tolerances (e.g. "not more than 5% throughput loss")."""

    max_throughput_loss: float = 0.05
    max_response_time_increase: float = 0.30

    def __post_init__(self) -> None:
        if not 0.0 <= self.max_throughput_loss < 1.0:
            raise ValueError(
                f"max_throughput_loss must be in [0, 1), got {self.max_throughput_loss!r}"
            )
        if self.max_response_time_increase < 0.0:
            raise ValueError(
                "max_response_time_increase must be non-negative, got "
                f"{self.max_response_time_increase!r}"
            )


@specclass(frozen=True)
class Observation:
    """One observation window's measurements."""

    mpl: int
    completed: int
    throughput: float
    mean_response_time: float
    throughput_loss: float
    response_time_increase: float
    feasible: bool


@specclass(frozen=True)
class ControllerReport:
    """Outcome of a tuning session."""

    final_mpl: int
    iterations: int
    converged: bool
    trajectory: List[Observation]


@specclass(frozen=True)
class Baseline:
    """No-MPL reference performance the penalties are measured against."""

    throughput: float
    mean_response_time: float

    def __post_init__(self) -> None:
        if self.throughput <= 0:
            raise ValueError(f"baseline throughput must be positive, got {self.throughput!r}")


@specclass(frozen=True)
class SloObservation:
    """One observation window of the per-class SLO loop."""

    mpl: int
    completed: int
    high_count: int
    high_p95: float
    low_throughput: float
    feasible: bool


@specclass(frozen=True)
class SloReport:
    """Outcome of a per-class SLO tuning session."""

    final_mpl: int
    iterations: int
    converged: bool
    trajectory: List[SloObservation]


@specclass(frozen=True)
class ElasticAction:
    """One decision the elastic controller took at a tick."""

    t: float
    kind: str  # "resplit" | "park" | "activate"
    mpls: tuple
    detail: str = ""


@specclass
class ElasticReport:
    """The elastic controller's decision log for one run.

    Mutable on purpose: the controller appends actions while the
    measurement window runs, and the caller reads the report after.
    """

    interval_s: float
    global_mpl: int
    actions: List[ElasticAction] = dataclasses.field(default_factory=list)
    final_mpls: tuple = ()

    @property
    def resplits(self) -> int:
        return sum(1 for action in self.actions if action.kind == "resplit")


@specclass(frozen=True)
class ClusterSloObservation:
    """One observation window of the cluster-wide SLO loop."""

    mpl: int
    completed: int
    high_count: int
    high_p95: float
    low_throughput: float
    split: tuple
    feasible: bool


@specclass(frozen=True)
class ClusterSloReport:
    """Outcome of a cluster-wide SLO tuning session."""

    final_mpl: int
    final_split: tuple
    iterations: int
    converged: bool
    trajectory: List[ClusterSloObservation]
