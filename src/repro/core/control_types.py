"""What the MPL controllers are given and what they report.

Pure data shared by the control specs of :mod:`repro.core.scenario`
and the live controllers of :mod:`repro.core.controller`: the DBA's
tolerances (:class:`Thresholds`), the no-MPL reference
(:class:`Baseline`), the range checks every observe-then-step loop
shares (:func:`check_loop_ranges`), and each loop's observations and
report.  A cached scenario outcome decodes its control report into
these types without loading a controller.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional


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


@dataclasses.dataclass(frozen=True)
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


@dataclasses.dataclass(frozen=True)
class Observation:
    """One observation window's measurements."""

    mpl: int
    completed: int
    throughput: float
    mean_response_time: float
    throughput_loss: float
    response_time_increase: float
    feasible: bool


@dataclasses.dataclass(frozen=True)
class ControllerReport:
    """Outcome of a tuning session."""

    final_mpl: int
    iterations: int
    converged: bool
    trajectory: List[Observation]


@dataclasses.dataclass(frozen=True)
class Baseline:
    """No-MPL reference performance the penalties are measured against."""

    throughput: float
    mean_response_time: float

    def __post_init__(self) -> None:
        if self.throughput <= 0:
            raise ValueError(f"baseline throughput must be positive, got {self.throughput!r}")


@dataclasses.dataclass(frozen=True)
class SloObservation:
    """One observation window of the per-class SLO loop."""

    mpl: int
    completed: int
    high_count: int
    high_p95: float
    low_throughput: float
    feasible: bool


@dataclasses.dataclass(frozen=True)
class SloReport:
    """Outcome of a per-class SLO tuning session."""

    final_mpl: int
    iterations: int
    converged: bool
    trajectory: List[SloObservation]


@dataclasses.dataclass(frozen=True)
class ElasticAction:
    """One decision the elastic controller took at a tick."""

    t: float
    kind: str  # "resplit" | "park" | "activate"
    mpls: tuple
    detail: str = ""


@dataclasses.dataclass
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


@dataclasses.dataclass(frozen=True)
class ClusterSloObservation:
    """One observation window of the cluster-wide SLO loop."""

    mpl: int
    completed: int
    high_count: int
    high_p95: float
    low_throughput: float
    split: tuple
    feasible: bool


@dataclasses.dataclass(frozen=True)
class ClusterSloReport:
    """Outcome of a cluster-wide SLO tuning session."""

    final_mpl: int
    final_split: tuple
    iterations: int
    converged: bool
    trajectory: List[ClusterSloObservation]
