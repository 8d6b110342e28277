"""The MPL-tuning tool: queueing models + feedback controller.

This is "the tool" of the paper's conclusion: the DBA supplies the
maximum acceptable throughput loss and response-time increase; the
tuner

1. measures the unlimited (no-MPL) baseline — throughput, mean
   response time, per-resource utilizations, and demand variability;
2. asks the queueing models for a close-to-optimal starting MPL
   (throughput model of §4.1; response-time model of §4.2 when the
   workload is variable);
3. hands that starting value to the feedback controller of §4.3,
   which converges to the lowest feasible MPL in a few iterations.

The queueing models, the simulator and the controller load when a
model is first solved or a tuning first runs.  Sizing a tuning
scenario's baseline
(:func:`~repro.core.control_types.scaled_baseline_transactions`) is
control data, so building a tuning scenario loads none of them and
not this module either.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from repro.core.control_types import (
    ControllerReport,
    Thresholds,
    miss_probability,
    scaled_baseline_transactions,
)
from repro.core.specclass import specclass
from repro.core.system import RunResult, SystemConfig


@specclass(frozen=True)
class TuningResult:
    """Everything one single-engine tuning learned.

    ``baseline`` is None when the loop was given a pre-measured
    reference, and the ``model_mpl_*`` starts are None when it began
    at a pinned ``initial_mpl`` instead of the models' jump-start.
    """

    baseline: Optional[RunResult]
    model_mpl_throughput: Optional[int]
    model_mpl_response_time: Optional[int]
    initial_mpl: int
    report: ControllerReport

    @property
    def final_mpl(self) -> int:
        """The tuned multi-programming limit."""
        return self.report.final_mpl


def model_initial_mpl_throughput(
    utilizations: Dict[str, float],
    counts: Dict[str, int],
    max_throughput_loss: float,
) -> int:
    """§4.1: minimum MPL keeping modelled throughput loss within bounds."""
    from repro.queueing.throughput_model import ThroughputModel

    model = ThroughputModel.from_utilizations(utilizations, counts)
    return model.min_mpl_for_fraction(1.0 - max_throughput_loss)


def model_jump_start(
    config: SystemConfig,
    baseline: RunResult,
    thresholds: Thresholds,
    is_open: bool,
) -> Dict[str, int]:
    """The queueing models' starting MPLs for a measured baseline.

    The §4.1 throughput model always applies; the §4.2 response-time
    model only for open systems (in a closed system the mean response
    time follows throughput by Little's law, §3.2).  ``is_open`` is
    the arrival regime as :attr:`~repro.core.scenario.ScenarioSpec.is_open`
    decides it, so every open spelling (``arrival_rate``,
    ``OpenArrivals``, modulated, trace replay) jump-starts alike.
    """
    hardware = config.hardware
    counts = {
        "cpu": hardware.num_cpus,
        "disk": hardware.num_disks,
        "log": 1,
    }
    mpl_throughput = model_initial_mpl_throughput(
        baseline.utilizations, counts, thresholds.max_throughput_loss
    )
    mpl_response = 1
    if is_open:
        _demand_mean, demand_scv = config.workload.demand_moments(
            hardware.disk_service_mean_ms / 1000.0,
            miss_probability=miss_probability(config),
        )
        load = min(0.9, max(baseline.utilizations.values()))
        mpl_response = model_initial_mpl_response_time(
            load, demand_scv, thresholds.max_response_time_increase
        )
    return {"throughput": mpl_throughput, "response_time": mpl_response}


def model_initial_mpl_response_time(
    load: float,
    demand_scv: float,
    max_response_time_increase: float,
    max_mpl: int = 60,
) -> int:
    """§4.2: minimum MPL keeping modelled E[T] near the PS value.

    Evaluates the FIFO→PS(MPL) chain at the measured load and demand
    C², returning the smallest MPL whose mean response time is within
    the tolerance of the (insensitive) PS reference.
    """
    from repro.queueing.mpl_ps_queue import MplPsQueue

    load = min(max(load, 0.05), 0.95)
    scv = max(1.0, demand_scv)
    queue = MplPsQueue(arrival_rate=load, mpl=1, service_mean=1.0, service_scv=scv)
    ps_reference = queue.ps_reference()
    target = (1.0 + max_response_time_increase) * ps_reference
    for mpl in range(1, max_mpl + 1):
        model = MplPsQueue(
            arrival_rate=load, mpl=mpl, service_mean=1.0, service_scv=scv
        )
        if model.mean_response_time() <= target:
            return mpl
    return max_mpl


class MplTuner:
    """End-to-end MPL tuning for a system configuration.

    For a config that is not a scenario: it measures the no-MPL
    baseline itself, then runs the single-engine loop of
    :class:`~repro.core.scenario.FeedbackMpl` (model jump-start, start
    cap, :class:`~repro.core.controller.MplController`), the body every
    tuned figure runs.

    Parameters
    ----------
    config:
        The system to tune (its ``mpl`` field is ignored).
    thresholds:
        The DBA's tolerances.
    baseline_transactions / window:
        Measurement sizes for the baseline run and the controller's
        observation windows.
    """

    def __init__(
        self,
        config: SystemConfig,
        thresholds: Optional[Thresholds] = None,
        baseline_transactions: int = 1500,
        window: int = 100,
    ):
        self.config = dataclasses.replace(config, mpl=None)
        self.thresholds = thresholds or Thresholds()
        self.baseline_transactions = baseline_transactions
        self.window = window

    def tune(self) -> TuningResult:
        """Measure the no-MPL baseline, then jump-start and run the loop.

        The baseline's run length scales with the workload's demand C²
        (see :func:`~repro.core.control_types.scaled_baseline_transactions`).
        """
        from repro.core.arrivals import ClosedArrivals
        from repro.core.scenario import FeedbackMpl
        from repro.core.simulation import SimulatedSystem

        baseline = SimulatedSystem(self.config).run(
            transactions=scaled_baseline_transactions(
                self.config, self.baseline_transactions
            )
        )
        control = FeedbackMpl(
            max_throughput_loss=self.thresholds.max_throughput_loss,
            max_response_time_increase=self.thresholds.max_response_time_increase,
            window=self.window,
        )
        return control.tune_engine(
            SimulatedSystem(self.config),
            baseline,
            is_open=not isinstance(self.config.arrival_spec(), ClosedArrivals),
        )
