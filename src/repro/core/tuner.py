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
model is first solved or a tuning first runs, so sizing a tuning
scenario's baseline (:func:`scaled_baseline_transactions`) loads none
of them.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from repro.core.control_types import Baseline, ControllerReport, Thresholds
from repro.core.system import RunResult, SystemConfig


@dataclasses.dataclass(frozen=True)
class TuningResult:
    """Everything the tuner learned."""

    baseline: RunResult
    model_mpl_throughput: int
    model_mpl_response_time: int
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


def model_jump_start(
    config: SystemConfig,
    baseline: RunResult,
    thresholds: Thresholds,
    is_open: Optional[bool] = None,
) -> Dict[str, int]:
    """The queueing models' starting MPLs for a measured baseline.

    The §4.1 throughput model always applies; the §4.2 response-time
    model only for open systems (in a closed system the mean response
    time follows throughput by Little's law, §3.2).  ``is_open``
    identifies the arrival regime; the default (None) falls back to
    the legacy ``config.arrival_rate`` test, while the scenario layer
    passes its own regime notion so open arrival *specs*
    (``OpenArrivals``, modulated, trace replay) jump-start identically
    to the equivalent ``arrival_rate`` spelling.  Shared by
    :class:`MplTuner` and the scenario layer's ``FeedbackMpl`` control
    spec, so "jump-start from the models" means the same thing on both
    paths.
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
    if is_open is None:
        is_open = config.arrival_rate is not None
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


class MplTuner:
    """End-to-end MPL tuning for a system configuration.

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
        self.config = config
        self.thresholds = thresholds or Thresholds()
        self.baseline_transactions = baseline_transactions
        self.window = window

    def measure_baseline(self) -> RunResult:
        """Run the system with no MPL limit and measure it.

        The run length scales with the workload's demand C² (see
        :func:`scaled_baseline_transactions`).
        """
        transactions = scaled_baseline_transactions(
            self.config, self.baseline_transactions
        )
        from repro.core.simulation import SimulatedSystem

        config = dataclasses.replace(self.config, mpl=None)
        system = SimulatedSystem(config)
        return system.run(transactions=transactions)

    def tune(self) -> TuningResult:
        """Measure the baseline, jump-start from the models, run the loop."""
        from repro.core.controller import MplController
        from repro.core.simulation import SimulatedSystem

        baseline = self.measure_baseline()
        jump_start = model_jump_start(self.config, baseline, self.thresholds)
        # An MPL above the client population is meaningless in a closed
        # system, so both the start and the search space are capped.
        max_mpl = max(1, self.config.num_clients)
        initial = min(
            max(jump_start["throughput"], jump_start["response_time"]), max_mpl
        )
        config = dataclasses.replace(self.config, mpl=initial)
        system = SimulatedSystem(config)
        controller = MplController(
            system,
            baseline=Baseline(
                throughput=baseline.throughput,
                mean_response_time=baseline.mean_response_time,
            ),
            thresholds=self.thresholds,
            initial_mpl=initial,
            window=self.window,
            max_mpl=max_mpl,
            # closed systems: RT follows throughput (Little's law)
            check_response_time=self.config.arrival_rate is not None,
        )
        report = controller.tune()
        return TuningResult(
            baseline=baseline,
            model_mpl_throughput=jump_start["throughput"],
            model_mpl_response_time=jump_start["response_time"],
            initial_mpl=initial,
            report=report,
        )
