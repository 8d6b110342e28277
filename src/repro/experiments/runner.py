"""Scenario builders for runs of Table 2 setups.

Every experiment boils down to: describe a run of a setup as a
:class:`~repro.core.scenario.ScenarioSpec` (:func:`scenario_for`),
submit a grid of them to the active runner
(:func:`~repro.experiments.parallel.run_grid`), and collect
:class:`~repro.core.system.RunResult` rows (or whole
:class:`~repro.core.scenario.ScenarioOutcome` values, for figures that
read a run's control report or optional blocks).  The paper's tuner
pipeline (baseline → model jump-start → feedback controller), used
wherever the paper says "the MPL is adjusted using the methods from
Section 4", is one more scenario: :func:`tuning_scenario` describes it
as a :class:`~repro.core.scenario.FeedbackMpl` run, so tuned MPLs are
cached and fanned out like any other grid cell.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.arrivals import ArrivalSpec
from repro.core.control_types import scaled_baseline_transactions
from repro.core.scenario import (
    FeedbackMpl,
    MeasurementSpec,
    ScenarioSpec,
    StaticMpl,
    TopologySpec,
    WorkloadRef,
)
from repro.dbms.config import InternalPolicy
from repro.workloads.setups import Setup


def scenario_for(
    setup: Setup,
    mpl: Optional[int] = None,
    transactions: int = 1500,
    seed: int = 11,
    policy: str = "fifo",
    internal: Optional[InternalPolicy] = None,
    high_priority_fraction: float = 0.0,
    arrival_rate: Optional[float] = None,
    arrival: Optional[ArrivalSpec] = None,
    shards: int = 1,
    routing: str = "round_robin",
    routing_weights: Optional[Tuple[float, ...]] = None,
    warmup_fraction: float = 0.2,
    tag: str = "",
) -> ScenarioSpec:
    """One run of a Table 2 setup at a fixed MPL, as a scenario.

    Run it with :func:`~repro.experiments.parallel.run_grid` (or build
    its live system from :meth:`ScenarioSpec.build_config`).  Topology
    knobs land in a :class:`TopologySpec`; a static-control,
    single-shard scenario keeps the pre-scenario cache key (pinned by
    the golden fingerprint corpus).
    """
    return ScenarioSpec(
        workload=WorkloadRef(setup_id=setup.setup_id),
        arrival=arrival,
        topology=TopologySpec(
            shards=shards, routing=routing, routing_weights=routing_weights
        ),
        control=StaticMpl(mpl),
        measurement=MeasurementSpec(
            transactions=transactions, warmup_fraction=warmup_fraction
        ),
        policy=policy,
        internal=internal,
        high_priority_fraction=high_priority_fraction,
        arrival_rate=arrival_rate,
        seed=seed,
        tag=tag,
    )


def tuning_scenario(
    setup: Setup,
    max_throughput_loss: float = 0.05,
    max_response_time_increase: float = 0.30,
    transactions: int = 1000,
    window: int = 100,
    seed: int = 11,
) -> ScenarioSpec:
    """Tune a setup's MPL the paper's way (§4): models + controller.

    A :class:`FeedbackMpl` scenario jump-started from the queueing
    models, whose no-MPL baseline runs ``transactions`` scaled by the
    demand C² (:func:`~repro.core.control_types.scaled_baseline_transactions`).
    Its measurement window is a single transaction: the outcome's
    ``result.mpl`` is the tuned MPL and its ``control`` the
    :class:`~repro.core.control_types.ControllerReport`, so a grid of
    tunings goes through :func:`run_grid` and its cache.  The baseline
    depends only on the setup, ``transactions`` and ``seed``, so the
    runner runs it once for every budget tuned in the same grid.
    """
    return ScenarioSpec(
        workload=WorkloadRef(setup_id=setup.setup_id),
        control=FeedbackMpl(
            max_throughput_loss=max_throughput_loss,
            max_response_time_increase=max_response_time_increase,
            window=window,
            baseline_transactions=scaled_baseline_transactions(
                scenario_for(setup).build_config(), transactions
            ),
        ),
        measurement=MeasurementSpec(transactions=1),
        seed=seed,
    )
