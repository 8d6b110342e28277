"""Shared machinery for running Table 2 setups.

Every figure reproduction boils down to: describe a run of a setup as
a :class:`~repro.core.scenario.ScenarioSpec` (:func:`scenario_for`),
submit a grid of them to the active runner, and collect
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

from typing import List, Optional, Sequence, Tuple

from repro.core.arrivals import ArrivalSpec
from repro.core.scenario import (
    FeedbackMpl,
    MeasurementSpec,
    ScenarioSpec,
    StaticMpl,
    TopologySpec,
    WorkloadRef,
)
from repro.core.system import RunResult, SystemConfig
from repro.core.tuner import scaled_baseline_transactions
from repro.dbms.config import InternalPolicy
from repro.experiments.parallel import ParallelRunner, run_grid
from repro.workloads.setups import Setup, get_setup


def scenario_results(
    specs: Sequence[ScenarioSpec],
    jobs: int = 1,
    cache_dir: Optional[str] = None,
) -> List[RunResult]:
    """Run scenario specs through a dedicated :class:`ParallelRunner`.

    The scenario fuzzer's ``--jobs N`` invariance oracle goes through
    here: a fresh runner (not the process-global one) so the worker
    pool size is exactly what the oracle asked for, with the same
    content-addressed result cache any other grid shares.
    """
    return ParallelRunner(jobs=jobs, cache_dir=cache_dir).run(list(specs))


def setup_config(
    setup: Setup,
    mpl: Optional[int] = None,
    policy: str = "fifo",
    internal: Optional[InternalPolicy] = None,
    high_priority_fraction: float = 0.0,
    arrival_rate: Optional[float] = None,
    seed: int = 11,
    arrival: Optional[ArrivalSpec] = None,
) -> SystemConfig:
    """A :class:`SystemConfig` for one Table 2 setup."""
    return SystemConfig(
        workload=setup.workload,
        hardware=setup.hardware,
        isolation=setup.isolation,
        internal=internal,
        mpl=mpl,
        policy=policy,
        high_priority_fraction=high_priority_fraction,
        arrival_rate=arrival_rate,
        seed=seed,
        arrival=arrival,
    )


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
    """The :class:`ScenarioSpec` equivalent of a :func:`run_setup` call.

    Topology knobs land in a :class:`TopologySpec`; a static-control,
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


def run_setup(
    setup: Setup,
    mpl: Optional[int] = None,
    transactions: int = 1500,
    seed: int = 11,
    policy: str = "fifo",
    internal: Optional[InternalPolicy] = None,
    high_priority_fraction: float = 0.0,
    arrival_rate: Optional[float] = None,
    arrival: Optional[ArrivalSpec] = None,
) -> RunResult:
    """Run one setup at one MPL and return its measurements.

    Canonical Table 2 setups go through the active
    :class:`~repro.experiments.parallel.ParallelRunner` (and hence its
    result cache); ad-hoc :class:`Setup` objects that don't match their
    setup id run directly, since a :class:`WorkloadRef` only names a
    canonical setup.
    """
    spec = scenario_for(
        setup,
        mpl=mpl,
        transactions=transactions,
        seed=seed,
        policy=policy,
        internal=internal,
        high_priority_fraction=high_priority_fraction,
        arrival_rate=arrival_rate,
        arrival=arrival,
    )
    try:
        canonical = get_setup(setup.setup_id) == setup
    except KeyError:
        canonical = False
    if not canonical:
        config = setup_config(
            setup,
            mpl=mpl,
            policy=policy,
            internal=internal,
            high_priority_fraction=high_priority_fraction,
            arrival_rate=arrival_rate,
            seed=seed,
            arrival=arrival,
        )
        from repro.core.simulation import run_system

        return run_system(config, transactions)
    return run_grid([spec])[0]


def mpl_sweep(
    setup: Setup,
    mpls: Sequence[Optional[int]],
    transactions: int = 1500,
    seed: int = 11,
    arrival_rate: Optional[float] = None,
) -> List[Tuple[Optional[int], RunResult]]:
    """Run a setup across MPL values (common seed = paired comparison)."""
    grid = [
        scenario_for(setup, mpl=mpl, transactions=transactions, seed=seed,
                     arrival_rate=arrival_rate)
        for mpl in mpls
    ]
    return list(zip(mpls, run_grid(grid)))


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
    demand C² exactly as :class:`~repro.core.tuner.MplTuner` sizes it.
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
                setup_config(setup), transactions
            ),
        ),
        measurement=MeasurementSpec(transactions=1),
        seed=seed,
    )
