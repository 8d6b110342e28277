"""Shared machinery for running Table 2 setups.

Every figure reproduction boils down to: build a
:class:`~repro.core.system.SimulatedSystem` for a setup, run it at one
or more MPL values, and collect :class:`~repro.core.system.RunResult`
rows.  The helpers here centralize that, including the tuner pipeline
(baseline → model jump-start → feedback controller) used wherever the
paper says "the MPL is adjusted using the methods from Section 4".
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

from repro.core.arrivals import ArrivalSpec
from repro.core.controller import Thresholds
from repro.core.scenario import (
    MeasurementSpec,
    ScenarioSpec,
    StaticMpl,
    TopologySpec,
    WorkloadRef,
)
from repro.core.system import RunResult, SimulatedSystem, SystemConfig
from repro.core.tuner import MplTuner, TuningResult
from repro.dbms.config import InternalPolicy
from repro.experiments.parallel import ParallelRunner, RunSpec, run_grid
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


def spec_for(
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
    tag: str = "",
) -> RunSpec:
    """The :class:`RunSpec` equivalent of a :func:`run_setup` call.

    Topology knobs land in a :class:`TopologySpec`; single-shard
    defaults stay implicit so legacy fingerprints are untouched.
    """
    clustered = (
        shards != 1 or routing != "round_robin" or routing_weights is not None
    )
    topology = (
        TopologySpec(shards=shards, routing=routing,
                     routing_weights=routing_weights)
        if clustered
        else None
    )
    return RunSpec(
        setup_id=setup.setup_id,
        mpl=mpl,
        transactions=transactions,
        seed=seed,
        policy=policy,
        internal=internal,
        high_priority_fraction=high_priority_fraction,
        arrival_rate=arrival_rate,
        arrival=arrival,
        topology=topology,
        tag=tag,
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

    The scenario-native sibling of :func:`spec_for` — same knobs, same
    fingerprints (a static-control scenario hashes exactly like the
    legacy spec), used by the figure grids.
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
    setup id run directly, since a :class:`RunSpec` only names a
    canonical setup.
    """
    spec = spec_for(
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
        return SimulatedSystem(config).run(transactions=transactions)
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
        spec_for(setup, mpl=mpl, transactions=transactions, seed=seed,
                 arrival_rate=arrival_rate)
        for mpl in mpls
    ]
    return list(zip(mpls, run_grid(grid)))


def tune_setup(
    setup: Setup,
    max_throughput_loss: float = 0.05,
    max_response_time_increase: float = 0.30,
    transactions: int = 1000,
    window: int = 100,
    seed: int = 11,
) -> TuningResult:
    """Tune a setup's MPL the paper's way (§4): models + controller."""
    config = setup_config(setup, seed=seed)
    tuner = MplTuner(
        config,
        thresholds=Thresholds(
            max_throughput_loss=max_throughput_loss,
            max_response_time_increase=max_response_time_increase,
        ),
        baseline_transactions=transactions,
        window=window,
    )
    return tuner.tune()


@dataclasses.dataclass(frozen=True)
class MinMplResult:
    """Outcome of an experimental minimum-MPL search."""

    min_mpl: int
    baseline_throughput: float
    achieved_throughput: float
    sweep: Tuple[Tuple[int, float], ...]


def find_min_mpl_experimental(
    setup: Setup,
    fraction: float = 0.95,
    candidate_mpls: Sequence[int] = (1, 2, 3, 4, 5, 7, 10, 13, 16, 20, 25, 30, 40),
    transactions: int = 1200,
    seed: int = 11,
) -> MinMplResult:
    """Sweep MPLs and report the lowest reaching ``fraction`` of baseline.

    This is the brute-force measurement the paper's Figures 2–5 are
    built from (the tuner exists precisely to avoid needing it
    online).
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction!r}")
    ordered = sorted(candidate_mpls)
    grid = [spec_for(setup, mpl=None, transactions=transactions, seed=seed)] + [
        spec_for(setup, mpl=mpl, transactions=transactions, seed=seed)
        for mpl in ordered
    ]
    baseline, *candidates = run_grid(grid)
    sweep: List[Tuple[int, float]] = []
    chosen: Optional[int] = None
    achieved = 0.0
    for mpl, result in zip(ordered, candidates):
        sweep.append((mpl, result.throughput))
        if chosen is None and result.throughput >= fraction * baseline.throughput:
            chosen = mpl
            achieved = result.throughput
    if chosen is None:
        chosen = max(candidate_mpls)
        achieved = sweep[-1][1]
    return MinMplResult(
        min_mpl=chosen,
        baseline_throughput=baseline.throughput,
        achieved_throughput=achieved,
        sweep=tuple(sweep),
    )
