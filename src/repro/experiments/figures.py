"""Reproductions of every figure in the paper's evaluation.

Each ``figureN`` function regenerates the corresponding figure's data
(simulated where the paper measured hardware, analytic where the paper
analyzed) and returns :class:`FigureResult` objects that render as
tables + ASCII charts.  The ``fast`` flag trades sample size for run
time; EXPERIMENTS.md records a full-size run.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.arrivals import (
    ModulatedArrivals,
    OpenArrivals,
    PartlyOpenArrivals,
    SinusoidRate,
)
from repro.core.cluster_config import READ_FANOUT_POLICIES, ROUTING_POLICIES
from repro.core.distributed_spec import DistributedSpec
from repro.core.faults import DegradeShard, FaultSpec, KillShard, RestoreShard
from repro.core.resilience_spec import ResilienceSpec
from repro.core.scenario import (
    ClusterSlo,
    ElasticMpl,
    FeedbackMpl,
    MeasurementSpec,
    ScenarioSpec,
    StaticMpl,
    TopologySpec,
    WorkloadRef,
)
from repro.core.system import RunResult
from repro.dbms.config import InternalPolicy
from repro.dbms.transaction import Priority
from repro.experiments import report
from repro.experiments.parallel import (
    DEFAULT_SEED,
    AnalyticCell,
    run_analytic,
    run_grid,
    run_grid_outcomes,
)
from repro.experiments.runner import scenario_for, tuning_scenario
from repro.priority.evaluation import (
    HIGH_PRIORITY_FRACTION,
    PrioritizationOutcome,
    outcome_from_runs,
)
from repro.workloads.setups import SETUPS, get_setup


@dataclasses.dataclass(frozen=True)
class Series:
    """One plotted line: a label and y-values over the figure's x-axis."""

    label: str
    ys: Tuple[float, ...]


@dataclasses.dataclass(frozen=True)
class FigureResult:
    """One figure panel: x-axis, series, and free-form notes."""

    figure: str
    title: str
    xlabel: str
    xs: Tuple[float, ...]
    series: Tuple[Series, ...]
    notes: Tuple[str, ...] = ()

    def render(self) -> str:
        """Numeric table + ASCII chart + notes."""
        headers = [self.xlabel] + [s.label for s in self.series]
        rows = []
        for index, x in enumerate(self.xs):
            row = [f"{x:g}"]
            for s in self.series:
                value = s.ys[index]
                row.append("-" if value != value else f"{value:.3g}")
            rows.append(row)
        parts = [
            report.ascii_table(headers, rows, title=f"Figure {self.figure}: {self.title}"),
            report.ascii_chart(
                list(self.xs),
                [(s.label, list(s.ys)) for s in self.series],
            ),
        ]
        parts.extend(self.notes)
        return "\n\n".join(parts)


_NAN = float("nan")


def throughput_grid(
    setup_ids: Sequence[int],
    mpls: Sequence[int],
    transactions: int,
    seed: int = DEFAULT_SEED,
) -> List[ScenarioSpec]:
    """The scenario grid behind one throughput-vs-MPL panel, as data."""
    return [
        scenario_for(
            get_setup(setup_id), mpl=mpl, transactions=transactions, seed=seed
        )
        for setup_id in setup_ids
        for mpl in mpls
    ]


class ThroughputPanel(NamedTuple):
    """One §3.1 throughput-vs-MPL panel: a line per setup, one sample size."""

    figure: str
    title: str
    #: (setup id, series label) per plotted line, in grid order.
    series: Tuple[Tuple[int, str], ...]
    fast_transactions: int
    full_transactions: int


#: The paper's §3.1 throughput figures 2–5 as data: figure key -> (MPL
#: axis, panels).  A figure's grid is every panel's (setup, MPL)
#: product in order, and its reducer reads the grid back the same way.
THROUGHPUT_FIGURES: Dict[str, Tuple[Tuple[int, ...], Tuple[ThroughputPanel, ...]]] = {
    "2": ((1, 2, 3, 5, 7, 10, 15, 20, 30), (
        ThroughputPanel("2a", "W_CPU-inventory throughput vs MPL (1 vs 2 CPUs)",
                        ((1, "One CPU"), (2, "Two CPUs")), 700, 2500),
        ThroughputPanel("2b", "W_CPU-browsing throughput vs MPL (1 vs 2 CPUs)",
                        ((3, "One CPU"), (4, "Two CPUs")), 400, 1500),
    )),
    "3": ((1, 2, 3, 5, 7, 10, 15, 20, 30), (
        ThroughputPanel("3a", "W_IO-inventory throughput vs MPL (1-4 disks)",
                        ((5, "1 disk"), (6, "2 disks"), (7, "3 disks"), (8, "4 disks")),
                        350, 1200),
        ThroughputPanel("3b", "W_IO-browsing throughput vs MPL (1 vs 4 disks)",
                        ((9, "1 disk"), (10, "4 disks")), 250, 600),
    )),
    "4": ((1, 2, 3, 5, 7, 10, 15, 20, 30, 35), (
        ThroughputPanel("4", "W_CPU+IO-inventory throughput vs MPL",
                        ((11, "1 disk, 1 CPU"), (12, "4 disks, 2 CPUs")), 700, 2500),
    )),
    "5": ((1, 2, 3, 5, 7, 10, 15, 20, 30, 40), (
        ThroughputPanel("5a", "W_CPU-inventory: isolation RR vs UR (setups 1, 17)",
                        ((17, "Isolation UR"), (1, "Isolation RR")), 700, 2500),
        ThroughputPanel("5b", "W_CPU-ordering: isolation RR vs UR (setups 15, 16)",
                        ((16, "UR isolation"), (15, "RR isolation")), 700, 2500),
    )),
}


def throughput_figure_grid(
    key: str, fast: bool = True, mpls: Optional[Sequence[int]] = None
) -> List[ScenarioSpec]:
    """The scenario grid behind one of figures 2–5 (all its panels)."""
    axis, panels = THROUGHPUT_FIGURES[key]
    specs: List[ScenarioSpec] = []
    for panel in panels:
        specs.extend(throughput_grid(
            [setup_id for setup_id, _label in panel.series],
            axis if mpls is None else mpls,
            panel.fast_transactions if fast else panel.full_transactions,
        ))
    return specs


def throughput_figure(
    key: str, fast: bool, mpls: Sequence[int]
) -> List[FigureResult]:
    """Run one of figures 2–5 and reduce its grid to one result per panel."""
    runs = iter(run_grid(throughput_figure_grid(key, fast, mpls)))
    return [
        FigureResult(
            figure=panel.figure,
            title=panel.title,
            xlabel="MPL",
            xs=tuple(float(m) for m in mpls),
            series=tuple(
                Series(label=label, ys=tuple(next(runs).throughput for _ in mpls))
                for _setup_id, label in panel.series
            ),
        )
        for panel in THROUGHPUT_FIGURES[key][1]
    ]


def figure2(
    fast: bool = True, mpls: Sequence[int] = THROUGHPUT_FIGURES["2"][0]
) -> List[FigureResult]:
    """Throughput vs MPL for the CPU-bound workloads (setups 1–4)."""
    return throughput_figure("2", fast, mpls)


def figure3(
    fast: bool = True, mpls: Sequence[int] = THROUGHPUT_FIGURES["3"][0]
) -> List[FigureResult]:
    """Throughput vs MPL for the I/O-bound workloads (setups 5–10)."""
    return throughput_figure("3", fast, mpls)


def figure4(
    fast: bool = True, mpls: Sequence[int] = THROUGHPUT_FIGURES["4"][0]
) -> List[FigureResult]:
    """Throughput vs MPL for the balanced CPU+I/O workload (setups 11, 12)."""
    return throughput_figure("4", fast, mpls)


def figure5(
    fast: bool = True, mpls: Sequence[int] = THROUGHPUT_FIGURES["5"][0]
) -> List[FigureResult]:
    """Throughput vs MPL under heavy locking: RR vs UR isolation."""
    return throughput_figure("5", fast, mpls)


def smoke_grid(fast: bool = True) -> List[ScenarioSpec]:
    """A deliberately cheap grid for CI smoke runs and cache benchmarks."""
    if fast:
        return throughput_grid((1,), (1, 2, 4, 8), 150)
    return throughput_grid((1,), (1, 2, 4, 8, 16, 30), 600)


def section32_response_time(
    fast: bool = True,
    mpls: Sequence[int] = (1, 2, 4, 6, 8, 10, 15, 20, 30),
) -> List[FigureResult]:
    """§3.2: open-system mean response time vs MPL.

    The paper reports TPC-C response times insensitive to the MPL once
    it is ≥ 4, while TPC-W (C² ≈ 15) needs ≥ 8 at 70% utilization and
    ≥ 15 at 90%.
    """
    transactions = 600 if fast else 2000
    loads = (0.7, 0.9)
    subjects = ((1, "TPC-C (W_CPU-inventory)"), (3, "TPC-W (W_CPU-browsing)"))
    # phase 1: closed-system capacity probes, one grid
    capacity_runs = run_grid([
        scenario_for(get_setup(sid), mpl=None, transactions=max(400, transactions // 2))
        for sid, _name in subjects
    ])
    capacities = {sid: run.throughput
                  for (sid, _name), run in zip(subjects, capacity_runs)}
    # phase 2: the full (setup, load, mpl) open-system grid
    grid = [
        scenario_for(
            get_setup(sid), mpl=mpl, transactions=transactions,
            arrival_rate=load * capacities[sid],
        )
        for sid, _name in subjects
        for load in loads
        for mpl in mpls
    ]
    runs = iter(run_grid(grid))
    results: List[FigureResult] = []
    for setup_id, name in subjects:
        series = []
        for load in loads:
            ys = [next(runs).mean_response_time for _ in mpls]
            series.append(Series(label=f"load {load:.0%}", ys=tuple(ys)))
        results.append(
            FigureResult(
                figure=f"S3.2-{name.split()[0]}",
                title=f"Open-system mean response time vs MPL, {name}",
                xlabel="MPL",
                xs=tuple(float(m) for m in mpls),
                series=tuple(series),
            )
        )
    return results


def figure7(
    disk_counts: Sequence[int] = (1, 2, 3, 4, 8, 16),
    max_mpl: int = 100,
) -> List[FigureResult]:
    """Analytic throughput vs MPL for 1–16 disks (pure queueing model).

    Also reports the minimum MPL reaching 80% (circles) and 95%
    (squares) of maximum throughput — both exactly linear in the disk
    count, matching the paper's straight-line observation.
    """
    from repro.queueing.throughput_model import ThroughputModel, balanced_min_mpl

    xs = tuple(float(m) for m in range(1, max_mpl + 1))
    series = []
    marks80: List[str] = []
    marks95: List[str] = []
    for disks in disk_counts:
        # Data is striped, so each of the M disks carries 1/M of a
        # transaction's unit I/O demand; the asymptote is then M
        # transactions/sec, matching the paper's y-axis.
        model = ThroughputModel([1.0 / disks] * disks)
        curve = model.throughput_curve(max_mpl)
        series.append(Series(label=f"{disks} disks", ys=tuple(curve)))
        marks80.append(f"{disks} disks: MPL>={balanced_min_mpl(disks, 0.80)}")
        marks95.append(f"{disks} disks: MPL>={balanced_min_mpl(disks, 0.95)}")
    notes = (
        "80% of max (circles): " + "; ".join(marks80),
        "95% of max (squares): " + "; ".join(marks95),
        "Both mark sets are linear in the number of disks: "
        "min MPL = f (M - 1) / (1 - f).",
    )
    return [
        FigureResult(
            figure="7",
            title="Analytic throughput vs MPL as a function of resource count",
            xlabel="MPL",
            xs=xs,
            series=tuple(series),
            notes=notes,
        )
    ]


def mpl_ps_response_time(**queue) -> float:
    """Mean response time (s) of the Figure 9 chain ``MplPsQueue(**queue)``."""
    from repro.queueing.mpl_ps_queue import MplPsQueue

    return MplPsQueue(**queue).mean_response_time()


def ps_response_time(**queue) -> float:
    """The M/G/1-PS response time (s) the chain approaches as MPL grows."""
    from repro.queueing.mpl_ps_queue import MplPsQueue

    return MplPsQueue(**queue).ps_reference()


def figure10(
    scvs: Sequence[float] = (2.0, 5.0, 10.0, 15.0),
    loads: Sequence[float] = (0.7, 0.9),
    mpls: Sequence[int] = (1, 2, 3, 5, 7, 10, 15, 20, 25, 30, 35),
    service_mean: float = 0.050,
) -> List[FigureResult]:
    """Evaluate the Figure 9 CTMC: mean response time vs MPL per C².

    Matches Figure 10: with C² ≤ 2 the response time is flat in the
    MPL; with C² = 15 the MPL must reach ≈ 10 (load 0.7) or ≈ 30
    (load 0.9) before the PS level is attained.  Every chain solve and
    PS reference is an analytic cell, so a warm run solves nothing.
    """

    def queue(load: float, mpl: int, scv: float) -> Dict[str, float]:
        return {
            "arrival_rate": load / service_mean,
            "mpl": mpl,
            "service_mean": service_mean,
            "service_scv": scv,
        }

    cells = []
    for load in loads:
        cells += [
            AnalyticCell(f"{__name__}:mpl_ps_response_time", queue(load, mpl, scv))
            for scv in scvs
            for mpl in mpls
        ]
        cells.append(AnalyticCell(f"{__name__}:ps_response_time", queue(load, 1, 1.0)))
    values = iter(run_analytic(cells))
    results = []
    for load in loads:
        # response times in msec
        series = [
            Series(label=f"C2={scv:g}", ys=tuple(next(values) * 1000.0 for _ in mpls))
            for scv in scvs
        ]
        ps = next(values) * 1000.0
        series.append(Series(label="PS", ys=tuple(ps for _ in mpls)))
        results.append(
            FigureResult(
                figure=f"10 (load {load:g})",
                title=f"CTMC mean response time vs MPL, system load {load:g}",
                xlabel="MPL",
                xs=tuple(float(m) for m in mpls),
                series=tuple(series),
                notes=(f"PS reference: {ps:.1f} msec",),
            )
        )
    return results


def controller_convergence(
    fast: bool = True,
    setup_ids: Optional[Sequence[int]] = None,
    max_throughput_loss: float = 0.05,
) -> FigureResult:
    """§4.3: controller iterations to convergence, per setup.

    The paper reports convergence in fewer than 10 iterations for all
    setups when jump-started from the queueing models.
    """
    if setup_ids is None:
        setup_ids = (1, 3, 5, 8, 11, 13) if fast else tuple(s.setup_id for s in SETUPS)
    transactions = 600 if fast else 1500
    iterations: List[float] = []
    finals: List[float] = []
    starts: List[float] = []
    notes: List[str] = []
    tunings = run_grid_outcomes([
        tuning_scenario(
            get_setup(setup_id),
            max_throughput_loss=max_throughput_loss,
            transactions=transactions,
        )
        for setup_id in setup_ids
    ])
    for setup_id, tuning in zip(setup_ids, tunings):
        report = tuning.control
        start = report.trajectory[0].mpl
        iterations.append(float(report.iterations))
        finals.append(float(report.final_mpl))
        starts.append(float(start))
        notes.append(
            f"setup {setup_id}: model start {start}, "
            f"final {report.final_mpl}, {report.iterations} iterations, "
            f"converged={report.converged}"
        )
    return FigureResult(
        figure="S4.3",
        title="Controller convergence (iterations to lowest feasible MPL)",
        xlabel="setup",
        xs=tuple(float(s) for s in setup_ids),
        series=(
            Series(label="iterations", ys=tuple(iterations)),
            Series(label="model start MPL", ys=tuple(starts)),
            Series(label="final MPL", ys=tuple(finals)),
        ),
        notes=tuple(notes),
    )


def _tune_then_prioritize(
    tunings: Sequence[ScenarioSpec], transactions: int
) -> Tuple[List[int], List[RunResult]]:
    """§5's tune-then-prioritize phases, one grid each.

    Runs the caller's :func:`tuning_scenario` specs, then every tuned
    setup under external prioritization at its tuned MPL (same seed,
    ``transactions`` measured).  Returns the tuned MPLs and the
    prioritized runs, both in ``tunings`` order.
    """
    tuned_mpls = [run.mpl for run in run_grid(tunings)]
    prio_runs = run_grid([
        scenario_for(
            get_setup(spec.setup_id), mpl=mpl, transactions=transactions,
            seed=spec.seed, policy="priority",
            high_priority_fraction=HIGH_PRIORITY_FRACTION,
        )
        for spec, mpl in zip(tunings, tuned_mpls)
    ])
    return tuned_mpls, prio_runs


def figure11(fast: bool = True, seed: int = 11) -> List[FigureResult]:
    """External prioritization, all 17 setups, 5% and 20% loss budgets.

    Each phase submits both budgets' cells as one grid, so the runner
    simulates each setup's "No Prio" reference once.
    """
    transactions = 700 if fast else 2000
    budgets = (0.05, 0.20)
    setup_ids = tuple(s.setup_id for s in SETUPS)
    cells = [(loss, sid) for loss in budgets for sid in setup_ids]
    references = run_grid([
        scenario_for(get_setup(sid), mpl=None, transactions=transactions, seed=seed)
        for _loss, sid in cells
    ])
    # the paper's budgets are symmetric: "sacrifice a maximum of 5%
    # (20%) throughput" and the same bound on mean RT
    tuned_mpls, prio_runs = _tune_then_prioritize([
        tuning_scenario(
            get_setup(sid),
            max_throughput_loss=loss,
            max_response_time_increase=loss,
            transactions=max(400, transactions // 2),
            window=100,
            seed=seed,
        )
        for loss, sid in cells
    ], transactions)
    outcomes = iter([
        outcome_from_runs(f"setup {sid} mpl={mpl}", mpl, run, reference)
        for (_loss, sid), mpl, run, reference in zip(
            cells, tuned_mpls, prio_runs, references
        )
    ])
    panels = []
    for loss in budgets:
        chunk = [next(outcomes) for _ in setup_ids]
        diffs = [o.differentiation for o in chunk if o.differentiation > 0]
        pens = [o.low_penalty for o in chunk if o.low_penalty > 0]
        overall = [o.overall_penalty for o in chunk if o.overall_penalty > 0]
        panels.append(FigureResult(
            figure=f"11 ({loss:.0%} loss)",
            title=(
                "External prioritization across all 17 setups, MPL tuned for "
                f"<= {loss:.0%} throughput loss"
            ),
            xlabel="setup",
            xs=tuple(float(s) for s in setup_ids),
            series=(
                Series(label="High Prio (s)", ys=tuple(o.high for o in chunk)),
                Series(label="Low Prio (s)", ys=tuple(o.low for o in chunk)),
                Series(label="No Prio (s)", ys=tuple(o.no_prio for o in chunk)),
            ),
            notes=(
                f"differentiation (low/high): min {min(diffs):.1f}x, "
                f"max {max(diffs):.1f}x, mean {sum(diffs)/len(diffs):.1f}x",
                f"low-priority penalty vs no-prio: mean {sum(pens)/len(pens):.2f}x",
                f"overall mean RT vs no-prio: worst {max(overall):.2f}x",
            ),
        ))
    return panels


def _internal_vs_external(
    setup_id: int,
    internal: InternalPolicy,
    fast: bool,
    seed: int = 11,
) -> FigureResult:
    transactions = 800 if fast else 2000
    setup = get_setup(setup_id)
    budgets = (("ext95", 0.05), ("ext80", 0.20), ("ext100", 0.005))
    # the shared reference + the internal-prioritization run
    no_prio, internal_run = run_grid([
        scenario_for(setup, mpl=None, transactions=transactions, seed=seed),
        scenario_for(
            setup, mpl=None, transactions=transactions, seed=seed,
            internal=internal, high_priority_fraction=HIGH_PRIORITY_FRACTION,
        ),
    ])
    # one tuned MPL and external-prioritization run per budget
    tuned_mpls, ext_runs = _tune_then_prioritize([
        tuning_scenario(
            setup,
            max_throughput_loss=loss,
            max_response_time_increase=max(loss, 0.02),
            transactions=max(400, transactions // 2),
            seed=seed,
        )
        for _label, loss in budgets
    ], transactions)
    columns: List[Tuple[str, PrioritizationOutcome]] = [
        ("internal", outcome_from_runs("internal", None, internal_run, no_prio))
    ]
    columns.extend(
        (label, outcome_from_runs(label, mpl, run, no_prio))
        for (label, _loss), mpl, run in zip(budgets, tuned_mpls, ext_runs)
    )
    xs = tuple(float(i) for i in range(len(columns)))
    notes = tuple(
        f"{label}: high={o.high:.2f}s low={o.low:.2f}s mean={o.overall:.2f}s "
        f"(diff {o.differentiation:.1f}x, mpl={o.mpl})"
        for label, o in columns
    )
    return FigureResult(
        figure="12" if setup_id == 1 else "13",
        title=(
            f"Internal vs external prioritization, setup {setup_id} "
            f"({setup.workload_name})"
        ),
        xlabel="scheme (0=internal, 1=ext95, 2=ext80, 3=ext100)",
        xs=xs,
        series=(
            Series(label="High Prio (s)", ys=tuple(o.high for _l, o in columns)),
            Series(label="Low Prio (s)", ys=tuple(o.low for _l, o in columns)),
            Series(label="Mean (s)", ys=tuple(o.overall for _l, o in columns)),
        ),
        notes=notes,
    )


def figure12(fast: bool = True, seed: int = 11) -> List[FigureResult]:
    """Internal (POW lock scheduling) vs external prioritization, setup 1."""
    return [_internal_vs_external(1, InternalPolicy.pow_locks(), fast, seed)]


def figure13(fast: bool = True, seed: int = 11) -> List[FigureResult]:
    """Internal (CPU priorities/renice) vs external prioritization, setup 3."""
    return [_internal_vs_external(3, InternalPolicy.cpu_priorities(), fast, seed)]


# -- new-scenario figures: partly-open sessions and time-varying load ---------

#: Offered transaction rate for the stand-alone partly-open bench grid:
#: ≈ 80% of setup 1's fast-probe closed capacity (the figure function
#: probes the live capacity instead of relying on this constant).
PARTLY_OPEN_NOMINAL_RATE = 52.0

#: Session-length mixes swept by the partly-open figure: 1 = pure open,
#: larger means behave increasingly like a closed system.
PARTLY_OPEN_MIXES = (1.0, 4.0, 16.0)

#: Think time between a session's transactions (seconds).
PARTLY_OPEN_THINK_S = 0.1


def partly_open_grid(
    fast: bool = True,
    mpls: Sequence[int] = (1, 2, 4, 8, 16, 30),
    rate: float = PARTLY_OPEN_NOMINAL_RATE,
    mixes: Sequence[float] = PARTLY_OPEN_MIXES,
    seed: int = DEFAULT_SEED,
) -> List[ScenarioSpec]:
    """The (mix, MPL) scenario grid behind the partly-open sweep.

    Every cell offers the same transaction rate; only the session mix
    (and the MPL) varies, so the columns are directly comparable.
    """
    transactions = 400 if fast else 1500
    return [
        scenario_for(
            get_setup(1),
            mpl=mpl,
            transactions=transactions,
            seed=seed,
            arrival=PartlyOpenArrivals.for_load(
                rate, mix, think_time_s=PARTLY_OPEN_THINK_S
            ),
        )
        for mix in mixes
        for mpl in mpls
    ]


def partly_open(
    fast: bool = True, mpls: Sequence[int] = (1, 2, 4, 8, 16, 30)
) -> List[FigureResult]:
    """Partly-open MPL sweep: throughput and response time vs session mix.

    Extends the paper's §3.2 open-system study to the partly-open
    regime real traffic exhibits: sessions arrive Poisson, issue a
    geometric number of transactions with think times, and leave.  At
    mean session length 1 the source is the paper's open system; at 16
    it is nearly closed — the safe (response-time-flat) MPL shifts
    accordingly while the throughput story of §3.1 is unchanged.
    """
    transactions = 400 if fast else 1500
    # phase 1: closed capacity probe fixes the offered load at 80%
    probe = run_grid(
        [scenario_for(get_setup(1), mpl=None, transactions=max(400, transactions // 2))]
    )[0]
    rate = 0.8 * probe.throughput
    runs = iter(run_grid(partly_open_grid(fast, mpls, rate=rate)))
    throughput_series: List[Series] = []
    response_series: List[Series] = []
    for mix in PARTLY_OPEN_MIXES:
        results = [next(runs) for _ in mpls]
        label = f"sessions of {mix:g}"
        throughput_series.append(
            Series(label=label, ys=tuple(r.throughput for r in results))
        )
        response_series.append(
            Series(label=label, ys=tuple(r.mean_response_time for r in results))
        )
    notes = (
        f"offered load: {rate:.1f} tx/s (80% of the closed capacity "
        f"{probe.throughput:.1f} tx/s), think time {PARTLY_OPEN_THINK_S:g}s",
    )
    return [
        FigureResult(
            figure="PO-a",
            title="Partly-open sessions: throughput vs MPL by session mix",
            xlabel="MPL",
            xs=tuple(float(m) for m in mpls),
            series=tuple(throughput_series),
            notes=notes,
        ),
        FigureResult(
            figure="PO-b",
            title="Partly-open sessions: mean response time vs MPL by session mix",
            xlabel="MPL",
            xs=tuple(float(m) for m in mpls),
            series=tuple(response_series),
            notes=notes,
        ),
    ]


def time_varying_controller(
    fast: bool = True, setup_id: int = 1, seed: int = DEFAULT_SEED
) -> FigureResult:
    """Controller convergence when the arrival rate varies over time.

    Drives the §4.3 feedback controller against a sinusoidally
    modulated open source (load swinging roughly 45–95% of capacity).
    The controller's windows straddle different phases of the cycle,
    so this probes exactly what the paper's static experiments could
    not: whether the observation-window extension logic keeps the loop
    stable when "representative load" is a moving target.
    """
    setup = get_setup(setup_id)
    transactions = 600 if fast else 1500
    # phase 1: closed capacity probe to scale the rate profile
    probe = run_grid(
        [scenario_for(setup, mpl=None, transactions=max(400, transactions // 2), seed=seed)]
    )[0]
    rate_function = SinusoidRate(
        base=0.7 * probe.throughput, amplitude=0.25 * probe.throughput, period=20.0
    )
    arrival = ModulatedArrivals(rate_function)
    # phase 2: the no-MPL baseline under the same modulated load (cached)
    reference = run_grid([
        scenario_for(setup, mpl=None, transactions=transactions, seed=seed,
                     arrival=arrival)
    ])[0]
    # phase 3: the scenario *is* the experiment — the FeedbackMpl spec
    # carries the cached baseline and instantiates the §4.3 controller;
    # no controller construction in figure code.
    scenario = ScenarioSpec(
        workload=WorkloadRef(setup_id=setup_id),
        arrival=arrival,
        control=FeedbackMpl(
            max_throughput_loss=0.05,
            max_response_time_increase=0.30,
            initial_mpl=2,
            window=100 if fast else 200,
            baseline_throughput=reference.throughput,
            baseline_response_time=reference.mean_response_time,
        ),
        measurement=MeasurementSpec(transactions=max(200, transactions // 3)),
        seed=seed,
        tag="tv",
    )
    (run,) = run_grid_outcomes([scenario])
    outcome = run.control
    iterations = tuple(float(i + 1) for i in range(len(outcome.trajectory)))
    notes = (
        f"rate profile: {rate_function.base:.1f} + {rate_function.amplitude:.1f}"
        f" * sin(2*pi*t/{rate_function.period:g})  tx/s",
        f"final MPL {outcome.final_mpl} after {outcome.iterations} iterations "
        f"(converged={outcome.converged})",
        f"baseline: {reference.throughput:.1f} tx/s, "
        f"{reference.mean_response_time:.3f}s mean RT",
        f"post-tuning window: {run.result.throughput:.1f} tx/s, "
        f"{run.result.mean_response_time:.3f}s mean RT",
    )
    return FigureResult(
        figure="TV",
        title="Controller convergence under time-varying (sinusoidal) load",
        xlabel="iteration",
        xs=iterations,
        series=(
            Series(label="MPL", ys=tuple(float(o.mpl) for o in outcome.trajectory)),
            Series(
                label="throughput (tx/s)",
                ys=tuple(o.throughput for o in outcome.trajectory),
            ),
            Series(
                label="feasible (1=yes)",
                ys=tuple(float(o.feasible) for o in outcome.trajectory),
            ),
        ),
        notes=notes,
    )


# -- sharded-cluster figure: N engines behind a router ------------------------

#: Shard counts swept by the cluster figure.
SHARD_COUNTS = (1, 2, 4, 8)

#: Per-shard MPL values swept (the global MPL is this times the shard
#: count, so every cluster size sees the same per-shard operating
#: points).
SHARD_MPLS = (1, 2, 4, 8, 16)
SHARD_MPLS_FAST = (2, 8)

#: Offered load per shard, tx/s — ≈ 70% of setup 1's closed capacity,
#: so the sweep is *weak scaling*: the cluster always runs at the same
#: per-shard load, and total throughput should grow linearly with the
#: shard count under any sane routing policy.
SHARD_RATE_PER_SHARD = 45.0

#: Session mix / think time of the partly-open regime (matches `po`).
SHARD_SESSION_MIX = 4.0
SHARD_THINK_S = 0.1

#: Shard count at which the routing policies are compared head-to-head.
SHARD_POLICY_COUNT = 4


def _sharded_spec(
    shards: int,
    routing: str,
    per_shard_mpl: int,
    transactions: int,
    arrival,
    seed: int = DEFAULT_SEED,
) -> ScenarioSpec:
    return scenario_for(
        get_setup(1),
        mpl=per_shard_mpl * shards,
        transactions=transactions,
        seed=seed,
        arrival=arrival,
        shards=shards,
        routing=routing,
        tag=f"sh-{shards}x-{routing}",
    )


def _sharded_arrival(regime: str, shards: int):
    """The cluster-wide arrival spec for one (regime, shard count) cell."""
    rate = SHARD_RATE_PER_SHARD * shards
    if regime == "po":
        return PartlyOpenArrivals.for_load(
            rate, SHARD_SESSION_MIX, think_time_s=SHARD_THINK_S
        )
    if regime == "tv":
        return ModulatedArrivals(
            SinusoidRate(base=rate, amplitude=0.35 * rate, period=20.0)
        )
    raise ValueError(f"unknown arrival regime {regime!r}")


def sharded_grid(
    fast: bool = True,
    mpls: Optional[Sequence[int]] = None,
    shard_counts: Sequence[int] = SHARD_COUNTS,
    policies: Sequence[str] = ROUTING_POLICIES,
) -> List[ScenarioSpec]:
    """The scenario grid behind the cluster figure, as data.

    Three blocks, in order: (a) the shard-count sweep under partly-open
    arrivals at the reference routing policy, (b) the routing-policy
    comparison at :data:`SHARD_POLICY_COUNT` shards under partly-open
    arrivals, (c) the same comparison under the time-varying
    (sinusoidal) regime.  ``mpls`` are *per-shard* MPL values.
    """
    if mpls is None:
        mpls = SHARD_MPLS_FAST if fast else SHARD_MPLS
    transactions = 250 if fast else 1200
    specs = [
        _sharded_spec(shards, "least_in_flight", mpl, transactions,
                      _sharded_arrival("po", shards))
        for shards in shard_counts
        for mpl in mpls
    ]
    for regime in ("po", "tv"):
        specs.extend(
            _sharded_spec(SHARD_POLICY_COUNT, policy, mpl, transactions,
                          _sharded_arrival(regime, SHARD_POLICY_COUNT))
            for policy in policies
            for mpl in mpls
        )
    return specs


def sharded_cluster(
    fast: bool = True,
    mpls: Optional[Sequence[int]] = None,
    shard_counts: Sequence[int] = SHARD_COUNTS,
    policies: Sequence[str] = ROUTING_POLICIES,
) -> List[FigureResult]:
    """Cluster scaling: throughput / response time vs MPL by shard count.

    Weak-scaling sweep of the sharded topology: every cluster size
    offers :data:`SHARD_RATE_PER_SHARD` tx/s *per shard*, so linear
    total throughput is the pass criterion, and the per-shard MPL axis
    makes the response-time curves directly comparable across cluster
    sizes.  Two routing-policy panels compare all four policies at the
    same per-shard operating points under the partly-open (`po`) and
    time-varying (`tv`) regimes.
    """
    if mpls is None:
        mpls = SHARD_MPLS_FAST if fast else SHARD_MPLS
    runs = iter(run_grid(sharded_grid(fast, mpls, shard_counts, policies)))
    throughput_by_shards: List[Series] = []
    response_by_shards: List[Series] = []
    for shards in shard_counts:
        results = [next(runs) for _ in mpls]
        label = f"{shards} shard{'s' if shards > 1 else ''}"
        throughput_by_shards.append(
            Series(label=label, ys=tuple(r.throughput for r in results))
        )
        response_by_shards.append(
            Series(label=label, ys=tuple(r.mean_response_time for r in results))
        )
    policy_panels: List[FigureResult] = []
    for regime, title in (
        ("po", "partly-open sessions"),
        ("tv", "time-varying (sinusoidal) load"),
    ):
        series = []
        for policy in policies:
            results = [next(runs) for _ in mpls]
            series.append(
                Series(
                    label=policy,
                    ys=tuple(r.mean_response_time for r in results),
                )
            )
        policy_panels.append(
            FigureResult(
                figure=f"SH-{regime}",
                title=(
                    f"Routing policies at {SHARD_POLICY_COUNT} shards: "
                    f"mean response time vs per-shard MPL, {title}"
                ),
                xlabel="per-shard MPL",
                xs=tuple(float(m) for m in mpls),
                series=tuple(series),
                notes=(
                    f"offered load {SHARD_RATE_PER_SHARD:g} tx/s per shard "
                    f"({regime} regime), global MPL = per-shard MPL x shards",
                ),
            )
        )
    scale_note = (
        f"weak scaling: {SHARD_RATE_PER_SHARD:g} tx/s offered per shard "
        f"(routing: least_in_flight), global MPL = per-shard MPL x shards"
    )
    return [
        FigureResult(
            figure="SH-a",
            title="Cluster throughput vs per-shard MPL by shard count",
            xlabel="per-shard MPL",
            xs=tuple(float(m) for m in mpls),
            series=tuple(throughput_by_shards),
            notes=(scale_note,),
        ),
        FigureResult(
            figure="SH-b",
            title="Cluster mean response time vs per-shard MPL by shard count",
            xlabel="per-shard MPL",
            xs=tuple(float(m) for m in mpls),
            series=tuple(response_by_shards),
            notes=(scale_note,),
        ),
        *policy_panels,
    ]


# -- fault-tolerance figure: kill -> elect -> restore timeline ----------------

#: Shard counts swept by the fault-tolerance figure.
FT_SHARD_COUNTS = (1, 2, 4, 8)

#: Offered load per shard, tx/s (same weak-scaling rate as the cluster
#: figure, so the two sweeps are comparable).
FT_RATE_PER_SHARD = 45.0

#: Per-shard MPL budget handed to the elastic controller.
FT_MPL_PER_SHARD = 8

#: The fault schedule: shard 0's primary dies, the replica group
#: elects, and the dead member is revived five seconds later.
FT_KILL_AT = 3.0
FT_RESTORE_AT = 8.0

#: Timeline resolution; bucket boundaries are anchored at simulated
#: time zero, so every shard count's timeline aligns bucket-for-bucket.
FT_BUCKET_S = 1.0


def _ft_spec(shards: int, duration_s: float, seed: int = DEFAULT_SEED) -> ScenarioSpec:
    """One fault-tolerance cell: replicated cluster + kill/restore."""
    rate = FT_RATE_PER_SHARD * shards
    return ScenarioSpec(
        workload=WorkloadRef(setup_id=1),
        arrival=OpenArrivals(rate=rate),
        topology=TopologySpec(
            shards=shards,
            routing="least_in_flight",
            replicas_per_shard=1,
            read_fanout="round_robin",
        ),
        control=ElasticMpl(mpl=FT_MPL_PER_SHARD * shards, interval_s=1.0),
        faults=FaultSpec(events=(
            KillShard(at=FT_KILL_AT, shard=0),
            RestoreShard(at=FT_RESTORE_AT, shard=0),
        )),
        measurement=MeasurementSpec(
            # transactions scale with the offered rate so every shard
            # count's run covers the whole kill -> elect -> restore arc
            transactions=int(rate * duration_s),
            metrics=("standard", "percentiles", "timeline"),
            timeline_bucket_s=FT_BUCKET_S,
        ),
        seed=seed,
        tag=f"ft-{shards}x",
    )


def fault_tolerance_grid(
    fast: bool = True, shard_counts: Sequence[int] = FT_SHARD_COUNTS
) -> List[ScenarioSpec]:
    """The scenario grid behind the fault-tolerance figure, as data.

    One cell per shard count; the elastic controller owns the MPL axis.
    """
    duration = 12.0 if fast else 20.0
    return [_ft_spec(shards, duration) for shards in shard_counts]


def fault_tolerance(
    fast: bool = True, shard_counts: Sequence[int] = FT_SHARD_COUNTS
) -> List[FigureResult]:
    """Failover timeline: throughput and p95 through kill -> restore.

    Every cluster runs replicated (1 replica per shard) under elastic
    capacity control at :data:`FT_RATE_PER_SHARD` tx/s per shard.  At
    t=3s shard 0's primary fail-stops — its replica group buffers
    queued work, elects the replica, and drains the backlog; at t=8s
    the dead member is revived.  The per-second timeline shows the
    kill-bucket throughput dip and p95 spike, the post-election
    recovery, and (via the elastic controller) the MPL re-split toward
    the surviving capacity.
    """
    runs = run_grid_outcomes(fault_tolerance_grid(fast, shard_counts=shard_counts))
    # one aligned x-axis: the union of every run's bucket times
    xs = tuple(sorted({row["t"] for run in runs for row in run.timeline}))
    throughput_series: List[Series] = []
    p95_series: List[Series] = []
    notes: List[str] = []
    for shards, run in zip(shard_counts, runs):
        by_t = {row["t"]: row for row in run.timeline}
        label = f"{shards} shard{'s' if shards > 1 else ''}"
        throughput_series.append(Series(
            label=label,
            ys=tuple(by_t[t]["throughput"] if t in by_t else _NAN for t in xs),
        ))
        p95_series.append(Series(
            label=label,
            ys=tuple(
                by_t[t]["p95_response_time"] if t in by_t else _NAN for t in xs
            ),
        ))
        elastic = run.control
        fired = "; ".join(
            f"t={fault['at']:g}s {fault['kind']} shard {fault['shard']}"
            for fault in (run.faults or ())
        )
        notes.append(
            f"{label}: faults [{fired}], elastic re-splits "
            f"{elastic.resplits}, final MPL split {elastic.final_mpls}"
        )
    scale_note = (
        f"replicated (1 replica/shard), {FT_RATE_PER_SHARD:g} tx/s per "
        f"shard, elastic global MPL = {FT_MPL_PER_SHARD} x shards; kill "
        f"t={FT_KILL_AT:g}s, restore t={FT_RESTORE_AT:g}s"
    )
    return [
        FigureResult(
            figure="FT-a",
            title="Failover timeline: throughput per second by shard count",
            xlabel="time (s)",
            xs=xs,
            series=tuple(throughput_series),
            notes=(scale_note, *notes),
        ),
        FigureResult(
            figure="FT-b",
            title="Failover timeline: p95 response time per second by shard count",
            xlabel="time (s)",
            xs=xs,
            series=tuple(p95_series),
            notes=(scale_note,),
        ),
    ]


# -- replica read-fanout figure: replicas x fan-out sensitivity --------------

#: Shard count held fixed while the replica axis sweeps.
RF_SHARDS = 2

#: Replica counts swept (0 = the unreplicated baseline).
RF_REPLICA_COUNTS = (0, 1, 2)

#: Offered load per shard, tx/s — ≈ 87% of setup 3's closed capacity
#: (≈ 11.5 tx/s at MPL 8), so the primary runs near saturation when it
#: handles every read itself and fan-out has headroom to relieve it.
RF_RATE_PER_SHARD = 10.0

#: Per-shard MPL budget (static — the replica axis is the experiment).
RF_MPL_PER_SHARD = 8


def _rf_fanouts(replicas: int) -> Tuple[str, ...]:
    """Fan-out policies worth running at a replica count.

    With no replicas every policy routes reads to the primary, so only
    the ``primary`` cell runs; with replicas all three policies differ.
    """
    return ("primary",) if replicas == 0 else tuple(READ_FANOUT_POLICIES)


def _rf_spec(
    replicas: int, fanout: str, transactions: int, seed: int = DEFAULT_SEED
) -> ScenarioSpec:
    """One read-fanout cell: replicated cluster at fixed offered load."""
    return ScenarioSpec(
        workload=WorkloadRef(setup_id=3),
        arrival=OpenArrivals(rate=RF_RATE_PER_SHARD * RF_SHARDS),
        topology=TopologySpec(
            shards=RF_SHARDS,
            routing="least_in_flight",
            replicas_per_shard=replicas,
            read_fanout=fanout,
        ),
        control=StaticMpl(mpl=RF_MPL_PER_SHARD * RF_SHARDS),
        measurement=MeasurementSpec(transactions=transactions),
        seed=seed,
        tag=f"rf-{replicas}r-{fanout}",
    )


def replica_fanout_grid(fast: bool = True) -> List[ScenarioSpec]:
    """The scenario grid behind the read-fanout figure, as data.

    One cell per (replica count, fan-out policy); the MPL is held
    fixed — the replica axis is the experiment.
    """
    transactions = 350 if fast else 1200
    return [
        _rf_spec(replicas, fanout, transactions)
        for replicas in RF_REPLICA_COUNTS
        for fanout in _rf_fanouts(replicas)
    ]


def replica_fanout(fast: bool = True) -> List[FigureResult]:
    """Read fan-out sensitivity: replicas per shard x fan-out policy.

    Setup 3 (TPC-W Browsing, 95% reads) on a 2-shard cluster at fixed
    offered load near single-engine saturation.  With ``primary``
    fan-out replicas are pure failover spares — response time never
    moves off the unreplicated baseline — while ``round_robin`` and
    ``least_in_flight`` spread the read mix across the group, relieving
    the near-saturated primary.  Throughput barely moves (the system is
    open: completions track arrivals while stable), so response time
    carries the signal.
    """
    specs = replica_fanout_grid(fast)
    cells = {
        (spec.topology.replicas_per_shard, spec.topology.read_fanout): result
        for spec, result in zip(specs, run_grid(specs))
    }
    xs = tuple(float(r) for r in RF_REPLICA_COUNTS)
    throughput_series: List[Series] = []
    response_series: List[Series] = []
    for fanout in READ_FANOUT_POLICIES:
        picks = [
            cells.get((replicas, fanout if replicas else "primary"))
            if (replicas or fanout == "primary") else None
            for replicas in RF_REPLICA_COUNTS
        ]
        throughput_series.append(Series(
            label=fanout,
            ys=tuple(r.throughput if r else _NAN for r in picks),
        ))
        response_series.append(Series(
            label=fanout,
            ys=tuple(r.mean_response_time if r else _NAN for r in picks),
        ))
    scale_note = (
        f"setup 3 (TPC-W Browsing, 95% reads), {RF_SHARDS} shards, "
        f"{RF_RATE_PER_SHARD:g} tx/s per shard (≈87% of single-engine "
        f"capacity), static MPL = {RF_MPL_PER_SHARD} x shards"
    )
    return [
        FigureResult(
            figure="RF-a",
            title="Throughput vs replicas per shard by read fan-out",
            xlabel="replicas per shard",
            xs=xs,
            series=tuple(throughput_series),
            notes=(scale_note,),
        ),
        FigureResult(
            figure="RF-b",
            title="Mean response time vs replicas per shard by read fan-out",
            xlabel="replicas per shard",
            xs=xs,
            series=tuple(response_series),
            notes=(
                scale_note,
                "primary fan-out leaves replicas idle: its curve is flat "
                "at the unreplicated baseline",
            ),
        ),
    ]


# -- resilience figure: retry storm vs hardened goodput ----------------------

#: Shard count for the resilience cells (breakers need > 1 shard).
RS_SHARDS = 2

#: Offered load, tx/s — a few percent over the 2-shard capacity at
#: MPL 8 per shard, so the degrade + kill arc pushes the cluster into
#: genuine overload instead of just eating headroom.
RS_RATE = 100.0

#: Per-shard MPL budget (static — the resilience axis is the experiment).
RS_MPL_PER_SHARD = 8

#: Admission-to-completion budget shared by both resilient cells.
RS_DEADLINE_S = 0.6
RS_MAX_ATTEMPTS = 3

#: The fault schedule: shard 1 loses 70% of its capacity, then shard 0
#: fail-stops while shard 1 is still degraded, then shard 0 revives.
RS_DEGRADE_AT = 2.0
RS_KILL_AT = 4.0
RS_RESTORE_AT = 8.0

#: Timeline resolution (anchored at simulated time zero).
RS_BUCKET_S = 1.0

#: The three cells.  ``naive`` retries instantly with no backoff, no
#: queue cap, and no breaker — the classic retry storm; ``hardened``
#: spends the same retry budget with exponential backoff + jitter,
#: sheds the newest low-class work at a bounded queue, and routes
#: around unhealthy shards via circuit breakers.
RS_VARIANTS: Dict[str, Optional[ResilienceSpec]] = {
    "baseline": None,
    "naive": ResilienceSpec(
        deadline_s=RS_DEADLINE_S,
        max_attempts=RS_MAX_ATTEMPTS,
        base_backoff_s=0.0,
    ),
    "hardened": ResilienceSpec(
        deadline_s=RS_DEADLINE_S,
        max_attempts=RS_MAX_ATTEMPTS,
        base_backoff_s=0.25,
        backoff_multiplier=2.0,
        jitter_fraction=0.5,
        queue_cap=24,
        shed_policy="by_class",
        breaker_enabled=True,
        breaker_window=10,
        breaker_timeout_threshold=0.4,
        breaker_response_time_s=0.45,
        breaker_open_s=1.0,
    ),
}


def _rs_spec(
    variant: str, duration_s: float, seed: int = DEFAULT_SEED
) -> ScenarioSpec:
    """One resilience cell: overloaded 2-shard cluster + degrade/kill."""
    return ScenarioSpec(
        workload=WorkloadRef(setup_id=1),
        arrival=OpenArrivals(rate=RS_RATE),
        topology=TopologySpec(shards=RS_SHARDS, routing="least_in_flight"),
        control=StaticMpl(mpl=RS_MPL_PER_SHARD * RS_SHARDS),
        faults=FaultSpec(events=(
            DegradeShard(at=RS_DEGRADE_AT, shard=1, factor=0.3),
            KillShard(at=RS_KILL_AT, shard=0),
            RestoreShard(at=RS_RESTORE_AT, shard=0),
        )),
        resilience=RS_VARIANTS[variant],
        measurement=MeasurementSpec(
            transactions=int(RS_RATE * duration_s),
            metrics=("standard", "percentiles", "timeline"),
            timeline_bucket_s=RS_BUCKET_S,
        ),
        seed=seed,
        tag=f"rs-{variant}",
    )


def resilience_grid(fast: bool = True) -> List[ScenarioSpec]:
    """The scenario grid behind the resilience figure, as data.

    One cell per resilience variant; the MPL is held fixed — the
    resilience axis is the experiment.
    """
    duration = 12.0 if fast else 20.0
    return [_rs_spec(variant, duration) for variant in RS_VARIANTS]


def resilience(fast: bool = True) -> List[FigureResult]:
    """Goodput under a retry storm, naive vs hardened.

    Three runs of one overloaded 2-shard cluster through the same
    degrade -> kill -> restore arc.  The ``baseline`` cell has no
    deadlines, so every commit counts; ``naive`` arms a 0.6 s deadline
    with three instant retries and nothing else — timed-out work
    re-enters the queue immediately, inflating the load the timeouts
    came from, and goodput collapses while attempted work soars;
    ``hardened`` spends the identical retry budget with exponential
    backoff + seeded jitter, a bounded queue shedding newest low-class
    work, and per-shard circuit breakers that route around the
    degraded shard — goodput stays near the baseline.
    """
    specs = resilience_grid(fast)
    runs = run_grid_outcomes(specs)
    xs = tuple(sorted({row["t"] for run in runs for row in run.timeline}))
    goodput_series: List[Series] = []
    storm_series: List[Series] = []
    notes: List[str] = []
    for spec, run in zip(specs, runs):
        variant = spec.tag[len("rs-"):]
        by_t = {row["t"]: row for row in run.timeline}
        goodput_series.append(Series(
            label=variant,
            # without a deadline every commit is within budget, so the
            # baseline's throughput is its goodput
            ys=tuple(
                by_t[t].get("goodput", by_t[t]["throughput"])
                if t in by_t else _NAN
                for t in xs
            ),
        ))
        summary = run.resilience
        if summary is None:
            notes.append(
                f"{variant}: no deadlines — throughput "
                f"{run.result.throughput:.1f} tx/s is all goodput"
            )
            continue
        storm_series.append(Series(
            label=f"{variant} attempts",
            ys=tuple(
                by_t[t]["attempt_throughput"] if t in by_t else _NAN
                for t in xs
            ),
        ))
        storm_series.append(Series(
            label=f"{variant} goodput",
            ys=tuple(by_t[t]["goodput"] if t in by_t else _NAN for t in xs),
        ))
        breaker_note = ""
        if summary.get("breakers"):
            flips = sum(len(b["transitions"]) for b in summary["breakers"])
            breaker_note = f", breaker transitions {flips}"
        notes.append(
            f"{variant}: admitted {summary['admitted']}, committed in "
            f"budget {summary['completed']}, timed out "
            f"{summary['timed_out']}, shed {summary['shed']}, retries "
            f"{summary['retries']}{breaker_note}"
        )
    scale_note = (
        f"{RS_SHARDS} shards, {RS_RATE:g} tx/s offered, static MPL = "
        f"{RS_MPL_PER_SHARD} x shards, deadline {RS_DEADLINE_S:g}s, "
        f"{RS_MAX_ATTEMPTS} retries; degrade shard 1 x0.3 "
        f"t={RS_DEGRADE_AT:g}s, kill shard 0 t={RS_KILL_AT:g}s, restore "
        f"t={RS_RESTORE_AT:g}s"
    )
    return [
        FigureResult(
            figure="RS-a",
            title="Goodput per second through degrade -> kill -> restore",
            xlabel="time (s)",
            xs=xs,
            series=tuple(goodput_series),
            notes=(scale_note, *notes),
        ),
        FigureResult(
            figure="RS-b",
            title="Retry storm: attempted vs useful work per second",
            xlabel="time (s)",
            xs=xs,
            series=tuple(storm_series),
            notes=(
                scale_note,
                "the gap between an attempts curve and its goodput curve "
                "is wasted work: deadline-aborted executions and their "
                "retries",
            ),
        ),
    ]


# -- cross-shard transactions: static split vs cluster SLO control -----------

#: Shard counts of the xs sweep (fast mode drops the 8-shard column).
XS_SHARD_COUNTS = (2, 4, 8)
XS_SHARD_COUNTS_FAST = (2, 4)

#: Cross-shard fraction axis; 0 means no distributed axis at all, so
#: that column doubles as the bit-identity baseline.
XS_FRACTIONS = (0.0, 0.05, 0.2, 0.5)
XS_FRACTIONS_FAST = (0.0, 0.2, 0.5)

#: Offered load per shard, tx/s — ~90% of setup 1's open capacity, so
#: the admission level decides whether the SLO holds.
XS_RATE_PER_SHARD = 58.0

#: The static cell's per-shard MPL: the throughput-tuned single-shard
#: choice.  Over-admitting is near-harmless at fraction 0 (priority
#: scheduling still protects HIGH), but cross-shard branches hold
#: their locks through the prepare gate for the *slowest* sibling's
#: duration, and at this MPL those holds convoy — HIGH p95 drifts
#: over target as the fraction grows.
XS_MPL_PER_SHARD = 32

#: 2PC shape: up to four participants, generous prepare budget (the
#: pathology under study is lock convoying, not timeout storms).
XS_FANOUT_K = 4
XS_PREPARE_TIMEOUT_S = 2.0

#: Priority mix and the cluster-wide SLO the controller must hold.
XS_HIGH_FRACTION = 0.2
XS_P95_TARGET_S = 0.5

#: Completions measured per cell scale with the cluster so every shard
#: count sees a comparable per-shard sample.  p95 over the HIGH class
#: needs the head room: at XS_HIGH_FRACTION only one completion in
#: five lands in the tail statistic's sample.
XS_TXNS_PER_SHARD = 300
XS_TXNS_PER_SHARD_FAST = 300

#: ClusterSlo observation window (completions per probe) — wider than
#: the controller default so each p95 probe sees enough HIGH samples.
XS_SLO_WINDOW = 300

#: ClusterSlo search ceiling (per shard).
XS_SLO_MAX_MPL_PER_SHARD = 64

#: The two control cells compared at every (shards, fraction) point.
XS_CONTROLS = ("static", "slo")


def _xs_spec(
    shards: int,
    fraction: float,
    control: str,
    transactions: int,
    seed: int = DEFAULT_SEED,
) -> ScenarioSpec:
    """One xs cell: a hash-routed cluster at a fixed cross-shard mix."""
    spec = scenario_for(
        get_setup(1),
        mpl=XS_MPL_PER_SHARD * shards,
        transactions=transactions,
        seed=seed,
        arrival=OpenArrivals(rate=XS_RATE_PER_SHARD * shards),
        shards=shards,
        routing="hash",
        policy="priority",
        high_priority_fraction=XS_HIGH_FRACTION,
        tag=f"xs-{shards}x-{control}-f{fraction:g}",
    )
    distributed = (
        DistributedSpec(
            cross_shard_fraction=fraction,
            fanout_k=min(XS_FANOUT_K, shards),
            prepare_timeout_s=XS_PREPARE_TIMEOUT_S,
        )
        if fraction > 0
        else None
    )
    replacements: Dict[str, object] = {
        "distributed": distributed,
        "measurement": dataclasses.replace(
            spec.measurement, metrics=("standard", "percentiles")
        ),
    }
    if control == "slo":
        replacements["control"] = ClusterSlo(
            high_p95_target_s=XS_P95_TARGET_S,
            initial_mpl=XS_MPL_PER_SHARD * shards,
            window=XS_SLO_WINDOW,
            max_mpl=XS_SLO_MAX_MPL_PER_SHARD * shards,
        )
    return dataclasses.replace(spec, **replacements)


def cross_shard_grid(fast: bool = True) -> List[ScenarioSpec]:
    """The scenario grid behind the cross-shard figure, as data.

    Order: shard counts outermost, then control (static, slo), then
    the fraction axis.  The MPL policy *is* the experiment.
    """
    shard_counts = XS_SHARD_COUNTS_FAST if fast else XS_SHARD_COUNTS
    fractions = XS_FRACTIONS_FAST if fast else XS_FRACTIONS
    per_shard = XS_TXNS_PER_SHARD_FAST if fast else XS_TXNS_PER_SHARD
    return [
        _xs_spec(shards, fraction, control, per_shard * shards)
        for shards in shard_counts
        for control in XS_CONTROLS
        for fraction in fractions
    ]


def cross_shard(fast: bool = True) -> List[FigureResult]:
    """Cross-shard 2PC: static MPL split vs cluster-wide SLO control.

    Sweeps the cross-shard transaction fraction at 2/4/8 shards under
    simulated two-phase commit.  The static cells keep the
    throughput-tuned per-shard MPL split; as the fraction grows, 2PC
    branches hold locks through the prepare gate for the slowest
    sibling and the over-admitted shards convoy, pushing cluster-wide
    HIGH p95 past the target.  The ``ClusterSlo`` cells search the
    global MPL budget (health-aware split) for the highest admission
    that still meets the HIGH p95 target, holding the SLO at every
    fraction while giving up little LOW throughput.

    The cells go through :func:`run_grid_outcomes`: the figure reads
    their percentile, control and 2PC blocks, which whole-outcome cache
    entries carry.
    """
    shard_counts = XS_SHARD_COUNTS_FAST if fast else XS_SHARD_COUNTS
    fractions = XS_FRACTIONS_FAST if fast else XS_FRACTIONS
    runs = run_grid_outcomes(cross_shard_grid(fast))
    high_key = str(int(Priority.HIGH))
    p95_series: List[Series] = []
    throughput_series: List[Series] = []
    notes: List[str] = [
        f"{XS_RATE_PER_SHARD:g} tx/s per shard offered, static MPL = "
        f"{XS_MPL_PER_SHARD} x shards, fanout <= {XS_FANOUT_K}, prepare "
        f"timeout {XS_PREPARE_TIMEOUT_S:g}s, HIGH p95 target "
        f"{XS_P95_TARGET_S:g}s",
    ]
    cells = iter(runs)
    for shards in shard_counts:
        for control in XS_CONTROLS:
            chunk = [next(cells) for _ in fractions]
            label = f"{shards}sh {control}"
            p95_series.append(Series(
                label=label,
                ys=tuple(
                    (run.percentiles.get(high_key) or {}).get("p95", _NAN)
                    for run in chunk
                ),
            ))
            throughput_series.append(Series(
                label=label,
                ys=tuple(run.result.throughput for run in chunk),
            ))
            if control == "slo":
                final_mpls = [
                    str(getattr(run.control, "final_mpl", "?")) for run in chunk
                ]
                notes.append(
                    f"{shards} shards: ClusterSlo final MPL by fraction = "
                    + ", ".join(final_mpls)
                )
            aborts = sum(
                (run.distributed or {}).get("aborts", 0) for run in chunk
            )
            if aborts:
                notes.append(f"{label}: {aborts} 2PC aborts across the sweep")
    return [
        FigureResult(
            figure="XS-a",
            title="Cluster-wide HIGH p95 vs cross-shard fraction",
            xlabel="cross-shard fraction",
            xs=tuple(fractions),
            series=tuple(p95_series),
            notes=tuple(notes),
        ),
        FigureResult(
            figure="XS-b",
            title="Cluster throughput vs cross-shard fraction",
            xlabel="cross-shard fraction",
            xs=tuple(fractions),
            series=tuple(throughput_series),
            notes=(
                "2PC splits a cross-shard transaction's demand across its "
                "participants, so offered work is fraction-invariant — "
                "throughput lost at high fraction is pure coordination "
                "overhead (convoyed locks, parked MPL slots)",
            ),
        ),
    ]


# -- elastic capacity: static split vs ElasticMpl under skew and swings ------

#: Shard count of the es cells (the skew/swing comparison point).
ES_SHARDS = 4

#: Per-shard MPL axis shared by the static and elastic cells.
ES_MPLS = (2, 4, 8, 16)
ES_MPLS_FAST = (2, 8)

#: Arrival regimes: hash routing pins work to shards, so the steady
#: (`po`) regime still carries binomial placement skew, and the
#: sinusoidal (`tv`) regime adds cluster-wide load swings on top.
ES_REGIMES = ("po", "tv")


def _es_spec(
    regime: str,
    per_shard_mpl: int,
    elastic: bool,
    transactions: int,
    seed: int = DEFAULT_SEED,
) -> ScenarioSpec:
    """One es cell: hash-routed cluster, static or elastic MPL split."""
    spec = scenario_for(
        get_setup(1),
        mpl=per_shard_mpl * ES_SHARDS,
        transactions=transactions,
        seed=seed,
        arrival=_sharded_arrival(regime, ES_SHARDS),
        shards=ES_SHARDS,
        routing="hash",
        tag=f"es-{regime}-{'elastic' if elastic else 'static'}",
    )
    if elastic:
        spec = dataclasses.replace(
            spec,
            control=ElasticMpl(mpl=per_shard_mpl * ES_SHARDS, interval_s=1.0),
        )
    return spec


def elastic_grid(
    fast: bool = True, mpls: Optional[Sequence[int]] = None
) -> List[ScenarioSpec]:
    """The scenario grid behind the elastic-capacity figure, as data.

    Order: regime outermost, then control (static, elastic), then the
    per-shard MPL axis.
    """
    if mpls is None:
        mpls = ES_MPLS_FAST if fast else ES_MPLS
    transactions = 250 if fast else 1200
    return [
        _es_spec(regime, mpl, elastic, transactions)
        for regime in ES_REGIMES
        for elastic in (False, True)
        for mpl in mpls
    ]


def elastic_capacity(
    fast: bool = True, mpls: Optional[Sequence[int]] = None
) -> List[FigureResult]:
    """Static MPL split vs ElasticMpl under hash skew and load swings.

    Hash routing pins each transaction to its partition's shard, so
    the per-shard load is skewed (binomial placement) and, in the
    ``tv`` regime, also swings sinusoidally.  A static split gives
    every shard the same admission budget regardless; ``ElasticMpl``
    re-splits the same global budget toward loaded shards every
    second.  Throughput and mean response time vs the per-shard MPL
    axis compare the two under both regimes.
    """
    if mpls is None:
        mpls = ES_MPLS_FAST if fast else ES_MPLS
    runs = iter(run_grid(elastic_grid(fast, mpls)))
    throughput_series: List[Series] = []
    response_series: List[Series] = []
    for regime in ES_REGIMES:
        for control in ("static", "elastic"):
            chunk = [next(runs) for _ in mpls]
            label = f"{regime} {control}"
            throughput_series.append(Series(
                label=label, ys=tuple(r.throughput for r in chunk)
            ))
            response_series.append(Series(
                label=label,
                ys=tuple(r.mean_response_time for r in chunk),
            ))
    scale_note = (
        f"{ES_SHARDS} shards, hash routing, "
        f"{SHARD_RATE_PER_SHARD:g} tx/s per shard offered; elastic "
        f"cells re-split the same global budget every 1s"
    )
    return [
        FigureResult(
            figure="ES-a",
            title="Throughput vs per-shard MPL: static vs elastic split",
            xlabel="per-shard MPL",
            xs=tuple(float(m) for m in mpls),
            series=tuple(throughput_series),
            notes=(scale_note,),
        ),
        FigureResult(
            figure="ES-b",
            title="Mean response time vs per-shard MPL",
            xlabel="per-shard MPL",
            xs=tuple(float(m) for m in mpls),
            series=tuple(response_series),
            notes=(scale_note,),
        ),
    ]


# -- grid registry (for `repro.experiments bench`, `scenario --grid` and CI) --

#: Figure key -> ``(fast) -> [ScenarioSpec]``: every figure grid that
#: does not depend on an earlier grid's results, as data.  ``bench``
#: runs any of these through the parallel runner.
FIGURE_GRIDS: Dict[str, Callable[[bool], List[ScenarioSpec]]] = {
    **{key: functools.partial(throughput_figure_grid, key) for key in THROUGHPUT_FIGURES},
    "smoke": smoke_grid,
    "sh": sharded_grid,
    "ft": fault_tolerance_grid,
    "rf": replica_fanout_grid,
    "rs": resilience_grid,
    "xs": cross_shard_grid,
    "es": elastic_grid,
    "po": partly_open_grid,
}
