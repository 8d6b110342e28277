"""Replicated-seed equivalence gate: did a change move what the model says?

A change that only reorders floating-point work (a faster PS pool, a
different summation order) moves every result digest, so digest pins
cannot tell it from a change of behaviour.  This gate can::

    python -m repro.experiments equiv --record EQUIV_pool.json
    python -m repro.experiments equiv --against EQUIV_pool.json --jobs 2

``--record`` runs every cell of the covered grids (:data:`EQUIV_GRIDS`:
figures 2–5, ``sh``, ``xs``, ``rs``) at ``K`` replicated seeds
(:func:`~repro.sim.random.replicate_seeds` of the cell's own seed) and
stores each run's :func:`cell_metrics` as full-precision floats.
``--against`` reruns the same cells at the same seeds with the code in
the working tree and compares by paired differences: per cell, each
seed's candidate-minus-reference difference is scaled by the cell's mean
absolute reference value, and a difference within :data:`ROUNDING` counts
as zero; per (grid, metric), the cell x seed pairs are pooled into one
two-sided paired t-test; Holm's step-down procedure
holds the family-wise error rate at :data:`ALPHA` across all those
tests.  The gate passes when Holm rejects none.  It also reports a 95%
confidence interval per test and per cell.

The gate decides whether a documented re-pin of moved digests is
allowed; it never replaces a pin.  It never reads the result cache: a
cache entry is keyed by the spec alone, so it would serve the
reference's numbers to the candidate.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import platform
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.scenario import METRIC_SETS, ScenarioOutcome, ScenarioSpec
from repro.experiments.figures import FIGURE_GRIDS
from repro.experiments.parallel import ParallelRunner
from repro.sim.random import replicate_seeds

#: The grids the gate covers.
EQUIV_GRIDS: Tuple[str, ...] = ("2", "3", "4", "5", "sh", "xs", "rs")
#: Replicated seeds per cell.
REPLICATES = 8
#: Family-wise error rate across every (grid, metric) test.
ALPHA = 0.05
#: Scaled differences this small are float rounding, not behaviour:
#: they count as zero (a reordered sum, another CPython's ``sum``).
ROUNDING = 1e-9

Metrics = Dict[str, Optional[float]]


def cell_metrics(outcome: ScenarioOutcome) -> Metrics:
    """What the gate compares from one run.

    Throughput, mean response time, per-class mean response time and
    p95 (``all`` pools the classes), and, where the outcome has them,
    the resilience dispositions as shares of admitted transactions
    (``goodput_share`` is the committed share) and the 2PC commit and
    abort shares of cross-shard attempts.
    """
    result = outcome.result
    metrics: Metrics = {
        "throughput": result.throughput,
        "mean_rt": result.mean_response_time,
    }
    for priority, mean in sorted(result.response_time_by_class.items()):
        metrics[f"rt_class{int(priority)}"] = mean
    for key, quantiles in sorted((outcome.percentiles or {}).items()):
        metrics[f"p95_{key}"] = quantiles["p95"]
    resilience = outcome.resilience
    if resilience and resilience["admitted"]:
        admitted = resilience["admitted"]
        metrics["goodput_share"] = resilience["completed"] / admitted
        for disposition in ("timed_out", "shed", "in_flight"):
            metrics[f"{disposition}_share"] = resilience[disposition] / admitted
    distributed = outcome.distributed
    if distributed and distributed["attempts"]:
        metrics["commit_share"] = distributed["commits"] / distributed["attempts"]
        metrics["abort_share"] = distributed["aborts"] / distributed["attempts"]
    return {
        name: value if value is not None and math.isfinite(value) else None
        for name, value in metrics.items()
    }


def replicate(spec: ScenarioSpec, seed: int) -> ScenarioSpec:
    """``spec`` at ``seed``, also reporting per-class percentiles."""
    metrics = set(spec.measurement.metrics) | {"percentiles"}
    measurement = dataclasses.replace(
        spec.measurement, metrics=tuple(m for m in METRIC_SETS if m in metrics)
    )
    return dataclasses.replace(spec, seed=seed, measurement=measurement)


def _label(spec: ScenarioSpec) -> str:
    name = spec.tag or f"setup {spec.workload.setup_id}"
    return f"{name} mpl {spec.control.config_mpl()}"


def collect(
    grids: Dict[str, Sequence[ScenarioSpec]],
    seeds: Callable[[ScenarioSpec], Sequence[int]],
    jobs: int = 1,
) -> Dict[str, List[dict]]:
    """Run every distinct cell of ``grids`` at ``seeds(cell)``.

    Returns grid -> ``[{"cell", "fingerprint", "seeds", "metrics"}]``
    with ``metrics`` mapping each metric to its per-seed values (None
    where a run has no value for it).
    """
    cells = {
        name: list({spec.fingerprint(): spec for spec in specs}.items())
        for name, specs in grids.items()
    }
    runs = [
        replicate(spec, seed)
        for entries in cells.values()
        for _fingerprint, spec in entries
        for seed in seeds(spec)
    ]
    outcomes = iter(ParallelRunner(jobs=jobs).run_outcomes(runs))
    collected: Dict[str, List[dict]] = {}
    for name, entries in cells.items():
        collected[name] = []
        for fingerprint, spec in entries:
            cell_seeds = list(seeds(spec))
            per_seed = [cell_metrics(next(outcomes)) for _seed in cell_seeds]
            names = sorted({metric for values in per_seed for metric in values})
            collected[name].append({
                "cell": _label(spec),
                "fingerprint": fingerprint,
                "seeds": cell_seeds,
                "metrics": {
                    metric: [values.get(metric) for values in per_seed]
                    for metric in names
                },
            })
    return collected


def record(jobs: int = 1) -> dict:
    """The reference document for ``--record``: every cell of
    :data:`EQUIV_GRIDS` at :data:`REPLICATES` seeds."""
    return {
        "about": "Equivalence-gate reference (python -m repro.experiments "
        "equiv): per covered grid, each cell's metrics at each replicated "
        "seed, as full-precision floats.",
        "replicates": REPLICATES,
        "python": platform.python_version(),
        "grids": collect(
            {name: FIGURE_GRIDS[name](True) for name in EQUIV_GRIDS},
            lambda spec: replicate_seeds(spec.seed, REPLICATES),
            jobs,
        ),
    }


def rerun(reference: dict, jobs: int = 1) -> Dict[str, List[dict]]:
    """Run the reference's cells at its seeds with the working tree's code.

    Raises ValueError when a covered grid no longer has the cells the
    reference recorded (the grid changed: record a new reference at the
    parent commit).
    """
    grids: Dict[str, List[ScenarioSpec]] = {}
    seeds: Dict[str, List[int]] = {}
    for name, cells in reference["grids"].items():
        builder = FIGURE_GRIDS.get(name)
        specs = {spec.fingerprint(): spec for spec in builder(True)} if builder else {}
        missing = [cell["cell"] for cell in cells if cell["fingerprint"] not in specs]
        if missing:
            raise ValueError(
                f"grid {name!r} no longer has {len(missing)} recorded cell(s) "
                f"(first: {missing[0]}); record the reference again at the parent"
            )
        grids[name] = [specs[cell["fingerprint"]] for cell in cells]
        seeds.update((cell["fingerprint"], cell["seeds"]) for cell in cells)
    return collect(grids, lambda spec: seeds[spec.fingerprint()], jobs)


# -- statistics ---------------------------------------------------------------


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    fraction = d
    for m in range(1, 500):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            fraction *= c * d
        if abs(c * d - 1.0) < 1e-15:
            break
    return fraction


def _beta_regularized(a: float, b: float, x: float) -> float:
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def t_two_sided_p(t: float, df: int) -> float:
    """Two-sided p-value of Student's t statistic ``t`` at ``df``."""
    return _beta_regularized(df / 2.0, 0.5, df / (df + t * t))


@functools.lru_cache(maxsize=None)
def t_critical(df: int) -> float:
    """The two-sided 95% quantile of Student's t (by bisection)."""
    low, high = 0.0, 1e3
    for _ in range(200):
        middle = (low + high) / 2.0
        if t_two_sided_p(middle, df) > 0.05:
            low = middle
        else:
            high = middle
    return high


@dataclasses.dataclass
class PairedTest:
    """A paired t-test over scaled candidate-minus-reference differences.

    Differences within :data:`ROUNDING` count as zero; ``largest`` keeps
    the largest magnitude as measured.
    """

    n: int
    mean: float
    half_width: float
    p: float
    largest: float

    @classmethod
    def of(cls, differences: Sequence[float]) -> "PairedTest":
        n = len(differences)
        largest = max(map(abs, differences), default=0.0)
        differences = [d if abs(d) > ROUNDING else 0.0 for d in differences]
        mean = sum(differences) / n if n else 0.0
        if n < 2:
            return cls(n, mean, math.inf, 1.0, largest)
        variance = sum((d - mean) ** 2 for d in differences) / (n - 1)
        if variance == 0.0:
            return cls(n, mean, 0.0, 1.0 if mean == 0.0 else 0.0, largest)
        error = math.sqrt(variance / n)
        return cls(
            n, mean, t_critical(n - 1) * error, t_two_sided_p(mean / error, n - 1),
            largest,
        )

    @property
    def interval(self) -> str:
        return f"[{self.mean - self.half_width:+.4f}, {self.mean + self.half_width:+.4f}]"


def scaled_differences(reference: dict, candidate: dict, metric: str) -> List[float]:
    """One cell's per-seed (candidate - reference) / mean |reference| for
    ``metric``, over the seeds both runs have a value at."""
    ref_values = dict(zip(reference["seeds"], reference["metrics"].get(metric, ())))
    cand_values = dict(zip(candidate["seeds"], candidate["metrics"].get(metric, ())))
    pairs = [
        (ref_values[seed], cand_values[seed])
        for seed in reference["seeds"]
        if ref_values.get(seed) is not None and cand_values.get(seed) is not None
    ]
    if not pairs:
        return []
    scale = sum(abs(ref) for ref, _cand in pairs) / len(pairs) or 1.0
    return [(cand - ref) / scale for ref, cand in pairs]


@dataclasses.dataclass
class GateRow:
    """One (grid, metric) test and its Holm verdict."""

    grid: str
    metric: str
    test: PairedTest
    threshold: float = math.nan
    rejected: bool = False


@dataclasses.dataclass
class Comparison:
    rows: List[GateRow]
    #: grid -> [(cell label, {metric: PairedTest})]
    cells: Dict[str, List[Tuple[str, Dict[str, PairedTest]]]]

    @property
    def passed(self) -> bool:
        return not any(row.rejected for row in self.rows)


def holm(rows: List[GateRow]) -> None:
    """Holm's step-down procedure: set each row's threshold and verdict."""
    ordered = sorted(rows, key=lambda row: row.test.p)
    rejecting = True
    for rank, row in enumerate(ordered):
        row.threshold = ALPHA / (len(ordered) - rank)
        rejecting = rejecting and row.test.p <= row.threshold
        row.rejected = rejecting


def compare(
    reference: Dict[str, List[dict]],
    candidate: Dict[str, List[dict]],
) -> Comparison:
    """Pool each (grid, metric)'s cell x seed pairs, test, apply Holm."""
    rows: List[GateRow] = []
    cells: Dict[str, List[Tuple[str, Dict[str, PairedTest]]]] = {}
    for grid, ref_cells in reference.items():
        by_fingerprint = {cell["fingerprint"]: cell for cell in candidate.get(grid, ())}
        pooled: Dict[str, List[float]] = {}
        cells[grid] = []
        for ref_cell in ref_cells:
            cand_cell = by_fingerprint.get(ref_cell["fingerprint"])
            if cand_cell is None:
                continue
            per_metric = {}
            for metric in ref_cell["metrics"]:
                differences = scaled_differences(ref_cell, cand_cell, metric)
                pooled.setdefault(metric, []).extend(differences)
                per_metric[metric] = PairedTest.of(differences)
            cells[grid].append((ref_cell["cell"], per_metric))
        rows.extend(
            GateRow(grid, metric, PairedTest.of(differences))
            for metric, differences in pooled.items()
            if len(differences) >= 2
        )
    holm(rows)
    return Comparison(rows, cells)


def render(comparison: Comparison, source: str) -> str:
    """The gate's report as markdown: the tests, the verdict, per-cell CIs."""
    lines = [
        f"## Equivalence gate against {source}",
        "",
        "Differences are (candidate - reference) / mean |reference| per cell,",
        "paired by seed; each row pools a grid's cell x seed pairs; differences",
        f"within {ROUNDING:g} are float rounding and count as zero.",
        "",
        "| grid | metric | pairs | mean diff | 95% CI | max abs diff | p "
        "| Holm threshold | verdict |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for row in comparison.rows:
        test = row.test
        lines.append(
            f"| {row.grid} | {row.metric} | {test.n} | {test.mean:+.4f} | "
            f"{test.interval} | {test.largest:.2g} | {test.p:.3g} | {row.threshold:.3g} | "
            f"{'REJECT' if row.rejected else 'ok'} |"
        )
    rejected = sum(row.rejected for row in comparison.rows)
    lines += [
        "",
        f"**{'PASS' if comparison.passed else 'FAIL'}**: Holm at family-wise "
        f"alpha = {ALPHA} rejects {rejected} of {len(comparison.rows)} tests.",
        "",
        "### Per cell: mean scaled difference [95% CI] over seeds",
        "",
        "| grid | cell | throughput | mean_rt |",
        "|---|---|---|---|",
    ]
    for grid, cells in comparison.cells.items():
        for label, tests in cells:
            columns = [
                f"{tests[metric].mean:+.4f} {tests[metric].interval}"
                if metric in tests else "-"
                for metric in ("throughput", "mean_rt")
            ]
            lines.append(f"| {grid} | {label} | {' | '.join(columns)} |")
    return "\n".join(lines)


def dumps(reference: dict) -> str:
    """JSON text with one line per cell, so a re-record diffs by cell."""
    def encode(value, depth: int) -> str:
        if depth == 3 or not isinstance(value, (dict, list)):
            return json.dumps(value, sort_keys=True)
        pad = "\n" + " " * (depth + 1)
        if isinstance(value, dict):
            items = [
                f"{json.dumps(key)}: {encode(item, depth + 1)}"
                for key, item in sorted(value.items())
            ]
            return "{" + pad + ("," + pad).join(items) + "\n" + " " * depth + "}"
        items = [encode(item, depth + 1) for item in value]
        return "[" + pad + ("," + pad).join(items) + "\n" + " " * depth + "]"

    return encode(reference, 0) + "\n"
