"""Ablations for the design choices DESIGN.md calls out.

* balanced vs utilization-weighted throughput model;
* adaptive vs constant controller step;
* external queue policy (FIFO vs priority vs SJF) at the same MPL.
"""

from repro.core.controller import Baseline, MplController, Thresholds
from repro.core.simulation import SimulatedSystem
from repro.experiments.runner import run_setup, setup_config
from repro.queueing.throughput_model import ThroughputModel
from repro.workloads.setups import get_setup


def test_balanced_model_is_conservative(once):
    """The paper's worst-case balanced model never under-predicts the
    MPL needed relative to a utilization-weighted model."""

    def compare():
        rows = []
        for utilizations in (
            {"cpu": 0.95, "disk": 0.95},
            {"cpu": 0.95, "disk": 0.50},
            {"cpu": 0.95, "disk": 0.10},
        ):
            weighted = ThroughputModel.from_utilizations(utilizations)
            balanced = ThroughputModel.balanced(len(utilizations))
            rows.append(
                (
                    utilizations["disk"],
                    weighted.min_mpl_for_fraction(0.95),
                    balanced.min_mpl_for_fraction(0.95),
                )
            )
        return rows

    rows = once(compare)
    print()
    for disk_util, weighted_mpl, balanced_mpl in rows:
        print(
            f"disk util {disk_util:.2f}: weighted model -> MPL {weighted_mpl}, "
            f"balanced (worst case) -> MPL {balanced_mpl}"
        )
        assert balanced_mpl >= weighted_mpl


def test_adaptive_vs_constant_step(once):
    """Adaptive stepping converges no slower than the constant ±1 loop
    when the model start is far from the optimum."""

    def compare():
        setup = get_setup(12)
        baseline_run = SimulatedSystem(setup_config(setup, mpl=None)).run(1000)
        baseline = Baseline(
            throughput=baseline_run.throughput,
            mean_response_time=baseline_run.mean_response_time,
        )
        results = {}
        for label, adaptive in (("adaptive", True), ("constant", False)):
            system = SimulatedSystem(setup_config(setup, mpl=30))
            controller = MplController(
                system, baseline=baseline, thresholds=Thresholds(),
                initial_mpl=30, window=100, adaptive=adaptive,
                max_iterations=30,
            )
            results[label] = controller.tune()
        return results

    results = once(compare)
    print()
    for label, report in results.items():
        print(f"{label}: final={report.final_mpl} iterations={report.iterations} "
              f"converged={report.converged}")
    assert results["adaptive"].iterations <= results["constant"].iterations


def test_external_policy_ablation(once):
    """At the same low MPL, the external queue policy decides who wins:
    priority favours the high class, SJF favours the overall mean."""

    def compare():
        setup = get_setup(1)
        rows = {}
        for policy in ("fifo", "priority", "sjf"):
            rows[policy] = run_setup(
                setup, mpl=5, policy=policy, transactions=900,
                high_priority_fraction=0.1, seed=13,
            )
        return rows

    rows = once(compare)
    print()
    for policy, result in rows.items():
        print(
            f"{policy}: mean={result.mean_response_time:.2f}s "
            f"high={result.high_response_time:.2f}s "
            f"low={result.low_response_time:.2f}s"
        )
    assert rows["priority"].high_response_time < rows["fifo"].high_response_time
    assert rows["sjf"].mean_response_time <= rows["fifo"].mean_response_time * 1.1
