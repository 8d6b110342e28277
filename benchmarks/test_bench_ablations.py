"""Ablations for the design choices DESIGN.md calls out.

* balanced vs utilization-weighted throughput model;
* adaptive vs constant controller step;
* external queue policy (FIFO vs priority vs SJF) at the same MPL.
"""

from repro.core.scenario import FeedbackMpl, MeasurementSpec, ScenarioSpec, WorkloadRef
from repro.experiments.parallel import run_grid, run_grid_outcomes
from repro.experiments.runner import scenario_for
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
        # both loops share one no-MPL baseline cell (1000 transactions)
        adaptive, constant = run_grid_outcomes([
            ScenarioSpec(
                workload=WorkloadRef(setup_id=12),
                control=FeedbackMpl(
                    initial_mpl=30, window=100, adaptive=adaptive,
                    baseline_transactions=1000,
                ),
                measurement=MeasurementSpec(transactions=1),
            )
            for adaptive in (True, False)
        ])
        return {"adaptive": adaptive.control, "constant": constant.control}

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
        policies = ("fifo", "priority", "sjf")
        return dict(zip(policies, run_grid([
            scenario_for(
                get_setup(1), mpl=5, policy=policy, transactions=900,
                high_priority_fraction=0.1, seed=13,
            )
            for policy in policies
        ])))

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
