"""E-commerce prioritization: make the big spenders fast (paper §5).

An online store's database backend serves 100 concurrent clients; 10%
of transactions come from high-value customers.  We tune the MPL for
at most 5% throughput loss, dispatch the external queue
highest-priority-first, and compare against the untouched system.

Run with:  python examples/ecommerce_priority.py
"""

from repro import get_setup
from repro.core.arrivals import HIGH_PRIORITY_FRACTION
from repro.experiments.parallel import run_grid, run_grid_outcomes
from repro.experiments.runner import scenario_for, tuning_scenario
from repro.priority.evaluation import outcome_from_runs


def main() -> None:
    setup = get_setup(3)  # TPC-W browsing: the paper's e-commerce case
    print(f"Scenario: {setup.describe()}, 10% of transactions are VIPs")
    print()

    print("Step 1 - tune the MPL (queueing models + feedback controller)...")
    [tuning] = run_grid_outcomes([
        tuning_scenario(setup, max_throughput_loss=0.05, transactions=800, seed=7)
    ])
    report = tuning.control
    print(
        f"  model suggested MPL {report.trajectory[0].mpl}; controller settled on "
        f"{report.final_mpl} after {report.iterations} iterations"
    )
    print()

    print("Step 2 - run with priority dispatch at the tuned MPL...")
    no_prio, prioritized = run_grid([
        scenario_for(setup, transactions=2000, seed=7),
        scenario_for(
            setup, mpl=report.final_mpl, transactions=2000, seed=7,
            policy="priority", high_priority_fraction=HIGH_PRIORITY_FRACTION,
        ),
    ])
    outcome = outcome_from_runs("VIP", report.final_mpl, prioritized, no_prio)
    print(f"  VIP mean response time : {outcome.high:7.2f} s")
    print(f"  standard response time : {outcome.low:7.2f} s")
    print(f"  no-prioritization ref. : {outcome.no_prio:7.2f} s")
    print()
    print(f"  VIPs fare {outcome.differentiation:.1f}x better than standard traffic;")
    print(
        f"  standard traffic pays only {100 * (outcome.low_penalty - 1):.0f}% over "
        "the unprioritized system,"
    )
    print(f"  and total throughput lost: {100 * outcome.throughput_loss:.1f}%.")


if __name__ == "__main__":
    main()
