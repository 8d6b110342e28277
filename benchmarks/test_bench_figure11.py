"""Figure 11: external prioritization across all 17 setups.

Paper (5% throughput-loss MPLs): high-priority transactions fare 4.2x
to 21.6x better than low (mean 12.1x); low suffers ~16% vs no
prioritization.  At 20% loss: 7x-24x (mean 18x), low suffers ~37%.
"""

import dataclasses

from repro.experiments.figures import figure11
from repro.experiments.parallel import get_runner
from repro.workloads.setups import SETUPS


def test_figure11(once):
    runner = get_runner()
    before = dataclasses.replace(runner.totals)
    panels = once(figure11, fast=True)
    stats = runner.totals.since(before)
    # three grids (references, tunings, prioritized runs), each holding
    # both budgets' 17 cells; the references are the same for both
    # budgets, so the runner's in-grid dedup runs each of them once
    setups = len(SETUPS)
    assert stats.submitted == 3 * 2 * setups
    assert stats.deduplicated >= setups
    # every simulation, the tunings' no-MPL baseline cells included:
    # 17 references, 34 tunings, 17 baselines (one per setup, shared
    # by both budgets) and the distinct prioritized runs
    assert stats.simulated + stats.cached <= 97
    for panel in panels:
        print()
        print(panel.render())
    top, bottom = panels  # 5% and 20% loss budgets
    for panel in panels:
        highs, lows, noprios = (s.ys for s in panel.series)
        diffs = [l / h for h, l in zip(highs, lows) if h > 0]
        mean_diff = sum(diffs) / len(diffs)
        # headline result: order-of-magnitude class differentiation
        assert mean_diff > 4.0
        # low-priority suffering stays bounded
        penalties = [l / n for l, n in zip(lows, noprios) if n > 0]
        assert sum(penalties) / len(penalties) < 2.0
