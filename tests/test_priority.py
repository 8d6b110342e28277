"""Tests for prioritization: assignment and evaluation (§5)."""

import random

import pytest

from repro.core.arrivals import HIGH_PRIORITY_FRACTION
from repro.dbms.config import InternalPolicy
from repro.dbms.transaction import Priority
from repro.experiments.parallel import run_grid
from repro.experiments.runner import scenario_for
from repro.priority.assignment import PriorityAssignment
from repro.priority.evaluation import outcome_from_runs
from repro.workloads.setups import get_setup


def prioritized(setup_id, transactions, seed, **prio):
    """A §5 experiment as two cells: the prioritized run and its
    untouched "No Prio" reference (same seed, no priorities, no MPL)."""
    setup = get_setup(setup_id)
    no_prio, result = run_grid([
        scenario_for(setup, transactions=transactions, seed=seed),
        scenario_for(
            setup, transactions=transactions, seed=seed,
            high_priority_fraction=HIGH_PRIORITY_FRACTION, **prio,
        ),
    ])
    return outcome_from_runs("", prio.get("mpl"), result, no_prio)


def external(mpl, transactions, seed=4):
    """External prioritization of setup 1: priority dispatch at ``mpl``."""
    return prioritized(1, transactions, seed, mpl=mpl, policy="priority")


class TestPriorityAssignment:
    def test_fraction_respected(self):
        assignment = PriorityAssignment(high_fraction=0.10)
        rng = random.Random(1)
        draws = [assignment.assign(rng) for _ in range(20_000)]
        fraction = sum(1 for d in draws if d == Priority.HIGH) / len(draws)
        assert fraction == pytest.approx(0.10, abs=0.01)

    def test_per_client_is_sticky(self):
        assignment = PriorityAssignment(high_fraction=0.5, per_client=True, seed=3)
        rng = random.Random(1)
        first = assignment.assign(rng, client_id=7)
        for _ in range(10):
            assert assignment.assign(rng, client_id=7) == first

    def test_zero_and_one_fractions(self):
        rng = random.Random(1)
        always_low = PriorityAssignment(high_fraction=0.0)
        always_high = PriorityAssignment(high_fraction=1.0)
        assert all(always_low.assign(rng) == Priority.LOW for _ in range(50))
        assert all(always_high.assign(rng) == Priority.HIGH for _ in range(50))

    def test_validation(self):
        with pytest.raises(ValueError):
            PriorityAssignment(high_fraction=1.5)


class TestExternalPrioritization:
    def test_low_mpl_differentiates_strongly(self):
        outcome = external(mpl=5, transactions=900)
        assert outcome.high < outcome.low
        assert outcome.differentiation > 3.0
        # low-priority suffering stays bounded (paper: ~1.15-1.4x)
        assert outcome.low_penalty < 2.0

    def test_unlimited_mpl_removes_differentiation(self):
        outcome = external(mpl=None, transactions=900)
        assert outcome.differentiation < 2.0

    def test_lower_mpl_gives_more_differentiation(self):
        tight = external(mpl=4, transactions=900)
        loose = external(mpl=30, transactions=900)
        assert tight.differentiation > loose.differentiation


class TestInternalPrioritization:
    def test_pow_locks_differentiate_on_lock_bound_setup(self):
        outcome = prioritized(1, 900, seed=4, internal=InternalPolicy.pow_locks())
        assert outcome.differentiation > 2.0

    def test_cpu_weights_differentiate_on_cpu_bound_setup(self):
        outcome = prioritized(3, 500, seed=4, internal=InternalPolicy.cpu_priorities())
        assert outcome.high < outcome.low

    def test_outcome_metrics_consistent(self):
        outcome = prioritized(1, 600, seed=4, internal=InternalPolicy.pow_locks())
        assert outcome.overall_penalty > 0
        assert 0.0 <= outcome.throughput_loss < 1.0
