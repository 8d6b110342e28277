"""Tests for the service-time distributions."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.distributions as distributions
from repro.sim.distributions import (
    BlockSampler,
    Deterministic,
    Distribution,
    Empirical,
    Erlang,
    Exponential,
    Hyperexponential,
    LogNormal,
    Mixture,
    Pareto,
    Uniform,
    fit_hyperexponential,
    moments_to_scv,
)


def _sample_mean(dist, n=40_000, seed=1):
    rng = random.Random(seed)
    return sum(dist.sample(rng) for _ in range(n)) / n


def _sample_moments(dist, n=60_000, seed=1):
    rng = random.Random(seed)
    values = [dist.sample(rng) for _ in range(n)]
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    return mean, var


class TestDeterministic:
    def test_sample_is_constant(self):
        dist = Deterministic(3.5)
        rng = random.Random(0)
        assert all(dist.sample(rng) == 3.5 for _ in range(10))

    def test_moments(self):
        dist = Deterministic(3.5)
        assert dist.mean == 3.5
        assert dist.variance == 0.0
        assert dist.scv == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Deterministic(-1.0)


class TestExponential:
    def test_moments(self):
        dist = Exponential(2.0)
        assert dist.mean == 2.0
        assert dist.variance == 4.0
        assert dist.scv == 1.0

    def test_sample_mean_close(self):
        assert _sample_mean(Exponential(0.5)) == pytest.approx(0.5, rel=0.03)

    def test_invalid_mean(self):
        with pytest.raises(ValueError):
            Exponential(0.0)


class TestUniform:
    def test_moments(self):
        dist = Uniform(1.0, 3.0)
        assert dist.mean == 2.0
        assert dist.variance == pytest.approx(4.0 / 12.0)

    def test_samples_within_bounds(self):
        dist = Uniform(1.0, 3.0)
        rng = random.Random(0)
        assert all(1.0 <= dist.sample(rng) <= 3.0 for _ in range(100))

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            Uniform(3.0, 1.0)


class TestErlang:
    def test_scv_is_inverse_k(self):
        assert Erlang(4, 1.0).scv == pytest.approx(0.25)

    def test_sampled_moments(self):
        mean, var = _sample_moments(Erlang(3, 2.0), n=40_000)
        assert mean == pytest.approx(2.0, rel=0.03)
        assert var == pytest.approx(4.0 / 3.0, rel=0.1)

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            Erlang(0, 1.0)


class TestHyperexponential:
    def test_moments_formula(self):
        dist = Hyperexponential([0.3, 0.7], [2.0, 0.5])
        expected_mean = 0.3 / 2.0 + 0.7 / 0.5
        assert dist.mean == pytest.approx(expected_mean)

    def test_sampled_moments_match(self):
        dist = Hyperexponential([0.6, 0.4], [4.0, 0.8])
        mean, var = _sample_moments(dist)
        assert mean == pytest.approx(dist.mean, rel=0.03)
        assert var == pytest.approx(dist.variance, rel=0.1)

    def test_probs_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Hyperexponential([0.5, 0.6], [1.0, 1.0])

    def test_rates_must_be_positive(self):
        with pytest.raises(ValueError):
            Hyperexponential([0.5, 0.5], [1.0, 0.0])


class TestFitHyperexponential:
    def test_scv_one_gives_exponential(self):
        dist = fit_hyperexponential(2.0, 1.0)
        assert isinstance(dist, Exponential)
        assert dist.mean == 2.0

    def test_scv_zero_gives_deterministic(self):
        dist = fit_hyperexponential(2.0, 0.0)
        assert isinstance(dist, Deterministic)

    def test_scv_below_one_gives_erlang(self):
        dist = fit_hyperexponential(2.0, 0.25)
        assert isinstance(dist, Erlang)
        assert dist.scv == pytest.approx(0.25)

    @pytest.mark.parametrize("scv", [1.5, 2.0, 5.0, 10.0, 15.0, 40.0])
    def test_high_scv_fit_is_exact(self, scv):
        dist = fit_hyperexponential(3.0, scv)
        assert dist.mean == pytest.approx(3.0, rel=1e-9)
        assert dist.scv == pytest.approx(scv, rel=1e-6)

    @given(
        mean=st.floats(min_value=1e-3, max_value=1e3),
        scv=st.floats(min_value=1.0, max_value=100.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_fit_matches_requested_moments(self, mean, scv):
        dist = fit_hyperexponential(mean, scv)
        assert dist.mean == pytest.approx(mean, rel=1e-6)
        assert dist.scv == pytest.approx(scv, rel=1e-4)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            fit_hyperexponential(-1.0, 2.0)
        with pytest.raises(ValueError):
            fit_hyperexponential(1.0, -0.5)


class TestPareto:
    def test_moments(self):
        dist = Pareto(alpha=2.5, mean=4.0)
        assert dist.mean == 4.0
        sampled_mean = _sample_mean(dist, n=200_000)
        assert sampled_mean == pytest.approx(4.0, rel=0.1)

    def test_requires_finite_variance(self):
        with pytest.raises(ValueError):
            Pareto(alpha=2.0, mean=1.0)


class TestLogNormal:
    def test_moments(self):
        dist = LogNormal(2.0, 3.0)
        assert dist.mean == 2.0
        assert dist.scv == pytest.approx(3.0)

    def test_sampled_moments(self):
        dist = LogNormal(1.0, 2.0)
        mean, var = _sample_moments(dist, n=100_000)
        assert mean == pytest.approx(1.0, rel=0.05)
        assert var == pytest.approx(2.0, rel=0.2)


class TestEmpirical:
    def test_resamples_only_observed_values(self):
        dist = Empirical([1.0, 2.0, 3.0])
        rng = random.Random(0)
        assert all(dist.sample(rng) in {1.0, 2.0, 3.0} for _ in range(50))

    def test_moments_match_population(self):
        values = [1.0, 2.0, 3.0, 4.0]
        dist = Empirical(values)
        assert dist.mean == 2.5
        assert dist.variance == pytest.approx(1.25)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Empirical([])


class TestMixture:
    def test_moments_combine(self):
        mix = Mixture([Deterministic(1.0), Deterministic(3.0)], weights=[1.0, 1.0])
        assert mix.mean == 2.0
        assert mix.variance == pytest.approx(1.0)

    def test_weights_normalized(self):
        mix = Mixture([Exponential(1.0), Exponential(2.0)], weights=[2.0, 6.0])
        assert mix.weights == pytest.approx([0.25, 0.75])

    def test_mismatched_weights_rejected(self):
        with pytest.raises(ValueError):
            Mixture([Exponential(1.0)], weights=[1.0, 2.0])


class TestScaled:
    def test_scaling_preserves_scv(self):
        base = fit_hyperexponential(1.0, 5.0)
        scaled = base.scaled(10.0)
        assert scaled.mean == pytest.approx(10.0)
        assert scaled.scv == pytest.approx(5.0, rel=1e-6)

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            Exponential(1.0).scaled(0.0)


#: One instance of every Distribution subclass; the coverage test below
#: keeps the list complete.
_EVERY_DISTRIBUTION = [
    Deterministic(2.0),
    Exponential(1.5),
    Uniform(0.5, 2.0),
    Erlang(3, 1.0),
    Hyperexponential([0.3, 0.7], [0.5, 4.0]),
    Pareto(2.5, 1.0),
    LogNormal(1.0, 2.0),
    Empirical([0.5, 1.0, 4.0]),
    Mixture([Exponential(1.0), Erlang(2, 3.0)], weights=[1.0, 2.0]),
    Exponential(2.0).scaled(3.0),
]


class TestBlockSampler:
    def test_every_distribution_subclass_is_covered(self):
        subclasses = {
            cls for cls in vars(distributions).values()
            if isinstance(cls, type) and issubclass(cls, Distribution)
            and cls is not Distribution
        }
        assert subclasses == {type(dist) for dist in _EVERY_DISTRIBUTION}

    @pytest.mark.parametrize(
        "dist", _EVERY_DISTRIBUTION, ids=lambda dist: type(dist).__name__
    )
    def test_serves_the_per_call_sequence_across_blocks(self, dist):
        sampler = BlockSampler(dist, random.Random(7), block_size=4)
        served = [sampler() for _ in range(11)]
        rng = random.Random(7)
        assert served == [dist.sample(rng) for _ in range(11)]
        assert sampler.pending == 1  # three blocks of 4 drawn, 11 served


def test_moments_to_scv():
    assert moments_to_scv(2.0, 8.0) == pytest.approx(1.0)
    assert moments_to_scv(1.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        moments_to_scv(0.0, 1.0)
