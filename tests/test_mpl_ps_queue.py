"""Tests for the FIFO -> PS(MPL) response-time model (Figures 8-10)."""

import numpy as np
import pytest

from repro.queueing.mg1 import mg1_fifo_response_time, mg1_ps_response_time
from repro.queueing.mpl_ps_queue import MplPsQueue, h2_params


class TestH2Params:
    def test_scv_one_degenerates_to_exponential(self):
        p, mu1, mu2 = h2_params(2.0, 1.0)
        assert p == 1.0
        assert mu1 == pytest.approx(0.5)
        assert mu2 == pytest.approx(0.5)

    @pytest.mark.parametrize("scv", [1.5, 2.0, 5.0, 15.0])
    def test_moments_reproduced(self, scv):
        p, mu1, mu2 = h2_params(3.0, scv)
        mean = p / mu1 + (1 - p) / mu2
        second = 2 * p / mu1**2 + 2 * (1 - p) / mu2**2
        assert mean == pytest.approx(3.0, rel=1e-9)
        assert second / mean**2 - 1 == pytest.approx(scv, rel=1e-9)

    def test_scv_below_one_rejected(self):
        with pytest.raises(ValueError):
            h2_params(1.0, 0.5)


class TestModelAnchors:
    """The three sanity anchors from the module docstring."""

    @pytest.mark.parametrize("scv", [1.0, 2.0, 5.0, 15.0])
    @pytest.mark.parametrize("load", [0.5, 0.7, 0.9])
    def test_mpl_one_matches_pollaczek_khinchine(self, scv, load):
        mean = 0.05
        lam = load / mean
        model = MplPsQueue(arrival_rate=lam, mpl=1, service_mean=mean,
                           service_scv=scv)
        assert model.mean_response_time() == pytest.approx(
            mg1_fifo_response_time(lam, mean, scv), rel=1e-6
        )

    @pytest.mark.parametrize("scv", [2.0, 15.0])
    def test_large_mpl_approaches_ps(self, scv):
        mean, load = 0.05, 0.7
        lam = load / mean
        model = MplPsQueue(arrival_rate=lam, mpl=60, service_mean=mean,
                           service_scv=scv)
        ps = mg1_ps_response_time(lam, mean)
        assert model.mean_response_time() == pytest.approx(ps, rel=0.02)

    @pytest.mark.parametrize("mpl", [1, 3, 10, 25])
    def test_exponential_sizes_are_mpl_insensitive(self, mpl):
        """With C^2 = 1 the queue is M/M/1 at every MPL."""
        mean, lam = 0.05, 14.0
        model = MplPsQueue(arrival_rate=lam, mpl=mpl, service_mean=mean,
                           service_scv=1.0)
        mm1 = mean / (1 - lam * mean)
        assert model.mean_response_time() == pytest.approx(mm1, rel=1e-6)


class TestAccuracy:
    """Tight agreement with closed forms and with the full generator."""

    def test_mpl_one_near_saturation_matches_pollaczek_khinchine(self):
        mean, scv = 0.05, 20.0
        lam = 0.99 / mean
        model = MplPsQueue(arrival_rate=lam, mpl=1, service_mean=mean,
                           service_scv=scv)
        assert model.mean_response_time() == pytest.approx(
            mg1_fifo_response_time(lam, mean, scv), rel=1e-9
        )

    def test_exponential_sizes_at_mpl_35_are_mm1(self):
        mean, lam = 0.05, 18.0
        model = MplPsQueue(arrival_rate=lam, mpl=35, service_mean=mean,
                           service_scv=1.0)
        assert model.mean_response_time() == pytest.approx(
            mean / (1 - lam * mean), rel=1e-12
        )

    @pytest.mark.parametrize("mpl", [1, 2, 7, 35])
    @pytest.mark.parametrize("load,scv", [(0.7, 2.0), (0.9, 15.0), (0.98, 30.0)])
    def test_solution_balances_the_dense_boundary_generator(self, load, scv, mpl):
        """pi Q = 0 on levels 0..MPL, with the tail folded into level MPL
        as ``A1 + R A2``, assembled densely as an independent oracle."""
        mean = 0.05
        model = MplPsQueue(arrival_rate=load / mean, mpl=mpl,
                           service_mean=mean, service_scv=scv)
        pis, rate_matrix = model.solve()
        offsets = np.cumsum([0] + [n + 1 for n in range(mpl + 1)])
        generator = np.zeros((offsets[-1], offsets[-1]))

        def add(row_level, col_level, block):
            r0, c0 = offsets[row_level], offsets[col_level]
            generator[r0:r0 + block.shape[0], c0:c0 + block.shape[1]] += block

        for n in range(mpl):
            add(n, n, model.boundary_local(n))
            add(n, n + 1, model.boundary_up(n))
            add(n + 1, n, model.boundary_down(n + 1))
        _a0, a1, a2 = model.repeating_blocks()
        add(mpl, mpl, a1 + rate_matrix @ a2)
        pi = np.concatenate(pis)
        assert np.max(np.abs(pi @ generator)) < 1e-10
        assert np.all(pi >= 0.0)
        tail = pis[mpl] @ np.linalg.inv(np.eye(mpl + 1) - rate_matrix)
        assert pi[: offsets[mpl]].sum() + tail.sum() == pytest.approx(1.0, abs=1e-12)


class TestMonotonicity:
    def test_response_time_decreases_with_mpl_for_variable_sizes(self):
        mean, lam, scv = 0.05, 14.0, 15.0
        values = [
            MplPsQueue(arrival_rate=lam, mpl=mpl, service_mean=mean,
                       service_scv=scv).mean_response_time()
            for mpl in (1, 2, 5, 10, 20, 35)
        ]
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))
        assert values[0] > values[-1] * 2  # MPL matters a lot at C^2=15

    def test_higher_scv_needs_higher_mpl(self):
        """Minimum MPL within 10% of PS grows with C^2 (Figure 10)."""
        mean, lam = 0.05, 14.0
        ps = mg1_ps_response_time(lam, mean)

        def min_mpl(scv):
            for mpl in range(1, 61):
                model = MplPsQueue(arrival_rate=lam, mpl=mpl,
                                   service_mean=mean, service_scv=scv)
                if model.mean_response_time() <= 1.1 * ps:
                    return mpl
            return 61

        needs = [min_mpl(scv) for scv in (1.0, 2.0, 5.0, 15.0)]
        assert needs == sorted(needs)
        assert needs[0] == 1
        assert needs[-1] >= 5

    def test_higher_load_needs_higher_mpl(self):
        mean, scv = 0.05, 15.0
        ps_time = {}

        def min_mpl(load):
            lam = load / mean
            ps = mg1_ps_response_time(lam, mean)
            for mpl in range(1, 80):
                model = MplPsQueue(arrival_rate=lam, mpl=mpl,
                                   service_mean=mean, service_scv=scv)
                if model.mean_response_time() <= 1.1 * ps:
                    return mpl
            return 80

        assert min_mpl(0.7) < min_mpl(0.9)


class TestDistributionOutputs:
    def test_level_probabilities_sum_to_one(self):
        model = MplPsQueue(arrival_rate=10.0, mpl=4, service_mean=0.05,
                           service_scv=5.0)
        probabilities = model.level_probabilities(400)
        assert sum(probabilities) == pytest.approx(1.0, abs=1e-6)
        assert all(p >= 0 for p in probabilities)

    def test_mean_number_consistent_with_levels(self):
        model = MplPsQueue(arrival_rate=10.0, mpl=3, service_mean=0.05,
                           service_scv=5.0)
        probabilities = model.level_probabilities(2000)
        direct = sum(n * p for n, p in enumerate(probabilities))
        assert model.mean_number_in_system() == pytest.approx(direct, rel=1e-4)

    def test_little_law(self):
        lam = 12.0
        model = MplPsQueue(arrival_rate=lam, mpl=5, service_mean=0.05,
                           service_scv=10.0)
        assert model.mean_response_time() == pytest.approx(
            model.mean_number_in_system() / lam
        )


class TestGeneratorStructure:
    def test_figure9_blocks_for_mpl2(self):
        """The repeating blocks reproduce the published MPL=2 chain."""
        lam, mean, scv = 0.5, 1.0, 8.0
        model = MplPsQueue(arrival_rate=lam, mpl=2, service_mean=mean,
                           service_scv=scv)
        p, q = model.p, model.q
        mu1, mu2 = model.mu1, model.mu2
        a0, a1, a2 = model.repeating_blocks()
        # rows are i = number of phase-1 jobs among the 2 in service
        assert np.allclose(a0, lam * np.eye(3))
        # i=2 (both phase 1): phase-1 completes at rate 2*mu1/2 = mu1;
        # promoted job is phase-1 w.p. p (stay at i=2) or phase-2 (i=1)
        assert a2[2, 2] == pytest.approx(mu1 * p)
        assert a2[2, 1] == pytest.approx(mu1 * q)
        # i=0 (both phase 2): phase-2 completes at rate mu2; promotion
        # to phase-1 moves i to 1
        assert a2[0, 1] == pytest.approx(mu2 * p)
        assert a2[0, 0] == pytest.approx(mu2 * q)
        # mixed state i=1: both phases present at half speed
        assert a2[1, 0] == pytest.approx((mu1 / 2) * q)
        assert a2[1, 2] == pytest.approx((mu2 / 2) * p)
        # generator rows of A0+A1+A2 sum to zero
        rows = (a0 + a1 + a2).sum(axis=1)
        assert np.allclose(rows, 0.0, atol=1e-12)

    def test_boundary_blocks_conserve_rate(self):
        model = MplPsQueue(arrival_rate=0.5, mpl=3, service_mean=1.0,
                           service_scv=5.0)
        for level in range(1, 3):
            up = model.boundary_up(level)
            down = model.boundary_down(level)
            local = model.boundary_local(level)
            rows = up.sum(axis=1) + down.sum(axis=1) + local.sum(axis=1)
            assert np.allclose(rows, 0.0, atol=1e-12)


class TestValidation:
    def test_unstable_load_rejected(self):
        model = MplPsQueue(arrival_rate=25.0, mpl=2, service_mean=0.05,
                           service_scv=2.0)
        with pytest.raises(ValueError):
            model.solve()

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            MplPsQueue(arrival_rate=0.0, mpl=1, service_mean=1.0, service_scv=1.0)
        with pytest.raises(ValueError):
            MplPsQueue(arrival_rate=1.0, mpl=0, service_mean=1.0, service_scv=1.0)
        with pytest.raises(ValueError):
            MplPsQueue(arrival_rate=1.0, mpl=1)
