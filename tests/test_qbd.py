"""Tests for the matrix-geometric QBD solver."""

import numpy as np
import pytest

from repro.queueing.mpl_ps_queue import MplPsQueue
from repro.queueing.qbd import (
    QbdConvergenceError,
    compute_rate_matrix,
    geometric_tail_sums,
    validate_generator_rows,
)


def test_mm1_rate_matrix_is_rho():
    """For M/M/1 as a 1-phase QBD, R = lambda/mu."""
    lam, mu = 0.6, 1.0
    a0 = np.array([[lam]])
    a1 = np.array([[-(lam + mu)]])
    a2 = np.array([[mu]])
    r = compute_rate_matrix(a0, a1, a2)
    assert r[0, 0] == pytest.approx(lam / mu, rel=1e-9)


def test_unstable_chain_raises():
    lam, mu = 1.2, 1.0  # offered load > 1
    a0 = np.array([[lam]])
    a1 = np.array([[-(lam + mu)]])
    a2 = np.array([[mu]])
    with pytest.raises(QbdConvergenceError):
        compute_rate_matrix(a0, a1, a2)


def test_rate_matrix_solves_quadratic():
    """R must satisfy A0 + R A1 + R^2 A2 = 0."""
    lam = 0.5
    mu1, mu2, p = 2.0, 0.25, 0.7
    size = 3
    rng = np.random.default_rng(1)
    # build a small random-but-valid QBD: uniformized service phases
    a0 = lam * np.eye(size)
    a2 = np.array(
        [[0.8, 0.1, 0.0], [0.2, 0.6, 0.1], [0.0, 0.3, 0.7]]
    )
    local_off = np.array(
        [[0.0, 0.1, 0.0], [0.05, 0.0, 0.05], [0.0, 0.1, 0.0]]
    )
    a1 = local_off.copy()
    for i in range(size):
        a1[i, i] = -(lam + a2[i].sum() + local_off[i].sum())
    r = compute_rate_matrix(a0, a1, a2)
    residual = a0 + r @ a1 + r @ r @ a2
    assert np.max(np.abs(residual)) < 1e-9
    assert np.all(r >= -1e-12)


def test_rate_matrix_residual_on_figure9_blocks():
    """The largest Figure 10 chain: load 0.9, C^2 = 15, MPL 35."""
    mean = 0.05
    model = MplPsQueue(arrival_rate=0.9 / mean, mpl=35, service_mean=mean,
                       service_scv=15.0)
    a0, a1, a2 = model.repeating_blocks()
    r = compute_rate_matrix(a0, a1, a2)
    residual = a0 + r @ a1 + r @ r @ a2
    assert np.max(np.abs(residual)) < 1e-12
    assert np.all(r >= 0.0)


def test_geometric_tail_sums():
    r = np.array([[0.5]])
    inv1, inv2 = geometric_tail_sums(r)
    assert inv1[0, 0] == pytest.approx(2.0)
    assert inv2[0, 0] == pytest.approx(4.0)


def test_mismatched_blocks_rejected():
    with pytest.raises(ValueError):
        compute_rate_matrix(np.eye(2), np.eye(3), np.eye(2))


def test_validate_generator_rows():
    validate_generator_rows(np.zeros(3))
    with pytest.raises(ValueError):
        validate_generator_rows(np.array([0.0, 1e-3]))
