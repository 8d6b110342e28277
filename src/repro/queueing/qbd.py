"""Matrix-geometric machinery for quasi-birth-death CTMCs.

The paper analyzes its flexible-multiserver chain (Figure 9) with
matrix-analytic methods [Latouche & Ramaswami; Neuts].  A QBD's
stationary vector beyond the boundary is geometric,
``pi_{k+1} = pi_k R``, where the rate matrix R is the minimal
non-negative solution of

    A0 + R A1 + R^2 A2 = 0

with A0/A1/A2 the up/local/down transition blocks of the repeating
portion.  :func:`compute_rate_matrix` finds R through G, the minimal
solution of ``A2 + A1 G + A0 G^2 = 0`` (first passage one level
down), by logarithmic reduction, which converges quadratically in
tens of steps [Latouche & Ramaswami, "A logarithmic reduction
algorithm for quasi-birth-death processes", J. Appl. Prob. 30 (1993)],
then sets ``R = A0 (-(A1 + A0 G))^-1`` [Latouche & Ramaswami,
*Introduction to Matrix Analytic Methods in Stochastic Modeling*,
SIAM 1999].  Helpers compute the geometric tail sums needed for
normalization and mean queue lengths.

numpy is imported inside each function, so it loads on the first
solve rather than with the module: only the Figure 9 model needs it,
and every process that imports :mod:`repro` would otherwise pay for
loading it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

if TYPE_CHECKING:
    import numpy as np


class QbdConvergenceError(RuntimeError):
    """The R computation failed to converge (chain unstable or ill-posed)."""


def compute_rate_matrix(
    a0: np.ndarray,
    a1: np.ndarray,
    a2: np.ndarray,
    tolerance: float = 1e-12,
    max_iterations: int = 100,
) -> np.ndarray:
    """Solve ``A0 + R A1 + R^2 A2 = 0`` for the minimal R ≥ 0.

    Logarithmic reduction on the jump chain ``B0 = (-A1)^-1 A0``,
    ``B2 = (-A1)^-1 A2``: after step k, G accumulates the paths that
    reach the level below within 2^k levels, and T is the probability
    of climbing 2^k levels first.  For a positive recurrent QBD T
    vanishes quadratically; iteration stops once ``‖T‖∞ < tolerance``.
    """
    import numpy as np

    a0 = np.asarray(a0, dtype=float)
    a1 = np.asarray(a1, dtype=float)
    a2 = np.asarray(a2, dtype=float)
    size = a0.shape[0]
    for block in (a0, a1, a2):
        if block.shape != (size, size):
            raise ValueError("A0, A1, A2 must be square and equally sized")
    identity = np.eye(size)
    up = np.linalg.solve(-a1, a0)
    down = np.linalg.solve(-a1, a2)
    g, t = down.copy(), up.copy()
    for _ in range(max_iterations):
        mix = np.linalg.inv(identity - up @ down - down @ up)
        up, down = mix @ (up @ up), mix @ (down @ down)
        g += t @ down
        t = t @ up
        if np.max(np.abs(t).sum(axis=1)) < tolerance:
            break
    else:
        raise QbdConvergenceError(
            f"logarithmic reduction did not converge within {max_iterations} "
            "steps; the chain is not positive recurrent (offered load too high?)"
        )
    r = a0 @ np.linalg.inv(-(a1 + a0 @ g))
    spectral_radius = max(abs(np.linalg.eigvals(r)))
    if spectral_radius >= 1.0 - 1e-9:
        raise QbdConvergenceError(
            f"R has spectral radius {spectral_radius:.6f} >= 1; "
            "the chain is not positive recurrent (offered load too high?)"
        )
    return r


def geometric_tail_sums(r: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(I - R)^-1`` and ``(I - R)^-2`` for tail accounting.

    With ``pi_{b+j} = pi_b R^j``:

    * total tail probability = ``pi_b (I - R)^-1 1``
    * sum of ``j * R^j``      = ``R (I - R)^-2`` (for mean levels).
    """
    import numpy as np

    size = r.shape[0]
    identity = np.eye(size)
    inv1 = np.linalg.inv(identity - r)
    return inv1, inv1 @ inv1


def validate_generator_rows(blocks_row_sum: np.ndarray, tolerance: float = 1e-8) -> None:
    """Assert a generator's row sums vanish (used by model unit tests)."""
    import numpy as np

    worst = float(np.max(np.abs(blocks_row_sum)))
    if worst > tolerance:
        raise ValueError(f"generator rows sum to {worst:.3e}, expected 0")
