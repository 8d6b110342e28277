"""The FIFO → PS(MPL) queueing model of §4.2 (Figures 8–10).

An unbounded FIFO queue feeds a processor-sharing server that admits at
most MPL jobs; job sizes are two-phase hyperexponential (H2) so the
variability C² can be dialled arbitrarily.  Following the paper, the
system is recast as a *flexible multiserver queue*: the number of
busy "servers" floats between 1 and MPL while the total service rate
stays that of the single PS server.  The state is (n, i) with n jobs
in the system and i phase-1 jobs among the min(n, MPL) in service —
exactly the CTMC of Figure 9 — and the repeating structure for
n ≥ MPL makes it a QBD solved by matrix-geometric methods: R by
logarithmic reduction (:mod:`repro.queueing.qbd`), then levels 0..MPL
by linear level reduction, which folds the block-tridiagonal boundary
in from the top and back-substitutes ``pi_{n+1} = pi_n R_n`` from
``pi_0`` [Gaver, Jacobs & Latouche, "Finite birth-and-death models in
randomly changing environments", Adv. Appl. Prob. 16 (1984)].  Every
factor is non-negative, so no clamp or round-off renormalization is needed.

Sanity anchors (enforced by the test suite):

* MPL = 1 reduces to M/G/1-FIFO → matches Pollaczek–Khinchine.
* MPL → ∞ approaches M/G/1-PS → mean response time E[S]/(1-ρ),
  insensitive to C².
* C² = 1 is M/M/1 at every MPL (exponential sizes make the MPL
  irrelevant for the mean).

numpy loads on the first solve.  The block builders and solvers import
it locally, so neither importing :mod:`repro` (whose facades re-export
this class) nor constructing a queue and reading its H2 moments loads
it.  Only Figure 10 and the tuner's response-time jump start for open
systems solve the model; every other process skips numpy's import cost.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.queueing.qbd import compute_rate_matrix, geometric_tail_sums

if TYPE_CHECKING:
    import numpy as np


def h2_params(mean: float, scv: float) -> Tuple[float, float, float]:
    """Balanced-means H2 parameters (p, mu1, mu2) for a mean and C².

    For ``scv == 1`` this degenerates to the exponential
    (p = 1, mu1 = mu2 = 1/mean); ``scv < 1`` is not representable by
    an H2 and raises.
    """
    if mean <= 0:
        raise ValueError(f"mean must be positive, got {mean!r}")
    if scv < 1.0 - 1e-12:
        raise ValueError(f"an H2 requires scv >= 1, got {scv!r}")
    if abs(scv - 1.0) < 1e-12:
        rate = 1.0 / mean
        return 1.0, rate, rate
    p = 0.5 * (1.0 + math.sqrt((scv - 1.0) / (scv + 1.0)))
    mu1 = 2.0 * p / mean
    mu2 = 2.0 * (1.0 - p) / mean
    return p, mu1, mu2


class MplPsQueue:
    """M/H2 FIFO queue feeding an MPL-limited PS server.

    Parameters
    ----------
    arrival_rate:
        Poisson arrival rate λ.
    mpl:
        Maximum jobs sharing the PS server.
    service_mean / service_scv:
        Job-size moments (fitted to a balanced-means H2), or pass the
        raw ``(p, mu1, mu2)`` triple instead.
    """

    def __init__(
        self,
        arrival_rate: float,
        mpl: int,
        service_mean: Optional[float] = None,
        service_scv: Optional[float] = None,
        p: Optional[float] = None,
        mu1: Optional[float] = None,
        mu2: Optional[float] = None,
    ):
        if arrival_rate <= 0:
            raise ValueError(f"arrival_rate must be positive, got {arrival_rate!r}")
        if mpl < 1:
            raise ValueError(f"mpl must be >= 1, got {mpl!r}")
        if p is None:
            if service_mean is None or service_scv is None:
                raise ValueError(
                    "provide either (service_mean, service_scv) or (p, mu1, mu2)"
                )
            p, mu1, mu2 = h2_params(service_mean, service_scv)
        assert mu1 is not None and mu2 is not None
        if not 0.0 < p <= 1.0:
            raise ValueError(f"p must be in (0, 1], got {p!r}")
        self.arrival_rate = float(arrival_rate)
        self.mpl = int(mpl)
        self.p = float(p)
        self.q = 1.0 - self.p
        self.mu1 = float(mu1)
        self.mu2 = float(mu2)
        self._solution: Optional[Tuple[List[np.ndarray], np.ndarray]] = None
        self._tail_sums: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # -- basic quantities ------------------------------------------------------

    @property
    def service_mean(self) -> float:
        """E[S] of the H2 job size."""
        return self.p / self.mu1 + self.q / self.mu2

    @property
    def service_second_moment(self) -> float:
        """E[S²] of the H2 job size."""
        return 2.0 * self.p / self.mu1**2 + 2.0 * self.q / self.mu2**2

    @property
    def service_scv(self) -> float:
        """C² of the H2 job size."""
        m = self.service_mean
        return self.service_second_moment / m**2 - 1.0

    @property
    def load(self) -> float:
        """Offered load ρ = λ E[S]; must be < 1 for stability."""
        return self.arrival_rate * self.service_mean

    # -- generator blocks -----------------------------------------------------

    def _service_rates(self, in_service: int, phase1: int) -> Tuple[float, float]:
        """Total completion rates (phase-1, phase-2) with PS sharing."""
        if in_service == 0:
            return 0.0, 0.0
        share = 1.0 / in_service
        return phase1 * self.mu1 * share, (in_service - phase1) * self.mu2 * share

    def repeating_blocks(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(A0, A1, A2) of the repeating portion (levels n ≥ MPL)."""
        import numpy as np

        m = self.mpl
        lam, prob_p, prob_q = self.arrival_rate, self.p, self.q
        size = m + 1
        a0 = lam * np.eye(size)
        a1 = np.zeros((size, size))
        a2 = np.zeros((size, size))
        for i in range(size):
            rate1, rate2 = self._service_rates(m, i)
            a1[i, i] = -(lam + rate1 + rate2)
            # phase-1 completion: i -> i-1, promoted job phase-1 w.p. p
            if i > 0:
                a2[i, i] += rate1 * prob_p
                a2[i, i - 1] += rate1 * prob_q
            # phase-2 completion: i unchanged, promoted phase-1 w.p. p
            if i < m:
                a2[i, i + 1] += rate2 * prob_p
            a2[i, i] += rate2 * prob_q
        return a0, a1, a2

    def boundary_up(self, level: int) -> np.ndarray:
        """Arrival block from boundary level ``level`` (< MPL)."""
        import numpy as np

        size = level + 1
        up = np.zeros((size, size + 1))
        for i in range(size):
            up[i, i + 1] = self.arrival_rate * self.p
            up[i, i] += self.arrival_rate * self.q
        return up

    def boundary_down(self, level: int) -> np.ndarray:
        """Completion block from boundary level ``level`` (1..MPL)."""
        import numpy as np

        size = level + 1
        down = np.zeros((size, level))
        for i in range(size):
            rate1, rate2 = self._service_rates(level, i)
            if i > 0:
                down[i, i - 1] = rate1
            if i < level:
                down[i, i] = rate2
        return down

    def boundary_local(self, level: int) -> np.ndarray:
        """Diagonal local block at boundary level ``level`` (< MPL)."""
        import numpy as np

        size = level + 1
        local = np.zeros((size, size))
        for i in range(size):
            rate1, rate2 = self._service_rates(level, i)
            local[i, i] = -(self.arrival_rate + rate1 + rate2)
        return local

    # -- solution ------------------------------------------------------------------

    def solve(self) -> Tuple[List[np.ndarray], np.ndarray]:
        """Stationary vectors (boundary levels 0..MPL, and R).

        Returns ``(pis, R)`` where ``pis[n]`` is the stationary vector
        of level n for n = 0..MPL and levels beyond follow
        ``pi_{MPL+j} = pi_MPL R^j``.
        """
        if self._solution is not None:
            return self._solution
        if self.load >= 1.0:
            raise ValueError(f"unstable: offered load {self.load:.3f} >= 1")
        import numpy as np

        m = self.mpl
        a0, a1, a2 = self.repeating_blocks()
        rate_matrix = compute_rate_matrix(a0, a1, a2)
        # Level reduction: with local_{n+1} the level-(n+1) local block
        # after folding in every level above it, the balance equations
        # give pi_{n+1} = pi_n R_n, R_n = up(n) (-local_{n+1})^-1.
        local = a1 + rate_matrix @ a2
        factors = []
        for n in range(m - 1, -1, -1):
            factor = self.boundary_up(n) @ np.linalg.inv(-local)
            factors.append(factor)
            local = self.boundary_local(n) + factor @ self.boundary_down(n + 1)
        pis = [np.ones(1)]
        for factor in reversed(factors):
            pis.append(pis[-1] @ factor)
        self._tail_sums = geometric_tail_sums(rate_matrix)
        norm = sum(float(pi.sum()) for pi in pis[:m])
        norm += float((pis[m] @ self._tail_sums[0]).sum())
        self._solution = ([pi / norm for pi in pis], rate_matrix)
        return self._solution

    def level_probabilities(self, max_level: int) -> List[float]:
        """P(N = n) for n = 0..``max_level``."""
        import numpy as np

        pis, rate_matrix = self.solve()
        m = self.mpl
        probabilities = []
        power = np.eye(m + 1)
        for n in range(max_level + 1):
            if n < m:
                probabilities.append(float(pis[n].sum()))
            else:
                probabilities.append(float((pis[m] @ power).sum()))
                power = power @ rate_matrix
        return probabilities

    def mean_number_in_system(self) -> float:
        """E[N] including jobs waiting in the FIFO queue."""
        pis, rate_matrix = self.solve()
        m = self.mpl
        total = sum(n * float(pis[n].sum()) for n in range(m))
        inv1, inv2 = self._tail_sums
        # sum_j (m + j) pi_m R^j 1 = m pi_m (I-R)^-1 1 + pi_m R (I-R)^-2 1
        tail_mass = pis[m] @ inv1
        tail_extra = pis[m] @ (rate_matrix @ inv2)
        total += m * float(tail_mass.sum()) + float(tail_extra.sum())
        return total

    def mean_response_time(self) -> float:
        """E[T] by Little's law."""
        return self.mean_number_in_system() / self.arrival_rate

    # -- references -----------------------------------------------------------------

    def ps_reference(self) -> float:
        """M/G/1-PS mean response time (the MPL → ∞ limit)."""
        return self.service_mean / (1.0 - self.load)
