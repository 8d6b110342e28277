"""Service-time distributions used throughout the reproduction.

The paper's analysis (§4.2) models transaction service demands with a
two-phase hyperexponential (H2) distribution parameterized by a mean
and a squared coefficient of variation C²; :func:`fit_hyperexponential`
implements the standard *balanced-means* fit used there.  The
experimental workloads additionally use exponential, Erlang, Pareto,
lognormal and empirical demands.

All distributions draw from a caller-supplied
:class:`random.Random`-compatible generator so that every component of
the simulator can own an independent, reproducible stream (see
:mod:`repro.sim.random`).

Hot consumers (the disk array and the WAL) do not call
:meth:`Distribution.sample` per request; they pull variates through a
:class:`BlockSampler`, which pre-draws whole blocks via
:meth:`Distribution.sample_block` and serves them one at a time.  A
block of ``n`` variates advances the underlying stream exactly as
``n`` individual ``sample`` calls would — the specialized block
implementations hoist parameter lookups, never the arithmetic — so as
long as a stream has a single consumer (the engine's seed-derivation
rule), results are bit-identical to unbuffered sampling.
"""

from __future__ import annotations

import bisect
import math
import random as _random
from typing import List, Optional, Sequence


class Distribution:
    """Base class for positive random variates with known moments."""

    def sample(self, rng: _random.Random) -> float:
        """Draw one variate using ``rng``."""
        raise NotImplementedError

    def sample_block(self, rng: _random.Random, n: int) -> List[float]:
        """Draw ``n`` variates — the stream advances exactly as ``n``
        :meth:`sample` calls would (subclasses may only hoist parameter
        lookups out of the loop, never reorder or batch the raw draws).
        """
        sample = self.sample
        return [sample(rng) for _ in range(n)]

    @property
    def mean(self) -> float:
        """First moment E[X]."""
        raise NotImplementedError

    @property
    def variance(self) -> float:
        """Var[X]."""
        raise NotImplementedError

    @property
    def second_moment(self) -> float:
        """E[X^2] = Var[X] + E[X]^2."""
        return self.variance + self.mean**2

    @property
    def scv(self) -> float:
        """Squared coefficient of variation C^2 = Var[X] / E[X]^2."""
        if self.mean == 0:
            return 0.0
        return self.variance / self.mean**2

    def scaled(self, factor: float) -> "Distribution":
        """A distribution of ``factor * X`` (preserves the C^2)."""
        return _Scaled(self, factor)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(mean={self.mean:.6g}, scv={self.scv:.4g})"


class _Scaled(Distribution):
    """Multiplicative rescaling of another distribution."""

    def __init__(self, base: Distribution, factor: float):
        if factor <= 0:
            raise ValueError(f"scale factor must be positive, got {factor!r}")
        self._base = base
        self._factor = factor

    def sample(self, rng: _random.Random) -> float:
        return self._factor * self._base.sample(rng)

    @property
    def mean(self) -> float:
        return self._factor * self._base.mean

    @property
    def variance(self) -> float:
        return self._factor**2 * self._base.variance


class Deterministic(Distribution):
    """A point mass: every sample equals ``value``."""

    def __init__(self, value: float):
        if value < 0:
            raise ValueError(f"value must be non-negative, got {value!r}")
        self.value = float(value)

    def sample(self, rng: _random.Random) -> float:
        return self.value

    def sample_block(self, rng: _random.Random, n: int) -> List[float]:
        return [self.value] * n

    @property
    def mean(self) -> float:
        return self.value

    @property
    def variance(self) -> float:
        return 0.0


class Exponential(Distribution):
    """Exponential distribution with the given mean (C^2 = 1)."""

    # NB: no derived attributes — a Distribution's ``__dict__`` is part
    # of the canonical config encoding, so every instance attribute is
    # fingerprint-relevant (see repro.core.system.canonical_jsonable).

    def __init__(self, mean: float):
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean!r}")
        self._mean = float(mean)

    @property
    def rate(self) -> float:
        """The rate parameter 1 / mean."""
        return 1.0 / self._mean

    def sample(self, rng: _random.Random) -> float:
        return rng.expovariate(1.0 / self._mean)

    def sample_block(self, rng: _random.Random, n: int) -> List[float]:
        expovariate = rng.expovariate
        rate = 1.0 / self._mean
        return [expovariate(rate) for _ in range(n)]

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def variance(self) -> float:
        return self._mean**2


class Uniform(Distribution):
    """Uniform distribution on [low, high]."""

    def __init__(self, low: float, high: float):
        if not 0 <= low <= high:
            raise ValueError(f"need 0 <= low <= high, got [{low!r}, {high!r}]")
        self.low = float(low)
        self.high = float(high)

    def sample(self, rng: _random.Random) -> float:
        return rng.uniform(self.low, self.high)

    def sample_block(self, rng: _random.Random, n: int) -> List[float]:
        uniform = rng.uniform
        low, high = self.low, self.high
        return [uniform(low, high) for _ in range(n)]

    @property
    def mean(self) -> float:
        return (self.low + self.high) / 2.0

    @property
    def variance(self) -> float:
        return (self.high - self.low) ** 2 / 12.0


class Erlang(Distribution):
    """Erlang-k distribution (sum of k i.i.d. exponentials), C^2 = 1/k."""

    def __init__(self, k: int, mean: float):
        if k < 1:
            raise ValueError(f"shape k must be >= 1, got {k!r}")
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean!r}")
        self.k = int(k)
        self._mean = float(mean)

    def sample(self, rng: _random.Random) -> float:
        phase_mean = self._mean / self.k
        total = 0.0
        for _ in range(self.k):
            total += rng.expovariate(1.0 / phase_mean)
        return total

    def sample_block(self, rng: _random.Random, n: int) -> List[float]:
        expovariate = rng.expovariate
        rate = 1.0 / (self._mean / self.k)
        k_range = range(self.k)
        out = []
        for _ in range(n):
            total = 0.0
            for _ in k_range:
                total += expovariate(rate)
            out.append(total)
        return out

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def variance(self) -> float:
        return self._mean**2 / self.k


class Hyperexponential(Distribution):
    """Mixture of exponentials: rate ``rates[i]`` with probability ``probs[i]``.

    The two-phase case (H2) is the paper's model of variable transaction
    demands; use :func:`fit_hyperexponential` to build one from a target
    mean and C^2.
    """

    def __init__(self, probs: Sequence[float], rates: Sequence[float]):
        if len(probs) != len(rates) or not probs:
            raise ValueError("probs and rates must be equal-length, non-empty")
        if any(p < 0 for p in probs) or abs(sum(probs) - 1.0) > 1e-9:
            raise ValueError(f"probs must be a distribution, got {probs!r}")
        if any(r <= 0 for r in rates):
            raise ValueError(f"rates must be positive, got {rates!r}")
        self.probs = [float(p) for p in probs]
        self.rates = [float(r) for r in rates]
        self._cum = []
        acc = 0.0
        for p in self.probs:
            acc += p
            self._cum.append(acc)
        self._cum[-1] = 1.0

    def sample(self, rng: _random.Random) -> float:
        u = rng.random()
        index = bisect.bisect_left(self._cum, u)
        return rng.expovariate(self.rates[index])

    @property
    def mean(self) -> float:
        return sum(p / r for p, r in zip(self.probs, self.rates))

    @property
    def second_moment_exact(self) -> float:
        return sum(2.0 * p / r**2 for p, r in zip(self.probs, self.rates))

    @property
    def variance(self) -> float:
        return self.second_moment_exact - self.mean**2


def fit_hyperexponential(mean: float, scv: float) -> Distribution:
    """Fit a distribution with the given mean and C^2 (>= 1 gives an H2).

    For ``scv > 1`` this returns the *balanced-means* two-phase
    hyperexponential (each phase contributes half the mean), the
    standard two-moment fit used in the paper's §4.2 analysis:

        p    = (1 + sqrt((scv - 1) / (scv + 1))) / 2
        mu_1 = 2 p / mean,   mu_2 = 2 (1 - p) / mean

    ``scv == 1`` returns an exponential and ``scv < 1`` an Erlang-k
    whose C^2 = 1/k is the closest achievable value from below.
    """
    if mean <= 0:
        raise ValueError(f"mean must be positive, got {mean!r}")
    if scv < 0:
        raise ValueError(f"scv must be non-negative, got {scv!r}")
    if scv < 1e-4:
        # effectively constant (also guards Erlang shape overflow)
        return Deterministic(mean)
    if abs(scv - 1.0) < 1e-12:
        return Exponential(mean)
    if scv < 1.0:
        k = min(10_000, max(1, round(1.0 / scv)))
        return Erlang(k, mean)
    p = 0.5 * (1.0 + math.sqrt((scv - 1.0) / (scv + 1.0)))
    mu1 = 2.0 * p / mean
    mu2 = 2.0 * (1.0 - p) / mean
    return Hyperexponential([p, 1.0 - p], [mu1, mu2])


class Pareto(Distribution):
    """Bounded Pareto-like heavy tail via a shifted Lomax distribution.

    Parameterized by shape ``alpha`` (> 2 for a finite variance) and the
    target mean.  Used to build the very high-variability TPC-W style
    demands.
    """

    def __init__(self, alpha: float, mean: float):
        if alpha <= 2:
            raise ValueError(f"alpha must exceed 2 for finite variance, got {alpha!r}")
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean!r}")
        self.alpha = float(alpha)
        self._mean = float(mean)
        # Lomax(alpha, lambda): mean = lambda / (alpha - 1)
        self._scale = self._mean * (self.alpha - 1.0)

    def sample(self, rng: _random.Random) -> float:
        u = rng.random()
        return self._scale * ((1.0 - u) ** (-1.0 / self.alpha) - 1.0)

    def sample_block(self, rng: _random.Random, n: int) -> List[float]:
        random = rng.random
        scale = self._scale
        exponent = -1.0 / self.alpha
        return [scale * ((1.0 - random()) ** exponent - 1.0) for _ in range(n)]

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def variance(self) -> float:
        a, lam = self.alpha, self._scale
        return lam**2 * a / ((a - 1.0) ** 2 * (a - 2.0))


class LogNormal(Distribution):
    """Lognormal distribution parameterized by its mean and C^2."""

    def __init__(self, mean: float, scv: float):
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean!r}")
        if scv <= 0:
            raise ValueError(f"scv must be positive, got {scv!r}")
        self._mean = float(mean)
        self._scv = float(scv)
        self._sigma2 = math.log(1.0 + scv)
        self._mu = math.log(mean) - self._sigma2 / 2.0

    def sample(self, rng: _random.Random) -> float:
        return math.exp(rng.gauss(self._mu, math.sqrt(self._sigma2)))

    def sample_block(self, rng: _random.Random, n: int) -> List[float]:
        gauss = rng.gauss
        exp = math.exp
        mu = self._mu
        sigma = math.sqrt(self._sigma2)
        return [exp(gauss(mu, sigma)) for _ in range(n)]

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def variance(self) -> float:
        return self._scv * self._mean**2


class Empirical(Distribution):
    """Resampling (with replacement) from an observed set of values."""

    def __init__(self, values: Sequence[float]):
        if not values:
            raise ValueError("values must be non-empty")
        if any(v < 0 for v in values):
            raise ValueError("values must be non-negative")
        self.values: List[float] = [float(v) for v in values]
        n = len(self.values)
        self._mean = sum(self.values) / n
        self._variance = sum((v - self._mean) ** 2 for v in self.values) / n

    def sample(self, rng: _random.Random) -> float:
        return self.values[rng.randrange(len(self.values))]

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def variance(self) -> float:
        return self._variance


class Mixture(Distribution):
    """Probabilistic mixture of component distributions."""

    def __init__(
        self,
        components: Sequence[Distribution],
        weights: Optional[Sequence[float]] = None,
    ):
        if not components:
            raise ValueError("components must be non-empty")
        self.components = list(components)
        if weights is None:
            weights = [1.0] * len(self.components)
        if len(weights) != len(self.components):
            raise ValueError("weights and components must have equal length")
        if any(w < 0 for w in weights) or sum(weights) <= 0:
            raise ValueError(f"weights must be non-negative and not all zero")
        total = float(sum(weights))
        self.weights = [w / total for w in weights]
        self._cum = []
        acc = 0.0
        for w in self.weights:
            acc += w
            self._cum.append(acc)
        self._cum[-1] = 1.0

    def sample(self, rng: _random.Random) -> float:
        u = rng.random()
        index = bisect.bisect_left(self._cum, u)
        return self.components[index].sample(rng)

    @property
    def mean(self) -> float:
        return sum(w * c.mean for w, c in zip(self.weights, self.components))

    @property
    def variance(self) -> float:
        m2 = sum(w * c.second_moment for w, c in zip(self.weights, self.components))
        return m2 - self.mean**2


def moments_to_scv(mean: float, second_moment: float) -> float:
    """C^2 from the first two raw moments."""
    if mean <= 0:
        raise ValueError(f"mean must be positive, got {mean!r}")
    return max(0.0, second_moment / mean**2 - 1.0)


class BlockSampler:
    """Serves one stream's variates from pre-drawn blocks.

    Binds a distribution to the :class:`random.Random` stream that owns
    it and amortizes the per-variate call overhead (method dispatch,
    parameter lookups) over ``block_size`` draws: calling the sampler
    pops the next buffered variate, refilling the buffer via
    :meth:`Distribution.sample_block` when it runs dry.

    **Bit-identity.**  The k-th variate served equals the k-th value
    ``distribution.sample(rng)`` would have returned, because a block
    advances the stream exactly like the equivalent individual draws
    and values are served strictly in draw order.  The only requirement
    is the stream-ownership rule the engine's seed derivation already
    enforces: nothing else may draw from ``rng``, otherwise pre-drawing
    would reorder the interleaving.  Stations sharing one stream (the
    disks of an array) must therefore share one sampler.

    The buffer holds the pending block in reverse, so serving is a
    single O(1) ``list.pop()``.
    """

    __slots__ = ("distribution", "rng", "block_size", "_buffer")

    def __init__(
        self,
        distribution: Distribution,
        rng: _random.Random,
        block_size: int = 512,
    ):
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size!r}")
        self.distribution = distribution
        self.rng = rng
        self.block_size = block_size
        self._buffer: List[float] = []

    def __call__(self) -> float:
        """The next variate of the stream."""
        buffer = self._buffer
        if not buffer:
            buffer = self._buffer = self.distribution.sample_block(
                self.rng, self.block_size
            )
            buffer.reverse()
        return buffer.pop()

    @property
    def pending(self) -> int:
        """Variates drawn but not yet served (introspection/tests)."""
        return len(self._buffer)

    @property
    def mean(self) -> float:
        """The wrapped distribution's mean (pass-through)."""
        return self.distribution.mean

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BlockSampler({self.distribution!r}, block_size={self.block_size}, "
            f"pending={self.pending})"
        )
