"""Probability distributions for simulation input modelling.

All distributions share the tiny :class:`Distribution` interface — a
``sample(rng)`` method drawing one variate from a NumPy generator plus
analytic ``mean``/``variance`` where known — so models can be parameterised
by distribution objects and the analysis layer can compute offered loads
without sampling.

The workload module builds its empirical DAS distributions on top of
:class:`DiscreteEmpirical` (job sizes, integer support) and
:class:`ContinuousEmpirical` (service times, sampled from binned trace
data with within-bin interpolation).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Distribution",
    "Deterministic",
    "Exponential",
    "Uniform",
    "Erlang",
    "Hyperexponential",
    "Lognormal",
    "TruncatedLognormal",
    "Weibull",
    "BoundedPareto",
    "DiscreteEmpirical",
    "ContinuousEmpirical",
    "Mixture",
    "Scaled",
    "sample_exact",
]


class Distribution:
    """Interface for one-dimensional random variates."""

    #: True when ``sample_array(rng, n)`` returns exactly what ``n``
    #: successive ``sample(rng)`` calls return and leaves the generator
    #: in the same state, so :func:`sample_exact` may use it.
    #: Conservatively False by default: vectorised rejection sampling,
    #: interleaved multi-draw schemes (hyperexponentials) and any
    #: vectorisation that reorders consumption are fast but not
    #: stream-exact.
    block_equivalent: bool = False

    def sample(self, rng: np.random.Generator) -> float:
        """Draw one variate."""
        raise NotImplementedError

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` variates (vectorised where possible)."""
        return np.array([self.sample(rng) for _ in range(n)], dtype=float)

    @property
    def mean(self) -> float:
        """Analytic mean."""
        raise NotImplementedError

    @property
    def variance(self) -> float:
        """Analytic variance."""
        raise NotImplementedError

    @property
    def cv(self) -> float:
        """Coefficient of variation (std / mean)."""
        m = self.mean
        if m == 0:
            return math.inf
        return math.sqrt(self.variance) / m


class Deterministic(Distribution):
    """Always returns ``value`` — handy for tests and sensitivity studies."""

    block_equivalent = True

    def __init__(self, value: float) -> None:
        self.value = float(value)

    def sample(self, rng: np.random.Generator) -> float:
        return self.value

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, self.value)

    @property
    def mean(self) -> float:
        return self.value

    @property
    def variance(self) -> float:
        return 0.0

    def __repr__(self) -> str:
        return f"Deterministic({self.value!r})"


class Exponential(Distribution):
    """Exponential distribution with the given *mean* (not rate).

    The paper uses exponential interarrival times; the arrival rate is
    ``1 / mean``.
    """

    block_equivalent = True

    def __init__(self, mean: float) -> None:
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean!r}")
        self._mean = float(mean)

    @property
    def rate(self) -> float:
        """Event rate λ = 1 / mean."""
        return 1.0 / self._mean

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.exponential(self._mean))

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.exponential(self._mean, size=n)

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def variance(self) -> float:
        return self._mean * self._mean

    def __repr__(self) -> str:
        return f"Exponential(mean={self._mean!r})"


class Uniform(Distribution):
    """Continuous uniform on [low, high)."""

    block_equivalent = True

    def __init__(self, low: float, high: float) -> None:
        if high <= low:
            raise ValueError(f"need low < high, got [{low!r}, {high!r})")
        self.low = float(low)
        self.high = float(high)

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.low, self.high))

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=n)

    @property
    def mean(self) -> float:
        return 0.5 * (self.low + self.high)

    @property
    def variance(self) -> float:
        return (self.high - self.low) ** 2 / 12.0

    def __repr__(self) -> str:
        return f"Uniform({self.low!r}, {self.high!r})"


class Erlang(Distribution):
    """Erlang-k distribution with the given mean (CV = 1/sqrt(k) < 1)."""

    block_equivalent = True

    def __init__(self, k: int, mean: float) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k!r}")
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean!r}")
        self.k = int(k)
        self._mean = float(mean)

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.gamma(self.k, self._mean / self.k))

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.gamma(self.k, self._mean / self.k, size=n)

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def variance(self) -> float:
        return self._mean * self._mean / self.k

    def __repr__(self) -> str:
        return f"Erlang(k={self.k}, mean={self._mean!r})"


class Hyperexponential(Distribution):
    """Two-phase hyperexponential (CV > 1), phase picked per sample."""

    def __init__(self, p: float, mean1: float, mean2: float) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0,1], got {p!r}")
        if mean1 <= 0 or mean2 <= 0:
            raise ValueError("phase means must be positive")
        self.p = float(p)
        self.mean1 = float(mean1)
        self.mean2 = float(mean2)

    def sample(self, rng: np.random.Generator) -> float:
        mean = self.mean1 if rng.random() < self.p else self.mean2
        return float(rng.exponential(mean))

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        choice = rng.random(n) < self.p
        means = np.where(choice, self.mean1, self.mean2)
        return rng.exponential(1.0, size=n) * means

    @property
    def mean(self) -> float:
        return self.p * self.mean1 + (1 - self.p) * self.mean2

    @property
    def variance(self) -> float:
        second = 2 * (self.p * self.mean1**2 + (1 - self.p) * self.mean2**2)
        return second - self.mean**2

    def __repr__(self) -> str:
        return f"Hyperexponential(p={self.p!r}, {self.mean1!r}, {self.mean2!r})"


class Lognormal(Distribution):
    """Lognormal parameterised by its *arithmetic* mean and CV."""

    block_equivalent = True

    def __init__(self, mean: float, cv: float) -> None:
        if mean <= 0 or cv <= 0:
            raise ValueError("mean and cv must be positive")
        self._mean = float(mean)
        self._cv = float(cv)
        self.sigma2 = math.log(1.0 + cv * cv)
        self.sigma = math.sqrt(self.sigma2)
        self.mu = math.log(mean) - 0.5 * self.sigma2

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.lognormal(self.mu, self.sigma))

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.lognormal(self.mu, self.sigma, size=n)

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def variance(self) -> float:
        return (self._cv * self._mean) ** 2

    def __repr__(self) -> str:
        return f"Lognormal(mean={self._mean!r}, cv={self._cv!r})"


class TruncatedLognormal(Distribution):
    """Lognormal conditioned on a support interval via rejection.

    Used to model service-time bodies bounded by an administrative limit
    (the DAS 900 s working-hours kill).  Mean/variance are estimated
    numerically once at construction.
    """

    _MOMENT_SAMPLES = 200_000

    def __init__(self, base: Lognormal, low: float = 0.0,
                 high: float = math.inf, moment_seed: int = 0) -> None:
        if high <= low:
            raise ValueError(f"need low < high, got [{low!r}, {high!r}]")
        self.base = base
        self.low = float(low)
        self.high = float(high)
        rng = np.random.default_rng(moment_seed)
        draws = base.sample_array(rng, self._MOMENT_SAMPLES)
        kept = draws[(draws >= self.low) & (draws <= self.high)]
        if kept.size < 100:
            raise ValueError("truncation interval has negligible mass")
        self.acceptance = kept.size / draws.size
        self._mean = float(kept.mean())
        self._variance = float(kept.var())

    def sample(self, rng: np.random.Generator) -> float:
        while True:
            x = self.base.sample(rng)
            if self.low <= x <= self.high:
                return x

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        out = np.empty(n)
        filled = 0
        while filled < n:
            batch = max(64, int((n - filled) / max(self.acceptance, 1e-3)))
            draws = self.base.sample_array(rng, batch)
            kept = draws[(draws >= self.low) & (draws <= self.high)]
            take = min(kept.size, n - filled)
            out[filled:filled + take] = kept[:take]
            filled += take
        return out

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def variance(self) -> float:
        return self._variance

    def __repr__(self) -> str:
        return (
            f"TruncatedLognormal({self.base!r}, [{self.low!r}, {self.high!r}])"
        )


class Weibull(Distribution):
    """Weibull distribution with the given scale and shape.

    ``shape < 1`` gives a heavier-than-exponential tail (CV > 1),
    ``shape > 1`` a lighter one — the standard knob for service-time
    tail studies.
    """

    block_equivalent = True

    def __init__(self, scale: float, shape: float) -> None:
        if scale <= 0 or shape <= 0:
            raise ValueError("scale and shape must be positive")
        self.scale = float(scale)
        self.shape = float(shape)
        g1 = math.gamma(1.0 + 1.0 / shape)
        g2 = math.gamma(1.0 + 2.0 / shape)
        self._mean = scale * g1
        self._variance = scale * scale * (g2 - g1 * g1)

    def sample(self, rng: np.random.Generator) -> float:
        return float(self.scale * rng.weibull(self.shape))

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.scale * rng.weibull(self.shape, size=n)

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def variance(self) -> float:
        return self._variance

    def __repr__(self) -> str:
        return f"Weibull(scale={self.scale!r}, shape={self.shape!r})"


class BoundedPareto(Distribution):
    """Pareto distribution truncated to [low, high].

    The classic heavy-tail model for compute demand (Harchol-Balter &
    Downey): P(X > x) ∝ x^-alpha on the bounded support.  Sampling by
    inverse-CDF; moments in closed form.
    """

    block_equivalent = True

    def __init__(self, alpha: float, low: float, high: float) -> None:
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha!r}")
        if not 0 < low < high:
            raise ValueError(f"need 0 < low < high, got [{low!r}, {high!r}]")
        self.alpha = float(alpha)
        self.low = float(low)
        self.high = float(high)
        self._lo_a = self.low ** self.alpha
        self._ratio = (self.low / self.high) ** self.alpha

    def _moment(self, k: int) -> float:
        a, lo, hi = self.alpha, self.low, self.high
        if abs(a - k) < 1e-12:
            # Degenerate exponent: integral yields a log term.
            norm = 1.0 - self._ratio
            return (a * lo**a) * math.log(hi / lo) / norm
        norm = 1.0 - self._ratio
        return ((a * lo**a) / (a - k)
                * (lo ** (k - a) - hi ** (k - a)) / norm)

    def sample(self, rng: np.random.Generator) -> float:
        return float(self.sample_array(rng, 1)[0])

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        u = rng.random(n)
        # Inverse CDF of the bounded Pareto.
        a = self.alpha
        return (
            -(u * self.high**a - u * self.low**a - self.high**a)
            / (self.high**a * self.low**a)
        ) ** (-1.0 / a)

    @property
    def mean(self) -> float:
        return self._moment(1)

    @property
    def variance(self) -> float:
        m = self._moment(1)
        return self._moment(2) - m * m

    def __repr__(self) -> str:
        return (
            f"BoundedPareto(alpha={self.alpha!r}, "
            f"[{self.low!r}, {self.high!r}])"
        )


class DiscreteEmpirical(Distribution):
    """Discrete distribution over arbitrary values with given weights.

    This is the workhorse for trace-derived *job-size* distributions:
    values are the observed sizes, weights their observed frequencies.
    Sampling uses a precomputed cumulative table with binary search.
    """

    block_equivalent = True

    def __init__(self, values: Sequence[float], weights: Sequence[float]) -> None:
        values = np.asarray(values, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if values.shape != weights.shape or values.ndim != 1:
            raise ValueError("values and weights must be equal-length 1-D")
        if values.size == 0:
            raise ValueError("empty support")
        if np.any(weights < 0):
            raise ValueError("negative weight")
        total = float(weights.sum())
        if total <= 0:
            raise ValueError("weights sum to zero")
        order = np.argsort(values, kind="stable")
        self.values = values[order]
        self.probabilities = weights[order] / total
        self._cdf = np.cumsum(self.probabilities)
        self._cdf[-1] = 1.0  # guard against rounding drift

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "DiscreteEmpirical":
        """Build the empirical distribution of a sample (e.g. a trace)."""
        values, counts = np.unique(np.asarray(samples, dtype=float),
                                   return_counts=True)
        return cls(values, counts.astype(float))

    def sample(self, rng: np.random.Generator) -> float:
        u = rng.random()
        idx = int(np.searchsorted(self._cdf, u, side="right"))
        idx = min(idx, self.values.size - 1)
        return float(self.values[idx])

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        u = rng.random(n)
        idx = np.searchsorted(self._cdf, u, side="right")
        np.clip(idx, 0, self.values.size - 1, out=idx)
        return self.values[idx]

    def prob(self, value: float) -> float:
        """Probability mass at ``value`` (0 if not in support)."""
        idx = np.searchsorted(self.values, value)
        if idx < self.values.size and self.values[idx] == value:
            return float(self.probabilities[idx])
        return 0.0

    def cdf(self, value: float) -> float:
        """P(X <= value)."""
        idx = np.searchsorted(self.values, value, side="right")
        return float(self._cdf[idx - 1]) if idx > 0 else 0.0

    def truncate(self, high: float) -> "DiscreteEmpirical":
        """Condition on X <= high (the paper's DAS-s-64 construction)."""
        mask = self.values <= high
        if not mask.any():
            raise ValueError(f"no support at or below {high!r}")
        return DiscreteEmpirical(self.values[mask], self.probabilities[mask])

    @property
    def support(self) -> np.ndarray:
        """Sorted array of values with positive probability."""
        return self.values

    @property
    def mean(self) -> float:
        return float(np.dot(self.values, self.probabilities))

    @property
    def variance(self) -> float:
        m = self.mean
        return float(np.dot((self.values - m) ** 2, self.probabilities))

    def expectation(self, fn: Callable[[np.ndarray], np.ndarray]) -> float:
        """E[fn(X)] for a vectorised function ``fn``."""
        return float(np.dot(fn(self.values), self.probabilities))

    def __repr__(self) -> str:
        return (
            f"DiscreteEmpirical(n={self.values.size}, mean={self.mean:.4g}, "
            f"cv={self.cv:.4g})"
        )


class ContinuousEmpirical(Distribution):
    """Continuous distribution reconstructed from binned samples.

    Samples a bin according to observed frequency and interpolates
    uniformly within it — the standard way to replay a *service-time*
    histogram from a trace without step artefacts.
    """

    def __init__(self, edges: Sequence[float], counts: Sequence[float]) -> None:
        edges = np.asarray(edges, dtype=float)
        counts = np.asarray(counts, dtype=float)
        if edges.ndim != 1 or counts.ndim != 1 or edges.size != counts.size + 1:
            raise ValueError("need len(edges) == len(counts) + 1")
        if np.any(np.diff(edges) <= 0):
            raise ValueError("edges must be strictly increasing")
        if np.any(counts < 0) or counts.sum() <= 0:
            raise ValueError("counts must be nonnegative with positive sum")
        self.edges = edges
        self.probabilities = counts / counts.sum()
        self._cdf = np.cumsum(self.probabilities)
        self._cdf[-1] = 1.0
        mids = 0.5 * (edges[:-1] + edges[1:])
        widths = np.diff(edges)
        self._mean = float(np.dot(mids, self.probabilities))
        second = np.dot(mids**2 + widths**2 / 12.0, self.probabilities)
        self._variance = float(second - self._mean**2)

    @classmethod
    def from_samples(cls, samples: Sequence[float],
                     bins: int = 100) -> "ContinuousEmpirical":
        """Histogram a sample and return the matching distribution."""
        counts, edges = np.histogram(np.asarray(samples, dtype=float),
                                     bins=bins)
        return cls(edges, counts.astype(float))

    def sample(self, rng: np.random.Generator) -> float:
        return float(self.sample_array(rng, 1)[0])

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        u = rng.random(n)
        idx = np.searchsorted(self._cdf, u, side="right")
        np.clip(idx, 0, self.probabilities.size - 1, out=idx)
        lo = self.edges[idx]
        hi = self.edges[idx + 1]
        return lo + rng.random(n) * (hi - lo)

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def variance(self) -> float:
        return self._variance

    def __repr__(self) -> str:
        return (
            f"ContinuousEmpirical(bins={self.probabilities.size}, "
            f"mean={self.mean:.4g})"
        )


class Mixture(Distribution):
    """Finite mixture of component distributions."""

    block_equivalent = True

    def __init__(self, components: Sequence[Distribution],
                 weights: Sequence[float]) -> None:
        if len(components) != len(weights) or not components:
            raise ValueError("components and weights must match and be nonempty")
        w = np.asarray(weights, dtype=float)
        if np.any(w < 0) or w.sum() <= 0:
            raise ValueError("weights must be nonnegative with positive sum")
        self.components = tuple(components)
        self.weights = w / w.sum()
        self._cdf = np.cumsum(self.weights)
        self._cdf[-1] = 1.0

    def sample(self, rng: np.random.Generator) -> float:
        u = rng.random()
        idx = int(np.searchsorted(self._cdf, u, side="right"))
        idx = min(idx, len(self.components) - 1)
        return self.components[idx].sample(rng)

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # The ``sample`` loop with its lookups hoisted: the same uniform
        # per draw, the same pick (``bisect_right`` over the same CDF
        # floats is ``searchsorted(side="right")``, clamped to the last
        # component) and the same component ``sample`` call.
        cdf = self._cdf.tolist()
        samplers = [c.sample for c in self.components]
        last = len(samplers) - 1
        random = rng.random
        out = np.empty(n)
        for i in range(n):
            out[i] = samplers[min(bisect_right(cdf, random()), last)](rng)
        return out

    @property
    def mean(self) -> float:
        return float(sum(w * c.mean for w, c in
                         zip(self.weights, self.components)))

    @property
    def variance(self) -> float:
        m = self.mean
        second = sum(
            w * (c.variance + c.mean**2)
            for w, c in zip(self.weights, self.components)
        )
        return float(second - m * m)

    def __repr__(self) -> str:
        return f"Mixture({len(self.components)} components, mean={self.mean:.4g})"


class Scaled(Distribution):
    """An underlying distribution multiplied by a constant factor.

    Models the paper's *extension factor*: the service time of a
    multi-component job is its base service time scaled by 1.25.
    """

    # Scaling is a pure post-transform of stream-exact base draws.
    block_equivalent = True

    def __init__(self, base: Distribution, factor: float) -> None:
        if factor <= 0:
            raise ValueError(f"factor must be positive, got {factor!r}")
        self.base = base
        self.factor = float(factor)

    def sample(self, rng: np.random.Generator) -> float:
        return self.factor * self.base.sample(rng)

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.factor * sample_exact(self.base, rng, n)

    @property
    def mean(self) -> float:
        return self.factor * self.base.mean

    @property
    def variance(self) -> float:
        return self.factor**2 * self.base.variance

    def __repr__(self) -> str:
        return f"Scaled({self.base!r}, x{self.factor!r})"


def sample_exact(dist: Distribution, rng: np.random.Generator,
                 n: int) -> np.ndarray:
    """``n`` draws of ``dist``, exactly as ``n`` ``dist.sample(rng)``
    calls make them: the same values, the generator left in the same
    state.

    The vectorised ``sample_array`` when ``dist`` declares
    ``block_equivalent``, one ``sample`` call per draw otherwise.  Job
    streams draw through this, so any chunking of them is invisible
    in the values.
    """
    if dist.block_equivalent:
        return dist.sample_array(rng, n)
    return np.array([dist.sample(rng) for _ in range(n)], dtype=float)
