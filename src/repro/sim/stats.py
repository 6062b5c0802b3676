"""Output-analysis statistics for simulation runs.

Three collector types cover steady-state output analysis:

* :class:`Tally` — observation-based statistics (response times): running
  count/mean/variance via Welford's algorithm, min/max.
* :class:`TimeWeighted` — time-average of a piecewise-constant signal
  (queue lengths, busy processors): the integral of the signal divided by
  elapsed time, with support for resetting at the end of a warmup period.
* :class:`RunStats` — the three measured numbers of one run (gross and
  net utilization, mean response with its batch-means confidence
  interval, Law & Kelton ch. 9), written once for the scalar recorder
  and the batch kernel's lanes.

Student-t quantiles are computed with the Cornish–Fisher expansion of the
t distribution around the normal quantile (Abramowitz & Stegun 26.7.5),
accurate to ~1e-4 for the degrees of freedom used here, so the package
needs no SciPy dependency.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

__all__ = [
    "Tally",
    "TimeWeighted",
    "RunStats",
    "Histogram",
    "normal_quantile",
    "student_t_quantile",
    "t_half_width",
    "ConfidenceInterval",
]


class ConfidenceInterval:
    """A symmetric confidence interval ``mean ± half_width``."""

    __slots__ = ("mean", "half_width", "level")

    def __init__(self, mean: float, half_width: float, level: float) -> None:
        self.mean = mean
        self.half_width = half_width
        self.level = level

    @property
    def low(self) -> float:
        """Lower endpoint."""
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        """Upper endpoint."""
        return self.mean + self.half_width

    @property
    def relative_width(self) -> float:
        """Half width relative to |mean| (inf for zero mean)."""
        if self.mean == 0:
            return math.inf
        return self.half_width / abs(self.mean)

    def __contains__(self, value: float) -> bool:
        return self.low <= value <= self.high

    def __repr__(self) -> str:
        return (
            f"CI{self.level:.0%}({self.mean:.6g} ± {self.half_width:.3g})"
        )


class Tally:
    """Observation statistics: count, mean, variance, extrema.

    Uses Welford's online algorithm so it is numerically stable for long
    runs and never stores the observations; ``m2`` is its running sum of
    squared deviations from the mean.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.reset()

    def reset(self) -> None:
        """Forget all observations (e.g. at the end of warmup)."""
        self.count = 0
        self._mean = 0.0
        self.m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self.total = 0.0

    def record(self, value: float) -> None:
        """Add one observation."""
        self.count += 1
        self.total += value
        delta = value - self._mean
        self._mean += delta / self.count
        self.m2 += delta * (value - self._mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def record_many(self, values: Iterable[float]) -> None:
        """Add a sequence of observations."""
        for v in values:
            self.record(v)

    @property
    def mean(self) -> float:
        """Sample mean (nan when empty)."""
        return self._mean if self.count else math.nan

    @property
    def variance(self) -> float:
        """Unbiased sample variance (nan for < 2 observations)."""
        if self.count < 2:
            return math.nan
        return self.m2 / (self.count - 1)

    @property
    def std(self) -> float:
        """Sample standard deviation."""
        v = self.variance
        return math.sqrt(v) if v == v else math.nan

    @property
    def cv(self) -> float:
        """Sample coefficient of variation."""
        if not self.count or self._mean == 0:
            return math.nan
        return self.std / abs(self._mean)

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<Tally{label} n={self.count} mean={self.mean:.6g}>"


class TimeWeighted:
    """Time-average of a piecewise-constant signal.

    ``update(t, value)`` states that the signal takes ``value`` from time
    ``t`` onward; ``mean(t)`` integrates up to ``t``.  ``reset(t)``
    restarts accumulation at ``t`` keeping the current level — used to
    discard a warmup transient.
    """

    def __init__(self, time: float = 0.0, value: float = 0.0, name: str = "") -> None:
        self.name = name
        self._last_time = float(time)
        self._value = float(value)
        self._area = 0.0
        self._origin = float(time)
        self.maximum = float(value)
        self.minimum = float(value)

    @property
    def value(self) -> float:
        """Current level of the signal."""
        return self._value

    def update(self, time: float, value: float) -> None:
        """Advance to ``time`` and set a new level."""
        if time < self._last_time:
            raise ValueError(
                f"time moved backwards: {time!r} < {self._last_time!r}"
            )
        self._area += self._value * (time - self._last_time)
        self._last_time = time
        self._value = float(value)
        if value > self.maximum:
            self.maximum = float(value)
        if value < self.minimum:
            self.minimum = float(value)

    def add(self, time: float, delta: float) -> None:
        """Advance to ``time`` and shift the level by ``delta``."""
        self.update(time, self._value + delta)

    def reset(self, time: float) -> None:
        """Restart integration at ``time`` (level preserved)."""
        if time < self._last_time:
            raise ValueError(
                f"time moved backwards: {time!r} < {self._last_time!r}"
            )
        self._area = 0.0
        self._last_time = float(time)
        self._origin = float(time)
        self.maximum = self._value
        self.minimum = self._value

    def integral(self, time: float) -> float:
        """∫ signal dt from the last reset to ``time``."""
        if time < self._last_time:
            raise ValueError(
                f"time moved backwards: {time!r} < {self._last_time!r}"
            )
        return self._area + self._value * (time - self._last_time)

    def mean(self, time: float) -> float:
        """Time-average from the last reset to ``time``."""
        elapsed = time - self._origin
        if elapsed <= 0:
            return math.nan
        return self.integral(time) / elapsed

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<TimeWeighted{label} value={self._value:.6g}>"


class RunStats:
    """The measured statistics of one run, written once for both engines.

    A run's results are its gross and net utilization and its mean
    response with a batch-means CI half width.  The scalar
    :class:`~repro.metrics.recorder.MetricsRecorder` and every lane of
    the batch kernel (:mod:`repro.sim.batch`) keep one record and call
    :meth:`start` and :meth:`finish` as jobs start and depart,
    :meth:`reset` at the end of warm-up (areas, responses and batches
    restart; the busy levels are kept) and :meth:`summary` at the end,
    so both engines compute those numbers with the same float
    operations in the same order.  The busy levels are piecewise
    constant and accrue as :class:`TimeWeighted` does; responses feed
    Welford's mean and fixed-size batches, whose means feed a Welford
    mean and M2.

    Gross and net share one ``last`` timestamp: every start and every
    departure changes both levels at the same instant, so two separate
    :class:`TimeWeighted` clocks would always be equal and the accruals
    are the same float products.  An event at ``last`` would accrue a
    zero-width area, adding exactly zero, so the accrual is skipped
    there; the areas are bit-identical either way.
    """

    __slots__ = ("batch_size", "gross", "net", "gross_area", "net_area",
                 "last", "origin", "count", "mean", "batch_sum", "in_batch",
                 "batches", "batch_mean", "batch_m2")

    def __init__(self, batch_size: int) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size!r}")
        self.batch_size = int(batch_size)
        #: Busy processors and their useful-work rate right now.
        self.gross = 0.0
        self.net = 0.0
        self.reset(0.0)

    def start(self, now: float, size: float, net: float) -> None:
        """A job of ``size`` processors and net rate ``net`` starts."""
        last = self.last
        if now > last:
            dt = now - last
            self.gross_area += self.gross * dt
            self.net_area += self.net * dt
            self.last = now
        elif now < last:
            raise ValueError(f"time moved backwards: {now!r} < {last!r}")
        self.gross += size
        self.net += net

    def finish(self, now: float, size: float, net: float,
               response: float) -> None:
        """That job departs, ``response`` after its arrival."""
        self.start(now, -size, -net)
        count = self.count + 1
        self.count = count
        self.mean += (response - self.mean) / count
        self.batch_sum += response
        self.in_batch += 1
        if self.in_batch == self.batch_size:
            value = self.batch_sum / self.batch_size
            batches = self.batches + 1
            self.batches = batches
            delta = value - self.batch_mean
            self.batch_mean += delta / batches
            self.batch_m2 += delta * (value - self.batch_mean)
            self.in_batch = 0
            self.batch_sum = 0.0

    def reset(self, now: float) -> None:
        """Restart measurement at ``now``, keeping the busy levels."""
        self.gross_area = 0.0
        self.net_area = 0.0
        self.last = now
        self.origin = now
        self.count = 0
        self.mean = 0.0
        self.batch_sum = 0.0
        self.in_batch = 0
        self.batches = 0
        self.batch_mean = 0.0
        self.batch_m2 = 0.0

    def summary(self, now: float, capacity: int, level: float
                ) -> tuple[float, float, float, float]:
        """Gross and net utilization of ``capacity`` processors, the mean
        response (nan without departures) and its CI half width at
        ``level``, over the window from the last reset to ``now``."""
        elapsed = now - self.origin
        if elapsed <= 0:
            raise ValueError("empty measurement window")
        tail = now - self.last
        if tail < 0:
            raise ValueError(f"time moved backwards: {now!r} < {self.last!r}")
        denom = capacity * elapsed
        return ((self.gross_area + self.gross * tail) / denom,
                (self.net_area + self.net * tail) / denom,
                self.mean if self.count else math.nan,
                t_half_width(self.batches, self.batch_m2, level))


class Histogram:
    """Fixed-bin histogram with under/overflow tracking."""

    def __init__(self, low: float, high: float, bins: int, name: str = "") -> None:
        if bins < 1 or high <= low:
            raise ValueError("need bins >= 1 and low < high")
        self.name = name
        self.low = float(low)
        self.high = float(high)
        self.bins = int(bins)
        self.counts = np.zeros(bins, dtype=np.int64)
        self.underflow = 0
        self.overflow = 0
        self._width = (high - low) / bins

    def record(self, value: float) -> None:
        """Add one observation."""
        if value < self.low:
            self.underflow += 1
        elif value >= self.high:
            self.overflow += 1
        else:
            self.counts[int((value - self.low) / self._width)] += 1

    @property
    def total(self) -> int:
        """All observations, including under/overflow."""
        return int(self.counts.sum()) + self.underflow + self.overflow

    def edges(self) -> np.ndarray:
        """Bin edges (length bins + 1)."""
        return np.linspace(self.low, self.high, self.bins + 1)

    def density(self) -> np.ndarray:
        """Per-bin probability mass (ignoring under/overflow)."""
        inside = self.counts.sum()
        if inside == 0:
            return np.zeros(self.bins)
        return self.counts / inside

    def __repr__(self) -> str:
        return f"<Histogram [{self.low}, {self.high}) n={self.total}>"


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF (Acklam's rational approximation).

    Absolute error below 1.15e-9 over the full open interval (0, 1).
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0,1), got {p!r}")
    # Coefficients for the central and tail rational approximations.
    a = (-3.969683028665376e+01, 2.209460984245205e+02,
         -2.759285104469687e+02, 1.383577518672690e+02,
         -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02,
         -1.556989798598866e+02, 6.680131188771972e+01,
         -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01,
         -2.400758277161838e+00, -2.549732539343734e+00,
         4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01,
         2.445134137142996e+00, 3.754408661907416e+00)
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q
                + c[5]) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    if p > 1 - p_low:
        q = math.sqrt(-2 * math.log(1 - p))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q
                 + c[5]) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r
            + a[5]) * q / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r
                            + b[4]) * r + 1)


def student_t_quantile(p: float, df: int) -> float:
    """Inverse Student-t CDF via Cornish–Fisher expansion around normal.

    Exact for df = 1 (Cauchy) and df = 2 (closed form); otherwise the
    four-term A&S 26.7.5 series, good to ~1e-4 for df >= 3.
    """
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df!r}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0,1), got {p!r}")
    if df == 1:
        return math.tan(math.pi * (p - 0.5))
    if df == 2:
        a = 2 * p - 1
        return a * math.sqrt(2.0 / (1.0 - a * a))
    x = normal_quantile(p)
    g1 = (x**3 + x) / 4.0
    g2 = (5 * x**5 + 16 * x**3 + 3 * x) / 96.0
    g3 = (3 * x**7 + 19 * x**5 + 17 * x**3 - 15 * x) / 384.0
    g4 = (79 * x**9 + 776 * x**7 + 1482 * x**5 - 1920 * x**3 - 945 * x) / 92160.0
    n = float(df)
    return x + g1 / n + g2 / n**2 + g3 / n**3 + g4 / n**4


def t_half_width(count: int, m2: float, level: float) -> float:
    """Student-t half width at ``level`` of the mean of ``count`` samples
    whose sum of squared deviations is ``m2``.

    With fewer than 2 samples the half width is infinite — a loud signal
    that the run was too short.
    """
    if count < 2:
        return math.inf
    t = student_t_quantile(0.5 + level / 2.0, count - 1)
    return t * math.sqrt(m2 / (count - 1)) / math.sqrt(count)
