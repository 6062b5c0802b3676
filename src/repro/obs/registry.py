"""Process-wide metrics registry: counters, gauges and histograms.

The registry answers "what did this process do?" — engine events
stepped, placement attempts, runner cache hits/misses/stores, per-task
wall-clock — without ever influencing results.  Instruments are plain
aggregate accumulators (an increment is one integer add, a histogram
observation updates four scalars), so the cost is near zero whether
observability is on or off; the *gate* decides only whether snapshots
are written anywhere.

One module-level :data:`REGISTRY` serves the whole process.  Worker
processes get their own copy (fork/spawn); their numbers reach the
parent through the per-task :class:`~repro.obs.manifest.RunManifest`
side-band, not through shared memory — the registry deliberately has no
cross-process machinery.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Optional

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "REGISTRY"]

#: Geometric bucket growth factor for histogram quantile estimates.
#: Consecutive bucket boundaries differ by 10%, so any quantile
#: estimate is within ±5% of the true sample quantile — plenty for
#: dashboard latency tiles, at a few hundred buckets across 12 orders
#: of magnitude.
_BUCKET_FACTOR = 1.1

_LOG_FACTOR = math.log(_BUCKET_FACTOR)

#: The sweep service increments counters from executor threads.
_COUNTER_LOCK = threading.Lock()


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, "
                             f"got {amount!r}")
        with _COUNTER_LOCK:
            self.value += amount

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A value that goes up and down (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current level."""
        self.value = float(value)

    def add(self, delta: float) -> None:
        """Adjust the current level by ``delta``."""
        self.value += float(delta)

    def __repr__(self) -> str:
        return f"<Gauge {self.name}={self.value:g}>"


class Histogram:
    """Aggregate distribution summary with streaming quantiles.

    Bounded memory by design — observations are folded into four
    scalars plus a geometric bucket table (boundaries growing by
    :data:`_BUCKET_FACTOR`), never stored — so per-task wall-clock can
    be observed for millions of tasks without growth, and the
    dashboard's latency tiles get p50/p90/p99 estimates without raw
    samples.  Estimates are within half a bucket (±5%) of the true
    sample quantile; non-positive observations share one underflow
    bucket (wall-clock durations, the only current use, are positive).
    """

    __slots__ = ("name", "count", "total", "minimum", "maximum",
                 "_buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self._buckets: Dict[int, int] = {}

    @staticmethod
    def _bucket(value: float) -> int:
        if value <= 0.0:
            # Underflow bucket: all non-positive values collapse here
            # and quantiles falling in it report the observed minimum.
            return -(10 ** 6)
        return int(math.floor(math.log(value) / _LOG_FACTOR))

    def observe(self, value: float) -> None:
        """Fold one observation into the aggregates."""
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        index = self._bucket(value)
        self._buckets[index] = self._buckets.get(index, 0) + 1

    @property
    def mean(self) -> float:
        """Mean of the observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """Estimated ``q``-quantile (``None`` when empty).

        Walks the bucket table cumulating counts until the target rank
        is covered and returns the geometric midpoint of that bucket,
        clamped into ``[min, max]`` so the estimate never leaves the
        observed range.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        if not self.count:
            return None
        rank = q * self.count
        seen = 0
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen >= rank:
                if index <= -(10 ** 6):
                    return self.minimum
                mid = math.exp((index + 0.5) * _LOG_FACTOR)
                return min(max(mid, self.minimum), self.maximum)
        return self.maximum

    def summary(self) -> dict:
        """JSON-ready aggregate dict (empty histograms report nulls)."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
            "mean": self.mean if self.count else None,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }

    def __repr__(self) -> str:
        return (f"<Histogram {self.name} n={self.count} "
                f"mean={self.mean:g}>")


class MetricsRegistry:
    """Create-on-first-use registry of named instruments.

    Instruments are keyed by name within their family; asking for the
    same name twice returns the same instrument, so call sites never
    coordinate.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        try:
            return self._counters[name]
        except KeyError:
            instrument = self._counters[name] = Counter(name)
            return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (created on first use)."""
        try:
            return self._gauges[name]
        except KeyError:
            instrument = self._gauges[name] = Gauge(name)
            return instrument

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name`` (created on first use)."""
        try:
            return self._histograms[name]
        except KeyError:
            instrument = self._histograms[name] = Histogram(name)
            return instrument

    def snapshot(self) -> dict:
        """JSON-ready state of every instrument, sorted by name."""
        return {
            "counters": {name: c.value
                         for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value
                       for name, g in sorted(self._gauges.items())},
            "histograms": {name: h.summary()
                           for name, h in
                           sorted(self._histograms.items())},
        }

    def merge_counts(self, counts: Optional[dict],
                     prefix: str = "") -> None:
        """Fold a ``{name: int}`` mapping into counters (manifest
        metrics from a finished run, for example)."""
        if not counts:
            return
        for name, value in counts.items():
            if isinstance(value, (int, float)) and value >= 0:
                self.counter(prefix + name).inc(int(value))

    def reset(self) -> None:
        """Drop every instrument (tests and fresh CLI commands)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    def __repr__(self) -> str:
        return (f"<MetricsRegistry counters={len(self._counters)} "
                f"gauges={len(self._gauges)} "
                f"histograms={len(self._histograms)}>")


#: The process-wide registry.
REGISTRY = MetricsRegistry()
