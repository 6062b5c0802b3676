"""Time-series collection: sampled trajectories of system signals.

For diagnosing *why* a policy saturates (which queue grows, which
cluster idles) the aggregate report is not enough — you need the
trajectory.  :class:`TimeSeriesProbe` samples arbitrary signals from a
running simulation at a fixed period (one deferred callback per
period), and :class:`TrajectoryRecorder` wires the standard
multicluster signals (per-queue lengths, per-cluster busy counts, total
backlog) to one probe.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import MulticlusterSimulation

__all__ = ["TimeSeriesProbe", "TrajectoryRecorder"]


class TimeSeriesProbe:
    """Samples named signals periodically inside a simulation.

    Parameters
    ----------
    sim:
        The simulator to sample in.
    signals:
        Mapping of name → zero-argument callable returning a number.
    period:
        Sampling period in simulation time.
    """

    def __init__(self, sim, signals: Mapping[str, Callable[[], float]],
                 period: float):
        if period <= 0:
            raise ValueError(f"period must be positive, got {period!r}")
        if not signals:
            raise ValueError("need at least one signal")
        self.sim = sim
        self.period = float(period)
        self.signals = dict(signals)
        self.times: list[float] = []
        self.samples: dict[str, list[float]] = {
            name: [] for name in signals
        }
        self._running = True
        self._tick_callbacks = (self._tick,)
        sim.defer(0.0, (self._arm,), priority=True)

    def _arm(self, _event: object) -> None:
        if self._running:
            self.sim.defer(self.period, self._tick_callbacks)

    def _tick(self, _event: object) -> None:
        if not self._running:
            return
        self.times.append(self.sim.now)
        for name, fn in self.signals.items():
            self.samples[name].append(float(fn()))
        self._arm(None)

    def stop(self) -> None:
        """Stop sampling (takes effect at the next period boundary)."""
        self._running = False

    def series(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """(times, values) arrays for one signal."""
        return (np.asarray(self.times),
                np.asarray(self.samples[name]))

    def last(self, name: str) -> float:
        """Most recent sample of a signal (nan if none)."""
        values = self.samples[name]
        return values[-1] if values else float("nan")

    def __len__(self) -> int:
        return len(self.times)

    def __repr__(self) -> str:
        return (
            f"<TimeSeriesProbe signals={sorted(self.signals)} "
            f"samples={len(self.times)}>"
        )


class TrajectoryRecorder:
    """Standard multicluster trajectory: queues, clusters, backlog.

    Signals recorded per sample:

    * ``queue:<name>`` — length of each policy queue;
    * ``cluster:<i>.busy`` — busy processors per cluster;
    * ``backlog`` — total jobs waiting;
    * ``busy`` — total busy processors.
    """

    def __init__(self, system: "MulticlusterSimulation", period: float):
        signals: dict[str, Callable[[], float]] = {}
        for queue in system.policy.queues():
            signals[f"queue:{queue.name}"] = (
                lambda q=queue: float(len(q))
            )
        for cluster in system.multicluster:
            signals[f"cluster:{cluster.index}.busy"] = (
                lambda c=cluster: float(c.busy)
            )
        signals["backlog"] = (
            lambda: float(system.policy.pending_jobs())
        )
        signals["busy"] = (
            lambda: float(system.multicluster.total_busy)
        )
        self.system = system
        self.probe = TimeSeriesProbe(system.sim, signals, period)

    def queue_series(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """Trajectory of one queue's length."""
        return self.probe.series(f"queue:{name}")

    def busiest_queue(self) -> str:
        """Queue with the largest final length (the saturation culprit)."""
        finals = {
            key.split(":", 1)[1]: self.probe.last(key)
            for key in self.probe.signals if key.startswith("queue:")
        }
        return max(finals, key=finals.get)

    def mean_busy(self) -> float:
        """Average of the sampled total-busy signal."""
        _, values = self.probe.series("busy")
        return float(values.mean()) if values.size else float("nan")

    def __repr__(self) -> str:
        return f"<TrajectoryRecorder {self.probe!r}>"
