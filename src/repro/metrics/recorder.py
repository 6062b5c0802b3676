"""Per-run metric collection: response times and utilizations.

:class:`MetricsRecorder` hooks the three lifecycle callbacks of the
multicluster system (arrival, start, finish) and maintains:

* the run's :class:`~repro.sim.stats.RunStats` — the record the batch
  kernel's lanes also keep — with the mean response and its batch-means
  confidence interval, exact gross utilization (the time integral of
  busy processors) and exact net utilization: a running job occupies
  ``size`` processors but does useful work at rate ``size /
  extension_factor`` (its net demand spread over its extended wall
  time), so integrating that rate yields net processor-seconds exactly,
  including partially-complete jobs;
* mean responses of jobs submitted to local queues vs. the global queue
  (the breakdown of the paper's Figure 4), response quantiles and the
  mean bounded slowdown;
* queue-population statistics (jobs in system, jobs waiting).

Measurement windows: :meth:`reset` discards everything collected so far
(warmup deletion) while preserving levels, so utilizations are exact over
the measurement window.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.sim.quantiles import QuantileSet
from repro.sim.stats import RunStats, Tally, TimeWeighted

from .slowdown import DEFAULT_THRESHOLD, bounded_slowdown

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.jobs import Job

__all__ = ["MetricsRecorder", "UtilizationReport"]


class UtilizationReport:
    """Measured utilizations and response times over a window."""

    __slots__ = (
        "elapsed", "gross_utilization", "net_utilization",
        "mean_response", "response_ci_half_width",
        "mean_response_local", "mean_response_global",
        "response_p50", "response_p95",
        "mean_bounded_slowdown",
        "mean_jobs_in_system", "mean_jobs_waiting",
        "completed_jobs",
    )

    def __init__(self, **kwargs: float):
        for name in self.__slots__:
            try:
                setattr(self, name, kwargs.pop(name))
            except KeyError:
                raise TypeError(f"missing field {name!r}") from None
        if kwargs:
            raise TypeError(f"unexpected fields {sorted(kwargs)!r}")

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view (for tables and serialisation)."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        return (
            f"<UtilizationReport gross={self.gross_utilization:.3f} "
            f"net={self.net_utilization:.3f} "
            f"resp={self.mean_response:.1f}±{self.response_ci_half_width:.1f}>"
        )


class MetricsRecorder:
    """Collects metrics for one simulation run.

    Parameters
    ----------
    capacity:
        Total processors in the system (utilization denominator).
    batch_size:
        Batch size for response-time confidence intervals.
    """

    def __init__(self, capacity: int, batch_size: int = 500):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.capacity = capacity
        self.stats = RunStats(batch_size)
        self.in_system = TimeWeighted(name="jobs.in-system")
        self.waiting = TimeWeighted(name="jobs.waiting")
        self._open_window()

    # -- lifecycle hooks ------------------------------------------------------

    def on_arrival(self, job: "Job", time: float) -> None:
        """A job entered the system (queued)."""
        self.arrivals += 1
        self.in_system.add(time, 1.0)
        self.waiting.add(time, 1.0)

    def on_start(self, job: "Job", time: float) -> None:
        """A job began execution."""
        self.waiting.add(time, -1.0)
        self.stats.start(time, job.size, job.size / job.extension_factor)

    def on_finish(self, job: "Job", time: float, *,
                  global_queue: bool = False) -> None:
        """A job departed; ``global_queue`` marks jobs scheduled from a
        global queue (the LP breakdown of Figure 4)."""
        self.completions += 1
        self.in_system.add(time, -1.0)
        self.stats.finish(time, job.size, job.size / job.extension_factor,
                          job.response_time)
        self.response_quantiles.record(job.response_time)
        self.bounded_slowdowns.record(bounded_slowdown(
            job.response_time, job.gross_service_time, DEFAULT_THRESHOLD))
        if global_queue:
            self.response_global.record(job.response_time)
        else:
            self.response_local.record(job.response_time)

    # -- windows ----------------------------------------------------------------

    def reset(self, time: float) -> None:
        """Discard the warmup transient; measurement restarts at ``time``."""
        self.in_system.reset(time)
        self.waiting.reset(time)
        self.stats.reset(time)
        self._open_window()

    def _open_window(self) -> None:
        # Only what report() reads: every accumulator costs each departure.
        self.response_local = Tally("response.local")
        self.response_global = Tally("response.global")
        self.response_quantiles = QuantileSet((0.5, 0.95))
        self.bounded_slowdowns = Tally("bounded-slowdown")
        self.arrivals = 0
        self.completions = 0

    def report(self, time: float,
               confidence: float = 0.95) -> UtilizationReport:
        """Summarise the window from the last reset to ``time``."""
        gross, net, mean, half = self.stats.summary(time, self.capacity,
                                                    confidence)
        return UtilizationReport(
            elapsed=time - self.stats.origin,
            gross_utilization=gross,
            net_utilization=net,
            mean_response=mean,
            response_ci_half_width=half,
            mean_response_local=(
                self.response_local.mean if self.response_local.count
                else math.nan
            ),
            mean_response_global=(
                self.response_global.mean if self.response_global.count
                else math.nan
            ),
            response_p50=self.response_quantiles[0.5],
            response_p95=self.response_quantiles[0.95],
            mean_bounded_slowdown=self.bounded_slowdowns.mean,
            mean_jobs_in_system=self.in_system.mean(time),
            mean_jobs_waiting=self.waiting.mean(time),
            completed_jobs=self.completions,
        )

    def gross_utilization(self, time: float) -> float:
        """Gross utilization of the current window (nan when empty)."""
        if time <= self.stats.origin:
            return math.nan
        return self.stats.summary(time, self.capacity, 0.95)[0]

    def net_utilization(self, time: float) -> float:
        """Net utilization of the current window (nan when empty)."""
        if time <= self.stats.origin:
            return math.nan
        return self.stats.summary(time, self.capacity, 0.95)[1]

    def __repr__(self) -> str:
        return (
            f"<MetricsRecorder arrivals={self.arrivals} "
            f"completions={self.completions}>"
        )
