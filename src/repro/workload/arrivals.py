"""Non-homogeneous (diurnal) arrival processes.

The paper uses exponential interarrival times (a homogeneous Poisson
process); real logs are strongly diurnal — the synthetic DAS1 trace
carries a 9-to-18 working-hours peak.  This module provides a
non-homogeneous Poisson process (NHPP) via Lewis–Shedler thinning, with
the piecewise-constant day profile as the rate function, so the
sensitivity of the paper's results to the Poisson assumption can be
studied (a day-night load swing stresses FCFS queues harder than a
stationary stream with the same mean rate).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

    from .generator import JobFactory, JobSpec

__all__ = ["RateFunction", "DiurnalRate", "NHPPArrivalProcess"]

_SECONDS_PER_DAY = 86_400.0

#: A rate function maps absolute simulation time to an arrival rate.
RateFunction = Callable[[float], float]


class DiurnalRate:
    """Piecewise-constant daily rate profile.

    Parameters
    ----------
    mean_rate:
        Time-average arrival rate (jobs/second) — offered load matches
        a homogeneous process of this rate exactly.
    hourly_weights:
        24 nonnegative weights giving each hour's relative intensity
        (normalised internally).  Defaults to the synthetic DAS
        profile: 75% of arrivals in the 9-18h window.
    """

    def __init__(self, mean_rate: float,
                 hourly_weights: Optional[Sequence[float]] = None):
        if mean_rate <= 0:
            raise ValueError(f"mean_rate must be positive, got {mean_rate!r}")
        if hourly_weights is None:
            work = 0.75 / 9.0      # 9 working hours share 75%
            off = 0.25 / 15.0      # 15 off-hours share 25%
            hourly_weights = [off] * 9 + [work] * 9 + [off] * 6
        w = np.asarray(hourly_weights, dtype=float)
        if w.shape != (24,):
            raise ValueError("need exactly 24 hourly weights")
        if np.any(w < 0) or w.sum() <= 0:
            raise ValueError("weights must be nonnegative, sum positive")
        self.mean_rate = float(mean_rate)
        # Normalise so the daily average equals mean_rate.
        self.hourly_rates = mean_rate * w / w.mean()

    def __call__(self, time: float) -> float:
        hour = int((time % _SECONDS_PER_DAY) / 3600.0) % 24
        return float(self.hourly_rates[hour])

    @property
    def peak_rate(self) -> float:
        """The maximum instantaneous rate (the thinning majorant)."""
        return float(self.hourly_rates.max())

    def __repr__(self) -> str:
        return (
            f"<DiurnalRate mean={self.mean_rate:.4g} "
            f"peak={self.peak_rate:.4g}>"
        )


class NHPPArrivalProcess:
    """Non-homogeneous Poisson arrivals via Lewis–Shedler thinning.

    Candidate arrivals are generated at the majorant (peak) rate and
    accepted with probability rate(t)/peak — an exact NHPP sampler for
    any bounded rate function.

    Parameters mirror :class:`~repro.workload.generator.ArrivalProcess`
    except that ``rate`` is a :class:`DiurnalRate` (or any object with
    ``__call__`` and ``peak_rate``).
    """

    def __init__(self, sim: "Simulator", factory: "JobFactory",
                 rate: DiurnalRate,
                 submit: Callable[["JobSpec"], None],
                 limit: Optional[int] = None,
                 rng: Optional[np.random.Generator] = None):
        peak = getattr(rate, "peak_rate", None)
        if peak is None or peak <= 0:
            raise ValueError("rate must expose a positive peak_rate")
        self.sim = sim
        self.factory = factory
        self.rate = rate
        self.submit = submit
        self.limit = limit
        # Seeded fallback: an OS-entropy default would silently break
        # replayability and common-random-numbers comparisons.
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self.generated = 0
        self.candidates = 0
        self._peak = float(peak)
        self._tick_callbacks = (self._tick,)
        # Urgent init event at t=0, like ArrivalProcess: the first gap
        # is drawn when the calendar starts, not at construction.
        sim.defer(0.0, (self._arm,), priority=True)

    def _arm(self, _event: object) -> None:
        if self.limit is None or self.generated < self.limit:
            self.sim.defer(float(self._rng.exponential(1.0 / self._peak)),
                           self._tick_callbacks)

    def _tick(self, _event: object) -> None:
        self.candidates += 1
        if self._rng.random() < self.rate(self.sim.now) / self._peak:
            self.submit(self.factory.next_job())
            self.generated += 1
        self._arm(None)

    @property
    def acceptance_rate(self) -> float:
        """Fraction of thinning candidates accepted so far."""
        if self.candidates == 0:
            return float("nan")
        return self.generated / self.candidates
