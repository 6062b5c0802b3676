"""The paper's workload distributions: DAS-s-128, DAS-s-64, DAS-t-900.

Two construction paths are provided, mirroring how the authors worked:

* **Canonical** — :func:`das_s_128`, :func:`das_s_64`, :func:`das_t_900`
  build the distributions directly from the reconstructed statistical
  model (:mod:`repro.workload.stats_model`).  These are the versions used
  by the benchmark harness, so results do not depend on the sampling noise
  of a synthetic log.
* **Trace-derived** — :func:`size_distribution_from_log` and
  :func:`service_distribution_from_log` derive the same distributions from
  any (synthetic or real) log of :class:`~repro.workload.das_log.JobRecord`
  entries, exactly as the authors derived theirs from the DAS1 log.  With
  a large synthetic log the two paths agree to sampling error (asserted in
  the test suite).
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from repro.sim.distributions import (
    ContinuousEmpirical,
    DiscreteEmpirical,
    Distribution,
    Lognormal,
    Mixture,
    TruncatedLognormal,
    Uniform,
)

from . import stats_model
from .das_log import JobRecord

__all__ = [
    "das_s_128",
    "das_s_64",
    "das_t_900",
    "size_distribution_from_log",
    "service_distribution_from_log",
    "WORKLOADS",
]


@functools.cache
def das_s_128() -> DiscreteEmpirical:
    """The DAS-s-128 total-job-size distribution (full log).

    Memoized: every call returns one shared, process-wide instance,
    which callers must treat as immutable.  No method of the
    distribution changes it after ``__init__``, so sharing it across
    callers and threads is safe; two threads racing on the first call
    both build the same value.
    """
    values = sorted(stats_model.SIZE_TABLE)
    weights = [float(stats_model.SIZE_TABLE[v]) for v in values]
    return DiscreteEmpirical(values, weights)


@functools.cache
def das_s_64() -> DiscreteEmpirical:
    """The DAS-s-64 size distribution: DAS-s-128 cut at 64 and
    renormalised (paper §2.4 — the cut removes ~2% of the jobs).

    Memoized like :func:`das_s_128`: one shared, immutable instance per
    process, safe across threads (a racing first call builds the same
    value twice).
    """
    return das_s_128().truncate(stats_model.DAS_S_64_CUT)


@functools.cache
def das_t_900(moment_seed: int = 0) -> Distribution:
    """The DAS-t-900 service-time distribution (log cut at 900 s).

    Reconstruction: a lognormal body conditioned on (0, 900] plus a
    uniform mass pushed against the working-hours kill limit — the shape
    of the paper's Figure 2.  See ``stats_model`` for parameter choices.

    Memoized on ``moment_seed``: the body's truncated moments come from
    200,000 Monte Carlo draws, so each seed is built once per process
    and every later call returns the same shared instance, which
    callers must treat as immutable.  No method changes it after
    ``__init__``, so sharing it across threads is safe; two threads
    racing on the first call both build the same value.
    """
    body = TruncatedLognormal(
        Lognormal(mean=stats_model.SERVICE_BODY_MEAN,
                  cv=stats_model.SERVICE_BODY_CV),
        low=1.0,
        high=stats_model.SERVICE_CUTOFF,
        moment_seed=moment_seed,
    )
    spike = Uniform(stats_model.SERVICE_SPIKE_LOW,
                    stats_model.SERVICE_CUTOFF)
    return Mixture(
        [body, spike],
        [1.0 - stats_model.SERVICE_SPIKE_WEIGHT,
         stats_model.SERVICE_SPIKE_WEIGHT],
    )


def size_distribution_from_log(records: Sequence[JobRecord],
                               max_size: int | None = None
                               ) -> DiscreteEmpirical:
    """Empirical job-size distribution of a log, optionally cut.

    ``max_size=64`` reproduces the paper's DAS-s-64 construction from the
    full log.
    """
    sizes = [r.size for r in records
             if max_size is None or r.size <= max_size]
    if not sizes:
        raise ValueError("no jobs left after the size cut")
    return DiscreteEmpirical.from_samples(sizes)


def service_distribution_from_log(records: Sequence[JobRecord],
                                  cutoff: float = stats_model.SERVICE_CUTOFF,
                                  bins: int = 90) -> ContinuousEmpirical:
    """Empirical service-time distribution of a log, cut at ``cutoff``.

    Bins the runtimes below the cutoff (the paper's DAS-t-900) into an
    interpolated empirical distribution.
    """
    runtimes = np.array([r.runtime for r in records if r.runtime <= cutoff])
    if runtimes.size == 0:
        raise ValueError("no jobs at or below the runtime cutoff")
    edges = np.linspace(0.0, cutoff, bins + 1)
    counts, _ = np.histogram(runtimes, bins=edges)
    return ContinuousEmpirical(edges, counts.astype(float))


#: Named workload registry used by the CLI and the benchmark harness.
WORKLOADS = {
    "das-s-128": das_s_128,
    "das-s-64": das_s_64,
}
