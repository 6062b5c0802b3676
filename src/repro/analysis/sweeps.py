"""Arrival-rate sweeps producing response-time-vs-utilization curves.

A *sweep* runs one configuration at a grid of offered gross utilizations
and collects the measured (utilization, mean response) points — one curve
of the paper's Figures 3, 5, 6 and 7.  Sweeps stop early once a run
saturates (the paper's curves end at the policy's maximal utilization;
points beyond it are meaningless for FCFS queues whose backlog grows
without bound).

Grid points are independent simulations, so a sweep can fan them out
over worker processes (``workers=N``) and/or fetch them from the
on-disk result cache (``cache=True``); see :mod:`repro.runner` and
``docs/parallel.md``.  Parallel execution proceeds in chunks of
``workers`` grid points so the early-stop-on-saturation behaviour — and
therefore the returned curve — is byte-identical to a serial run.

Under ``backend="batch"`` (or ``"auto"`` resolving to it) the whole
grid instead runs as *fused lanes* of one lane-kernel call
(:func:`~repro.runner.fused.execute_fused`): every grid point is a
lane with its own arrival rate; lanes run to retirement in grid order
and their slots refill from the remaining grid.  Each point is still
checkpointed under its own task key, and the returned curve is
byte-identical to the scalar engine's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from repro.core.system import SimulationConfig
from repro.runner import (
    CacheSpec,
    RetryBudget,
    RetryPolicy,
    RunTask,
    begin_campaign,
    execute,
    execute_fused,
    finish_campaign,
    fused_eligible,
    resolve_cache,
    resolve_retry,
    resolve_workers,
    task_key,
)
from repro.sim.backend import resolve_backend

from .points import SweepPoint

__all__ = [
    "SweepPoint",
    "SweepResult",
    "sweep",
    "sweep_tasks",
    "default_grid",
    "utilization_grid",
]


def utilization_grid(start: float, stop: float,
                     step: float) -> tuple[float, ...]:
    """An inclusive arithmetic grid computed by index.

    ``start + i*step`` avoids the float-accumulation drift of repeated
    ``u += step`` (which can drop or duplicate the endpoint); the
    tolerance for including ``stop`` is relative to the step size.
    """
    if step <= 0:
        raise ValueError(f"step must be > 0, got {step!r}")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return tuple(round(start + i * step, 10) for i in range(max(count, 0)))


def default_grid(start: float = 0.2, stop: float = 0.85,
                 step: float = 0.05) -> tuple[float, ...]:
    """The default offered-gross-utilization grid."""
    return utilization_grid(start, stop, step)


@dataclass(frozen=True)
class SweepResult:
    """A labelled curve: one configuration across the utilization grid."""

    label: str
    config: SimulationConfig
    points: tuple[SweepPoint, ...]

    @property
    def stable_points(self) -> tuple[SweepPoint, ...]:
        """Points before saturation."""
        return tuple(p for p in self.points if not p.saturated)

    @property
    def max_stable_utilization(self) -> float:
        """Highest measured gross utilization among stable points."""
        stable = self.stable_points
        return max((p.gross_utilization for p in stable), default=0.0)

    def series(self, x: str = "gross_utilization",
               y: str = "mean_response") -> tuple[list[float], list[float]]:
        """(xs, ys) arrays for plotting/tabulation."""
        xs = [getattr(p, x) for p in self.points]
        ys = [getattr(p, y) for p in self.points]
        return xs, ys

    def response_at(self, gross_utilization: float,
                    tolerance: float = 0.03,
                    axis: str = "gross_utilization") -> Optional[float]:
        """Mean response of the point nearest a target utilization.

        ``axis`` selects the matching coordinate (measured gross by
        default; ``"offered_gross"`` matches by offered load).
        """
        best, dist = None, tolerance
        for p in self.points:
            d = abs(getattr(p, axis) - gross_utilization)
            if d <= dist:
                best, dist = p, d
        return best.mean_response if best else None


def sweep_tasks(config: SimulationConfig, size_distribution,
                service_distribution,
                utilizations: Sequence[float],
                backend: str = "auto") -> list[RunTask]:
    """The full planned task list of a sweep, in grid order.

    Shared by :func:`sweep` and the CLI's ``--resume`` reporting so
    both derive the identical campaign identity.  ``backend`` is
    resolved (:func:`~repro.sim.backend.resolve_backend`), so every
    task names a concrete engine.
    """
    backend = resolve_backend(backend, config,
                              size_distribution=size_distribution)
    return [
        RunTask(config, size_distribution, service_distribution, rho,
                backend=backend)
        for rho in utilizations
    ]


def sweep(label: str, config: SimulationConfig, size_distribution,
          service_distribution,
          utilizations: Sequence[float] = (),
          stop_after_saturation: int = 1,
          *,
          workers: Optional[int] = None,
          cache: CacheSpec = None,
          retry: Optional[RetryPolicy] = None,
          backend: str = "auto") -> SweepResult:
    """Run ``config`` across a utilization grid.

    Parameters
    ----------
    stop_after_saturation:
        How many saturated points to keep before stopping the sweep
        (1 reproduces the paper's curves, which end just past the knee).
    workers:
        Worker processes to fan grid points out over (default 1, or
        ``$REPRO_WORKERS``).  The grid is executed in chunks of
        ``workers`` points; points past the early-stop threshold are
        discarded, so the curve is identical at every worker count.
    cache:
        Result cache: an explicit :class:`~repro.runner.ResultCache`,
        ``True``/``False`` to force the default cache on or off, or
        ``None`` to defer to ``$REPRO_CACHE``.  With a cache active the
        sweep also maintains a campaign manifest
        (:mod:`repro.runner.campaign`), so an interrupted run resumes
        from the last completed grid point when re-invoked.
    retry:
        Fault-tolerance posture for the underlying tasks (default:
        fail fast, or the ``$REPRO_RETRIES`` / ``$REPRO_TASK_TIMEOUT``
        environment defaults).  The ``retry_budget`` is shared across
        all of the sweep's chunks, so it bounds the campaign's total
        retries rather than resetting every ``workers`` grid points.
        Retries, timeouts and worker replacement never change the
        curve — a re-executed task is the same pure function of the
        same inputs.
    backend:
        Simulation engine: ``"auto"`` (default: the batch lane kernel
        when it supports the model, else the scalar engine; see
        :func:`~repro.sim.backend.resolve_backend`), ``"batch"``, or
        ``"scalar"`` (the scalar engine, the oracle the differential
        tests compare the kernel against).  Both engines give
        byte-identical points under the same cache keys.  The batch
        path fuses the whole grid into one in-process kernel call when
        neither fault injection nor observability is armed, so
        ``workers`` and ``retry`` apply only to the scalar engine or a
        fault- or obs-armed campaign; like the ``workers > 1``
        chunking, it runs grid points past the early-stop threshold
        speculatively (they are cached but discarded from the curve),
        so the returned curve is byte-identical to a serial scalar
        sweep.
    """
    if not utilizations:
        utilizations = default_grid()
    backend = resolve_backend(backend, config,
                              size_distribution=size_distribution)
    workers = resolve_workers(workers)
    store = resolve_cache(cache)
    policy = resolve_retry(retry)
    budget = RetryBudget(policy.retry_budget)
    planned = sweep_tasks(config, size_distribution,
                          service_distribution, utilizations, backend)
    manifest = begin_campaign("sweep", label, planned, store)
    points: list[SweepPoint] = []
    saturated_seen = 0
    if backend == "batch" and fused_eligible():
        # resolve_cache(None) would re-read the environment, so a
        # resolved "no cache" is forwarded as an explicit False.
        fused = execute_fused(
            planned, cache=store if store is not None else False)
        for task in planned:
            point = fused[task_key(task)]
            points.append(point)
            if point.saturated:
                saturated_seen += 1
                if saturated_seen >= stop_after_saturation:
                    break
    else:
        for chunk_start in range(0, len(planned), workers):
            chunk = planned[chunk_start:chunk_start + workers]
            # The resolved retry budget is shared across chunks so it
            # is campaign-wide, not per chunk.
            for point in execute(chunk, workers=workers,
                                 cache=store if store is not None else False,
                                 retry=policy, budget=budget):
                points.append(point)
                if point.saturated:
                    saturated_seen += 1
                    if saturated_seen >= stop_after_saturation:
                        break
            if saturated_seen >= stop_after_saturation:
                break
    finish_campaign(manifest, store, points=len(points))
    return SweepResult(label=label, config=config, points=tuple(points))


def compare(sweeps: Sequence[SweepResult],
            at_utilization: float) -> dict[str, Optional[float]]:
    """Mean response of each sweep at (approximately) one utilization."""
    return {s.label: s.response_at(at_utilization) for s in sweeps}


def rank_by_performance(sweeps: Sequence[SweepResult]) -> list[str]:
    """Labels ordered best-first, the paper's legend convention.

    Performance = maximal stable utilization bucketed to 0.05 (grid-
    and noise-insensitive); ties broken by the mean response at the
    highest *offered* load common to all sweeps — under common random
    numbers the response depth there separates policies even when they
    all saturate between the same two grid points.
    """
    if not sweeps:
        return []
    common_offered = min(
        max((p.offered_gross for p in s.points), default=0.0)
        for s in sweeps
    )

    def key(s: SweepResult):
        bucket = round(s.max_stable_utilization / 0.05)
        resp = s.response_at(common_offered, tolerance=0.06,
                             axis="offered_gross")
        return (-bucket, resp if resp is not None else float("inf"))

    return [s.label for s in sorted(sweeps, key=key)]


def with_seed(config: SimulationConfig, seed: int) -> SimulationConfig:
    """A copy of ``config`` with a different seed (replication helper)."""
    return replace(config, seed=seed)
