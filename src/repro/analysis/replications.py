"""Independent replications: across-run confidence intervals.

Batch means (within one run) handle autocorrelation but share one
warmup; *independent replications* — the same configuration under
different master seeds — give the textbook-clean confidence interval
for steady-state means and a variance estimate that includes run-to-run
warmup bias.  The harness replicates whole sweeps, so a curve carries a
CI at every utilization point, and policy comparisons can report
paired (common-random-number) differences per seed.
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
    task_key,
)
from repro.sim.backend import resolve_backend
from repro.sim.stats import ConfidenceInterval, Tally, t_half_width

from .points import SweepPoint
from .sweeps import SweepResult

__all__ = [
    "ReplicatedPoint",
    "ReplicatedSweep",
    "replicate_sweep",
    "paired_comparison",
]


@dataclass(frozen=True)
class ReplicatedPoint:
    """One utilization point aggregated over replications."""

    offered_gross: float
    mean_response: float
    response_ci: ConfidenceInterval
    mean_gross_utilization: float
    mean_net_utilization: float
    replications: int
    any_saturated: bool


@dataclass(frozen=True)
class ReplicatedSweep:
    """A curve with across-replication confidence intervals."""

    label: str
    config: SimulationConfig
    points: tuple[ReplicatedPoint, ...]
    seeds: tuple[int, ...]

    def series(self) -> tuple[list[float], list[float]]:
        """(utilization, mean response) arrays."""
        return (
            [p.mean_gross_utilization for p in self.points],
            [p.mean_response for p in self.points],
        )


def _aggregate(offered: float, results: Sequence, level: float
               ) -> ReplicatedPoint:
    responses = Tally()
    gross = Tally()
    net = Tally()
    saturated = False
    for p in results:
        if not math.isnan(p.mean_response):
            responses.record(p.mean_response)
        gross.record(p.gross_utilization)
        net.record(p.net_utilization)
        saturated = saturated or p.saturated
    half = t_half_width(responses.count, responses.m2, level)
    return ReplicatedPoint(
        offered_gross=offered,
        mean_response=responses.mean,
        response_ci=ConfidenceInterval(responses.mean, half, level),
        mean_gross_utilization=gross.mean,
        mean_net_utilization=net.mean,
        replications=len(results),
        any_saturated=saturated,
    )


def replicate_sweep(label: str, config: SimulationConfig,
                    size_distribution, service_distribution,
                    utilizations: Sequence[float],
                    replications: int = 5,
                    confidence: float = 0.95,
                    base_seed: Optional[int] = None,
                    *,
                    workers: Optional[int] = None,
                    cache: CacheSpec = None,
                    retry: Optional[RetryPolicy] = None,
                    backend: str = "auto"
                    ) -> ReplicatedSweep:
    """Run ``replications`` sweeps with distinct seeds and aggregate.

    Points are aligned by *offered* utilization; a point missing from a
    replication (the sweep stopped after saturating) is aggregated over
    the replications that reached it.

    With ``workers > 1`` the replications advance in lock-step waves:
    each wave runs the next grid point of every still-active seed in
    parallel (independent runs, one task each), so exactly the same set
    of simulations executes as in a serial run — each seed still stops
    at its own saturation point — and the aggregated sweep is
    byte-identical at every worker count.

    ``backend="batch"`` fuses the whole study — every seed's chain of
    grid points — into lane-kernel calls
    (:func:`~repro.runner.fused.execute_fused`): each seed advances
    through the grid as a lane chain, stopping at its own saturation
    point, while other seeds' lanes keep the kernel busy.  Exactly the
    serial task set executes.  ``backend="auto"`` (the default) picks
    batch when the kernel supports the model
    (:func:`~repro.sim.backend.resolve_backend`); ``"scalar"`` runs
    the scalar engine, the waves above.  Per-seed points are
    byte-identical to the scalar engine's, so both backends share one
    set of cache entries.
    """
    if replications < 1:
        raise ValueError(
            f"replications must be >= 1, got {replications!r}"
        )
    base = config.seed if base_seed is None else base_seed
    seeds = tuple(base + 1_000 * i for i in range(replications))
    runs = _replicated_runs(label, config, seeds, size_distribution,
                            service_distribution, tuple(utilizations),
                            workers=workers, cache=cache, retry=retry,
                            backend=backend)
    points = []
    for offered in utilizations:
        matched = []
        for run in runs:
            for p in run.points:
                if abs(p.offered_gross - offered) < 1e-9:
                    matched.append(p)
                    break
        if not matched:
            break  # every replication saturated before this point
        points.append(_aggregate(offered, matched, confidence))
    return ReplicatedSweep(label=label, config=config,
                           points=tuple(points), seeds=seeds)


def _replicated_runs(label: str, config: SimulationConfig,
                     seeds: Sequence[int], size_distribution,
                     service_distribution,
                     utilizations: tuple[float, ...],
                     *, workers: Optional[int],
                     cache: CacheSpec,
                     retry: Optional[RetryPolicy] = None,
                     backend: str = "auto"
                     ) -> list[SweepResult]:
    """One sweep per seed, advanced in parallel waves.

    Wave *w* submits grid point ``cursor[s]`` for every seed *s* whose
    sweep has neither exhausted the grid nor saturated — the exact task
    set a serial loop of :func:`~repro.analysis.sweeps.sweep` calls
    would run, independent of ``workers``.  With a cache active the
    full seeds × grid plan is recorded as a campaign manifest so an
    interrupted replication study resumes from its last completed run.

    Under ``backend="batch"`` the whole study fuses into lane-kernel
    calls: every seed starts a lane at the first grid
    point, and each completed point chains the seed's *next* grid
    point into the freed slot unless the seed saturated or exhausted
    the grid — exactly the serial task set, scheduled by lane
    availability instead of waves.  Fault injection and observability
    need per-task process boundaries, so when either is active the
    study falls back to :func:`~repro.runner.pool.execute` waves with
    per-task batch workers — same results, task at a time.
    """
    backend = resolve_backend(backend, config,
                              size_distribution=size_distribution)
    configs = [replace(config, seed=seed) for seed in seeds]
    store = resolve_cache(cache)
    cache_arg: CacheSpec = store if store is not None else False
    # Resolve the retry posture once and share its budget across every
    # wave's execute() call: the retry budget bounds the whole
    # replication campaign, not each wave.
    policy = resolve_retry(retry)
    budget = RetryBudget(policy.retry_budget)
    planned = [
        RunTask(c, size_distribution, service_distribution, rho,
                backend=backend)
        for c in configs
        for rho in utilizations
    ]
    manifest = begin_campaign("replicated-sweep", label, planned, store)
    collected: list[list[SweepPoint]] = [[] for _ in seeds]
    if backend == "batch" and fused_eligible():
        _fused_chains(configs, size_distribution, service_distribution,
                      utilizations, backend, cache_arg, collected)
    else:
        active = list(range(len(seeds)))
        cursor = [0] * len(seeds)
        while active:
            tasks = [
                RunTask(configs[i], size_distribution,
                        service_distribution, utilizations[cursor[i]],
                        backend=backend)
                for i in active
            ]
            wave = execute(tasks, workers=workers, cache=cache_arg,
                           retry=policy, budget=budget)
            still_active = []
            for i, point in zip(active, wave):
                collected[i].append(point)
                cursor[i] += 1
                if not point.saturated and cursor[i] < len(utilizations):
                    still_active.append(i)
            active = still_active
    finish_campaign(manifest, store,
                    points=sum(len(c) for c in collected))
    return [
        SweepResult(label=label, config=configs[i],
                    points=tuple(collected[i]))
        for i in range(len(seeds))
    ]


def _fused_chains(configs: "list[SimulationConfig]",
                  size_distribution, service_distribution,
                  utilizations: tuple[float, ...],
                  backend: str, cache_arg: CacheSpec,
                  collected: "list[list[SweepPoint]]") -> None:
    """Run every seed's grid chain through the fused lane executor.

    Seed *i*'s lane chain is sequential (its next grid point is
    scheduled by the follow-up of its current one), so ``collected[i]``
    fills in grid order; chains of different seeds interleave freely in
    the kernel without affecting any per-task result.  Cache hits
    advance a chain without occupying a lane, preserving resume
    semantics.
    """
    if not utilizations:
        return
    owner: dict[str, int] = {}
    cursor = [0] * len(configs)

    def chain_task(i: int) -> RunTask:
        task = RunTask(configs[i], size_distribution,
                       service_distribution, utilizations[cursor[i]],
                       backend=backend)
        owner[task_key(task)] = i
        return task

    def advance(task: RunTask, key: str,
                point: SweepPoint) -> "list[RunTask]":
        i = owner[key]
        collected[i].append(point)
        cursor[i] += 1
        if not point.saturated and cursor[i] < len(utilizations):
            return [chain_task(i)]
        return []

    execute_fused([chain_task(i) for i in range(len(configs))],
                  cache=cache_arg, follow_up=advance)


def paired_comparison(config_a: SimulationConfig,
                      config_b: SimulationConfig,
                      size_distribution, service_distribution,
                      utilization: float, replications: int = 5,
                      confidence: float = 0.95,
                      *,
                      workers: Optional[int] = None,
                      cache: CacheSpec = None,
                      retry: Optional[RetryPolicy] = None
                      ) -> ConfidenceInterval:
    """CI on the response-time difference A − B at one utilization.

    Uses common random numbers: replication *i* of both configurations
    shares a seed, so the per-seed differences cancel workload noise —
    the standard paired-t design for policy comparison.  All
    ``2 × replications`` runs are independent, so they fan out over
    ``workers`` processes in one batch (resumable mid-batch when a
    cache is active, like any other campaign).
    """
    tasks = [
        RunTask(replace(config, seed=config.seed + 1_000 * i),
                size_distribution, service_distribution, utilization)
        for i in range(replications)
        for config in (config_a, config_b)
    ]
    store = resolve_cache(cache)
    label = f"{config_a.policy}-vs-{config_b.policy}"
    manifest = begin_campaign("paired-comparison", label, tasks, store)
    results = execute(tasks, workers=workers,
                      cache=store if store is not None else False,
                      retry=retry)
    finish_campaign(manifest, store, points=len(results))
    diffs = Tally()
    for i in range(replications):
        a, b = results[2 * i], results[2 * i + 1]
        diffs.record(a.mean_response - b.mean_response)
    return ConfidenceInterval(
        diffs.mean, t_half_width(diffs.count, diffs.m2, confidence),
        confidence)
