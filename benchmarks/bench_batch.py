#!/usr/bin/env python
"""Batch-backend throughput benchmark: lane-kernel replications vs scalar.

Measures, per policy, how fast the batch backend
(``repro.sim.batch``) completes a width-N replication sweep of one
configuration against the scalar engine running the same N seeds
sequentially — the exact substitution ``replicate_sweep(...,
backend="batch")`` makes.  A fifth ``grid`` case times the *fused*
path end-to-end: the paper's whole Fig. 3 campaign (every policy ×
component limit × utilization) through
:func:`repro.runner.fused.execute_fused` heterogeneous lanes versus
the scalar runner executing the same task list serially — the exact
substitution ``sweep(..., backend="batch")`` makes for a campaign.

The comparison is only meaningful because the two backends are
*interchangeable*: before any timing is trusted, every round asserts
that the per-seed :class:`~repro.analysis.points.SweepPoint` lists from
both backends are identical (the differential fingerprint self-check;
the full adversarial suite lives in ``tests/sim/test_batch_oracle.py``).
A benchmark round that diverges raises instead of reporting a number.

Timing uses paired rounds in A/B/B/A order (alternating which backend
runs first, cancelling thermal/frequency drift) and summarizes the
per-round speedup distribution by its median and lower quartile — the
conservative "quiet quartile".

Usage::

    PYTHONPATH=src python benchmarks/bench_batch.py           # full
    PYTHONPATH=src python benchmarks/bench_batch.py --quick   # CI smoke
    PYTHONPATH=src python benchmarks/bench_batch.py --quick --check

Writes machine-readable results to ``BENCH_batch.json`` (``--out`` to
redirect).  ``--check`` additionally gates the speedup quartiles: in
full mode the headline GS case must reach the 5x target (the committed
``BENCH_batch.json`` is a full-mode run) and every case must beat the
scalar engine; in quick mode — short runs, narrow width, shared CI
runners — the gate only requires the fingerprint check to have passed
and GS/SC to show any speedup at all.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Optional

from repro.analysis.points import SweepPoint
from repro.core.system import SimulationConfig, run_open_system
from repro.runner import RunTask, execute_fused, task_key
from repro.runner.worker import run_task_result
from repro.sim.batch import run_batch_points
from repro.sim.rng import StreamFactory
from repro.workload import WORKLOADS, das_t_900
from repro.workload.generator import JobFactory

REPO_ROOT = Path(__file__).resolve().parent.parent
SCHEMA = "repro.bench.batch/1"

#: (policy, target gross utilization, component limit).  GS at the
#: paper's base-case load is the headline case for the 5x target;
#: LS/LP at high utilization where the visiting rounds dominate; SC as
#: the single-cluster reference.
CASES = (
    ("GS", 0.70, 16),
    ("LS", 0.90, 16),
    ("LP", 0.90, 16),
    ("SC", 0.70, None),
)

#: The fused whole-campaign case: every policy's Fig. 3 curve family —
#: GS/LS/LP at each component limit, SC once — across a shared
#: utilization grid, run end-to-end through
#: :func:`repro.runner.fused.execute_fused` against the scalar runner
#: executing the same task list sequentially.  Unlike the per-policy
#: cases above (homogeneous replications of one configuration), every
#: lane here carries its own (limit, load) pair and retired lanes
#: refill from the remaining grid.
GRID_POLICIES = ("GS", "LS", "LP")
GRID_LIMITS_FULL = (16, 24, 32)
GRID_RHOS_FULL = (0.4, 0.5, 0.6, 0.7, 0.8)
GRID_LIMITS_QUICK = (16, 24)
GRID_RHOS_QUICK = (0.4, 0.6)

#: --check gates on the per-case speedup quartile.  Full mode pins the
#: headline 5x target on GS, the 3x end-to-end target on the fused
#: grid campaign, and beating-scalar on every policy; quick mode
#: (short runs, width 8, shared runners) only sanity-checks the
#: single-queue policies — whose speedup is the least load-sensitive —
#: and requires the fused grid not to lose to scalar.
CHECK_GATES = {
    "full": {"GS": 5.0, "LS": 1.0, "LP": 1.0, "SC": 1.0, "grid": 3.0},
    "quick": {"GS": 1.0, "SC": 1.0, "grid": 1.0},
}


def _config(policy: str, limit: Optional[int], warmup: int,
            measured: int) -> SimulationConfig:
    if policy == "SC":
        return SimulationConfig.single_cluster(
            seed=7, warmup_jobs=warmup, measured_jobs=measured,
            batch_size=max(1, measured // 10),
        )
    return SimulationConfig(
        policy=policy, component_limit=limit, seed=7,
        warmup_jobs=warmup, measured_jobs=measured,
        batch_size=max(1, measured // 10),
    )


def _run_scalar(config: SimulationConfig, rate: float,
                seeds: list[int]) -> dict:
    """The PR-4 scalar kernel, one full run per seed, sequentially."""
    sizes = WORKLOADS["das-s-128"]()
    service = das_t_900()
    start = time.perf_counter()
    points = []
    for seed in seeds:
        cfg = dataclasses.replace(config, seed=seed)
        points.append(SweepPoint.from_result(
            run_open_system(cfg, sizes, service, rate)
        ))
    elapsed = time.perf_counter() - start
    return {"elapsed": elapsed, "points": points}


def _run_batch(config: SimulationConfig, rate: float, rho: float,
               seeds: list[int]) -> dict:
    """All seeds as lanes of one kernel."""
    sizes = WORKLOADS["das-s-128"]()
    service = das_t_900()
    start = time.perf_counter()
    points = run_batch_points(config, sizes, service, rho, seeds,
                              arrival_rate=rate)
    elapsed = time.perf_counter() - start
    return {"elapsed": elapsed, "points": points}


def bench_case(policy: str, rho: float, limit: Optional[int],
               warmup: int, measured: int, width: int,
               rounds: int) -> dict:
    config = _config(policy, limit, warmup, measured)
    factory = JobFactory(
        WORKLOADS["das-s-128"](), das_t_900(), config.component_limit,
        clusters=len(config.capacities),
        extension_factor=config.extension_factor,
        routing_weights=config.routing_weights,
        streams=StreamFactory(0),
    )
    rate = factory.arrival_rate_for_gross_utilization(rho, config.capacity)
    seeds = [7 + 1000 * i for i in range(width)]
    jobs_total = width * (warmup + measured)

    ratios = []
    batch_runs = []
    scalar_runs = []
    for round_index in range(rounds):
        # A/B/B/A: alternate which backend pays the cold-start cost.
        if round_index % 2 == 0:
            scalar = _run_scalar(config, rate, seeds)
            batch = _run_batch(config, rate, rho, seeds)
        else:
            batch = _run_batch(config, rate, rho, seeds)
            scalar = _run_scalar(config, rate, seeds)
        if batch["points"] != scalar["points"]:
            raise AssertionError(
                f"{policy}: batch and scalar per-seed statistics "
                "diverged; timing comparison would be meaningless"
            )
        ratios.append(scalar["elapsed"] / batch["elapsed"])
        batch_runs.append(batch)
        scalar_runs.append(scalar)
    best = min(run["elapsed"] for run in batch_runs)
    best_scalar = min(run["elapsed"] for run in scalar_runs)
    quartile = (statistics.quantiles(ratios, n=4)[0] if len(ratios) > 1
                else ratios[0])
    return {
        "rho": rho,
        "component_limit": limit,
        "width": width,
        "jobs": jobs_total,
        "jobs_per_sec": round(jobs_total / best, 1),
        "scalar_jobs_per_sec": round(jobs_total / best_scalar, 1),
        "speedup_median": round(statistics.median(ratios), 3),
        "speedup_quartile": round(quartile, 3),
        "speedup_rounds": [round(r, 3) for r in ratios],
        "fingerprint_checked": True,
    }


def _grid_tasks(warmup: int, measured: int,
                limits: tuple, rhos: tuple) -> list:
    """The campaign task list: Fig. 3's curve families, grid order."""
    sizes = WORKLOADS["das-s-128"]()
    service = das_t_900()
    tasks = []
    for policy in GRID_POLICIES:
        for limit in limits:
            config = _config(policy, limit, warmup, measured)
            tasks.extend(
                RunTask(config, sizes, service, rho, backend="batch")
                for rho in rhos
            )
    single = _config("SC", None, warmup, measured)
    tasks.extend(
        RunTask(single, sizes, service, rho, backend="batch")
        for rho in rhos
    )
    return tasks


def _run_grid_scalar(tasks: list) -> dict:
    """The scalar runner's serial path: one engine run per task."""
    start = time.perf_counter()
    points = [SweepPoint.from_result(run_task_result(t)) for t in tasks]
    elapsed = time.perf_counter() - start
    return {"elapsed": elapsed, "points": points}


def _run_grid_fused(tasks: list, width: int) -> dict:
    """The whole campaign through fused heterogeneous lane kernels."""
    start = time.perf_counter()
    by_key = execute_fused(tasks, cache=False, width=width)
    points = [by_key[task_key(t)] for t in tasks]
    elapsed = time.perf_counter() - start
    return {"elapsed": elapsed, "points": points}


def bench_grid(warmup: int, measured: int, width: int, rounds: int,
               limits: tuple, rhos: tuple) -> dict:
    """Fused-vs-scalar end-to-end timing of the full campaign grid."""
    tasks = _grid_tasks(warmup, measured, limits, rhos)
    jobs_total = len(tasks) * (warmup + measured)
    ratios = []
    fused_runs = []
    scalar_runs = []
    for round_index in range(rounds):
        if round_index % 2 == 0:
            scalar = _run_grid_scalar(tasks)
            fused = _run_grid_fused(tasks, width)
        else:
            fused = _run_grid_fused(tasks, width)
            scalar = _run_grid_scalar(tasks)
        if fused["points"] != scalar["points"]:
            raise AssertionError(
                "grid: fused and scalar per-point statistics diverged; "
                "timing comparison would be meaningless"
            )
        ratios.append(scalar["elapsed"] / fused["elapsed"])
        fused_runs.append(fused)
        scalar_runs.append(scalar)
    best = min(run["elapsed"] for run in fused_runs)
    best_scalar = min(run["elapsed"] for run in scalar_runs)
    quartile = (statistics.quantiles(ratios, n=4)[0] if len(ratios) > 1
                else ratios[0])
    return {
        "policies": list(GRID_POLICIES) + ["SC"],
        "component_limits": list(limits),
        "rhos": list(rhos),
        "grid_points": len(tasks),
        "width": width,
        "jobs": jobs_total,
        "jobs_per_sec": round(jobs_total / best, 1),
        "scalar_jobs_per_sec": round(jobs_total / best_scalar, 1),
        "speedup_median": round(statistics.median(ratios), 3),
        "speedup_quartile": round(quartile, 3),
        "speedup_rounds": [round(r, 3) for r in ratios],
        "fingerprint_checked": True,
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="short runs for CI smoke testing")
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_batch.json",
                        help="output JSON path")
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero unless the speedup gates for "
                             "the current mode hold")
    args = parser.parse_args(argv)

    if args.quick:
        warmup, measured, width, rounds = 100, 500, 8, 2
    else:
        warmup, measured, width, rounds = 500, 2_000, 32, 5

    mode = "quick" if args.quick else "full"
    cases = {}
    for policy, rho, limit in CASES:
        cases[policy] = bench_case(policy, rho, limit,
                                   warmup, measured, width, rounds)
        print(f"{policy}: {cases[policy]['jobs_per_sec']:>9.1f} jobs/s  "
              f"width {width}  "
              f"speedup x{cases[policy]['speedup_quartile']:.2f} "
              f"(median x{cases[policy]['speedup_median']:.2f})")

    limits = GRID_LIMITS_QUICK if args.quick else GRID_LIMITS_FULL
    rhos = GRID_RHOS_QUICK if args.quick else GRID_RHOS_FULL
    cases["grid"] = bench_grid(warmup, measured, width, rounds,
                               limits, rhos)
    print(f"grid: {cases['grid']['jobs_per_sec']:>8.1f} jobs/s  "
          f"{cases['grid']['grid_points']} points fused  "
          f"speedup x{cases['grid']['speedup_quartile']:.2f} "
          f"(median x{cases['grid']['speedup_median']:.2f})")

    payload = {
        "schema": SCHEMA,
        "generated_by": "benchmarks/bench_batch.py",
        "mode": mode,
        "python": platform.python_version(),
        "warmup_jobs": warmup,
        "measured_jobs": measured,
        "width": width,
        "rounds": rounds,
        "cases": cases,
    }
    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"wrote {args.out}")

    if args.check:
        reparsed = json.loads(args.out.read_text(encoding="utf-8"))
        gates = CHECK_GATES[reparsed["mode"]]
        failed = [
            f"{name} x{case['speedup_quartile']:.2f} < x{gates[name]:.1f}"
            for name, case in reparsed["cases"].items()
            if name in gates and case["speedup_quartile"] < gates[name]
        ]
        if failed:
            print(f"CHECK FAILED: {'; '.join(failed)}")
            return 1
        print(f"CHECK OK: all {reparsed['mode']}-mode speedup gates hold "
              "and the fingerprint self-check passed every round")
    return 0


if __name__ == "__main__":
    sys.exit(main())
