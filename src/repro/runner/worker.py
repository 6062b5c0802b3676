"""The worker-side entry point: run one task to one curve point.

This function is what the process pool pickles and ships to workers, so
it must be module-level and depend only on the task's own contents.
Determinism is inherited from the simulation itself: every stochastic
stream is derived from ``task.config.seed`` via
:class:`~repro.sim.rng.StreamFactory`, so a task produces bit-identical
results in any process, on any schedule, at any worker count.

:func:`run_task_result` is the full-fidelity variant: it returns the
complete :class:`~repro.core.system.OpenSystemResult` (including the
``extras`` engine counters) and accepts an optional tracer — the hook
the observability layer (:mod:`repro.obs.worker`) uses to stream an
event log without perturbing the run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - imported lazily in run_task so
    # that importing repro.runner never initializes repro.analysis
    # (whose package __init__ imports this package back).
    from repro.analysis.points import SweepPoint

from repro.core.system import OpenSystemResult, run_open_system
from repro.sim.rng import StreamFactory
from repro.sim.trace import Tracer
from repro.workload.generator import JobFactory

from .task import RunTask

__all__ = ["run_task", "run_task_result"]


def run_task_result(task: RunTask,
                    tracer: Optional[Tracer] = None) -> OpenSystemResult:
    """Execute one open-system run, returning the full result.

    The arrival rate is recomputed from the offered gross utilization —
    a pure function of the workload distributions and configuration —
    so a worker needs nothing beyond the (picklable) task itself.
    Attaching a ``tracer`` never draws from an RNG stream, so traced
    and untraced runs are byte-identical.
    """
    config = task.config
    factory = JobFactory(
        task.size_distribution, task.service_distribution,
        config.component_limit,
        clusters=len(config.capacities),
        extension_factor=config.extension_factor,
        routing_weights=config.routing_weights,
        streams=StreamFactory(config.seed),
    )
    rate = factory.arrival_rate_for_gross_utilization(
        task.offered_gross, config.capacity
    )
    return run_open_system(config, task.size_distribution,
                           task.service_distribution, rate,
                           tracer=tracer)


def run_task(task: RunTask) -> SweepPoint:
    """Execute one open-system run and return its curve point.

    ``task.backend`` selects the engine: the scalar event loop
    (default) or the batch lane kernel at width 1.  Both produce
    identical points for the same task — the backend only changes
    *how* the point is computed, so it is not part of the task key.
    """
    if task.backend == "batch":
        from repro.sim.batch import run_batch_task

        return run_batch_task(task)
    if task.backend != "scalar":
        raise ValueError(f"unknown backend {task.backend!r}")
    from repro.analysis.points import SweepPoint

    return SweepPoint.from_result(run_task_result(task))
