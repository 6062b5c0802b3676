"""Simulation-backend selection: scalar, batch, or automatic.

The harness ships two engines with byte-identical results: the scalar
event engine (:mod:`repro.sim.engine`) and the batch lane kernel
(:mod:`repro.sim.batch`).  A backend is a hint about *how* a point is
computed, never part of *what* it is: :func:`~repro.runner.task.task_key`
leaves it out, so both engines read and write the same cache entries.
This module owns the selection logic every entry point —
:func:`~repro.analysis.sweeps.sweep`,
:func:`~repro.analysis.replications.replicate_sweep`, the CLI — shares:

* ``"scalar"`` — the scalar engine, the oracle the differential tests
  compare the kernel against;
* ``"batch"`` — the batch kernel.  An unsupported *model* is not
  silently downgraded — that surfaces downstream as
  :class:`~repro.sim.batch.BatchBackendError`, because asking for the
  batch kernel on a model it cannot run is a caller bug;
* ``"auto"`` (the sweep default) — ``"batch"`` when the model is
  supported, else ``"scalar"``.  The kernel runs one lane at a time,
  so it is as fast per job for one run as for a wide grid.
"""

from __future__ import annotations

from typing import Optional

from repro.core.system import SimulationConfig

__all__ = ["batch_supported", "resolve_backend"]

#: The policy surface the batch kernel implements (mirrors
#: :class:`~repro.sim.batch.BatchLaneKernel`'s validation).
_BATCH_POLICIES = ("GS", "LS", "LP", "SC")


def batch_supported(config: SimulationConfig,
                    size_distribution: Optional[object] = None) -> bool:
    """Whether the batch kernel covers this model.

    Checks the same surface :class:`~repro.sim.batch.BatchLaneKernel`
    validates — the four paper policies under any registered placement
    rule, and (when a distribution is given) a discrete size support.
    """
    if config.policy.upper() not in _BATCH_POLICIES:
        return False
    if (size_distribution is not None
            and getattr(size_distribution, "support", None) is None):
        return False
    return True


def resolve_backend(backend: str,
                    config: Optional[SimulationConfig] = None,
                    *,
                    size_distribution: Optional[object] = None) -> str:
    """Resolve a requested backend to ``"scalar"`` or ``"batch"``.

    ``config``/``size_distribution`` gate the ``"auto"`` choice on
    model support; pass ``None`` to skip that check.
    """
    if backend in ("scalar", "batch"):
        return backend
    if backend == "auto":
        if config is None or batch_supported(config, size_distribution):
            return "batch"
        return "scalar"
    raise ValueError(
        f"unknown backend {backend!r} (expected 'scalar', 'batch' "
        f"or 'auto')"
    )
