"""Simulation-backend selection: scalar, batch, or automatic.

The harness ships two engines with contractually identical statistics:
the scalar event engine (:mod:`repro.sim.engine`, always available)
and the batch lane kernel (:mod:`repro.sim.batch`, requires numpy
— the ``[batch]`` extra).  This module owns the *selection* logic so
every entry point — :func:`~repro.analysis.sweeps.sweep`,
:func:`~repro.analysis.replications.replicate_sweep`, the CLI —
resolves a requested backend the same way:

* ``"scalar"`` — always honoured;
* ``"batch"`` — honoured when numpy is importable; otherwise the run
  *degrades* to scalar with a :class:`BackendFallbackWarning` (a
  minimal install must never crash on a flag, and the statistics are
  identical either way).  An unsupported *model* (exotic policy or
  placement) is not silently downgraded — that surfaces downstream as
  :class:`~repro.sim.batch.BatchBackendError`, because asking for the
  batch kernel on a model it cannot run is a caller bug, not an
  environment limitation;
* ``"auto"`` — picks ``"batch"`` when numpy is importable, the model
  is supported, and the campaign is at least :data:`AUTO_MIN_WIDTH`
  lanes wide; else ``"scalar"``.

Resolution happens *before* any :class:`~repro.runner.task.RunTask` is
built, so the resolved backend — never the literal ``"auto"`` — lands
in the task key and cache entries from different engines can never
mix.  This module imports no numpy; it is safe on minimal installs.
"""

from __future__ import annotations

import importlib.util
import warnings
from typing import Optional

from repro.core.system import SimulationConfig

__all__ = [
    "AUTO_MIN_WIDTH",
    "BackendFallbackWarning",
    "batch_supported",
    "numpy_available",
    "resolve_backend",
]

#: Minimum campaign width (grid points × replications for a sweep,
#: replications for a replication study) at which ``"auto"`` picks the
#: batch kernel.  The kernel's speed does not depend on width (one lane
#: runs at a time); the threshold stays only because the resolved
#: backend is part of the task key, so changing it would re-key narrow
#: campaigns.
AUTO_MIN_WIDTH = 4

#: The policy/placement surface the batch kernel implements
#: (mirrors :class:`~repro.sim.batch.BatchLaneKernel`'s validation).
_BATCH_POLICIES = ("GS", "LS", "LP", "SC")


class BackendFallbackWarning(RuntimeWarning):
    """An explicitly requested backend was unavailable and the run
    degraded to the scalar engine (statistics are unaffected)."""


def numpy_available() -> bool:
    """Whether numpy is importable (the ``[batch]`` extra)."""
    return importlib.util.find_spec("numpy") is not None


def batch_supported(config: SimulationConfig,
                    size_distribution: Optional[object] = None) -> bool:
    """Whether the batch kernel covers this model.

    Checks the same surface :class:`~repro.sim.batch.BatchLaneKernel`
    validates — the four paper policies under worst-fit placement, and
    (when a distribution is given) a discrete size support — without
    importing numpy.
    """
    if config.policy.upper() not in _BATCH_POLICIES:
        return False
    if config.placement != "worst-fit":
        return False
    if (size_distribution is not None
            and getattr(size_distribution, "support", None) is None):
        return False
    return True


def resolve_backend(backend: str,
                    config: Optional[SimulationConfig] = None,
                    *,
                    width: int = 1,
                    size_distribution: Optional[object] = None) -> str:
    """Resolve a requested backend to ``"scalar"`` or ``"batch"``.

    ``width`` is the campaign's lane count — how many independent runs
    could share one lane kernel (grid points for a sweep, seeds
    for a replication study).  ``config``/``size_distribution`` gate
    the ``"auto"`` choice on model support; pass ``None`` to skip that
    check.  Deterministic for a fixed environment, so a resumed
    campaign re-derives the same task keys.
    """
    if backend == "scalar":
        return "scalar"
    if backend == "batch":
        if not numpy_available():
            warnings.warn(
                "backend='batch' requires numpy (the [batch] extra); "
                "falling back to the scalar engine — results are "
                "identical, only slower",
                BackendFallbackWarning, stacklevel=2)
            return "scalar"
        return "batch"
    if backend == "auto":
        if (numpy_available()
                and width >= AUTO_MIN_WIDTH
                and (config is None
                     or batch_supported(config, size_distribution))):
            return "batch"
        return "scalar"
    raise ValueError(
        f"unknown backend {backend!r} (expected 'scalar', 'batch' "
        f"or 'auto')"
    )
