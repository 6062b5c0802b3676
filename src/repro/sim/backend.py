"""Simulation-backend selection: scalar, batch, or automatic.

The harness ships two engines with byte-identical results: the scalar
event engine (:mod:`repro.sim.engine`, always available) and the batch
lane kernel (:mod:`repro.sim.batch`, requires numpy — the ``[batch]``
extra).  A backend is a hint about *how* a point is computed, never
part of *what* it is: :func:`~repro.runner.task.task_key` leaves it
out, so both engines read and write the same cache entries.  This
module owns the selection logic every entry point —
:func:`~repro.analysis.sweeps.sweep`,
:func:`~repro.analysis.replications.replicate_sweep`, the CLI — shares:

* ``"scalar"`` — always honoured;
* ``"batch"`` — honoured when numpy is importable; otherwise the run
  *degrades* to scalar with a :class:`BackendFallbackWarning` (a
  minimal install must never crash on a flag, and the results are
  identical either way).  An unsupported *model* (exotic policy or
  placement) is not silently downgraded — that surfaces downstream as
  :class:`~repro.sim.batch.BatchBackendError`, because asking for the
  batch kernel on a model it cannot run is a caller bug, not an
  environment limitation;
* ``"auto"`` — ``"batch"`` when numpy is importable and the model is
  supported, else ``"scalar"``.  The kernel runs one lane at a time,
  so it is as fast per job for one run as for a wide grid.

This module imports no numpy; it is safe on minimal installs.
"""

from __future__ import annotations

import importlib.util
import warnings
from typing import Optional

from repro.core.system import SimulationConfig

__all__ = [
    "BackendFallbackWarning",
    "batch_supported",
    "numpy_available",
    "resolve_backend",
]

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
                    size_distribution: Optional[object] = None) -> str:
    """Resolve a requested backend to ``"scalar"`` or ``"batch"``.

    ``config``/``size_distribution`` gate the ``"auto"`` choice on
    model support; pass ``None`` to skip that check.
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
                and (config is None
                     or batch_supported(config, size_distribution))):
            return "batch"
        return "scalar"
    raise ValueError(
        f"unknown backend {backend!r} (expected 'scalar', 'batch' "
        f"or 'auto')"
    )
