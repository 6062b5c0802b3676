"""The atomic result of one simulation run: a curve point.

:class:`SweepPoint` is the payload produced by every (configuration ×
offered utilization × seed) run.  It lives in its own leaf module so
that both the sweep harness (:mod:`repro.analysis.sweeps`) and the
parallel execution backend (:mod:`repro.runner`) can depend on it
without importing each other.

The dict codec (:func:`point_to_dict` / :func:`point_from_dict`) is the
single definition of the point's on-disk shape, shared by the sweep
JSON archive and the runner's result cache.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Mapping

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.system import OpenSystemResult

__all__ = ["SweepPoint", "point_to_dict", "point_from_dict"]


@dataclass(frozen=True)
class SweepPoint:
    """One point of a response-time curve."""

    offered_gross: float
    gross_utilization: float
    net_utilization: float
    mean_response: float
    ci_half_width: float
    saturated: bool

    @classmethod
    def from_result(cls, result: "OpenSystemResult") -> "SweepPoint":
        return cls(
            offered_gross=result.offered_gross_utilization,
            gross_utilization=result.gross_utilization,
            net_utilization=result.net_utilization,
            mean_response=result.mean_response,
            ci_half_width=result.report.response_ci_half_width,
            saturated=result.saturated,
        )


#: Field names in declaration order: the dict codec's key order.
_FIELDS = tuple(f.name for f in fields(SweepPoint))


def point_to_dict(point: SweepPoint) -> dict[str, Any]:
    """The JSON-ready dict form of a point (flat, scalars only)."""
    return {name: getattr(point, name) for name in _FIELDS}


def point_from_dict(payload: Mapping[str, Any]) -> SweepPoint:
    """Rebuild a point from its dict form.

    Raises ``KeyError`` on missing fields and ``TypeError`` on
    non-mapping input, so callers (the result cache) can treat any
    malformed payload as corrupt and recompute.
    """
    return SweepPoint(**{name: payload[name] for name in _FIELDS})
