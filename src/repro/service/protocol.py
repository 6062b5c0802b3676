"""The sweep service's wire protocol: specs, requests, event streams.

Everything the server and client exchange is newline-delimited JSON
over a local Unix-domain socket.  One connection carries one request:

* the client sends a single request line — ``{"op": ...}`` with
  op-specific fields;
* for ``ping`` / ``status`` / ``shutdown`` the server answers with a
  single response line (``{"schema": "repro.service/1", "ok": true,
  ...}``, or ``{"error": ...}``) and closes;
* for ``submit`` / ``attach`` the server answers with a *campaign
  stream*: a header line in the obs EventLog format (``{"schema":
  "repro.obs/events/1", "stream": "repro.service/stream/1",
  "campaign": <key>}``) followed by one event object per line
  (kinds and payload keys registered in
  :data:`repro.obs.events.SERVICE_EVENT_SCHEMAS`), then EOF.  ``t`` is
  a per-stream monotone sequence number, never a clock, so streams are
  deterministic.  A stream captured to a file parses with
  :func:`repro.obs.events.read_events` unchanged.

A *submission spec* is the JSON description of one campaign — the
same information a ``repro-sim sweep`` invocation carries: a labelled
list of (configuration, offered load) cells over a named workload.
The spec's ``backend`` field is still accepted (old clients and
ledgers carry it) but never reaches a task key: the server picks the
engine itself, and both compute identical points.  :func:`spec_tasks`
is the single point turning a spec into
:class:`~repro.runner.task.RunTask`\\ s; because the campaign key
hashes the resulting task keys, equal specs always map to the same
campaign and reattachment can never mix state across campaigns.
"""

from __future__ import annotations

import functools
import json
from typing import Iterator, Optional, Sequence

from repro.core.system import SimulationConfig
from repro.obs.events import EVENT_SCHEMA, SERVICE_EVENT_SCHEMAS
from repro.runner import RunTask, campaign_key, task_keys
from repro.runner.task import config_to_dict
from repro.workload import WORKLOADS, QueueRouter, das_t_900

__all__ = [
    "PROTOCOL_SCHEMA",
    "STREAM_SCHEMA",
    "SPEC_SCHEMA",
    "ProtocolError",
    "config_to_dict",
    "config_from_dict",
    "normalize_spec",
    "sweep_spec",
    "spec_tasks",
    "spec_campaign",
    "encode_line",
    "decode_line",
    "stream_header",
    "stream_event",
]

#: Versioned tag on request/response lines; bump on change.
PROTOCOL_SCHEMA = "repro.service/1"

#: Versioned tag naming the campaign-stream flavour inside the obs
#: EventLog header; bump when stream event shapes change.
STREAM_SCHEMA = "repro.service/stream/1"

#: Versioned shape tag of submission specs; bump on change.
SPEC_SCHEMA = "repro.service/spec/1"

#: Config tuple fields that JSON flattens to lists.
_TUPLE_FIELDS = ("capacities", "routing_weights")

_BACKENDS = ("scalar", "batch", "auto")


class ProtocolError(ValueError):
    """A request, spec or stream line violated the wire protocol."""


def config_from_dict(payload: dict) -> SimulationConfig:
    """Rebuild a configuration, restoring tuple-typed fields.

    Unknown fields are rejected (a spec from a newer protocol must not
    be silently reinterpreted), as are missing required ones.
    """
    if not isinstance(payload, dict):
        raise ProtocolError(f"config must be an object, "
                            f"got {type(payload).__name__}")
    known = set(SimulationConfig.__dataclass_fields__)
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ProtocolError(f"unknown config fields: {unknown}")
    data = dict(payload)
    for field in _TUPLE_FIELDS:
        if field in data and isinstance(data[field], (list, tuple)):
            data[field] = tuple(data[field])
    try:
        return SimulationConfig(**data)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"bad config: {exc}") from None


@functools.lru_cache(maxsize=64)
def _check_routing(weights: tuple[float, ...]) -> None:
    """Raise ``ValueError`` for weights a run's router would refuse
    (memoized: cells and resubmissions share weights, and a refusal
    raises, so it is never cached)."""
    QueueRouter(weights)


def normalize_spec(spec: object) -> dict:
    """Validate a submission spec and return its canonical dict form.

    Raises :class:`ProtocolError` on any malformation; the canonical
    form always carries the ``schema`` tag and a ``kind``, and every
    cell's config has round-tripped through
    :func:`config_from_dict` and had its routing weights accepted by
    the :class:`~repro.workload.QueueRouter` its runs would build (so
    downstream code never sees a bad one).
    """
    if not isinstance(spec, dict):
        raise ProtocolError(f"spec must be an object, "
                            f"got {type(spec).__name__}")
    schema = spec.get("schema", SPEC_SCHEMA)
    if schema != SPEC_SCHEMA:
        raise ProtocolError(f"spec schema {schema!r} != {SPEC_SCHEMA!r}")
    label = spec.get("label")
    if not isinstance(label, str) or not label:
        raise ProtocolError("spec needs a non-empty string 'label'")
    kind = spec.get("kind", "sweep")
    if not isinstance(kind, str) or not kind:
        raise ProtocolError("spec 'kind' must be a non-empty string")
    workload = spec.get("workload", "das-s-128")
    if workload not in WORKLOADS:
        raise ProtocolError(
            f"unknown workload {workload!r} "
            f"(expected one of {sorted(WORKLOADS)})")
    backend = spec.get("backend", "scalar")
    if backend not in _BACKENDS:
        raise ProtocolError(f"unknown backend {backend!r} "
                            f"(expected one of {list(_BACKENDS)})")
    stop = spec.get("stop_after_saturation")
    if stop is not None and (not isinstance(stop, int)
                             or isinstance(stop, bool) or stop < 1):
        raise ProtocolError("'stop_after_saturation' must be null or "
                            "an integer >= 1")
    cells = spec.get("cells")
    if not isinstance(cells, list) or not cells:
        raise ProtocolError("spec needs a non-empty 'cells' list")
    canonical_cells = []
    seen: set[str] = set()
    for i, cell in enumerate(cells):
        if not isinstance(cell, dict):
            raise ProtocolError(f"cell {i} must be an object")
        rho = cell.get("offered_gross")
        if not isinstance(rho, (int, float)) or isinstance(rho, bool):
            raise ProtocolError(f"cell {i} needs a numeric "
                                f"'offered_gross'")
        config = config_from_dict(cell.get("config"))
        try:
            _check_routing(config.routing_weights)
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"bad config: {exc}") from None
        config = config_to_dict(config)
        identity = json.dumps({"config": config, "offered_gross": rho},
                              sort_keys=True, separators=(",", ":"))
        if identity in seen:
            raise ProtocolError(f"cell {i} duplicates an earlier cell")
        seen.add(identity)
        canonical_cells.append({"config": config,
                                "offered_gross": float(rho)})
    return {
        "schema": SPEC_SCHEMA,
        "kind": kind,
        "label": label,
        "workload": workload,
        "backend": backend,
        "stop_after_saturation": stop,
        "cells": canonical_cells,
    }


def sweep_spec(label: str, config: SimulationConfig,
               grid: Sequence[float], *,
               workload: str = "das-s-128",
               backend: str = "scalar",
               stop_after_saturation: Optional[int] = None) -> dict:
    """A canonical sweep spec: one configuration across a load grid.

    The service counterpart of :func:`~repro.analysis.sweeps.sweep`'s
    argument list; ``stop_after_saturation=None`` runs the full grid
    (an integer reproduces the one-shot early-stop truncation — the
    tail past the threshold is still simulated speculatively and
    cached, only the streamed curve is cut).
    """
    return normalize_spec({
        "schema": SPEC_SCHEMA,
        "kind": "sweep",
        "label": label,
        "workload": workload,
        "backend": backend,
        "stop_after_saturation": stop_after_saturation,
        "cells": [{"config": config_to_dict(config),
                   "offered_gross": float(rho)} for rho in grid],
    })


def spec_tasks(spec: dict) -> list[RunTask]:
    """The planned task list of a (normalized) spec, in cell order.

    The service and a local ``sweep()`` over the same inputs address
    identical cache entries, whatever backend either asked for.
    """
    sizes = WORKLOADS[spec["workload"]]()
    service = das_t_900()
    return [
        RunTask(config_from_dict(cell["config"]), sizes, service,
                cell["offered_gross"])
        for cell in spec["cells"]
    ]


def spec_campaign(spec: dict) -> tuple[str, list[RunTask], list[str]]:
    """``(campaign_key, tasks, task_keys)`` of a normalized spec."""
    tasks = spec_tasks(spec)
    keys = task_keys(tasks)
    return campaign_key(spec["kind"], spec["label"], keys), tasks, keys


def encode_line(payload: dict) -> bytes:
    """One wire line: compact JSON plus the newline terminator."""
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8") + b"\n"


def decode_line(raw: "bytes | str") -> dict:
    """Parse one wire line into a dict (typed error on garbage)."""
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"bad protocol line: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(f"protocol line must be an object, "
                            f"got {type(payload).__name__}")
    return payload


def stream_header(campaign: str) -> dict:
    """The obs-EventLog header opening one campaign stream."""
    return {"schema": EVENT_SCHEMA, "stream": STREAM_SCHEMA,
            "campaign": campaign}


def stream_event(seq: Iterator[int], kind: str, **payload: object) -> dict:
    """One stream event; ``t`` is drawn from the stream's sequence.

    The payload keys are checked against
    :data:`~repro.obs.events.SERVICE_EVENT_SCHEMAS` so an emit site
    cannot drift from the registered wire contract unnoticed.
    """
    expected = SERVICE_EVENT_SCHEMAS.get(kind)
    if expected is None:
        raise ProtocolError(f"unregistered stream event kind {kind!r}")
    if set(payload) != expected:
        raise ProtocolError(
            f"event {kind!r} payload keys {sorted(payload)} != "
            f"registered schema {sorted(expected)}")
    return {"t": float(next(seq)), "kind": kind, **payload}
