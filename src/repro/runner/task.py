"""Task identity: one simulation run, keyed by a stable content hash.

A :class:`RunTask` is the unit the pool fans out: *one* open-system run
of one :class:`~repro.core.system.SimulationConfig` (which carries the
master seed) at one offered gross utilization.  Its :func:`task_key` is
a SHA-256 over a canonical JSON encoding of everything the result
depends on — the full configuration, the offered load and content
fingerprints of both workload distributions — so

* the same experiment always maps to the same key (cache hits survive
  process restarts and re-imports);
* *any* change to the inputs changes the key (no stale cache reads);
* results can be collected in task-key order, independent of worker
  completion order.

``RunTask.backend`` is a hint about *how* the point is computed — the
scalar engine or the batch lane kernel — not part of *what* it is: both
produce byte-identical points (the golden fixtures hold through either
path), so the key leaves it out and one cache entry serves both.

Distribution fingerprints hash the pickled object with a pinned pickle
protocol: the workload distributions are plain frozen tables, so equal
distributions always pickle to equal bytes.  :func:`task_keys` pickles
each distinct distribution object once per call, not once per task.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from dataclasses import dataclass, fields
from typing import Optional

from repro.core.system import SimulationConfig
from repro.sim.distributions import Distribution

__all__ = ["RunTask", "task_key", "task_keys", "config_to_dict",
           "KEY_VERSION"]

#: Bump when the key derivation (not the cached payload) changes shape.
KEY_VERSION = 1

#: Pinned pickle protocol so fingerprints are stable across interpreter
#: sessions on the same Python major line.
_PICKLE_PROTOCOL = 4

_CONFIG_FIELDS = tuple(f.name for f in fields(SimulationConfig))


def config_to_dict(config: SimulationConfig) -> dict:
    """JSON-ready dict form of a configuration, field by field.

    Every field is a scalar or a tuple of scalars, so this equals
    ``dataclasses.asdict(config)`` without its recursive copy.
    """
    return {name: getattr(config, name) for name in _CONFIG_FIELDS}


@dataclass(frozen=True)
class RunTask:
    """One open-system simulation run to execute (or fetch from cache)."""

    config: SimulationConfig
    size_distribution: Distribution
    service_distribution: Distribution
    offered_gross: float
    backend: str = "scalar"

    def describe(self) -> str:
        """Short human-readable identity (for errors and logs)."""
        c = self.config
        suffix = "" if self.backend == "scalar" else f" [{self.backend}]"
        return (f"{c.policy} L={c.component_limit} seed={c.seed} "
                f"rho={self.offered_gross:g}{suffix}")


def _fingerprint(distribution: Distribution,
                 prints: Optional[dict[int, str]] = None) -> str:
    """Content hash of a distribution (stable across processes).

    ``prints`` memoizes hashes by ``id`` for objects the caller keeps
    alive, so a plan pickles each object once.
    """
    if prints is None:
        prints = {}
    digest = prints.get(id(distribution))
    if digest is None:
        blob = pickle.dumps(distribution, protocol=_PICKLE_PROTOCOL)
        digest = prints[id(distribution)] = hashlib.sha256(blob).hexdigest()
    return digest


def task_key(task: RunTask,  # simlint: disable=SIM010 -- backend: a hint
             _prints: Optional[dict[int, str]] = None) -> str:
    """The stable content-hash key of ``task`` (64 hex chars).

    Every field but ``backend`` is hashed: the backend is how the point
    is computed, and both engines compute the same bytes.  ``_prints``
    is :func:`task_keys`' per-plan fingerprint memo.
    """
    payload = {
        "key_version": KEY_VERSION,
        "config": config_to_dict(task.config),
        "offered_gross": task.offered_gross,
        "size_distribution": _fingerprint(task.size_distribution,
                                          _prints),
        "service_distribution": _fingerprint(task.service_distribution,
                                             _prints),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def task_keys(tasks: "list[RunTask] | tuple[RunTask, ...]") -> list[str]:
    """The keys of ``tasks``, in input order (campaign planning).

    Each distinct distribution object is fingerprinted once: ``tasks``
    holds every one alive for the call, so their ids cannot be reused.
    """
    prints: dict[int, str] = {}
    return [task_key(task, prints) for task in tasks]
