"""On-disk result cache keyed by task content hashes.

Layout: one JSON file per task under ``.repro-cache/<key[:2]>/<key>.json``
(the two-character shard keeps directories small on big sweeps)::

    {
      "schema": "repro.runner/1",
      "key": "<64 hex chars>",
      "task": "<human-readable description>",
      "point": { ...SweepPoint fields... }
    }

Integrity rules:

* writes are atomic (:func:`atomic_write_json`), so an aborted run can
  never leave a truncated entry behind;
* a corrupted, truncated or schema-mismatched entry is *never* fatal —
  it falls through to recompute, surfacing one
  :class:`CacheIntegrityWarning` per run (per cache instance);
* the ``schema`` tag versions the payload shape: bumping
  :data:`SCHEMA_TAG` invalidates every existing entry at once.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
import threading
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

if TYPE_CHECKING:  # pragma: no cover - importing repro.analysis here at
    # module scope would cycle: its package __init__ pulls in the sweep
    # harness, which imports this package.  The point (de)serializers
    # are imported lazily at call time instead.
    from repro.analysis.points import SweepPoint

__all__ = [
    "ResultCache",
    "CacheIntegrityWarning",
    "SCHEMA_TAG",
    "DEFAULT_CACHE_DIR",
    "atomic_write_json",
]

#: Versioned payload-shape tag; bump on incompatible changes.
SCHEMA_TAG = "repro.runner/1"

#: Default cache location, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: The sweep service loads and stores from executor threads.
_COUNTER_LOCK = threading.Lock()


def atomic_write_json(path: Path, obj: object) -> None:
    """Write ``obj`` as JSON to ``path`` via a unique sibling temp file and
    ``os.replace``: no torn reads, no writer collisions, last one wins."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix="." + path.name,
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=1, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


class CacheIntegrityWarning(UserWarning):
    """A cache entry was unreadable and will be recomputed."""


class ResultCache:
    """JSON file cache of completed simulation runs.

    Parameters
    ----------
    root:
        Cache directory (created lazily on the first store).
    """

    def __init__(self, root: Union[str, Path] = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self._warned = False

    def path_for(self, key: str) -> Path:
        """Where the entry for ``key`` lives on disk."""
        return self.root / key[:2] / f"{key}.json"

    def contains(self, key: str) -> bool:
        """Whether an entry file exists for ``key`` (no validation).

        A cheap existence probe for progress accounting (campaign
        resume reports); a present-but-corrupt entry still counts here
        and is handled — warn once, recompute — on the actual
        :meth:`load`.
        """
        return self.path_for(key).exists()

    def load(self, key: str) -> Optional[SweepPoint]:
        """The cached point for ``key``, or ``None`` to recompute.

        Any malformed entry (bad JSON, missing fields, wrong schema
        tag) counts as a miss; the first one per run raises a
        :class:`CacheIntegrityWarning` so silent corruption is visible
        without spamming a warning per entry.
        """
        point = self._read(self.path_for(key))
        with _COUNTER_LOCK:
            self.hits += point is not None
            self.misses += point is None
        return point

    def _read(self, path: Path) -> Optional[SweepPoint]:
        from repro.analysis.points import point_from_dict

        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            self._warn_once(path, f"unreadable entry ({exc})")
            return None
        try:
            if payload["schema"] != SCHEMA_TAG:
                self._warn_once(
                    path,
                    f"schema tag {payload['schema']!r} != {SCHEMA_TAG!r}",
                )
                return None
            return point_from_dict(payload["point"])
        except (KeyError, TypeError) as exc:
            self._warn_once(path, f"malformed payload ({exc!r})")
            return None

    def store(self, key: str, point: SweepPoint,
              description: str = "") -> None:
        """Persist ``point`` under ``key`` (atomic write)."""
        from repro.analysis.points import point_to_dict

        path = self.path_for(key)
        payload = {
            "schema": SCHEMA_TAG,
            "key": key,
            "task": description,
            "point": point_to_dict(point),
        }
        atomic_write_json(path, payload)
        with _COUNTER_LOCK:
            self.stores += 1

    def stats(self) -> dict[str, int]:
        """Lifetime counters of this cache instance (JSON-ready).

        The sweep service reports these through its ``status`` op, so a
        client can verify dedup claims ("a repeat submission performed
        zero engine calls") without filesystem access to the cache.
        """
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores}

    def _warn_once(self, path: Path, reason: str) -> None:
        if self._warned:
            return
        self._warned = True
        warnings.warn(
            f"result cache: {reason} at {path}; recomputing (further "
            f"integrity issues this run are silent)",
            CacheIntegrityWarning,
            stacklevel=3,
        )

    def __repr__(self) -> str:
        return (f"<ResultCache {self.root} hits={self.hits} "
                f"misses={self.misses} stores={self.stores}>")
