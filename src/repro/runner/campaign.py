"""Sweep manifests: checkpoint/resume state for whole campaigns.

The result cache already checkpoints *tasks* — every completed run is
written (atomically) under its content-hash key the moment it finishes.
What the cache alone cannot answer is "what was I doing?": which tasks
a campaign (a sweep, a replicated sweep, a paired comparison) planned,
and how far it got.  A :class:`SweepManifest` records exactly that,
next to the cache under ``<cache-root>/sweeps/<campaign>.json``:

* the campaign key — a content hash of the campaign kind, label and the
  full planned task-key list, so the same command always maps to the
  same manifest and *any* change to the inputs starts a fresh one;
* the planned task keys and human-readable descriptions, in execution
  order;
* a status: ``"running"`` from first submission until the campaign's
  final artifact is assembled, then ``"complete"``.

Recovery needs no replay log: a campaign interrupted at any point
(SIGINT, OOM kill, machine reboot) is resumed by *re-running the same
command with the cache enabled* — completed tasks are cache hits,
unfinished ones re-execute, and the output is byte-identical to an
uninterrupted run because every task is a pure function of its
contents.  The manifest makes the resumption visible (``repro-sim
sweep --resume`` reports done/remaining counts before running) and
records campaign provenance for audits.

Like everything under :mod:`repro.obs`, manifests are side-band:
derived from the plan, never fed back into task keys or payloads.
Deleting ``sweeps/`` changes nothing about any result.

Campaign state is written only when it changes.  Re-running a complete,
fully cached campaign (a warm service resubmission, a repeated
``sweep``) rewrites neither its ledger nor its manifest; a campaign
with anything left to run still goes ``"running"`` then ``"complete"``.
The files are small, so the sweep service reads and writes them on its
event loop.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

from repro.obs import progress as _progress
from repro.obs.registry import REGISTRY

from .cache import ResultCache, atomic_write_json
from .task import RunTask, task_key

__all__ = [
    "SweepManifest",
    "SWEEP_MANIFEST_SCHEMA",
    "CAMPAIGN_LEDGER_SCHEMA",
    "campaign_key",
    "sweep_manifest_path",
    "campaign_ledger_path",
    "begin_campaign",
    "finish_campaign",
    "load_campaign",
    "campaign_progress",
    "record_ledger",
    "load_ledger",
    "match_campaigns",
]

#: Versioned shape tag of the sweep-manifest payload; bump on change.
SWEEP_MANIFEST_SCHEMA = "repro.runner/sweep-manifest/1"

#: Versioned shape tag of the campaign-ledger payload; bump on change.
CAMPAIGN_LEDGER_SCHEMA = "repro.runner/campaign-ledger/1"


@dataclass(frozen=True)
class SweepManifest:
    """The planned task set and status of one campaign."""

    campaign: str
    kind: str  # "sweep" | "replicated-sweep" | "paired-comparison"
    label: str
    task_keys: tuple[str, ...]
    descriptions: tuple[str, ...]
    status: str = "running"  # "running" | "complete"
    completed_points: Optional[int] = None
    schema: str = SWEEP_MANIFEST_SCHEMA

    def to_dict(self) -> dict:
        """JSON-ready dict form."""
        payload = asdict(self)
        payload["task_keys"] = list(self.task_keys)
        payload["descriptions"] = list(self.descriptions)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "SweepManifest":
        """Rebuild a manifest, rejecting unknown schema tags."""
        if payload.get("schema") != SWEEP_MANIFEST_SCHEMA:
            raise ValueError(
                f"sweep manifest schema {payload.get('schema')!r} != "
                f"{SWEEP_MANIFEST_SCHEMA!r}")
        data = {k: payload[k] for k in cls.__dataclass_fields__
                if k in payload}
        data["task_keys"] = tuple(data.get("task_keys", ()))
        data["descriptions"] = tuple(data.get("descriptions", ()))
        return cls(**data)


def campaign_key(kind: str, label: str,
                 task_keys: Sequence[str]) -> str:
    """Content-hash identity of a campaign (64 hex chars).

    Hashing the planned task keys (themselves content hashes of the
    full configuration, seed, load and workload fingerprints) means any
    change to any input — grid, seeds, policy, workload — yields a new
    campaign, so resume can never mix state across campaigns.
    """
    payload = {
        "schema": SWEEP_MANIFEST_SCHEMA,
        "kind": kind,
        "label": label,
        "task_keys": list(task_keys),
    }
    canonical = json.dumps(payload, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def sweep_manifest_path(cache_root: Path, campaign: str) -> Path:
    """Where the manifest for ``campaign`` lives under a cache root."""
    return Path(cache_root) / "sweeps" / f"{campaign}.json"


def load_campaign(store: ResultCache,
                  campaign: str) -> Optional[SweepManifest]:
    """The stored manifest for ``campaign``, or ``None``.

    Malformed manifests (torn writes predate the atomic-replace era,
    schema bumps) read as absent: the campaign restarts cleanly and the
    manifest is rewritten — resume state is an optimization, never a
    correctness dependency.
    """
    path = sweep_manifest_path(store.root, campaign)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return SweepManifest.from_dict(json.load(fh))
    except (OSError, json.JSONDecodeError, ValueError, TypeError):
        return None


def campaign_progress(store: ResultCache,
                      manifest: SweepManifest) -> tuple[int, int]:
    """``(completed, planned)`` task counts judged by cache presence."""
    done = sum(1 for key in manifest.task_keys if store.contains(key))
    return done, len(manifest.task_keys)


def campaign_ledger_path(cache_root: Path, campaign: str) -> Path:
    """Where the submission ledger for ``campaign`` lives.

    It sits next to the manifest under ``sweeps/`` so deleting the
    directory wipes both kinds of side-band campaign state at once.
    """
    return Path(cache_root) / "sweeps" / f"{campaign}.ledger.json"


def record_ledger(store: ResultCache, campaign: str,
                  submission: dict) -> None:
    """Persist the submission that planned ``campaign`` (atomic write).

    The ledger is what turns ``--resume`` into *reconnection*: the
    manifest records which task keys a campaign planned, the ledger
    records the submission they were derived from, so a client (or a
    restarted server) can rebuild the exact task list from the
    campaign key alone and re-run it — completed tasks are cache hits,
    the remainder executes.  Like the manifest it is side-band: derived
    from the plan, never fed back into task keys or payloads.
    """
    path = campaign_ledger_path(store.root, campaign)
    payload = {
        "schema": CAMPAIGN_LEDGER_SCHEMA,
        "campaign": campaign,
        "submission": submission,
    }
    if not _holds(path, payload):
        atomic_write_json(path, payload)


def _holds(path: Path, payload: dict) -> bool:
    """Whether ``path`` already holds the JSON ``payload`` would write.

    Both sides are compared through the unindented encoder, which is
    far cheaper than the indented writer (tuples and lists encode
    alike).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            held = json.load(fh)
    except (OSError, ValueError):
        return False
    return (json.dumps(held, sort_keys=True)
            == json.dumps(payload, sort_keys=True))


def load_ledger(store: ResultCache, campaign: str) -> Optional[dict]:
    """The recorded submission for ``campaign``, or ``None``.

    Malformed or schema-mismatched ledgers read as absent, mirroring
    :func:`load_campaign`.
    """
    path = campaign_ledger_path(store.root, campaign)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(payload, dict) \
            or payload.get("schema") != CAMPAIGN_LEDGER_SCHEMA \
            or not isinstance(payload.get("submission"), dict):
        return None
    return payload["submission"]


def match_campaigns(store: ResultCache, prefix: str) -> list[str]:
    """Ledgered campaign keys starting with ``prefix``, sorted.

    Lets clients reattach by a short unique key prefix the way git
    accepts abbreviated commit hashes.
    """
    sweeps = Path(store.root) / "sweeps"
    suffix = ".ledger.json"
    try:
        names = sorted(p.name for p in sweeps.iterdir())
    except OSError:
        return []
    return [name[:-len(suffix)] for name in names
            if name.endswith(suffix)
            and name[:-len(suffix)].startswith(prefix)]


def begin_campaign(kind: str, label: str, tasks: Sequence[RunTask],
                   store: Optional[ResultCache],
                   keys: Optional[Sequence[str]] = None
                   ) -> Optional[SweepManifest]:
    """Record the planned task set before the first submission.

    Returns ``None`` when no cache is active (a campaign without a
    cache has no state worth resuming).  When a manifest for the same
    campaign key already exists, this *is* a resumption: the
    ``runner.resume.campaigns`` counter is bumped and the
    ``runner.resume.completed`` / ``runner.resume.remaining`` gauges
    are set from the cache, so observability shows exactly how much
    work the restart skipped.

    ``keys`` are the tasks' :func:`~repro.runner.task.task_key` values
    when the caller already derived them; omitted, they are derived
    here.

    Returns the manifest as it stands on disk.  A prior manifest that
    is complete, plans the same tasks and has every key cached is left
    as it is and returned: nothing is left to run, so the campaign
    never goes back to ``"running"``, and :func:`finish_campaign`
    writes only if the point count changes.
    """
    if store is None:
        return None
    if keys is None:
        keys = [task_key(t) for t in tasks]
    manifest = SweepManifest(
        campaign=campaign_key(kind, label, keys),
        kind=kind,
        label=label,
        task_keys=tuple(keys),
        descriptions=tuple(t.describe() for t in tasks),
    )
    prior = load_campaign(store, manifest.campaign)
    if prior is not None:
        done, total = campaign_progress(store, manifest)
        REGISTRY.counter("runner.resume.campaigns").inc()
        REGISTRY.gauge("runner.resume.completed").set(done)
        REGISTRY.gauge("runner.resume.remaining").set(total - done)
        if (done == total and prior.status == "complete"
                and replace(prior, status="running",
                            completed_points=None) == manifest):
            manifest = prior  # nothing left to run: keep the file
    if manifest is not prior:
        atomic_write_json(sweep_manifest_path(store.root, manifest.campaign),
                          manifest.to_dict())
    # Heartbeat for span recorders / dashboards: the campaign span
    # opens here and closes at finish_campaign.  Side-band only — no
    # subscriber means no work.
    _progress.notify("campaign-begin", manifest.campaign,
                     f"{kind} {label} ({len(keys)} tasks)")
    return manifest


def finish_campaign(manifest: Optional[SweepManifest],
                    store: Optional[ResultCache],
                    points: int) -> Optional[SweepManifest]:
    """Mark a campaign complete once its final artifact is assembled.

    ``points`` records how many curve points the campaign produced —
    for early-stopping sweeps this is legitimately smaller than the
    planned task count (the saturated tail is never simulated).
    ``manifest`` is what :func:`begin_campaign` returned, so when it
    already reads complete with ``points`` the file is left untouched.
    """
    if manifest is None or store is None:
        return manifest
    done = replace(manifest, status="complete", completed_points=points)
    if done != manifest:
        atomic_write_json(sweep_manifest_path(store.root, done.campaign),
                          done.to_dict())
    _progress.notify("campaign-finish", done.campaign,
                     f"{done.kind} {done.label} ({points} points)")
    return done
