"""The work a warm campaign does: each task key derived once, the
workload distributions never rebuilt, no file written.

A warm resubmission is served entirely from the cache, so its cost is
planning: building the spec's tasks and deriving their keys.  These
tests pin that planning to the minimum — one ``task_key`` call per
cell and no ``TruncatedLognormal`` construction (the DAS-t-900 body
estimates its moments from 200,000 draws, the single largest cost of
a warm campaign when it is rebuilt) — and pin what the answer still
carries: every cell's ``hit`` heartbeat, ahead of ``campaign-finish``.
"""

from __future__ import annotations

import asyncio
import sys

from repro.obs.registry import REGISTRY
from repro.runner import task as task_module
from repro.service import sweep_spec
from repro.sim.distributions import TruncatedLognormal

from .conftest import small_config

GRID = (0.3, 0.4, 0.5)


def count_task_key_calls(monkeypatch) -> dict:
    """Count calls of ``repro.runner.task.task_key`` through every
    module-level binding of it (modules import it by name)."""
    real = task_module.task_key
    calls = {"count": 0}

    def counting(task, *args):
        calls["count"] += 1
        return real(task, *args)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and module is not None \
                and getattr(module, "task_key", None) is real:
            monkeypatch.setattr(module, "task_key", counting)
    return calls


def count_truncated_lognormals(monkeypatch) -> dict:
    """Count ``TruncatedLognormal`` constructions."""
    real = TruncatedLognormal.__init__
    calls = {"count": 0}

    def counting(self, *args, **kwargs):
        calls["count"] += 1
        real(self, *args, **kwargs)

    monkeypatch.setattr(TruncatedLognormal, "__init__", counting)
    return calls


def test_warm_campaign_derives_each_key_once(client, monkeypatch):
    spec = sweep_spec("GS", small_config("GS"), GRID)
    cold = client.run(spec)
    assert cold.statuses == ["computed"] * len(GRID)

    keys = count_task_key_calls(monkeypatch)
    bodies = count_truncated_lognormals(monkeypatch)
    warm = client.run(spec)

    assert warm.statuses == ["hit"] * len(GRID)
    assert warm.raw_points == cold.raw_points
    assert keys["count"] == len(spec["cells"])
    assert bodies["count"] == 0


def file_states(root):
    """``{path: (mtime_ns, inode)}`` of every file under ``root``."""
    return {path: (path.stat().st_mtime_ns, path.stat().st_ino)
            for path in root.rglob("*") if path.is_file()}


def test_warm_stream_forwards_each_hit_before_finish(client):
    spec = sweep_spec("GS", small_config("GS"), GRID)
    client.run(spec)

    kinds, hits = [], []
    for event in client.submit(spec):
        kinds.append(event["kind"])
        if event["kind"] == "heartbeat":
            assert event["phase"] == "hit"
            hits.append(event["key"])

    assert kinds[-1] == "campaign-finish"
    assert kinds.count("heartbeat") == len(GRID)
    points = [k for k in kinds if k == "point"]
    assert len(points) == len(GRID)
    assert len(set(hits)) == len(GRID)


def test_warm_resubmission_writes_nothing(client, service, monkeypatch):
    spec = sweep_spec("GS", small_config("GS"), GRID)
    cold = client.run(spec)
    before = file_states(service.store.root)
    resumed = REGISTRY.counter("runner.resume.campaigns").value
    real = asyncio.to_thread
    hops = {"count": 0}

    async def counting(*args, **kwargs):
        hops["count"] += 1
        return await real(*args, **kwargs)

    monkeypatch.setattr(asyncio, "to_thread", counting)
    warm = client.run(spec)

    assert warm.raw_points == cold.raw_points
    assert file_states(service.store.root) == before
    assert REGISTRY.counter("runner.resume.campaigns").value == resumed + 1
    assert hops["count"] == 0
