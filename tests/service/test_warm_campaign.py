"""The work a warm campaign does: each task key derived once, and the
workload distributions never rebuilt.

A warm resubmission is served entirely from the cache, so its cost is
planning: building the spec's tasks and deriving their keys.  These
tests pin that planning to the minimum — one ``task_key`` call per
cell and no ``TruncatedLognormal`` construction (the DAS-t-900 body
estimates its moments from 200,000 draws, the single largest cost of
a warm campaign when it is rebuilt).
"""

from __future__ import annotations

import sys

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

    def counting(task):
        calls["count"] += 1
        return real(task)

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
