"""Shared fixtures: tiny configs and engine-invocation counters."""

from __future__ import annotations

import pytest

from repro.core import SimulationConfig
from repro.workload import das_s_128, das_t_900

SIZES = das_s_128()
SERVICE = das_t_900()


def small_config(policy="GS", **kw) -> SimulationConfig:
    """A fast-but-nontrivial configuration for equivalence tests."""
    base = dict(policy=policy, component_limit=16, warmup_jobs=100,
                measured_jobs=400, seed=7, batch_size=100)
    if policy == "SC":
        base.update(capacities=(128,), component_limit=None)
    base.update(kw)
    return SimulationConfig(**base)


@pytest.fixture
def batch_calls(monkeypatch):
    """Count batch-kernel lane computations — one per point actually
    simulated, whether through ``run_batch_points`` or a fused sweep
    (the batch analogue of ``engine_calls``); cache-warm batch runs
    must leave it at zero."""
    import repro.sim.batch as batch_module

    calls = {"count": 0}
    real = batch_module.BatchLaneKernel.load

    def counting(self, *args, **kwargs):
        calls["count"] += 1
        return real(self, *args, **kwargs)

    monkeypatch.setattr(batch_module.BatchLaneKernel, "load", counting)
    return calls


@pytest.fixture
def engine_calls():
    """Count the points actually computed in-process: scalar engine
    runs (``workers=1``) plus kernel lane loads, under ``count``, with
    the two parts under ``scalar`` and ``lanes``.

    A cache-warm run must leave every count untouched.
    """
    # Imported here: the resume test's child imports this module by
    # path, outside the ``tests`` package.
    from ..counting import count_engine_calls

    with count_engine_calls() as calls:
        yield calls
