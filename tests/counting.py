"""Counting the points the engines actually compute."""

from __future__ import annotations

from contextlib import contextmanager


@contextmanager
def count_engine_calls():
    """Count engine invocations: in-process scalar runs plus batch
    kernel lane loads (one per point the kernel simulates).

    ``count`` is their sum, ``scalar`` and ``lanes`` the two parts.
    Sweeps default to the kernel and the broker fuses every fusable
    campaign, so a point may come from either engine; a cache-warm run
    must leave every count flat.  Non-fixture form, usable inside
    hypothesis examples."""
    import repro.runner.worker as worker_module
    import repro.sim.batch as batch_module

    calls = {"count": 0, "scalar": 0, "lanes": 0}
    real_run = worker_module.run_open_system
    real_load = batch_module.BatchLaneKernel.load

    def counting_run(*args, **kwargs):
        calls["count"] += 1
        calls["scalar"] += 1
        return real_run(*args, **kwargs)

    def counting_load(self, *args, **kwargs):
        calls["count"] += 1
        calls["lanes"] += 1
        return real_load(self, *args, **kwargs)

    worker_module.run_open_system = counting_run
    batch_module.BatchLaneKernel.load = counting_load
    try:
        yield calls
    finally:
        worker_module.run_open_system = real_run
        batch_module.BatchLaneKernel.load = real_load
