"""Service-suite fixtures: an in-thread server over a short socket.

Unix-domain socket paths are limited to ~104 bytes, so the service
fixtures live under a short ``mkdtemp`` directory instead of pytest's
(potentially deep) ``tmp_path``.
"""

from __future__ import annotations

import shutil
import tempfile
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.core import SimulationConfig
from repro.service import ServiceClient, serve_in_thread
from repro.workload import das_s_128, das_t_900

SIZES = das_s_128()
SERVICE = das_t_900()


def small_config(policy="GS", **kw) -> SimulationConfig:
    """A fast-but-nontrivial configuration (mirrors tests/runner)."""
    base = dict(policy=policy, component_limit=16, warmup_jobs=100,
                measured_jobs=400, seed=7, batch_size=100)
    if policy == "SC":
        base.update(capacities=(128,), component_limit=None)
    base.update(kw)
    return SimulationConfig(**base)


@contextmanager
def count_engine_calls():
    """Count engine invocations: in-process scalar runs plus batch
    kernel lane loads (one per point the kernel simulates).

    ``count`` is their sum, ``scalar`` and ``lanes`` the two parts.
    The broker fuses every fusable campaign, so a point may come from
    either engine; single-flight means each unique key reaches exactly
    one of them once.  Non-fixture form, usable inside hypothesis
    examples."""
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


@pytest.fixture
def engine_calls():
    """Count engine invocations; cache-warm service requests must not
    move it.  Works across the server's fleet threads because the
    broker runs the scalar engine in-process at ``workers=1`` and the
    fused kernel in-process too."""
    with count_engine_calls() as calls:
        yield calls


@pytest.fixture
def service_root():
    root = Path(tempfile.mkdtemp(prefix="repro-svc-"))
    yield root
    shutil.rmtree(root, ignore_errors=True)


@pytest.fixture
def service(service_root):
    """A live in-thread server bound to ``service_root``."""
    with serve_in_thread(service_root / "cache",
                         service_root / "svc.sock", fleet=4) as server:
        yield server


@pytest.fixture
def client(service):
    return ServiceClient(service.socket_path)
