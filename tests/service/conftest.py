"""Service-suite fixtures: an in-thread server over a short socket.

Unix-domain socket paths are limited to ~104 bytes, so the service
fixtures live under a short ``mkdtemp`` directory instead of pytest's
(potentially deep) ``tmp_path``.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import pytest

from repro.core import SimulationConfig
from repro.service import ServiceClient, serve_in_thread
from repro.workload import das_s_128, das_t_900

from ..counting import count_engine_calls

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
