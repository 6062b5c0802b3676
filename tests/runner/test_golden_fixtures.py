"""Committed golden traces: the simulator's output is frozen in git.

``tests/data/golden/sweep_<policy>.json`` hold the serialized sweep of
each co-allocation policy for the small reference configuration (seed
7, component limit 16, grid 0.35/0.55), generated once with
``save_sweep`` and committed.  A fresh run must reproduce each file
**byte for byte** — across interpreter sessions, machines, worker
counts, both engines and any amount of fault-tolerance machinery in
between.  The serial and parallel runs pin ``backend="scalar"`` (the
default fuses the grid into the in-process batch kernel, which never
reaches the process pool); the default run pins the kernel.

A diff here means the simulation's numerical behaviour changed: either
an intended model change (regenerate the fixtures in the same commit
and say why) or an accidental determinism break (fix it).
"""

from __future__ import annotations

import io
from pathlib import Path

import pytest

from repro.analysis.io import save_sweep
from repro.analysis.sweeps import sweep

from .conftest import SERVICE, SIZES, small_config

GOLDEN_DIR = Path(__file__).parent.parent / "data" / "golden"

POLICIES = ("GS", "LS", "LP", "SC")
GRID = (0.35, 0.55)


def fresh_payload(policy: str, **sweep_kw) -> str:
    result = sweep(policy, small_config(policy), SIZES, SERVICE, GRID,
                   cache=False, **sweep_kw)
    buf = io.StringIO()
    save_sweep(result, buf)
    return buf.getvalue()


@pytest.mark.parametrize("policy", POLICIES)
class TestGoldenSweeps:
    def test_serial_run_matches_committed_fixture(self, policy):
        golden = (GOLDEN_DIR / f"sweep_{policy}.json").read_text(
            encoding="utf-8")
        assert fresh_payload(policy, workers=1, backend="scalar") == golden

    def test_parallel_run_matches_committed_fixture(self, policy):
        golden = (GOLDEN_DIR / f"sweep_{policy}.json").read_text(
            encoding="utf-8")
        assert fresh_payload(policy, workers=2, backend="scalar") == golden

    def test_default_run_matches_committed_fixture(self, policy):
        golden = (GOLDEN_DIR / f"sweep_{policy}.json").read_text(
            encoding="utf-8")
        assert fresh_payload(policy) == golden


def test_fixtures_differ_across_policies():
    # Four policies, four distinct curves: a copy-paste mishap in the
    # fixture directory would make two of them byte-equal.
    payloads = {p: (GOLDEN_DIR / f"sweep_{p}.json").read_text("utf-8")
                for p in POLICIES}
    assert len(set(payloads.values())) == len(POLICIES)
