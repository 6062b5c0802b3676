"""Fault tolerance × the batch backend: resume, cache sharing.

The batch backend slots in below the whole fault-tolerance stack —
task keys, caches, campaign manifests, fault plans all operate on
:class:`~repro.runner.RunTask`, which only *carries* the backend as a
hint.  The two contracts pinned here:

* an interrupted ``backend="batch"`` sweep resumes from its checkpoint
  and produces bytes identical to an uninterrupted batch run;
* batch and scalar tasks share one key space: both engines produce
  byte-identical points, so a scalar-filled cache serves a batch
  campaign entirely, without loading a kernel lane.
"""

from __future__ import annotations

import io
import os
import signal
import subprocess
import sys
import textwrap
import time
from contextlib import suppress

from repro.analysis.io import save_sweep
from repro.analysis.sweeps import sweep, sweep_tasks
from repro.runner import (
    ResultCache,
    campaign_key,
    campaign_progress,
    load_campaign,
    task_keys,
)
from repro.runner.faults import FAULTS_ENV, Fault, plan_fault

from ..conftest import SERVICE, SIZES, small_config

GRID = (0.3, 0.4, 0.5)

#: The interrupted batch-backend sweep, run in a child so SIGINT can
#: kill it; the second grid point is armed to hang.
CHILD = textwrap.dedent("""
    import sys
    from repro.analysis.sweeps import sweep
    from repro.runner import ResultCache
    sys.path.insert(0, {test_dir!r})
    from conftest import SERVICE, SIZES, small_config  # tests/runner

    sweep("GS", small_config("GS"), SIZES, SERVICE, {grid!r},
          workers=1, cache=ResultCache({cache_dir!r}), backend="batch")
""")


def payload(result) -> str:
    buf = io.StringIO()
    save_sweep(result, buf)
    return buf.getvalue()


def group_is_empty(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return True
    return False


def wait_for(predicate, timeout=60.0, interval=0.05) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestInterruptedBatchSweepResumes:
    def test_sigint_then_resume_is_byte_identical(
            self, tmp_path, fault_plan, batch_calls, monkeypatch):
        config = small_config("GS")
        keys = task_keys(sweep_tasks(config, SIZES, SERVICE, GRID,
                                     backend="batch"))
        cache_dir = tmp_path / "cache"
        cache = ResultCache(cache_dir)

        plan_fault(fault_plan,
                   Fault(key=keys[1], kind="hang", hang_seconds=300.0))
        test_dir = os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)))
        child = subprocess.Popen(
            [sys.executable, "-c",
             CHILD.format(test_dir=test_dir, grid=GRID,
                          cache_dir=str(cache_dir))],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, FAULTS_ENV: str(fault_plan)},
            # Own process group: the finally below kills the child's
            # forked worker too, not just the child.
            start_new_session=True,
        )
        try:
            assert wait_for(lambda: cache.contains(keys[0])), (
                "child never checkpointed its first grid point")
            child.send_signal(signal.SIGINT)
            child.wait(timeout=30)
            # The interrupt took the child's pool workers with it.
            assert wait_for(lambda: group_is_empty(child.pid), timeout=5), (
                "a forked worker outlived the interrupted child")
        finally:
            with suppress(ProcessLookupError):
                os.killpg(child.pid, signal.SIGKILL)
            child.wait()
        assert child.returncode != 0, "interrupted child exited cleanly"

        assert cache.contains(keys[0])
        assert not cache.contains(keys[1])
        assert not cache.contains(keys[2])

        manifest = load_campaign(cache, campaign_key("sweep", "GS", keys))
        assert manifest is not None
        assert manifest.status == "running"
        done, total = campaign_progress(cache, manifest)
        assert (done, total) == (1, len(keys))

        # Resume clean: only the two lost points hit the batch kernel.
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        resumed = sweep("GS", config, SIZES, SERVICE, GRID,
                        workers=1, cache=cache, backend="batch")
        assert batch_calls["count"] == len(keys) - 1

        manifest = load_campaign(cache, campaign_key("sweep", "GS", keys))
        assert manifest.status == "complete"

        baseline = sweep("GS", config, SIZES, SERVICE, GRID, workers=1,
                         cache=False, backend="batch")
        assert payload(resumed) == payload(baseline)


class TestBackendCacheIsolation:
    """What the backend isolates in the cache: nothing — a backend is
    a hint about how a point is computed, and both compute the same
    bytes, so they share every entry."""

    def test_batch_and_scalar_keys_are_equal(self):
        config = small_config("GS")
        scalar = task_keys(sweep_tasks(config, SIZES, SERVICE, GRID))
        batch = task_keys(sweep_tasks(config, SIZES, SERVICE, GRID,
                                      backend="batch"))
        assert scalar == batch

    def test_scalar_cache_serves_a_batch_campaign(
            self, tmp_path, batch_calls, engine_calls):
        """A scalar-populated cache gives a batch sweep all hits."""
        config = small_config("GS", measured_jobs=200)
        cache = ResultCache(tmp_path / "cache")
        grid = (0.3, 0.4)
        scalar_run = sweep("GS", config, SIZES, SERVICE, grid,
                           workers=1, cache=cache, backend="scalar")
        assert engine_calls["scalar"] == len(grid)
        assert batch_calls["count"] == 0
        hits = cache.hits

        batch_run = sweep("GS", config, SIZES, SERVICE, grid,
                          workers=1, cache=cache, backend="batch")
        # Every grid point was a hit: no kernel lane was loaded and no
        # scalar engine run happened.
        assert batch_calls["count"] == 0
        assert engine_calls["count"] == len(grid)
        assert cache.hits == hits + len(grid)
        assert payload(scalar_run) == payload(batch_run)

    def test_warm_batch_cache_skips_the_kernel(self, tmp_path,
                                               batch_calls):
        config = small_config("GS", measured_jobs=200)
        cache = ResultCache(tmp_path / "cache")
        grid = (0.3, 0.4)
        first = sweep("GS", config, SIZES, SERVICE, grid,
                      workers=1, cache=cache, backend="batch")
        runs = batch_calls["count"]
        assert runs == len(grid)
        second = sweep("GS", config, SIZES, SERVICE, grid,
                       workers=1, cache=cache, backend="batch")
        assert batch_calls["count"] == runs, "warm cache re-ran the kernel"
        assert payload(first) == payload(second)
