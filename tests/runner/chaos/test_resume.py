"""Interrupted campaigns resume without recomputing finished work.

The checkpoint/resume contract: every collected grid point is persisted
to the result cache *immediately*, and the campaign manifest records
the full planned task set — so a sweep killed mid-flight (SIGINT here,
standing in for OOM kills and reboots) resumes from the last completed
point when re-invoked, re-executing only the lost remainder, and the
resumed curve is byte-identical to an uninterrupted run.
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

import pytest

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

#: The interrupted sweep, run in a child so SIGINT can kill it.  The
#: second grid point is armed to hang (serially, in-process), so the
#: child is interrupted with exactly one point completed.
CHILD = textwrap.dedent("""
    import sys
    from repro.analysis.sweeps import sweep
    from repro.runner import ResultCache
    sys.path.insert(0, {test_dir!r})
    from conftest import SERVICE, SIZES, small_config  # tests/runner

    sweep("GS", small_config("GS"), SIZES, SERVICE, {grid!r},
          workers=1, cache=ResultCache({cache_dir!r}), backend="scalar")
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


class TestInterruptedSweepResumes:
    def test_sigint_then_resume_reexecutes_only_remainder(
            self, tmp_path, fault_plan, engine_calls, monkeypatch):
        config = small_config("GS")
        keys = task_keys(sweep_tasks(config, SIZES, SERVICE, GRID))
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
            # The hang on point 2 holds the child exactly here: point 1
            # checkpointed, nothing else.
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

        # The campaign manifest survived the interrupt, still open.
        manifest = load_campaign(cache, campaign_key("sweep", "GS", keys))
        assert manifest is not None
        assert manifest.status == "running"
        done, total = campaign_progress(cache, manifest)
        assert (done, total) == (1, len(keys))

        # Resume: the armed hang was already claimed by the child, so
        # the re-run proceeds clean — and must only execute the two
        # lost points (the engine counter is in-process, workers=1).
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        resumed = sweep("GS", config, SIZES, SERVICE, GRID,
                        workers=1, cache=cache, backend="scalar")
        assert engine_calls["scalar"] == len(keys) - 1

        manifest = load_campaign(cache, campaign_key("sweep", "GS", keys))
        assert manifest.status == "complete"

        # Byte-identical to a never-interrupted run.
        baseline = sweep("GS", config, SIZES, SERVICE, GRID, workers=1,
                         cache=False, backend="scalar")
        assert payload(resumed) == payload(baseline)


class TestCliResume:
    """``repro-sim sweep --resume`` wiring, exercised in-process."""

    ARGS = ["sweep", "--policy", "GS", "--limit", "16", "--seed", "7",
            "--warmup", "100", "--measured", "400",
            "--grid", "0.3:0.5:0.1"]

    @pytest.fixture
    def cache_env(self, monkeypatch, tmp_path):
        cache_dir = tmp_path / "cli-cache"
        monkeypatch.setenv("REPRO_CACHE", str(cache_dir))
        return cache_dir

    def run_cli(self, argv, capsys):
        from repro.cli import main

        code = main(argv)
        out = capsys.readouterr().out
        return code, out

    def test_resume_fresh_campaign_reports_and_runs(self, cache_env,
                                                    capsys):
        code, out = self.run_cli(self.ARGS + ["--resume"], capsys)
        assert code == 0
        assert "resume: no previous state" in out

    def test_resume_completed_campaign_skips_everything(
            self, cache_env, capsys, tmp_path, engine_calls):
        out1 = tmp_path / "first.json"
        out2 = tmp_path / "second.json"
        code, _ = self.run_cli(self.ARGS + ["--json", str(out1)], capsys)
        assert code == 0
        first_runs = engine_calls["count"]
        assert first_runs > 0

        code, out = self.run_cli(
            self.ARGS + ["--resume", "--json", str(out2)], capsys)
        assert code == 0
        assert "re-executing 0" in out
        assert engine_calls["count"] == first_runs
        assert out2.read_bytes() == out1.read_bytes()

    def test_resume_refuses_no_cache(self, cache_env, capsys):
        with pytest.raises(SystemExit, match="--no-cache"):
            self.run_cli(self.ARGS + ["--resume", "--no-cache"], capsys)
