"""The fused executor's runner contracts, pinned in isolation.

``execute_fused`` must behave exactly like :func:`repro.runner.execute`
as far as the rest of the harness can observe: same results per task
key, same per-task cache granularity (hits served, fresh points
checkpointed at lane retirement), same progress heartbeats, and a
``follow_up`` hook that reproduces dependent chains.  The bit-identity
of the *numbers* lives in the oracle/golden suites; this file pins the
*plumbing*.
"""

from __future__ import annotations

import pytest

from repro.runner import (
    ResultCache,
    RunTask,
    execute_fused,
    fused_eligible,
    task_key,
)
from repro.runner.faults import FAULTS_ENV
from repro.runner.worker import run_task
from repro.sim.batch import BatchBackendError
from repro.sim.distributions import Uniform

from .conftest import SERVICE, SIZES, small_config


def tasks_for(policy="GS", rhos=(0.4, 0.55, 0.7), **config_kw):
    config = small_config(policy, **config_kw)
    return [RunTask(config, SIZES, SERVICE, rho, backend="batch")
            for rho in rhos]


class TestResultsAndKeys:
    def test_every_task_is_keyed_and_matches_the_per_task_path(self):
        tasks = tasks_for()
        fused = execute_fused(tasks, cache=False)
        assert set(fused) == set(task_key(t) for t in tasks)
        for task in tasks:
            assert fused[task_key(task)] == run_task(task)

    def test_width_one_still_completes_every_task(self):
        tasks = tasks_for()
        fused = execute_fused(tasks, cache=False, width=1)
        assert len(fused) == len(tasks)

    def test_mixed_policies_fuse_in_one_call(self):
        tasks = tasks_for("GS") + tasks_for("SC") + tasks_for("LS")
        fused = execute_fused(tasks, cache=False, width=2)
        for task in tasks:
            assert fused[task_key(task)] == run_task(task)

    def test_duplicate_task_is_rejected(self):
        tasks = tasks_for()
        with pytest.raises(ValueError, match="duplicate task"):
            execute_fused(tasks + tasks[:1], cache=False)

    def test_invalid_width_is_rejected(self):
        with pytest.raises(ValueError, match="width"):
            execute_fused(tasks_for(), cache=False, width=0)

    def test_unsupported_model_raises_instead_of_degrading(self):
        # A continuous size distribution has no integer support.
        task = RunTask(small_config("GS"), Uniform(1.0, 64.0), SERVICE,
                       0.5, backend="batch")
        with pytest.raises(BatchBackendError):
            execute_fused([task], cache=False)


class TestCacheGranularity:
    def test_every_point_is_checkpointed_under_its_own_key(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        tasks = tasks_for()
        fused = execute_fused(tasks, cache=cache)
        for task in tasks:
            assert cache.load(task_key(task)) == fused[task_key(task)]

    def test_hits_are_served_without_touching_the_kernel(
            self, tmp_path, batch_calls):
        cache = ResultCache(tmp_path / "cache")
        tasks = tasks_for()
        first = execute_fused(tasks, cache=cache)
        computed = batch_calls["count"]
        assert computed == len(tasks)
        again = execute_fused(tasks, cache=cache)
        assert batch_calls["count"] == computed
        assert again == first

    def test_partial_cache_computes_only_the_misses(
            self, tmp_path, batch_calls):
        cache = ResultCache(tmp_path / "cache")
        tasks = tasks_for()
        execute_fused(tasks[:1], cache=cache)
        assert batch_calls["count"] == 1
        fused = execute_fused(tasks, cache=cache)
        assert batch_calls["count"] == len(tasks)
        assert len(fused) == len(tasks)


class TestFollowUps:
    def test_follow_up_chains_join_the_pending_list(self):
        """A three-link chain scheduled one task at a time."""
        rhos = (0.4, 0.55, 0.7)
        chain = tasks_for(rhos=rhos)
        seen = []

        def advance(task, key, point):
            seen.append(task.offered_gross)
            nxt = len(seen)
            return [chain[nxt]] if nxt < len(chain) else None

        fused = execute_fused(chain[:1], cache=False, follow_up=advance)
        assert seen == list(rhos)
        assert set(fused) == set(task_key(t) for t in chain)

    def test_follow_up_fires_for_cache_hits_too(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        tasks = tasks_for()
        execute_fused(tasks, cache=cache)
        fired = []

        def note(task, key, point):
            fired.append(key)
            return None

        execute_fused(tasks, cache=cache, follow_up=note)
        assert sorted(fired) == sorted(task_key(t) for t in tasks)

    def test_follow_up_may_reopen_an_earlier_group(self):
        """An SC completion schedules more GS work: the GS group's
        kernel must pick it up after its pending list first drained."""
        gs = tasks_for("GS", rhos=(0.4,))
        sc = tasks_for("SC", rhos=(0.5,))
        extra_gs = tasks_for("GS", rhos=(0.6,))

        def reopen(task, key, point):
            if task.config.policy == "SC":
                return extra_gs
            return None

        fused = execute_fused(gs + sc, cache=False, follow_up=reopen)
        assert task_key(extra_gs[0]) in fused


class TestEligibility:
    def test_clean_environment_is_eligible(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        monkeypatch.delenv("REPRO_OBS", raising=False)
        assert fused_eligible()

    def test_armed_faults_disable_fusion(self, monkeypatch, tmp_path):
        monkeypatch.setenv(FAULTS_ENV, str(tmp_path))
        assert not fused_eligible()

    def test_observability_disables_fusion(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        monkeypatch.setenv("REPRO_OBS", "1")
        assert not fused_eligible()
