"""Planned fault schedules against whole sweeps.

The invariant every test here pins: **any fault schedule the runner
survives yields a sweep byte-identical to a fault-free run** — worker
crashes, hangs, transient exceptions and poisoned cache shards are
wall-clock events only, because a re-executed task is the same pure
function of the same task contents.  Schedules the runner must *not*
survive (budget exhausted, attempts exhausted) fail with the typed
error naming the task.

Every sweep here pins ``backend="scalar"``: the subject is the process
pool's fault handling, which the default (a fusable grid runs in the
in-process batch kernel) would reach only through the armed fault plan.
"""

from __future__ import annotations

import io
import warnings

import pytest

from repro.analysis.io import save_sweep
from repro.analysis.sweeps import sweep, sweep_tasks
from repro.obs import progress
from repro.obs.registry import REGISTRY
from repro.runner import (
    ResultCache,
    RetryPolicy,
    TaskFailedError,
    task_keys,
)
from repro.runner.cache import CacheIntegrityWarning
from repro.runner.faults import (
    Fault,
    armed_faults,
    fired_faults,
    plan_fault,
    poison_cache_entry,
)

from ..conftest import SERVICE, SIZES, small_config

POLICIES = ("GS", "LS", "LP", "SC")

#: Spans stable and (for the quick configs) near-saturation loads.
GRID = (0.35, 0.55)

#: Fast chaos posture: real backoff sleeping proves nothing here.
FAST = dict(backoff_base=0.001, backoff_cap=0.01)


def payload(result) -> str:
    buf = io.StringIO()
    save_sweep(result, buf)
    return buf.getvalue()


def grid_keys(config) -> list[str]:
    return task_keys(sweep_tasks(config, SIZES, SERVICE, GRID))


@pytest.mark.parametrize("policy", POLICIES)
class TestCrashRecovery:
    """A hard worker kill (``os._exit``) mid-sweep, for every policy."""

    def test_byte_identical_and_counted(self, policy, fault_plan):
        config = small_config(policy)
        keys = grid_keys(config)
        baseline = sweep(policy, config, SIZES, SERVICE, GRID,
                         backend="scalar", workers=2)

        REGISTRY.reset()
        plan_fault(fault_plan, Fault(key=keys[0], kind="crash"))
        survived = sweep(policy, config, SIZES, SERVICE, GRID,
                         backend="scalar", workers=2,
                         retry=RetryPolicy(max_attempts=2, **FAST))

        assert payload(survived) == payload(baseline)
        assert len(fired_faults(fault_plan)) == 1
        assert not armed_faults(fault_plan)
        assert REGISTRY.counter("runner.retries").value == 1
        assert REGISTRY.counter("runner.workers.replaced").value >= 1
        assert REGISTRY.counter("runner.timeouts").value == 0


class TestTransientStorm:
    def test_every_task_flaky_twice_serial(self, fault_plan):
        config = small_config("GS")
        keys = grid_keys(config)
        baseline = sweep("GS", config, SIZES, SERVICE, GRID,
                         backend="scalar", workers=1)

        REGISTRY.reset()
        for key in keys:
            plan_fault(fault_plan, Fault(key=key, kind="transient", seq=0))
            plan_fault(fault_plan, Fault(key=key, kind="transient", seq=1))
        survived = sweep("GS", config, SIZES, SERVICE, GRID,
                         backend="scalar", workers=1,
                         retry=RetryPolicy(max_attempts=3, **FAST))

        assert payload(survived) == payload(baseline)
        assert len(fired_faults(fault_plan)) == 2 * len(keys)
        assert REGISTRY.counter("runner.retries").value == 2 * len(keys)

    def test_mixed_crash_and_transient(self, fault_plan):
        config = small_config("LS")
        keys = grid_keys(config)
        baseline = sweep("LS", config, SIZES, SERVICE, GRID,
                         backend="scalar", workers=2)

        REGISTRY.reset()
        plan_fault(fault_plan, Fault(key=keys[0], kind="crash"))
        plan_fault(fault_plan, Fault(key=keys[1], kind="transient"))
        # The pool round (0 = first) in which the runner saw the
        # transient task's failed attempt, if it saw one.
        transient_rounds: list[int] = []

        def probe(kind: str, key: str, _description: str) -> None:
            if kind == "attempt-failed" and key == keys[1]:
                transient_rounds.append(
                    REGISTRY.counter("runner.workers.replaced").value)

        progress.subscribe(probe)
        try:
            survived = sweep("LS", config, SIZES, SERVICE, GRID,
                             backend="scalar", workers=2,
                             retry=RetryPolicy(max_attempts=3, **FAST))
        finally:
            progress.unsubscribe(probe)

        assert payload(survived) == payload(baseline)
        assert len(fired_faults(fault_plan)) == 2
        # The crash of task 0 always costs one retry and breaks round 0.
        # Task 1 races it, with three outcomes (all seen, in 20 repeated
        # runs: 7, 8 and 5 times):
        #   * its worker claimed the transient fault and the exception
        #     reached the runner before the pool broke: one retry in
        #     round 0, nothing rescheduled (retries 2, rescheduled 0);
        #   * it claimed the fault but the exception was lost with the
        #     broken pool: rescheduled free, runs clean in round 1
        #     (retries 1, rescheduled 1);
        #   * no worker had started it when the pool broke: rescheduled
        #     free, then the fault fires on its first real attempt in
        #     round 1 and costs a retry (retries 2, rescheduled 1).
        # The last case counts nothing twice: ``rescheduled`` counts a
        # submission lost with the pool, ``retries`` a failed attempt.
        retried = REGISTRY.counter("runner.retries").value
        rescheduled = REGISTRY.counter("runner.tasks.rescheduled").value
        assert transient_rounds in ([], [0], [1])
        assert retried == 1 + len(transient_rounds)
        assert rescheduled == (0 if transient_rounds == [0] else 1)
        assert REGISTRY.counter("runner.timeouts").value == 0


class TestHangTimeout:
    def test_hung_worker_is_replaced(self, fault_plan):
        config = small_config("GS")
        keys = grid_keys(config)
        baseline = sweep("GS", config, SIZES, SERVICE, GRID,
                         backend="scalar", workers=2)

        REGISTRY.reset()
        plan_fault(fault_plan,
                   Fault(key=keys[0], kind="hang", hang_seconds=60.0))
        survived = sweep("GS", config, SIZES, SERVICE, GRID,
                         backend="scalar", workers=2,
                         retry=RetryPolicy(max_attempts=2, timeout=5.0,
                                           **FAST))

        assert payload(survived) == payload(baseline)
        assert REGISTRY.counter("runner.timeouts").value == 1
        assert REGISTRY.counter("runner.retries").value == 1
        assert REGISTRY.counter("runner.workers.replaced").value >= 1


class TestSerialWorkerFaults:
    """``workers=1`` — the ``$REPRO_WORKERS``-unset default — must
    still route through a single-worker pool when a timeout or an
    armed fault plan demands preemption or crash isolation, exactly as
    the :class:`RetryPolicy` docstring promises.  A regression to the
    in-process path would ignore ``--task-timeout`` (the hang below
    would block forever) or run a ``crash`` fault's ``os._exit`` in
    *this* process."""

    def test_hang_times_out_at_one_worker(self, fault_plan):
        config = small_config("GS")
        keys = grid_keys(config)
        baseline = sweep("GS", config, SIZES, SERVICE, GRID,
                         backend="scalar", workers=1)

        REGISTRY.reset()
        plan_fault(fault_plan,
                   Fault(key=keys[0], kind="hang", hang_seconds=60.0))
        survived = sweep("GS", config, SIZES, SERVICE, GRID,
                         backend="scalar", workers=1,
                         retry=RetryPolicy(max_attempts=2, timeout=5.0,
                                           **FAST))

        assert payload(survived) == payload(baseline)
        assert REGISTRY.counter("runner.timeouts").value == 1
        assert REGISTRY.counter("runner.retries").value == 1
        assert REGISTRY.counter("runner.workers.replaced").value >= 1

    def test_crash_kills_a_worker_not_this_process(self, fault_plan):
        config = small_config("LS")
        keys = grid_keys(config)
        baseline = sweep("LS", config, SIZES, SERVICE, GRID,
                         backend="scalar", workers=1)

        REGISTRY.reset()
        plan_fault(fault_plan, Fault(key=keys[0], kind="crash"))
        # Surviving at all proves the crash ran in a worker: in-process
        # dispatch would os._exit the test runner here.
        survived = sweep("LS", config, SIZES, SERVICE, GRID,
                         backend="scalar", workers=1,
                         retry=RetryPolicy(max_attempts=2, **FAST))

        assert payload(survived) == payload(baseline)
        assert len(fired_faults(fault_plan)) == 1
        assert REGISTRY.counter("runner.retries").value == 1
        assert REGISTRY.counter("runner.workers.replaced").value >= 1


class TestCampaignWideBudget:
    """The retry budget spans every chunk of a sweep.

    ``workers=1`` executes one grid point per ``execute()`` chunk, so a
    per-chunk budget would silently reset between grid points and never
    bind."""

    def test_budget_spans_chunks(self, fault_plan):
        config = small_config("GS")
        for key in grid_keys(config):
            plan_fault(fault_plan, Fault(key=key, kind="transient"))
        # budget=1 grants the first grid point's retry; the second grid
        # point — a later chunk — must find the budget already spent.
        with pytest.raises(TaskFailedError, match="budget exhausted"):
            sweep("GS", config, SIZES, SERVICE, GRID,
                  backend="scalar", workers=1,
                  retry=RetryPolicy(max_attempts=3, retry_budget=1,
                                    **FAST))
        assert REGISTRY.counter("runner.retries").value == 1

    def test_sufficient_budget_survives_byte_identical(self, fault_plan):
        config = small_config("GS")
        keys = grid_keys(config)
        baseline = sweep("GS", config, SIZES, SERVICE, GRID,
                         backend="scalar", workers=1)

        REGISTRY.reset()
        for key in keys:
            plan_fault(fault_plan, Fault(key=key, kind="transient"))
        survived = sweep("GS", config, SIZES, SERVICE, GRID,
                         backend="scalar", workers=1,
                         retry=RetryPolicy(max_attempts=3,
                                           retry_budget=len(keys),
                                           **FAST))

        assert payload(survived) == payload(baseline)
        assert REGISTRY.counter("runner.retries").value == len(keys)


class TestPoisonedCache:
    def test_corrupt_shard_recomputed_not_served(self, tmp_path):
        config = small_config("LP")
        keys = grid_keys(config)
        cache = ResultCache(tmp_path / "cache")
        cold = sweep("LP", config, SIZES, SERVICE, GRID,
                     backend="scalar", workers=1, cache=cache)
        poison_cache_entry(cache, keys[0])

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            warm = sweep("LP", config, SIZES, SERVICE, GRID,
                         backend="scalar", workers=1, cache=cache)

        assert payload(warm) == payload(cold)
        assert any(issubclass(w.category, CacheIntegrityWarning)
                   for w in caught)
        # The recompute heals the shard: a third run is warning-free.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            healed = sweep("LP", config, SIZES, SERVICE, GRID,
                           backend="scalar", workers=1, cache=cache)
        assert payload(healed) == payload(cold)
        assert not any(issubclass(w.category, CacheIntegrityWarning)
                       for w in caught)


class TestUnsurvivableSchedules:
    def test_attempts_exhausted_names_task(self, fault_plan):
        config = small_config("GS")
        keys = grid_keys(config)
        for seq in range(2):
            plan_fault(fault_plan,
                       Fault(key=keys[0], kind="transient", seq=seq))
        with pytest.raises(TaskFailedError, match="after 2 attempts"):
            sweep("GS", config, SIZES, SERVICE, GRID,
                  backend="scalar", workers=1,
                  retry=RetryPolicy(max_attempts=2, **FAST))

    def test_retry_budget_exhausted(self, fault_plan):
        config = small_config("GS")
        keys = grid_keys(config)
        for seq in range(3):
            plan_fault(fault_plan,
                       Fault(key=keys[0], kind="transient", seq=seq))
        with pytest.raises(TaskFailedError):
            sweep("GS", config, SIZES, SERVICE, GRID,
                  backend="scalar", workers=1,
                  retry=RetryPolicy(max_attempts=5, retry_budget=1,
                                    **FAST))
        # Exactly one retry was granted before the budget ran dry.
        assert REGISTRY.counter("runner.retries").value == 1
