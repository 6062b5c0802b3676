"""The lane kernel's run order and lifetime.

:meth:`~repro.sim.batch.BatchLaneKernel.step` runs the earliest-loaded
lane until it retires, so every call retires exactly one lane and
lanes retire in load order — which makes
:func:`~repro.runner.fused.execute_fused` stream points in task order.
A finished kernel holds no reference cycle, so dropping the last
reference frees it (and its placement memo and job lists) at once,
without waiting for the cycle collector.
"""

import gc
import weakref

import pytest

from repro.core.system import SimulationConfig
from repro.runner import RunTask, execute_fused, task_key
from repro.sim.batch import BatchLaneKernel
from repro.workload.distributions import das_s_128, das_t_900

SIZES = das_s_128()
SERVICE = das_t_900()
POLICIES = ["GS", "LS", "LP", "SC"]


def make_config(policy, seed=7):
    if policy == "SC":
        return SimulationConfig.single_cluster(
            seed=seed, warmup_jobs=50, measured_jobs=200, batch_size=50)
    return SimulationConfig(policy=policy, component_limit=16, seed=seed,
                            warmup_jobs=50, measured_jobs=200,
                            batch_size=50)


class TestRunOrder:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_each_step_retires_exactly_one_lane_in_load_order(self, policy):
        kernel = BatchLaneKernel(make_config(policy), SIZES, SERVICE, 3)
        load_order = [2, 0, 1]
        for i, (slot, rho) in enumerate(zip(load_order, (0.8, 0.4, 0.6))):
            kernel.load(slot, make_config(policy, seed=7 + 1000 * i), rho)
        for slot in load_order:
            assert not kernel.idle
            kernel.step()
            assert [s for s, _ in kernel.drain_retired()] == [slot]
        assert kernel.idle

    def test_execute_fused_streams_points_in_task_order(self):
        tasks = [RunTask(make_config("GS", seed=7 + 1000 * i), SIZES,
                         SERVICE, rho, backend="batch")
                 for i, rho in enumerate((0.8, 0.6, 0.4, 0.8, 0.5, 0.7))]
        keys = [task_key(task) for task in tasks]
        seen = []
        execute_fused(tasks, cache=False, width=3,
                      on_result=lambda _t, key, _p: seen.append(
                          keys.index(key)))
        assert seen == list(range(len(tasks)))


class TestLifetime:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_finished_kernel_is_freed_without_the_cycle_collector(
            self, policy):
        config = make_config(policy)
        kernel = BatchLaneKernel(config, SIZES, SERVICE, 1)
        kernel.load(0, config, 0.6)
        while not kernel.idle:
            kernel.step()
        assert len(kernel.drain_retired()) == 1
        ref = weakref.ref(kernel)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            del kernel
            assert ref() is None
        finally:
            if was_enabled:
                gc.enable()
