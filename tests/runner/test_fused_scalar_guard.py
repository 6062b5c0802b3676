"""Guard for the shared key space: fused points equal scalar points.

A task's key leaves its backend out, so a point the fused lane kernel
cached is served to scalar campaigns and the other way round.  That
is only sound if both engines produce the same bytes for the same
task.  The golden fixtures pin a fixed set of cells; this draws
policy × placement rule × component limit × offered load × seed
(small runs; seeds from a pair, so lanes often share draws) and
compares
:func:`~repro.runner.fused.execute_fused` with the scalar
:func:`~repro.runner.worker.run_task_result` under one key.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.points import SweepPoint, point_to_dict
from repro.core.placement import PLACEMENT_RULES
from repro.runner import RunTask, execute_fused, task_key
from repro.runner.worker import run_task_result

from .conftest import SERVICE, SIZES, small_config

cells = st.tuples(
    st.sampled_from(("GS", "LS", "LP", "SC")),
    st.sampled_from(sorted(PLACEMENT_RULES)),
    st.sampled_from((8, 16, 24)),
    st.sampled_from((0.3, 0.45, 0.6, 0.75)),
    # Two seeds, so drawn cells often share one and their lanes read
    # one shared record of raw draws.
    st.sampled_from((0, 1)),
)


@given(st.lists(cells, min_size=1, max_size=3,
                unique_by=lambda cell: cell))
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_fused_points_equal_scalar_points_under_one_key(drawn):
    tasks = []
    for policy, placement, limit, rho, seed in drawn:
        kw = {} if policy == "SC" else {"component_limit": limit}
        config = small_config(policy, placement=placement, seed=seed,
                              warmup_jobs=50, measured_jobs=200,
                              batch_size=50, **kw)
        tasks.append(RunTask(config, SIZES, SERVICE, rho,
                             backend="batch"))
    keys = [task_key(task) for task in tasks]
    if len(set(keys)) < len(keys):  # SC ignores the limit
        return
    fused = execute_fused(tasks, cache=False)
    for task, key in zip(tasks, keys):
        scalar = SweepPoint.from_result(run_task_result(task))
        assert key == task_key(RunTask(task.config, SIZES, SERVICE,
                                       task.offered_gross))
        assert point_to_dict(fused[key]) == point_to_dict(scalar), \
            task.describe()
