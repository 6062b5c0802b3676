"""Fused sweep execution: a whole campaign grid through one lane kernel.

:func:`execute_fused` is the batch-backend counterpart of
:func:`~repro.runner.pool.execute`: it takes heterogeneous
:class:`~repro.runner.task.RunTask`\\ s — different loads, seeds,
component limits, run lengths — and runs every task sharing a *kernel
shape* (policy, placement, capacities, workload distributions) as
lanes of one :class:`~repro.sim.batch.BatchLaneKernel`: each kernel
step runs the earliest-loaded lane to retirement, and its slot refills
from the pending list.  A 42-point policy grid becomes one kernel call
instead of 42 scalar runs.

The runner contracts are preserved exactly:

* **per-task cache granularity** — each task is looked up under its
  own :func:`~repro.runner.task.task_key` before running, and every
  fresh :class:`~repro.analysis.points.SweepPoint` is checkpointed to
  the :class:`~repro.runner.cache.ResultCache` under that same key the
  moment its lane retires (not when the whole wave ends), so cache
  hits, ``--resume`` and crash recovery behave as with the scalar
  pool;
* **per-task progress** — the ``hit``/``start``/``finish`` heartbeats
  fire per task, so the progress display and span recorder see the
  same campaign shape;
* **task order** — lanes retire in load order, which is task order
  within a kernel shape, so ``on_result`` streams fresh points in the
  order their tasks were given;
* **bit-identical results** — lanes share only read-only draws, so a
  task's point is independent of which tasks share its kernel call, of
  slot assignment, and of refill order; the differential-oracle and
  golden-corpus suites pin this against the scalar engine, which is
  why a fused and a scalar point for one task share a cache key.

``follow_up`` supports dependent task chains (a replication sweep
schedules seed *s*'s next grid point only if its current point did not
saturate): it is invoked once per completed task — cache hits included
— and any tasks it returns join the pending list.  This reproduces
exactly the task set a serial driver would run, while unrelated lanes
keep the kernel busy.

Fault injection and observability both need per-task worker
invocations (crash plans and event logs are keyed per task), so
:func:`fused_eligible` gates fusion off when either is armed; callers
fall back to the ordinary pool, task at a time, with identical
results.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

from repro.obs import progress as _progress
from repro.obs.gate import obs_enabled

from .faults import faults_root
from .pool import CacheSpec, resolve_cache
from .task import RunTask, _fingerprint, task_key

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.analysis.points import SweepPoint
    from repro.sim.batch import BatchLaneKernel

__all__ = ["DEFAULT_FUSED_WIDTH", "execute_fused", "fused_eligible"]

#: Default kernel width (loaded lanes).  Speed does not depend on it —
#: one lane runs at a time — except that co-loaded lanes of one seed
#: share draws, so a wider kernel redraws a seed's workload less
#: often.  Each loaded lane holds its first chunk of jobs.
DEFAULT_FUSED_WIDTH = 32

#: ``follow_up(task, key, point)`` → more tasks to enqueue (or None).
FollowUp = Callable[[RunTask, str, "SweepPoint"],
                    Optional[Iterable[RunTask]]]

#: ``on_result(task, key, point)`` — streaming observer; see
#: :func:`execute_fused`.
OnResult = Callable[[RunTask, str, "SweepPoint"], None]

#: One kernel shape: policy, placement, capacities, distribution
#: fingerprints.  Tasks in one group share a kernel; groups run in
#: first-appearance order.
_GroupKey = tuple[str, str, tuple[int, ...], str, str]


def fused_eligible() -> bool:
    """Whether tasks may fuse into in-process multi-lane kernel calls.

    Fault injection intercepts *task* execution (crash/hang plans are
    keyed per task) and observability captures per-run event logs;
    both contracts need one worker invocation per task, so their
    presence routes batch tasks through the ordinary pool instead.
    Results are identical either way — a lane's statistics do not
    depend on which other lanes share its kernel call.
    """
    return faults_root() is None and not obs_enabled()


class _Group:
    """Pending/in-flight state of one kernel shape."""

    __slots__ = ("template", "kernel", "pending", "loaded", "free")

    def __init__(self, template: RunTask) -> None:
        self.template = template
        self.kernel: Optional[BatchLaneKernel] = None
        #: FIFO of (task, key) not yet loaded into a slot.
        self.pending: deque[tuple[RunTask, str]] = deque()
        #: slot -> (task, key) currently running.
        self.loaded: dict[int, tuple[RunTask, str]] = {}
        #: Free slot indices (ascending preference).
        self.free: list[int] = []


def _group_key(task: RunTask) -> _GroupKey:
    c = task.config
    return (c.policy.upper(), c.placement,
            tuple(int(cap) for cap in c.capacities),
            _fingerprint(task.size_distribution),
            _fingerprint(task.service_distribution))


def execute_fused(tasks: Sequence[RunTask], *,
                  cache: CacheSpec = None,
                  width: int = DEFAULT_FUSED_WIDTH,
                  follow_up: Optional[FollowUp] = None,
                  on_result: Optional[OnResult] = None
                  ) -> "dict[str, SweepPoint]":
    """Run ``tasks`` as fused lane-kernel calls; returns points by key.

    Tasks are grouped by kernel shape; each group runs as one
    :class:`~repro.sim.batch.BatchLaneKernel` of at most ``width``
    lanes, loading pending tasks into slots as earlier lanes retire.
    Cached tasks are served without occupying a lane.  The returned
    mapping covers every task — the inputs plus everything
    ``follow_up`` added — keyed by :func:`~repro.runner.task.task_key`.

    ``on_result`` is invoked once per task the moment its point is
    known — at enqueue for cache hits, at lane retirement (after the
    cache checkpoint, before the ``finish`` heartbeat) for fresh runs
    — so a driver can stream points out mid-wave instead of waiting
    for the whole call to return.  The sweep service uses this to
    checkpoint and resolve per-task futures while the kernel is still
    running; like ``follow_up`` it observes results, it can never
    alter them.

    The caller is responsible for gating on :func:`fused_eligible`
    (and for only passing tasks the batch kernel supports —
    an unsupported model raises
    :class:`~repro.sim.batch.BatchBackendError`).
    """
    from repro.sim.batch import BatchLaneKernel

    store = resolve_cache(cache)
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width!r}")
    results: dict[str, SweepPoint] = {}
    groups: dict[_GroupKey, _Group] = {}
    #: Completed (task, key, point) awaiting their follow_up call —
    #: processed iteratively so cache-hit chains cannot recurse.
    settled: deque[tuple[RunTask, str, SweepPoint]] = deque()
    seen: set[str] = set()

    def enqueue(task: RunTask) -> None:
        key = task_key(task)
        if key in seen:
            raise ValueError(
                f"duplicate task in fused execution: {task.describe()}"
            )
        seen.add(key)
        hit = store.load(key) if store is not None else None
        if hit is not None:
            results[key] = hit
            _progress.notify("hit", key, task.describe())
            if on_result is not None:
                on_result(task, key, hit)
            settled.append((task, key, hit))
            return
        gkey = _group_key(task)
        group = groups.get(gkey)
        if group is None:
            group = _Group(task)
            groups[gkey] = group
        group.pending.append((task, key))

    def run_follow_ups() -> None:
        while settled:
            task, key, point = settled.popleft()
            if follow_up is None:
                continue
            for extra in follow_up(task, key, point) or ():
                enqueue(extra)

    for task in tasks:
        enqueue(task)
    run_follow_ups()

    def drive(group: _Group) -> None:
        """Run one group until its pending list and lanes are empty."""
        kernel = group.kernel
        if kernel is None:
            template = group.pending[0][0]
            kernel = BatchLaneKernel(
                template.config, template.size_distribution,
                template.service_distribution,
                min(width, len(group.pending)))
            group.kernel = kernel
            group.free = list(range(kernel.n))
        while group.pending or group.loaded:
            while group.free and group.pending:
                slot = group.free.pop()
                task, key = group.pending.popleft()
                kernel.load(slot, task.config, task.offered_gross)
                group.loaded[slot] = (task, key)
                _progress.notify("start", key, task.describe())
            kernel.step()
            retired = kernel.drain_retired()
            for slot, point in retired:
                task, key = group.loaded.pop(slot)
                group.free.append(slot)
                results[key] = point
                if store is not None:
                    store.store(key, point, task.describe())
                if on_result is not None:
                    on_result(task, key, point)
                _progress.notify("finish", key, task.describe())
                settled.append((task, key, point))
            if retired:
                # Follow-ups may enqueue to this group (refilling the
                # freed slots next iteration) or to other groups.
                run_follow_ups()

    # Groups run in first-appearance order; follow-ups may reopen an
    # earlier group, so loop until every pending list is drained.
    progress = True
    while progress:
        progress = False
        for group in list(groups.values()):
            if group.pending or group.loaded:
                drive(group)
                progress = True
    return results
