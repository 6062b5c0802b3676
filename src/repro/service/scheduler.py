"""The shared worker fleet: single-flight task scheduling.

A :class:`TaskBroker` owns the one execution fleet every connected
campaign shares.  Its contract is *single-flight per task key*: however
many concurrent campaigns want a task, it runs **at most once** —

* a key with a cached result is served from the shared read-through
  :class:`~repro.runner.cache.ResultCache` (zero engine calls);
* a key already in flight hands back the in-flight future (the second
  client awaits the first client's execution);
* only a key that is neither cached nor in flight is executed.

Each key is probed once: execution never reads the cache again, and a
fresh point is checkpointed before its future settles.

Computations are *detached* ``asyncio.Task``\\ s owned by the broker,
not by the requesting connection: a client that disconnects mid-flight
cancels only its own ``await`` (shielded), while the computation runs
to completion and checkpoints to the cache — exactly the semantics a
killed one-shot campaign has, where completed tasks stay completed.

Fusable campaigns, whatever backend the client named, go through
:meth:`TaskBroker.run_fused`: the owned (non-cached, non-inflight)
remainder of the grid becomes one
:func:`~repro.runner.fused.execute_fused` call whose ``on_result``
callback resolves each task's future the moment its lane retires, so
points stream to clients mid-wave.  The rest goes through
:meth:`TaskBroker.point_for` and :func:`~repro.runner.pool.execute`,
whose crash/hang/timeout recovery applies under the service unchanged
(an armed fault plan routes execution through a worker pool whose
children, never the server, absorb the crash).

Concurrency is bounded by a fleet semaphore counting concurrent engine
invocations (a fused kernel call is one invocation, however many lanes
it packs).  All bookkeeping lives on the server's event loop, file I/O
included: the cache probe here and the server's campaign-state reads
and writes, which happen only when the state changes.  Only the engine
work itself runs in threads.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING, Optional, Sequence

from repro.obs import progress as _progress
from repro.runner import ResultCache, RetryPolicy, execute
from repro.runner.fused import execute_fused
from repro.runner.task import RunTask

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.analysis.points import SweepPoint

__all__ = ["TaskBroker"]

#: ``(point, status)`` with status in {"hit", "computed", "deduped"}.
_Resolution = "tuple[SweepPoint, str]"


def _consume_exception(future: "asyncio.Future") -> None:
    """Mark a future's exception retrieved (a client may have gone)."""
    if not future.cancelled():
        future.exception()


class TaskBroker:
    """Single-flight execution of tasks over one shared fleet."""

    def __init__(self, store: ResultCache, *, fleet: int = 1,
                 workers: int = 1,
                 retry: Optional[RetryPolicy] = None) -> None:
        if fleet < 1:
            raise ValueError(f"fleet must be >= 1, got {fleet!r}")
        self.store = store
        self.workers = workers
        self.retry = retry
        self._semaphore = asyncio.Semaphore(fleet)
        #: key -> future of its in-flight computation.  Only keys with
        #: no cached result appear here; entries are removed as their
        #: futures settle.
        self.inflight: "dict[str, asyncio.Future]" = {}
        #: Strong references to fused driver tasks (futures alone would
        #: let the event loop garbage-collect a running driver).
        self._drivers: "set[asyncio.Task]" = set()
        self.counters = {
            "tasks.executed": 0,   # fresh engine executions completed
            "tasks.hit": 0,        # served straight from the cache
            "tasks.deduped": 0,    # joined an in-flight execution
            "fused.calls": 0,      # fused kernel drivers launched
        }

    def snapshot(self) -> dict:
        """JSON-ready state for the ``status`` op."""
        return {"counters": dict(self.counters),
                "inflight": len(self.inflight),
                "cache": self.store.stats()}

    def _known(self, task: RunTask, key: str
               ) -> "Optional[tuple[str, object]]":
        """``("deduped", future)``, ``("hit", point)``, or ``None``: the
        caller claims the key.  The probe is one small file read on the
        loop, so nothing yields before the claim, and cells reach the
        fleet in the order they were requested."""
        existing = self.inflight.get(key)
        if existing is not None:
            self.counters["tasks.deduped"] += 1
            return "deduped", existing
        hit = self.store.load(key)
        if hit is None:
            return None
        self.counters["tasks.hit"] += 1
        _progress.notify("hit", key, task.describe())
        return "hit", hit

    async def point_for(self, task: RunTask, key: str) -> _Resolution:
        """Resolve one task: cache hit, join in-flight, or execute.

        Awaits are shielded — a cancelled client never cancels work
        other clients (or the cache) will want.
        """
        known = self._known(task, key)
        if known is None:
            handle = asyncio.create_task(self._compute(task, key))
            self._register(key, handle)
            return await asyncio.shield(handle), "computed"
        status, value = known
        if status == "hit":
            return value, status
        return await asyncio.shield(value), status

    async def run_fused(self, pairs: "Sequence[tuple[RunTask, str]]"
                        ) -> "dict[str, tuple[str, object]]":
        """Plan a fused campaign; resolve cells incrementally.

        Returns ``{key: ("hit", point) | (status, future)}`` covering
        every pair — cached cells resolve immediately, in-flight cells
        are joined (``"deduped"``), and the owned remainder runs as one
        fused kernel call whose futures settle lane by lane as they
        retire (``"computed"``).  Callers await the futures (shielded)
        in whatever order they stream cells.
        """
        loop = asyncio.get_running_loop()
        resolved: "dict[str, tuple[str, object]]" = {}
        fresh: "list[RunTask]" = []
        futures: "dict[str, asyncio.Future]" = {}
        for task, key in pairs:
            if key in resolved:
                continue
            known = self._known(task, key)
            if known is None:
                future = loop.create_future()
                self._register(key, future)
                futures[key] = future
                fresh.append(task)
                known = ("computed", future)
            resolved[key] = known
        if fresh:
            self.counters["fused.calls"] += 1
            driver = asyncio.create_task(self._drive_fused(fresh, futures))
            self._drivers.add(driver)
            driver.add_done_callback(self._drivers.discard)
        return resolved

    def _register(self, key: str, future: "asyncio.Future") -> None:
        self.inflight[key] = future
        # Consume the exception even when every waiter has gone away
        # (clients may disconnect mid-flight) so the loop never logs
        # "exception was never retrieved" for a fleet failure that the
        # retry machinery already reported.
        future.add_done_callback(_consume_exception)
        future.add_done_callback(
            lambda fut: self._unregister(key, fut))

    def _unregister(self, key: str, future: "asyncio.Future") -> None:
        if self.inflight.get(key) is future:
            del self.inflight[key]

    async def _compute(self, task: RunTask, key: str) -> "SweepPoint":
        async with self._semaphore:
            point = await asyncio.to_thread(self._execute_one, task)
        self.counters["tasks.executed"] += 1
        return point

    def _execute_one(self, task: RunTask) -> "SweepPoint":
        # execute() checkpoints to the cache (point_for saw the miss,
        # so no probe), emits the per-task heartbeats, and applies the
        # retry/timeout/crash-recovery machinery; workers=1 without
        # faults or a timeout runs the engine right here in this thread.
        [point] = execute([task], workers=self.workers,
                          cache=self.store, retry=self.retry,
                          probe=False)
        return point

    async def _drive_fused(self, tasks: "list[RunTask]",
                           futures: "dict[str, asyncio.Future]") -> None:
        """Run one fused kernel call, settling futures as lanes retire."""
        loop = asyncio.get_running_loop()

        def on_result(task: RunTask, key: str, point: "SweepPoint"
                      ) -> None:
            # Executor thread, mid-wave.  run_fused saw every miss, so
            # the kernel runs without the cache and the checkpoint is
            # here, before the hop to the loop settles the future.
            self.store.store(key, point, task.describe())
            loop.call_soon_threadsafe(self._settle, futures, key, point)

        try:
            async with self._semaphore:
                results = await asyncio.to_thread(
                    execute_fused, tasks, cache=False,
                    on_result=on_result)
        except BaseException as exc:
            for future in futures.values():
                if not future.done():
                    future.set_exception(exc)
            return
        # on_result settles everything in the normal case; sweep any
        # future a lost callback left behind so no client hangs.
        for key, future in futures.items():
            if not future.done():
                self._settle(futures, key, results[key])

    def _settle(self, futures: "dict[str, asyncio.Future]", key: str,
                point: object) -> None:
        future = futures.get(key)
        if future is not None and not future.done():
            future.set_result(point)
            self.counters["tasks.executed"] += 1
