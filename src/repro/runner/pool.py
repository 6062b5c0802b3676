"""Deterministic, fault-tolerant fan-out of simulation tasks.

:func:`execute` is the single entry point: it takes an ordered list of
:class:`~repro.runner.task.RunTask` and returns their results *in input
order*, whatever the completion order — the input order is itself
derived from the deterministic task-key construction upstream, so a
parallel run assembles byte-identical output to a serial one.

Backends:

* ``workers == 1`` (the default) — run in-process, no pool, no pickling;
* ``workers > 1`` — a ``ProcessPoolExecutor``; each task is independent
  (its RNG streams derive from its own config seed), so scheduling
  cannot affect results.

Fault tolerance (``docs/robustness.md``) is layered on top without
touching a single result byte, because a retried task is the same pure
function of the same task contents:

* a worker exception consumes one of the task's
  :class:`~repro.runner.retry.RetryPolicy` attempts and the task is
  re-executed after a deterministic backoff;
* a task exceeding the per-task ``timeout`` is abandoned, its worker
  processes are terminated and replaced by a fresh pool, and the task
  retries (consuming an attempt);
* a hard worker crash (``BrokenProcessPool``) fails only the task that
  crashed; sibling tasks lost with the pool are *rescheduled* to a
  replacement pool without consuming their own attempts;
* every fresh result is written to the cache the moment it is
  collected, so an interrupted campaign (SIGINT, OOM kill, reboot)
  resumes from the last completed task (see
  :mod:`repro.runner.campaign`).

Under the default fail-fast policy (one attempt, no timeout) any
failure still surfaces as a typed
:class:`~repro.runner.errors.TaskFailedError` naming the failing task,
and the remaining futures are cancelled rather than left to hang.
"""

from __future__ import annotations

import contextlib
import os
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover - annotation-only; a module-scope
    # import of repro.analysis would cycle back into this package.
    from repro.analysis.points import SweepPoint

from repro.obs import progress as _progress
from repro.obs.gate import obs_enabled
from repro.obs.registry import REGISTRY

from .cache import ResultCache
from .errors import TaskFailedError, TaskTimeoutError
from .faults import FaultInjectingWorker, faults_root
from .retry import RetryBudget, RetryPolicy, resolve_retry
from .task import RunTask, task_key
from .worker import run_task

__all__ = [
    "execute",
    "resolve_workers",
    "resolve_cache",
    "CacheSpec",
    "WORKERS_ENV",
    "CACHE_ENV",
]

#: Environment variable giving the default worker count (default 1).
WORKERS_ENV = "REPRO_WORKERS"

#: Environment variable enabling the default cache: unset/"0"/"off"
#: disables, "1"/"on" uses ``.repro-cache``, anything else is a path.
CACHE_ENV = "REPRO_CACHE"

CacheSpec = Union[ResultCache, bool, None]

#: Injectable sleep for the backoff delays (tests patch this to keep
#: chaos suites fast; sleeping never influences results).
_sleep = time.sleep


def resolve_workers(workers: Optional[int] = None) -> int:
    """The effective worker count (``None`` → ``$REPRO_WORKERS`` → 1)."""
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "").strip()
        if not raw:
            return 1
        try:
            workers = int(raw)
        except ValueError:
            raise ValueError(
                f"{WORKERS_ENV} must be an integer, got {raw!r}"
            ) from None
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    return workers


def resolve_cache(cache: CacheSpec = None) -> Optional[ResultCache]:
    """The effective cache: explicit instance, bool switch, or env.

    ``None`` defers to ``$REPRO_CACHE``; ``True``/``False`` force the
    default cache directory on or off; a :class:`ResultCache` is used
    as-is.
    """
    if isinstance(cache, ResultCache):
        return cache
    if cache is True:
        return ResultCache()
    if cache is False:
        return None
    raw = os.environ.get(CACHE_ENV, "").strip()
    if not raw or raw.lower() in ("0", "off", "no", "false"):
        return None
    if raw.lower() in ("1", "on", "yes", "true"):
        return ResultCache()
    return ResultCache(raw)


def _note_cache_hits(tasks: Sequence[RunTask], keys: Sequence[str],
                     results: Sequence[Optional[SweepPoint]]) -> None:
    """Backfill a ``cache_status="hit"`` manifest for served tasks.

    A hit may predate observability (or come from another machine), so
    the obs root may hold no manifest for it; record the provenance we
    do know.  Existing "computed" manifests are left untouched — they
    carry wall-clock and metrics a hit record could not reproduce.
    """
    from repro.obs import manifest as _manifest
    from repro.obs.gate import obs_root

    root = obs_root()
    for task, key, point in zip(tasks, keys, results):
        if point is None:
            continue
        path = _manifest.manifest_path(root, key)
        if not path.exists():
            _manifest.write_manifest(
                _manifest.for_task(task, key, cache_status="hit"),
                path)


def _copy_manifest_to_cache(store: ResultCache, key: str) -> None:
    """Mirror the worker's manifest next to the stored cache entry."""
    import dataclasses

    from repro.obs import manifest as _manifest
    from repro.obs.gate import obs_root

    source = _manifest.manifest_path(obs_root(), key)
    if not source.exists():
        return
    entry = dataclasses.replace(_manifest.load_manifest(source),
                                cache_status="stored")
    _manifest.write_manifest(
        entry, _manifest.cache_manifest_path(store.path_for(key)))


def _note_attempts(key: str, attempts: int) -> None:
    """Record the final attempt count in the task's obs manifest.

    Best-effort side-band: a crashed worker may never have written a
    manifest for an earlier attempt, and a missing or stale manifest
    must not fail the run.
    """
    import dataclasses

    from repro.obs import manifest as _manifest
    from repro.obs.gate import obs_root

    path = _manifest.manifest_path(obs_root(), key)
    try:
        entry = _manifest.load_manifest(path)
    except (OSError, ValueError):
        return
    _manifest.write_manifest(
        dataclasses.replace(entry, attempts=attempts), path)


class _Execution:
    """Shared state of one :func:`execute` call's fresh-task phase."""

    def __init__(self, tasks: Sequence[RunTask], keys: Sequence[str],
                 results: "list[Optional[SweepPoint]]",
                 worker: Callable[[RunTask], SweepPoint],
                 policy: RetryPolicy, store: Optional[ResultCache],
                 obs_on: bool,
                 budget: Optional[RetryBudget] = None) -> None:
        self.tasks = tasks
        self.keys = keys
        self.results = results
        self.worker = worker
        self.policy = policy
        self.store = store
        self.obs_on = obs_on
        self.attempts: dict[int, int] = {}
        self.started: set[int] = set()
        self.budget = (budget if budget is not None
                       else RetryBudget(policy.retry_budget))

    def announce_start(self, i: int) -> None:
        """Emit the ``start`` heartbeat once per task, ever — a task
        rescheduled onto a replacement pool is still the same task."""
        if i not in self.started:
            self.started.add(i)
            _progress.notify("start", self.keys[i],
                             self.tasks[i].describe())

    def collect(self, i: int, point: SweepPoint) -> None:
        """Record, checkpoint and announce one finished task."""
        self.results[i] = point
        if self.store is not None:
            self.store.store(self.keys[i], point,
                             self.tasks[i].describe())
            if self.obs_on:
                _copy_manifest_to_cache(self.store, self.keys[i])
                REGISTRY.counter("runner.cache.stores").inc()
        made = self.attempts.get(i, 0) + 1
        if made > 1:
            REGISTRY.counter("runner.tasks.recovered").inc()
            if self.obs_on:
                _note_attempts(self.keys[i], made)
        _progress.notify("finish", self.keys[i],
                         self.tasks[i].describe())

    def register_failure(self, i: int, cause: str, *,
                         timeout: bool = False) -> None:
        """Consume an attempt for task ``i`` or give up with a typed
        error.

        Raises when the task is out of attempts or the shared retry
        budget is spent; otherwise sleeps the deterministic backoff so
        the caller can resubmit.
        """
        made = self.attempts.get(i, 0) + 1
        self.attempts[i] = made
        # Attempt-level diagnostic heartbeat carrying the cause; the
        # span recorder turns it into a failed attempt span.  The
        # progress display ignores non-task kinds.
        _progress.notify("attempt-failed", self.keys[i],
                         f"timeout: {cause}" if timeout else cause)
        error_cls = TaskTimeoutError if timeout else TaskFailedError
        if made >= self.policy.max_attempts:
            _progress.notify("fail", self.keys[i],
                             self.tasks[i].describe())
            raise error_cls(self.keys[i], self.tasks[i].describe(),
                            cause, attempts=made)
        if not self.budget.spend():
            _progress.notify("fail", self.keys[i],
                             self.tasks[i].describe())
            raise error_cls(
                self.keys[i], self.tasks[i].describe(),
                f"{cause} [retry budget exhausted]", attempts=made)
        REGISTRY.counter("runner.retries").inc()
        if timeout:
            REGISTRY.counter("runner.timeouts").inc()
        _progress.notify("retry", self.keys[i],
                         self.tasks[i].describe())
        _sleep(self.policy.backoff(self.keys[i], made))


def _run_serial(run: _Execution, pending: Sequence[int]) -> None:
    """In-process execution with retry (no preemption: timeouts and
    crash survival need the pool backend)."""
    for i in pending:
        run.announce_start(i)
        while True:
            try:
                point = run.worker(run.tasks[i])
            except Exception as exc:
                run.register_failure(i, repr(exc))
                continue
            run.collect(i, point)
            break


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Abandon ``pool``, killing its worker processes.

    Replacing workers (rather than waiting on them) is what makes hung
    tasks survivable: a worker stuck in an infinite loop or an injected
    ``hang`` fault would otherwise pin the pool forever, and with it
    interpreter exit.  A worker alive a second after SIGTERM is killed.
    """
    # The executor's own dict, not a copy: ``shutdown()`` drops the
    # executor's reference to it, and a worker forked after this line
    # still lands in it.
    processes = getattr(pool, "_processes", None) or {}
    pool.shutdown(wait=False, cancel_futures=True)
    workers = list(processes.values())
    for proc in workers:
        proc.terminate()
    for proc in workers:
        proc.join(1.0)
        if proc.exitcode is None:
            proc.kill()
            proc.join()


@contextlib.contextmanager
def _interrupt_after_fork():
    """Hold a SIGINT that lands while the pool forks its workers.

    CPython would run it inside an at-fork hook, which reports the
    ``KeyboardInterrupt`` as "Exception ignored" and drops it, so the
    campaign ran on.  It is raised after the submissions instead.
    """
    if (threading.current_thread() is not threading.main_thread()
            or signal.getsignal(signal.SIGINT)
            is not signal.default_int_handler):
        yield
        return
    caught: list[int] = []
    signal.signal(signal.SIGINT, lambda signum, _: caught.append(signum))
    try:
        yield
    finally:
        signal.signal(signal.SIGINT, signal.default_int_handler)
    if caught:
        raise KeyboardInterrupt


def _harvest_round(run: _Execution,
                   inflight: "list[tuple[int, object]]") -> list[int]:
    """Salvage a broken round: keep done results, reschedule the rest.

    Tasks that finished before the pool died keep their results (and
    their checkpoint); ones that finished by *raising* consume a retry
    attempt like any other failure; tasks merely in flight are victims
    of a sibling failure and re-run on the replacement pool without
    consuming their own attempts.
    """
    carry: list[int] = []
    rescheduled = 0
    for i, future in inflight:
        exc = None
        if future.done() and not future.cancelled():
            exc = future.exception()
            if exc is None:
                run.collect(i, future.result())
                continue
        if exc is None or isinstance(exc, BrokenProcessPool):
            # Not finished, cancelled, or marked broken wholesale when
            # a sibling killed the pool: the task itself never failed.
            rescheduled += 1
        else:
            run.register_failure(i, repr(exc))
        carry.append(i)
    if rescheduled:
        REGISTRY.counter("runner.tasks.rescheduled").inc(rescheduled)
    return carry


def _retry_in_round(run: _Execution, pool: ProcessPoolExecutor,
                    inflight: "list[tuple[int, object]]", i: int,
                    cause: str) -> None:
    """Retry a transiently failed task on the (healthy) pool.

    An out-of-attempts/out-of-budget raise propagates to
    :func:`_run_pool`'s round guard, which terminates the pool rather
    than leaving its queue to drain.
    """
    run.register_failure(i, cause)
    inflight.append((i, pool.submit(run.worker, run.tasks[i])))


def _run_pool(run: _Execution, pending: Sequence[int],
              workers: int) -> None:
    """Process-pool execution in rounds, replacing broken pools.

    One round submits every queued task to a fresh pool and collects in
    submission order.  A transient worker exception is retried within
    the round (the pool is still healthy); a timeout or worker crash
    ends the round — already-finished siblings are harvested, the pool
    is terminated, and the failed task plus any lost siblings carry
    over to the next round.  The per-task ``timeout`` is measured while
    the runner waits on the task at collection, which upper-bounds its
    execution time once scheduled; waits absorbed by earlier tasks in
    the same round never count against later ones.
    """
    queue: list[int] = list(pending)
    first_round = True
    while queue:
        if not first_round:
            REGISTRY.counter("runner.workers.replaced").inc()
        first_round = False
        with ProcessPoolExecutor(
            max_workers=min(workers, len(queue))
        ) as pool:
            try:
                queue = _run_round(run, pool, queue)
            except BaseException:
                # Anything escaping a round — a task out of attempts,
                # a spent budget, KeyboardInterrupt — must never wait
                # on the pool: a hung worker would block the ``with``
                # exit's shutdown, and SIGINT on a campaign has to
                # exit promptly (restart+resume is the recovery path).
                _terminate_pool(pool)
                raise


def _run_round(run: _Execution, pool: ProcessPoolExecutor,
               queue: Sequence[int]) -> list[int]:
    """One pool round: submit all of ``queue``, collect in submission
    order, and return the tasks carrying over to the next round (empty
    when the round completed on a healthy pool).

    A round that ends early (timeout or crash) terminates its own pool
    before returning, so the caller's ``with`` exit never waits on a
    hung worker.
    """
    inflight: list[tuple[int, object]] = []
    with _interrupt_after_fork():  # the first submit forks the workers
        for i in queue:
            run.announce_start(i)
            inflight.append((i, pool.submit(run.worker, run.tasks[i])))
    carry: list[int] = []
    while inflight:
        i, future = inflight.pop(0)
        try:
            point = future.result(timeout=run.policy.timeout)
        except FutureTimeoutError as exc:
            # On 3.11+ this class aliases builtins.TimeoutError,
            # so a TimeoutError raised *inside* a worker lands
            # here too; only a set policy timeout with a still-
            # running future is a collection timeout.
            if run.policy.timeout is None or future.done():
                _retry_in_round(run, pool, inflight, i, repr(exc))
                continue
            run.register_failure(
                i, f"exceeded the per-task timeout of "
                   f"{run.policy.timeout:g}s",
                timeout=True)
            carry.append(i)
            try:
                carry.extend(_harvest_round(run, inflight))
            finally:
                _terminate_pool(pool)
            break
        except BrokenProcessPool as exc:
            run.register_failure(i, f"worker process died: {exc!r}")
            carry.append(i)
            try:
                carry.extend(_harvest_round(run, inflight))
            finally:
                _terminate_pool(pool)
            break
        except Exception as exc:
            # An ordinary worker exception: the pool is healthy,
            # so the retry resubmits to it directly.
            _retry_in_round(run, pool, inflight, i, repr(exc))
            continue
        run.collect(i, point)
    return carry


def execute(tasks: Sequence[RunTask], *,
            workers: Optional[int] = None,
            cache: CacheSpec = None,
            worker: Callable[[RunTask], SweepPoint] = run_task,
            retry: Optional[RetryPolicy] = None,
            budget: Optional[RetryBudget] = None,
            probe: bool = True,
            ) -> list[SweepPoint]:
    """Run ``tasks``, returning results in input (task-key) order.

    Cached results are fetched first; only the remainder is executed.
    Every fresh result is written back to the cache *as it completes*,
    so an aborted sweep resumes where it stopped.  ``retry`` selects
    the fault-tolerance posture (default: fail fast, no timeout — or
    the ``$REPRO_RETRIES`` / ``$REPRO_TASK_TIMEOUT`` environment
    defaults; see :func:`~repro.runner.retry.resolve_retry`).

    ``budget`` lets a campaign driver share one
    :class:`~repro.runner.retry.RetryBudget` across several ``execute``
    calls so the retry bound spans the whole campaign; when ``None`` a
    fresh budget is derived from ``retry.retry_budget`` for this call.

    ``probe=False`` skips the cache read for a caller that has just
    seen every task miss; fresh results are still checkpointed.

    ``worker`` is injectable for tests (engine-invocation counters); it
    must stay the module-level default for multi-process runs to be
    picklable.
    """
    workers = resolve_workers(workers)
    store = resolve_cache(cache)
    policy = resolve_retry(retry)
    obs_on = obs_enabled()
    if obs_on and worker is run_task:
        # The observed worker is a drop-in replacement producing the
        # same points plus side-band artifacts.  Imported lazily (the
        # obs worker imports this package) and swapped only for the
        # default: injected test workers are never wrapped.
        from repro.obs.worker import run_task_observed

        worker = run_task_observed
    faults_on = faults_root() is not None
    if faults_on:
        worker = FaultInjectingWorker(worker)
    keys = [task_key(t) for t in tasks]
    results: list[Optional[SweepPoint]] = [None] * len(tasks)
    pending: list[int] = []
    for i, key in enumerate(keys):
        hit = store.load(key) if store is not None and probe else None
        if hit is not None:
            results[i] = hit
            _progress.notify("hit", key, tasks[i].describe())
        else:
            pending.append(i)
    if obs_on:
        REGISTRY.counter("runner.tasks.total").inc(len(tasks))
        REGISTRY.counter("runner.cache.hits").inc(
            len(tasks) - len(pending))
        REGISTRY.counter("runner.cache.misses").inc(len(pending))
        if store is not None:
            _note_cache_hits(tasks, keys, results)

    if pending:
        run = _Execution(tasks, keys, results, worker, policy, store,
                         obs_on, budget)
        # The in-process path cannot preempt a hung task or survive a
        # crash, so a timeout (or an armed fault plan) routes execution
        # through the pool backend even at workers == 1 — a hang must
        # be killable and an injected crash must take down a worker,
        # never this process.
        serial = ((workers == 1 or len(pending) == 1)
                  and policy.timeout is None
                  and not faults_on)
        if serial:
            _run_serial(run, pending)
        else:
            _run_pool(run, pending, workers)

    out: list[SweepPoint] = []
    for i, point in enumerate(results):
        if point is None:
            raise TaskFailedError(keys[i], tasks[i].describe(),
                                  "worker returned no result")
        out.append(point)
    return out
