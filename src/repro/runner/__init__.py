"""``repro.runner`` — deterministic, fault-tolerant parallel execution.

The sweep and replication harnesses fan their independent runs (grid
points × master seeds × configurations) out over worker processes
through this package:

* :class:`RunTask` / :func:`task_key` — one run, keyed by a stable
  content hash of (configuration incl. master seed, offered
  utilization, workload fingerprints);
* :func:`execute` — serial or process-pool execution with results
  collected in task order, so output never depends on scheduling;
* :func:`execute_fused` (:mod:`repro.runner.fused`) — the batch-backend
  counterpart: heterogeneous tasks fused into lane-kernel calls,
  retiring and refilling lanes in task order, with the same per-task
  cache checkpoints and progress heartbeats;
* :class:`RetryPolicy` — per-task retries with deterministic
  exponential backoff, a campaign-wide retry budget
  (:class:`RetryBudget`) and per-task wall-clock timeouts with worker
  replacement;
* :class:`ResultCache` — an on-disk JSON cache under ``.repro-cache/``
  keyed by the same hashes, letting re-runs and aborted sweeps skip
  completed work;
* :class:`SweepManifest` (:mod:`repro.runner.campaign`) — the planned
  task set of a whole campaign, making interrupted sweeps resumable
  (``repro-sim sweep --resume``) with byte-identical output;
* :mod:`repro.runner.faults` — the deterministic fault-injection
  harness (worker crashes, hangs, transient exceptions, poisoned cache
  shards) that proves all of the above in ``tests/runner/chaos/``;
* :class:`TaskFailedError` — the typed error a task out of attempts
  surfaces as, naming the failing task.

See ``docs/parallel.md`` for the determinism argument and cache
layout, and ``docs/robustness.md`` for the failure model and the
retry/timeout/resume semantics.
"""

from .cache import (
    DEFAULT_CACHE_DIR,
    SCHEMA_TAG,
    CacheIntegrityWarning,
    ResultCache,
)
from .campaign import (
    CAMPAIGN_LEDGER_SCHEMA,
    SWEEP_MANIFEST_SCHEMA,
    SweepManifest,
    begin_campaign,
    campaign_key,
    campaign_ledger_path,
    campaign_progress,
    finish_campaign,
    load_campaign,
    load_ledger,
    match_campaigns,
    record_ledger,
    sweep_manifest_path,
)
from .errors import (
    RunnerError,
    TaskFailedError,
    TaskTimeoutError,
    TransientWorkerError,
)
from .fused import (
    DEFAULT_FUSED_WIDTH,
    execute_fused,
    fused_eligible,
)
from .pool import (
    CACHE_ENV,
    WORKERS_ENV,
    CacheSpec,
    execute,
    resolve_cache,
    resolve_workers,
)
from .retry import (
    BACKOFF_ENV,
    BUDGET_ENV,
    RETRIES_ENV,
    TIMEOUT_ENV,
    RetryBudget,
    RetryPolicy,
    backoff_delay,
    resolve_retry,
)
from .task import KEY_VERSION, RunTask, task_key, task_keys
from .worker import run_task

__all__ = [
    "RunTask", "task_key", "task_keys", "KEY_VERSION",
    "execute", "run_task", "resolve_workers", "resolve_cache",
    "execute_fused", "fused_eligible", "DEFAULT_FUSED_WIDTH",
    "CacheSpec", "WORKERS_ENV", "CACHE_ENV",
    "RetryPolicy", "RetryBudget", "resolve_retry", "backoff_delay",
    "RETRIES_ENV", "TIMEOUT_ENV", "BACKOFF_ENV", "BUDGET_ENV",
    "ResultCache", "CacheIntegrityWarning", "SCHEMA_TAG",
    "DEFAULT_CACHE_DIR",
    "SweepManifest", "SWEEP_MANIFEST_SCHEMA", "campaign_key",
    "sweep_manifest_path", "begin_campaign", "finish_campaign",
    "load_campaign", "campaign_progress",
    "CAMPAIGN_LEDGER_SCHEMA", "campaign_ledger_path", "record_ledger",
    "load_ledger", "match_campaigns",
    "RunnerError", "TaskFailedError", "TaskTimeoutError",
    "TransientWorkerError",
]
