"""Pinned decision streams of the four paper policies (§2.5).

One seeded, near-saturation scalar run per policy is exported through
the event log, and the test pins a digest of every exported row plus
the placement and queue-disable counters.  Any change to the queue
rules — drain order, visiting rounds, disable/re-enable order, the LP
local-priority gate — changes the digest, even when the end statistics
happen to survive.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core import SimulationConfig
from repro.obs.events import EventLog, ExportTracer, read_events
from repro.runner import RunTask
from repro.runner.worker import run_task_result
from repro.workload import das_s_128, das_t_900


def _config(policy: str) -> SimulationConfig:
    base = dict(policy=policy, component_limit=16, warmup_jobs=50,
                measured_jobs=300, seed=11, batch_size=25)
    if policy == "SC":
        base.update(capacities=(128,), component_limit=None)
    return SimulationConfig(**base)


def _run(policy: str, tmp_path) -> tuple[list[dict], dict]:
    path = tmp_path / f"{policy}.jsonl"
    task = RunTask(_config(policy), das_s_128(), das_t_900(), 0.7)
    with EventLog(path) as log:
        result = run_task_result(task, tracer=ExportTracer(log))
    return list(read_events(path)), result.extras


def _digest(rows: list[dict]) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update(json.dumps(row, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


#: policy -> (row digest, placement_attempts, placement_failures,
#: queue_disables)
PINS = {
    "GS": ("a78bae402acb2953ddf83b114affb75b"
           "0730c6a1754a38bae400832a2fe9651a", 877, 526, {"global": 0}),
    "LS": ("9035f3594e561aec8352613cda06ac05"
           "94915ceb0233e4ae3f4e4993d81733d8", 977, 626,
           {"local-0": 138, "local-1": 157, "local-2": 222,
            "local-3": 109}),
    "LP": ("999b226cc84614097fdf16d3e7a25615"
           "0f9b49723b545e2fec8ebc49e649c803", 937, 586,
           {"global": 420, "local-0": 47, "local-1": 51, "local-2": 53,
            "local-3": 15}),
    "SC": ("9b5dc712224b5bfb06c2d59c6d74a972"
           "e0ec9f8d910217c0d3f0080db8216f05", 756, 405, {"global": 0}),
}


@pytest.mark.parametrize("policy", sorted(PINS))
def test_pinned_event_stream(policy, tmp_path):
    rows, extras = _run(policy, tmp_path)
    digest, attempts, failures, disables = PINS[policy]
    assert extras["placement_attempts"] == attempts
    assert extras["placement_failures"] == failures
    assert extras["queue_disables"] == disables
    assert _digest(rows) == digest


def test_lp_reenables_global_queue_mid_round(tmp_path):
    """A local queue emptying while the global queue is disabled puts
    the global queue back on the visit list at once (§2.5, LP)."""
    rows, _ = _run("LP", tmp_path)
    assert any(row["kind"] == "queue_reenable" and row["queue"] == "global"
               and row["order"] == 0 for row in rows)
