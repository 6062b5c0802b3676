"""Observability overhead — obs-on within 10% of obs-off, byte-identical.

The observability layer (``docs/observability.md``) promises to be
cheap and side-band: with ``REPRO_OBS=1`` every computed run streams a
JSONL event log, writes a manifest and feeds the metrics registry, yet
the serialized sweep result must not change by a byte and the
wall-clock cost must stay within 10% of an obs-off run.

Both properties are asserted here on a real scalar-engine sweep, the
engine an obs-armed campaign runs.  Timing uses a
paired design: obs-off and obs-on sweeps alternate round by round, so
each ratio compares adjacent runs and survives host frequency shifts
that wreck independently-taken minima.  Shared-host interference only
ever *inflates* a round (``timeit`` doctrine: the quiet observations
are the accurate ones), so the asserted overhead is the **lower
quartile of the paired ratios**; the median is reported alongside it
for context.  The byte-equality check compares full ``save_sweep``
payloads.
"""

from __future__ import annotations

import io
import os
import statistics
import time
from contextlib import contextmanager

from conftest import run_once

from repro.analysis.io import save_sweep
from repro.analysis.sweeps import sweep
from repro.obs.gate import OBS_DIR_ENV, OBS_ENV
from repro.workload import das_s_128, das_t_900

GRID = (0.3, 0.45, 0.6)
ROUNDS = 9
MAX_OVERHEAD = 0.10


@contextmanager
def _obs_env(enabled: bool, root):
    saved = {k: os.environ.get(k) for k in (OBS_ENV, OBS_DIR_ENV)}
    if enabled:
        os.environ[OBS_ENV] = "1"
        os.environ[OBS_DIR_ENV] = str(root)
    else:
        os.environ.pop(OBS_ENV, None)
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _sweep(scale):
    config = scale.config("GS", 16, warmup_jobs=300, measured_jobs=1_500)
    # Pinned to the scalar engine on both sides: an obs-armed sweep
    # always runs it (the fused kernel emits no event log yet), while
    # the default backend would run the obs-off side on the kernel, so
    # the ratio would measure the engine swap, not the obs layer.
    return sweep("GS", config, das_s_128(), das_t_900(), GRID,
                 backend="scalar")


def _payload(result) -> str:
    buf = io.StringIO()
    save_sweep(result, buf)
    return buf.getvalue()


def test_bench_obs_overhead(benchmark, scale, record, tmp_path):
    obs_root = tmp_path / "obs"

    # Warm both paths (imports, obs directory creation) outside timing;
    # the warm obs-on run doubles as the pytest-benchmark sample.
    with _obs_env(False, obs_root):
        off = _sweep(scale)
    with _obs_env(True, obs_root):
        on = run_once(benchmark, _sweep, scale)

    def _timed(enabled: bool):
        with _obs_env(enabled, obs_root):
            t0 = time.perf_counter()
            result = _sweep(scale)
            return result, time.perf_counter() - t0

    # A/B/B/A: alternate which variant runs first so that monotone
    # load drift within a round inflates half the ratios and deflates
    # the other half instead of biasing them all one way.
    ratios = []
    for round_no in range(ROUNDS):
        if round_no % 2:
            on, on_s = _timed(True)
            off, off_s = _timed(False)
        else:
            off, off_s = _timed(False)
            on, on_s = _timed(True)
        ratios.append(on_s / off_s - 1.0)

    # The obs runs must actually have recorded something, or the
    # overhead assertion is vacuous.
    manifests = list((obs_root / "manifests").rglob("*.json"))
    event_logs = list((obs_root / "events").rglob("*.jsonl"))
    assert manifests, "obs-on run wrote no manifests"
    assert event_logs, "obs-on run wrote no event logs"

    assert _payload(on) == _payload(off), (
        "REPRO_OBS=1 changed the serialized sweep result"
    )

    overhead = statistics.quantiles(ratios, n=4)[0]
    median = statistics.median(ratios)
    record(
        "obs_overhead",
        f"Observability overhead (GS sweep, {len(GRID)} grid points, "
        f"{ROUNDS} paired rounds)\n"
        f"  per-round       {', '.join(f'{r:+.1%}' for r in ratios)}\n"
        f"  quiet quartile  {overhead:8.1%}\n"
        f"  median          {median:8.1%}\n"
        f"  manifests       {len(manifests):4d}\n"
        f"  event logs      {len(event_logs):4d}\n"
        f"  byte-identical  yes\n",
    )
    assert overhead <= MAX_OVERHEAD, (
        f"observability overhead {overhead:.1%} (quiet quartile) exceeds "
        f"{MAX_OVERHEAD:.0%} (paired rounds: "
        f"{', '.join(f'{r:+.1%}' for r in ratios)})"
    )
