"""Shared fixtures for the benchmark harness.

Every bench regenerates one exhibit of the paper (a table or figure),
prints it, and records it under ``benchmarks/results/`` so the output
survives the run.  Simulation scale is selected with the
``REPRO_BENCH_SCALE`` environment variable (``quick`` default, ``full``
for paper-grade lengths).

The sweep-based benches run each grid as one fused batch-kernel call
(the sweep default), and reuse completed runs from the on-disk result
cache when ``REPRO_CACHE=1``; ``REPRO_WORKERS=N`` fans out only the
runs that still go through the process pool (see ``docs/parallel.md``).
Results are byte-identical at any worker count and on either engine,
so neither setting changes an exhibit.

Run with::

    pytest benchmarks/ --benchmark-only
    REPRO_WORKERS=4 REPRO_CACHE=1 pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.experiments import get_scale
from repro.runner import resolve_workers

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def scale():
    """The active benchmark scale."""
    return get_scale()


@pytest.fixture(scope="session")
def workers():
    """The active worker count ($REPRO_WORKERS, default serial)."""
    return resolve_workers(None)


@pytest.fixture(scope="session")
def record():
    """Persist + print a rendered exhibit.

    Usage::

        def test_bench_table1(benchmark, record):
            data = benchmark.pedantic(fn, rounds=1, iterations=1)
            record("table1", render(data))
    """
    RESULTS_DIR.mkdir(exist_ok=True)

    def _record(name: str, text: str) -> None:
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n",
                                                 encoding="utf-8")
        print(f"\n{'=' * 72}\n{text}\n{'=' * 72}")

    return _record


def run_once(benchmark, fn, *args, **kwargs):
    """Time ``fn`` exactly once (simulation benches are long-running;
    statistical repetition happens *inside* each simulation via batch
    means, not by re-running it)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)
