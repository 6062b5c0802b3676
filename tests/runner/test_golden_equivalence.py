"""Golden equivalence: parallel and cached execution change nothing.

The runner's contract is that ``workers=N`` and cache hits are pure
wall-clock optimisations: for every policy the *serialized* payload of
a sweep (and of a replicated sweep) must be byte-identical between
``workers=1`` and ``workers=4`` under the same master seed, and a
cache-warm second run must reproduce it without invoking the engine.
A fusable sweep runs in-process by default, so the ``workers`` tests
pin ``backend="scalar"`` to keep exercising the process pool.
"""

from __future__ import annotations

import io

import pytest

from repro.analysis.io import save_replicated_sweep, save_sweep
from repro.analysis.replications import replicate_sweep
from repro.analysis.sweeps import sweep
from repro.runner import ResultCache

from .conftest import SERVICE, SIZES, small_config

POLICIES = ("GS", "LS", "LP", "SC")

#: Spans stable and (for the quick configs) near-saturation loads.
GRID = (0.35, 0.55)


def sweep_payload(result) -> str:
    buf = io.StringIO()
    save_sweep(result, buf)
    return buf.getvalue()


def replicated_payload(result) -> str:
    buf = io.StringIO()
    save_replicated_sweep(result, buf)
    return buf.getvalue()


@pytest.mark.parametrize("policy", POLICIES)
class TestSweepEquivalence:
    def test_workers4_byte_identical_to_serial(self, policy):
        config = small_config(policy)
        serial = sweep(policy, config, SIZES, SERVICE, GRID, workers=1,
                       backend="scalar")
        parallel = sweep(policy, config, SIZES, SERVICE, GRID, workers=4,
                         backend="scalar")
        assert sweep_payload(parallel) == sweep_payload(serial)

    def test_replicated_workers4_byte_identical_to_serial(self, policy):
        config = small_config(policy)
        serial = replicate_sweep(policy, config, SIZES, SERVICE, GRID,
                                 replications=3, workers=1,
                                 backend="scalar")
        parallel = replicate_sweep(policy, config, SIZES, SERVICE, GRID,
                                   replications=3, workers=4,
                                   backend="scalar")
        assert replicated_payload(parallel) == replicated_payload(serial)


class TestCacheWarmRuns:
    def test_sweep_cache_warm_skips_engine(self, tmp_path, engine_calls):
        config = small_config("GS")
        cache = ResultCache(tmp_path / "cache")
        cold = sweep("GS", config, SIZES, SERVICE, GRID,
                     workers=1, cache=cache)
        assert engine_calls["count"] == len(cold.points)

        warm = sweep("GS", config, SIZES, SERVICE, GRID,
                     workers=1, cache=cache)
        assert engine_calls["count"] == len(cold.points), (
            "cache-warm sweep invoked the engine"
        )
        assert sweep_payload(warm) == sweep_payload(cold)

    def test_replicated_cache_warm_skips_engine(self, tmp_path,
                                                engine_calls):
        config = small_config("GS")
        cache = ResultCache(tmp_path / "cache")
        cold = replicate_sweep("GS", config, SIZES, SERVICE, GRID,
                               replications=2, workers=1, cache=cache)
        cold_runs = engine_calls["count"]
        assert cold_runs > 0

        warm = replicate_sweep("GS", config, SIZES, SERVICE, GRID,
                               replications=2, workers=1, cache=cache)
        assert engine_calls["count"] == cold_runs, (
            "cache-warm replicated sweep invoked the engine"
        )
        assert replicated_payload(warm) == replicated_payload(cold)

    def test_warm_cache_serves_parallel_run(self, tmp_path, engine_calls):
        # A cache filled serially satisfies a workers=4 run before any
        # task reaches the pool: the engine counter stays flat even
        # though monkeypatching cannot cross process boundaries.
        config = small_config("LS")
        cache = ResultCache(tmp_path / "cache")
        cold = sweep("LS", config, SIZES, SERVICE, GRID,
                     workers=1, cache=cache, backend="scalar")
        cold_runs = engine_calls["count"]

        warm = sweep("LS", config, SIZES, SERVICE, GRID,
                     workers=4, cache=cache, backend="scalar")
        assert engine_calls["count"] == cold_runs
        assert sweep_payload(warm) == sweep_payload(cold)

    def test_seed_change_misses_cache(self, tmp_path, engine_calls):
        cache = ResultCache(tmp_path / "cache")
        sweep("GS", small_config("GS", seed=1), SIZES, SERVICE, (0.4,),
              workers=1, cache=cache)
        sweep("GS", small_config("GS", seed=2), SIZES, SERVICE, (0.4,),
              workers=1, cache=cache)
        assert engine_calls["count"] == 2, (
            "different master seeds must not share cache entries"
        )


class TestEarlyStopPreserved:
    def test_saturation_truncation_matches_serial(self):
        # Push the grid well past saturation: the parallel sweep chunks
        # the grid, computes at most a chunk beyond the knee, and must
        # truncate to exactly the serial curve.
        config = small_config("LP")
        grid = (0.3, 0.45, 0.6, 0.75, 0.9, 0.95)
        serial = sweep("LP", config, SIZES, SERVICE, grid, workers=1,
                       backend="scalar")
        parallel = sweep("LP", config, SIZES, SERVICE, grid, workers=4,
                         backend="scalar")
        assert sweep_payload(parallel) == sweep_payload(serial)
        assert len(serial.points) <= len(grid)
        if serial.points[-1].saturated:
            assert sum(p.saturated for p in serial.points) == 1
