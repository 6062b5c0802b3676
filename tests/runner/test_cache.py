"""Cache integrity: corruption and schema drift degrade to recompute."""

from __future__ import annotations

import json
import threading

import pytest

from repro.analysis.points import SweepPoint
from repro.analysis.sweeps import sweep
from repro.runner import (
    SCHEMA_TAG,
    CacheIntegrityWarning,
    ResultCache,
    RunTask,
    execute,
    task_key,
)
from repro.runner.cache import atomic_write_json

from .conftest import SERVICE, SIZES, small_config

POINT = SweepPoint(offered_gross=0.4, gross_utilization=0.39,
                   net_utilization=0.33, mean_response=250.0,
                   ci_half_width=12.0, saturated=False)


def make_cache(tmp_path) -> ResultCache:
    return ResultCache(tmp_path / "cache")


class TestRoundtrip:
    def test_store_then_load(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.store("ab" * 32, POINT, "GS rho=0.4")
        assert cache.load("ab" * 32) == POINT
        assert (cache.hits, cache.stores) == (1, 1)

    def test_missing_entry_is_silent_miss(self, tmp_path, recwarn):
        cache = make_cache(tmp_path)
        assert cache.load("cd" * 32) is None
        assert cache.misses == 1
        assert not recwarn.list

    def test_sharded_layout(self, tmp_path):
        cache = make_cache(tmp_path)
        key = "ef" * 32
        cache.store(key, POINT)
        assert cache.path_for(key).exists()
        assert cache.path_for(key).parent.name == "ef"


class TestCorruption:
    def corrupt(self, cache: ResultCache, key: str, text: str) -> None:
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")

    def test_garbage_falls_through_with_warning(self, tmp_path):
        cache = make_cache(tmp_path)
        self.corrupt(cache, "aa" * 32, "not json at all {{{")
        with pytest.warns(CacheIntegrityWarning):
            assert cache.load("aa" * 32) is None

    def test_truncated_entry_falls_through(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.store("aa" * 32, POINT)
        path = cache.path_for("aa" * 32)
        path.write_text(path.read_text()[: 40], encoding="utf-8")
        with pytest.warns(CacheIntegrityWarning):
            assert cache.load("aa" * 32) is None

    def test_schema_tag_mismatch_falls_through(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.store("aa" * 32, POINT)
        path = cache.path_for("aa" * 32)
        payload = json.loads(path.read_text())
        assert payload["schema"] == SCHEMA_TAG
        payload["schema"] = "repro.runner/0"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.warns(CacheIntegrityWarning):
            assert cache.load("aa" * 32) is None

    def test_missing_point_fields_fall_through(self, tmp_path):
        cache = make_cache(tmp_path)
        self.corrupt(
            cache, "aa" * 32,
            json.dumps({"schema": SCHEMA_TAG, "point": {"saturated": True}}),
        )
        with pytest.warns(CacheIntegrityWarning):
            assert cache.load("aa" * 32) is None

    def test_warning_surfaced_once_per_run(self, tmp_path, recwarn):
        cache = make_cache(tmp_path)
        self.corrupt(cache, "aa" * 32, "{broken")
        self.corrupt(cache, "bb" * 32, "{broken")
        assert cache.load("aa" * 32) is None
        assert cache.load("bb" * 32) is None
        warnings = [w for w in recwarn.list
                    if issubclass(w.category, CacheIntegrityWarning)]
        assert len(warnings) == 1

    def test_fresh_run_warns_again(self, tmp_path):
        # "Once per run" = once per cache instance, not once forever.
        first = make_cache(tmp_path)
        self.corrupt(first, "aa" * 32, "{broken")
        with pytest.warns(CacheIntegrityWarning):
            first.load("aa" * 32)
        second = ResultCache(first.root)
        with pytest.warns(CacheIntegrityWarning):
            second.load("aa" * 32)


class TestCorruptionRecompute:
    def test_execute_recomputes_corrupted_entry(self, tmp_path):
        cache = make_cache(tmp_path)
        task = RunTask(small_config("GS"), SIZES, SERVICE, 0.4)
        (clean,) = execute([task], workers=1, cache=cache)
        cache.path_for(task_key(task)).write_text("{boom", encoding="utf-8")
        with pytest.warns(CacheIntegrityWarning):
            (recomputed,) = execute([task], workers=1, cache=cache)
        assert recomputed == clean
        # ... and the rewritten entry is healthy again.
        assert cache.load(task_key(task)) == clean

    def test_sweep_survives_corrupted_cache(self, tmp_path):
        cache = make_cache(tmp_path)
        config = small_config("GS")
        cold = sweep("GS", config, SIZES, SERVICE, (0.35, 0.5),
                     workers=1, cache=cache)
        for entry in cache.root.rglob("*.json"):
            entry.write_text("garbage", encoding="utf-8")
        with pytest.warns(CacheIntegrityWarning):
            recomputed = sweep("GS", config, SIZES, SERVICE, (0.35, 0.5),
                               workers=1, cache=ResultCache(cache.root))
        assert recomputed.points == cold.points


class TestAtomicWrite:
    """Every cache, manifest and ledger write goes through
    :func:`atomic_write_json`: one staged, uniquely named temp file per
    write, so concurrent writers of one path never collide."""

    def test_concurrent_writers_of_one_path_all_succeed(self, tmp_path):
        path = tmp_path / "sweeps" / "campaign.json"
        payloads = [{"writer": n, "pad": "x" * 4096} for n in range(8)]
        errors = []

        def write(payload):
            try:
                for _ in range(25):
                    atomic_write_json(path, payload)
            except Exception as exc:  # pragma: no cover - the failure
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(p,))
                   for p in payloads]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert json.loads(path.read_text()) in payloads
        assert [p.name for p in path.parent.iterdir()] == ["campaign.json"]

    def test_text_matches_the_cache_format(self, tmp_path):
        path = tmp_path / "entry.json"
        obj = {"b": [1, 2.5], "a": {"z": None}}
        atomic_write_json(path, obj)
        assert path.read_text(encoding="utf-8") == json.dumps(
            obj, indent=1, sort_keys=True)

    def test_failed_write_keeps_the_old_file_and_no_temp(self, tmp_path):
        path = tmp_path / "entry.json"
        atomic_write_json(path, {"old": 1})
        with pytest.raises(TypeError):
            atomic_write_json(path, {"new": object()})
        assert json.loads(path.read_text()) == {"old": 1}
        assert [p.name for p in tmp_path.iterdir()] == ["entry.json"]
