"""Unit tests for campaign manifests (checkpoint/resume state)."""

from __future__ import annotations

import json

import pytest

import repro.runner.campaign as campaign_module
from repro.analysis.sweeps import sweep
from repro.obs.registry import REGISTRY
from repro.runner import (
    ResultCache,
    RunTask,
    SweepManifest,
    begin_campaign,
    campaign_key,
    campaign_ledger_path,
    campaign_progress,
    execute,
    finish_campaign,
    load_campaign,
    load_ledger,
    record_ledger,
    sweep_manifest_path,
    task_keys,
)

from .conftest import SERVICE, SIZES, small_config


def make_tasks(n=3, policy="GS"):
    config = small_config(policy, measured_jobs=200)
    grid = tuple(0.3 + 0.1 * i for i in range(n))
    return [RunTask(config, SIZES, SERVICE, rho) for rho in grid]


@pytest.fixture
def fresh_registry():
    REGISTRY.reset()
    yield REGISTRY
    REGISTRY.reset()


class TestCampaignKey:
    def test_stable_across_calls(self):
        keys = task_keys(make_tasks())
        assert (campaign_key("sweep", "GS", keys)
                == campaign_key("sweep", "GS", keys))

    @pytest.mark.parametrize("mutate", [
        lambda kind, label, keys: (kind + "x", label, keys),
        lambda kind, label, keys: (kind, label + "x", keys),
        lambda kind, label, keys: (kind, label, keys[:-1]),
        lambda kind, label, keys: (kind, label, list(reversed(keys))),
    ])
    def test_any_input_change_changes_identity(self, mutate):
        keys = task_keys(make_tasks())
        base = campaign_key("sweep", "GS", keys)
        assert campaign_key(*mutate("sweep", "GS", keys)) != base


class TestManifestRoundTrip:
    def test_to_from_dict(self):
        manifest = SweepManifest(
            campaign="ab" * 32, kind="sweep", label="GS",
            task_keys=("k1", "k2"), descriptions=("d1", "d2"))
        clone = SweepManifest.from_dict(manifest.to_dict())
        assert clone == manifest

    def test_schema_mismatch_rejected(self):
        payload = SweepManifest(
            campaign="ab" * 32, kind="sweep", label="GS",
            task_keys=(), descriptions=()).to_dict()
        payload["schema"] = "something/else"
        with pytest.raises(ValueError):
            SweepManifest.from_dict(payload)


class TestBeginFinish:
    def test_no_store_no_manifest(self):
        assert begin_campaign("sweep", "GS", make_tasks(), None) is None
        assert finish_campaign(None, None, points=0) is None

    def test_begin_writes_manifest_next_to_cache(self, tmp_path):
        store = ResultCache(tmp_path / "cache")
        tasks = make_tasks()
        manifest = begin_campaign("sweep", "GS", tasks, store)
        assert manifest.status == "running"
        assert manifest.task_keys == tuple(task_keys(tasks))
        path = sweep_manifest_path(store.root, manifest.campaign)
        assert path.is_file()
        assert load_campaign(store, manifest.campaign) == manifest

    def test_given_keys_are_used_without_rederiving(self, tmp_path,
                                                    monkeypatch):
        store = ResultCache(tmp_path / "cache")
        tasks = make_tasks()
        keys = task_keys(tasks)
        derived = begin_campaign("sweep", "GS", tasks, store)

        def no_derivation(task):
            raise AssertionError("begin_campaign re-derived a task key")

        monkeypatch.setattr(campaign_module, "task_key", no_derivation)
        given = begin_campaign("sweep", "GS", tasks, store, keys)
        assert given == derived

    def test_finish_marks_complete_with_point_count(self, tmp_path):
        store = ResultCache(tmp_path / "cache")
        manifest = begin_campaign("sweep", "GS", make_tasks(), store)
        done = finish_campaign(manifest, store, points=2)
        assert done.status == "complete"
        assert done.completed_points == 2
        assert load_campaign(store, manifest.campaign) == done

    def test_malformed_manifest_reads_as_absent(self, tmp_path):
        store = ResultCache(tmp_path / "cache")
        manifest = begin_campaign("sweep", "GS", make_tasks(), store)
        path = sweep_manifest_path(store.root, manifest.campaign)
        path.write_text("{ torn", encoding="utf-8")
        assert load_campaign(store, manifest.campaign) is None

    def test_unknown_campaign_is_none(self, tmp_path):
        store = ResultCache(tmp_path / "cache")
        assert load_campaign(store, "ff" * 32) is None


class TestProgressAndResumeCounters:
    def test_progress_counts_cache_presence(self, tmp_path):
        store = ResultCache(tmp_path / "cache")
        tasks = make_tasks(n=3)
        manifest = begin_campaign("sweep", "GS", tasks, store)
        assert campaign_progress(store, manifest) == (0, 3)

        execute(tasks[:1], workers=1, cache=store)
        assert campaign_progress(store, manifest) == (1, 3)

        execute(tasks, workers=1, cache=store)
        assert campaign_progress(store, manifest) == (3, 3)

    def test_second_begin_is_a_resumption(self, tmp_path,
                                          fresh_registry):
        store = ResultCache(tmp_path / "cache")
        tasks = make_tasks(n=2)
        begin_campaign("sweep", "GS", tasks, store)
        assert REGISTRY.counter("runner.resume.campaigns").value == 0

        execute(tasks[:1], workers=1, cache=store)
        begin_campaign("sweep", "GS", tasks, store)
        assert REGISTRY.counter("runner.resume.campaigns").value == 1
        assert REGISTRY.gauge("runner.resume.completed").value == 1
        assert REGISTRY.gauge("runner.resume.remaining").value == 1

    def test_different_labels_do_not_collide(self, tmp_path):
        store = ResultCache(tmp_path / "cache")
        tasks = make_tasks(n=2)
        a = begin_campaign("sweep", "A", tasks, store)
        b = begin_campaign("sweep", "B", tasks, store)
        assert a.campaign != b.campaign
        assert load_campaign(store, a.campaign).label == "A"
        assert load_campaign(store, b.campaign).label == "B"


class TestManifestOnDiskShape:
    def test_json_is_sorted_and_schema_tagged(self, tmp_path):
        store = ResultCache(tmp_path / "cache")
        manifest = begin_campaign("sweep", "GS", make_tasks(n=1), store)
        path = sweep_manifest_path(store.root, manifest.campaign)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["schema"] == "repro.runner/sweep-manifest/1"
        assert list(payload) == sorted(payload)


def file_states(root):
    """``{path: (mtime_ns, inode)}`` of every file under ``root``."""
    return {path: (path.stat().st_mtime_ns, path.stat().st_ino)
            for path in root.rglob("*") if path.is_file()}


def run_campaign(store, tasks, points=None):
    """One begin/execute/finish cycle; returns the finished manifest."""
    manifest = begin_campaign("sweep", "GS", tasks, store)
    execute(tasks, workers=1, cache=store)
    return finish_campaign(manifest, store,
                           points=len(tasks) if points is None else points)


class TestWriteRule:
    """Campaign state is written only when it changes."""

    def test_complete_cached_rerun_leaves_every_file(self, tmp_path,
                                                     fresh_registry):
        store = ResultCache(tmp_path / "cache")
        tasks = make_tasks(n=2)
        done = run_campaign(store, tasks)
        before = file_states(store.root)

        again = run_campaign(store, tasks)

        assert again == done
        assert file_states(store.root) == before
        assert REGISTRY.counter("runner.resume.campaigns").value == 1
        assert REGISTRY.gauge("runner.resume.remaining").value == 0

    def test_begin_returns_the_complete_manifest_it_kept(self, tmp_path):
        store = ResultCache(tmp_path / "cache")
        tasks = make_tasks(n=2)
        done = run_campaign(store, tasks)
        assert begin_campaign("sweep", "GS", tasks, store) == done

    def test_new_point_count_rewrites_the_manifest(self, tmp_path):
        store = ResultCache(tmp_path / "cache")
        tasks = make_tasks(n=2)
        run_campaign(store, tasks, points=2)
        path = sweep_manifest_path(
            store.root, campaign_key("sweep", "GS", task_keys(tasks)))
        before = file_states(store.root)[path]

        cut = run_campaign(store, tasks, points=1)

        assert cut.completed_points == 1
        assert load_campaign(store, cut.campaign) == cut
        assert file_states(store.root)[path] != before

    def test_missing_cell_goes_running_then_complete(self, tmp_path):
        store = ResultCache(tmp_path / "cache")
        tasks = make_tasks(n=2)
        run_campaign(store, tasks)
        keys = task_keys(tasks)
        store.path_for(keys[1]).unlink()

        manifest = begin_campaign("sweep", "GS", tasks, store)
        assert manifest.status == "running"
        assert load_campaign(store, manifest.campaign) == manifest
        execute(tasks, workers=1, cache=store)
        done = finish_campaign(manifest, store, points=2)
        assert load_campaign(store, manifest.campaign) == done
        assert done.status == "complete"

    def test_prior_running_manifest_goes_running_then_complete(
            self, tmp_path):
        store = ResultCache(tmp_path / "cache")
        tasks = make_tasks(n=2)
        begin_campaign("sweep", "GS", tasks, store)
        execute(tasks, workers=1, cache=store)
        path = sweep_manifest_path(
            store.root, campaign_key("sweep", "GS", task_keys(tasks)))
        before = file_states(store.root)[path]

        manifest = begin_campaign("sweep", "GS", tasks, store)
        assert manifest.status == "running"
        assert file_states(store.root)[path] != before
        done = finish_campaign(manifest, store, points=2)
        assert load_campaign(store, manifest.campaign) == done

    def test_sweep_rerun_leaves_campaign_state(self, tmp_path):
        store = ResultCache(tmp_path / "cache")
        config = small_config("GS", measured_jobs=200)
        first = sweep("GS", config, SIZES, SERVICE, (0.3, 0.4),
                      cache=store)
        before = file_states(store.root)
        second = sweep("GS", config, SIZES, SERVICE, (0.3, 0.4),
                       cache=store)
        assert second.points == first.points
        assert file_states(store.root) == before


class TestLedgerWriteRule:
    SUBMISSION = {"label": "GS", "stop_after_saturation": None,
                  "cells": [{"config": {"capacities": (32, 32)},
                             "offered_gross": 0.3}]}

    def test_same_submission_leaves_the_file(self, tmp_path):
        store = ResultCache(tmp_path / "cache")
        record_ledger(store, "ab" * 32, self.SUBMISSION)
        path = campaign_ledger_path(store.root, "ab" * 32)
        before = file_states(store.root)[path]

        record_ledger(store, "ab" * 32, dict(self.SUBMISSION))

        assert file_states(store.root)[path] == before

    def test_changed_stop_after_saturation_rewrites(self, tmp_path):
        store = ResultCache(tmp_path / "cache")
        record_ledger(store, "ab" * 32, self.SUBMISSION)
        changed = dict(self.SUBMISSION, stop_after_saturation=2)

        record_ledger(store, "ab" * 32, changed)

        assert load_ledger(store, "ab" * 32)["stop_after_saturation"] == 2

    def test_malformed_ledger_is_rewritten(self, tmp_path):
        store = ResultCache(tmp_path / "cache")
        path = campaign_ledger_path(store.root, "ab" * 32)
        path.parent.mkdir(parents=True)
        path.write_text("{ torn", encoding="utf-8")

        record_ledger(store, "ab" * 32, self.SUBMISSION)

        assert load_ledger(store, "ab" * 32)["label"] == "GS"
