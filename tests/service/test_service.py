"""Service-level integration: the acceptance harness of the sweep
service.

The contracts proven here, against a live in-thread server:

* **correctness** — points streamed by the service are byte-identical
  to the one-shot ``sweep()`` path and to the committed golden grid
  fixtures (``tests/data/golden/grid_*.json``);
* **single-flight** — two clients submitting the same grid
  concurrently trigger exactly one engine execution per unique task
  key, and a repeat submission is served entirely from the cache with
  zero engine calls;
* **persistence** — ``attach`` replays a ledgered campaign by key
  prefix, from the cache;
* **failure shape** — a malformed spec or unknown campaign yields a
  typed error, and a client without a server gets an actionable
  :class:`~repro.service.ServiceConnectionError` (CLI exit code 2).
"""

from __future__ import annotations

import io
import json
import math
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.analysis.io import save_sweep
from repro.analysis.points import point_to_dict
from repro.analysis.sweeps import SweepResult, sweep
from repro.service import (
    ServiceClient,
    ServiceConnectionError,
    ServiceError,
    config_to_dict,
    normalize_spec,
    spec_campaign,
    sweep_spec,
)

from .conftest import SERVICE, SIZES, small_config

GOLDEN_DIR = Path(__file__).parent.parent / "data" / "golden"

#: Non-saturating grid for exact one-shot comparisons.
GRID = (0.3, 0.4, 0.5)

#: The golden grid campaigns (mirrors tests/runner/test_golden_grid.py).
POLICIES = ("GS", "LS", "LP", "SC")
LIMITS = (16, 24)
RHOS = (0.35, 0.55)


def grid_spec(policy: str, backend: str = "scalar") -> dict:
    """The golden grid campaign of one policy, as a service spec."""
    if policy == "SC":
        configs = [small_config("SC")]
    else:
        configs = [small_config(policy, component_limit=limit)
                   for limit in LIMITS]
    return normalize_spec({
        "label": f"grid-{policy}",
        "backend": backend,
        "cells": [{"config": config_to_dict(config),
                   "offered_gross": rho}
                  for config in configs for rho in RHOS],
    })


def grid_golden_cells(policy: str) -> list:
    """The committed fixture's cells, in grid order."""
    payload = json.loads(
        (GOLDEN_DIR / f"grid_{policy}.json").read_text("utf-8"))
    return payload["cells"]


class TestSingleLineOps:
    def test_ping(self, client):
        assert client.ping()["ok"] is True

    def test_status_reports_counters_and_cache(self, client):
        status = client.status()
        assert status["campaigns_served"] == 0
        assert status["counters"]["tasks.executed"] == 0
        assert set(status["cache"]) == {"hits", "misses", "stores"}

    def test_unknown_op_is_a_typed_error(self, client):
        with pytest.raises(ServiceError, match="unknown op"):
            client.request("frobnicate")


class TestSubmit:
    def test_points_byte_identical_to_one_shot_sweep(self, client,
                                                     engine_calls):
        config = small_config("GS")
        result = client.run(sweep_spec("GS", config, GRID))
        one_shot = sweep("GS", config, SIZES, SERVICE, GRID,
                         cache=False)
        assert result.raw_points == [point_to_dict(p)
                                     for p in one_shot.points]
        # Same SweepResult payload end to end (the CLI render path).
        buf_service = io.StringIO()
        save_sweep(SweepResult(label="GS", config=config,
                               points=tuple(result.points)),
                   buf_service)
        buf_oneshot = io.StringIO()
        save_sweep(one_shot, buf_oneshot)
        assert buf_service.getvalue() == buf_oneshot.getvalue()

    def test_repeat_submission_is_all_cache_hits(self, client,
                                                 engine_calls):
        spec = sweep_spec("GS", small_config("GS"), GRID)
        first = client.run(spec)
        executed = engine_calls["count"]
        assert executed == len(GRID)
        assert first.statuses == ["computed"] * len(GRID)

        second = client.run(spec)
        assert engine_calls["count"] == executed, \
            "repeat submission must trigger zero engine executions"
        assert second.statuses == ["hit"] * len(GRID)
        assert second.raw_points == first.raw_points

    def test_heartbeats_stream_for_executed_tasks(self, client):
        spec = sweep_spec("LP", small_config("LP"), GRID[:2])
        result = client.run(spec)
        phases = {phase for phase, _ in result.heartbeats}
        assert "start" in phases and "finish" in phases

    def test_early_stop_matches_one_shot_truncation(self, client):
        config = small_config("GS")
        # rho 2.0 saturates this config, so the streamed curve must cut
        # before the 2.5 tail cell.
        grid = (0.3, 2.0, 2.5)
        spec = sweep_spec("GS", config, grid, stop_after_saturation=1)
        result = client.run(spec)
        one_shot = sweep("GS", config, SIZES, SERVICE, grid,
                         stop_after_saturation=1, cache=False)
        assert len(one_shot.points) < len(grid), \
            "grid must actually saturate for this test to bite"
        assert result.raw_points == [point_to_dict(p)
                                     for p in one_shot.points]

    def test_malformed_spec_is_a_typed_error(self, client):
        with pytest.raises(ServiceError, match="cells"):
            collect_error = client.submit({"label": "x", "cells": []})
            list(collect_error)  # pragma: no cover - raise is in submit

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -1.0])
    def test_bad_routing_weights_rejected_at_submission(self, client,
                                                        weight):
        config = small_config("LS", routing_weights=(weight, 1, 1, 1))
        with pytest.raises(ServiceError, match="bad config: weights"):
            client.submit({"label": "x",
                           "cells": [{"config": config_to_dict(config),
                                      "offered_gross": 0.4}]})


class TestAttach:
    def test_attach_replays_from_cache_by_prefix(self, client,
                                                 engine_calls):
        spec = sweep_spec("LS", small_config("LS"), GRID)
        campaign, _, _ = spec_campaign(spec)
        submitted = client.run(spec)
        executed = engine_calls["count"]

        attached = client.run_attached(campaign[:12])
        assert engine_calls["count"] == executed
        assert attached.campaign == campaign
        assert attached.statuses == ["hit"] * len(GRID)
        assert attached.raw_points == submitted.raw_points

    def test_attach_unknown_campaign(self, client):
        with pytest.raises(ServiceError, match="unknown campaign"):
            client.run_attached("feedfacefeedface")


class TestSingleFlight:
    """The acceptance criterion: N concurrent clients, one execution
    per unique task key, output byte-identical to the golden grids."""

    @pytest.mark.parametrize("backend", ["scalar", "batch"])
    def test_two_clients_golden_grids(self, service, engine_calls,
                                      backend):
        client_a = ServiceClient(service.socket_path)
        client_b = ServiceClient(service.socket_path)
        unique_cells = 0
        for policy in POLICIES:
            spec = grid_spec(policy, backend=backend)
            unique_cells += len(spec["cells"])
            with ThreadPoolExecutor(2) as pool:
                futures = [pool.submit(client_a.run, spec),
                           pool.submit(client_b.run, spec)]
                result_a, result_b = [f.result(timeout=300)
                                      for f in futures]
            assert result_a.raw_points == result_b.raw_points
            golden = grid_golden_cells(policy)
            assert result_a.raw_points == [cell["point"]
                                           for cell in golden], policy

        counters = service.broker.counters
        assert counters["tasks.executed"] == unique_cells, \
            "each unique task key must execute exactly once"
        assert engine_calls["count"] == unique_cells
        # Fused lane-kernel execution whatever backend the spec named:
        # no scalar engine calls at all.  Each client launches at most
        # one kernel driver per campaign for the cells it claimed
        # first (the two may split a grid between them), never more.
        assert engine_calls["scalar"] == 0
        assert 0 < counters["fused.calls"] <= 2 * len(POLICIES)

        # The whole fleet's work is now cached: resubmitting every
        # campaign is free.
        for policy in POLICIES:
            rerun = client_a.run(grid_spec(policy, backend=backend))
            assert set(rerun.statuses) == {"hit"}
        assert counters["tasks.executed"] == unique_cells


class TestNoServer:
    def test_client_raises_actionable_connection_error(self,
                                                       service_root):
        missing = service_root / "nobody-home.sock"
        client = ServiceClient(missing)
        with pytest.raises(ServiceConnectionError,
                           match="no sweep service"):
            client.ping()
        with pytest.raises(ServiceConnectionError,
                           match="repro-sim serve"):
            client.run(sweep_spec("GS", small_config(), GRID))

    def test_cli_submit_fails_fast_with_exit_code_2(self, service_root,
                                                    capsys):
        from repro.cli import main

        code = main(["submit", "--policy", "GS",
                     "--grid", "0.3:0.4:0.1",
                     "--warmup", "100", "--measured", "400",
                     "--socket",
                     str(service_root / "nobody-home.sock")])
        err = capsys.readouterr().err
        assert code == 2
        assert "no sweep service" in err
        assert "repro-sim serve" in err
