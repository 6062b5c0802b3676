"""Which campaigns the broker fuses, and the ones it cannot.

The backend a spec names is only a hint: the broker runs every
campaign the batch kernel can run as one fused kernel call — under
every placement rule — and keeps the task-at-a-time path for the two
environments that cannot fuse: an armed fault plan and observability.
Each path must stream exactly the one-shot scalar curve.
"""

from __future__ import annotations

import pytest

from repro.analysis.points import point_to_dict
from repro.analysis.sweeps import sweep
from repro.obs.gate import OBS_DIR_ENV, OBS_ENV
from repro.runner.faults import FAULTS_ENV
from repro.service import sweep_spec

from .conftest import SERVICE, SIZES, small_config

GRID = (0.3, 0.4, 0.5)


def one_shot(config) -> "list[dict]":
    result = sweep(config.policy, config, SIZES, SERVICE, GRID,
                   cache=False, backend="scalar")
    return [point_to_dict(p) for p in result.points]


def test_default_campaign_fuses_into_one_kernel_call(service, client,
                                                     engine_calls):
    config = small_config("GS")
    result = client.run(sweep_spec("GS", config, GRID))
    assert result.statuses == ["computed"] * len(GRID)
    assert service.broker.counters["fused.calls"] == 1
    assert engine_calls["scalar"] == 0
    assert engine_calls["lanes"] == len(GRID)
    assert result.raw_points == one_shot(config)


def fault_plan(monkeypatch, tmp_path):
    root = tmp_path / "faults"
    root.mkdir()
    monkeypatch.setenv(FAULTS_ENV, str(root))


def observability(monkeypatch, tmp_path):
    monkeypatch.setenv(OBS_ENV, "1")
    monkeypatch.setenv(OBS_DIR_ENV, str(tmp_path / "obs"))


@pytest.mark.parametrize("arm", [fault_plan, observability],
                         ids=["fault-plan", "obs"])
def test_unfusable_environment_runs_task_by_task(service, client,
                                                 monkeypatch, tmp_path,
                                                 arm):
    config = small_config("GS")
    expected = one_shot(config)
    arm(monkeypatch, tmp_path)
    result = client.run(sweep_spec("GS", config, GRID, backend="batch"))
    assert result.statuses == ["computed"] * len(GRID)
    assert service.broker.counters["fused.calls"] == 0
    assert service.broker.counters["tasks.executed"] == len(GRID)
    assert result.raw_points == expected


def test_first_fit_placement_fuses_into_one_kernel_call(service, client,
                                                        engine_calls):
    config = small_config("GS", placement="first-fit")
    result = client.run(sweep_spec("GS", config, GRID, backend="auto"))
    assert result.statuses == ["computed"] * len(GRID)
    assert service.broker.counters["fused.calls"] == 1
    assert engine_calls["scalar"] == 0
    assert engine_calls["lanes"] == len(GRID)
    assert result.raw_points == one_shot(config)
