"""Backend resolution: scalar / batch / auto, with clean degradation.

:func:`repro.sim.backend.resolve_backend` is the single choke point
every entry point (sweep, replicate_sweep, the CLI) funnels a
``backend=`` argument through, so these tests pin its whole contract:
explicit choices are honoured, ``"batch"`` without numpy degrades to
scalar with a warning instead of crashing, and ``"auto"`` picks the
kernel whenever numpy is present and the model is supported — however
narrow the campaign, since the kernel runs one lane at a time.
"""

from __future__ import annotations

import warnings

import pytest

from repro.core.system import SimulationConfig
from repro.sim import backend as backend_module
from repro.sim.backend import (
    BackendFallbackWarning,
    batch_supported,
    numpy_available,
    resolve_backend,
)
from repro.workload.distributions import das_s_128

SIZES = das_s_128()


def config_for(policy="GS", **kw) -> SimulationConfig:
    base = dict(policy=policy, component_limit=16,
                warmup_jobs=10, measured_jobs=10)
    base.update(kw)
    return SimulationConfig(**base)


class TestExplicitChoices:
    def test_scalar_is_always_scalar(self):
        assert resolve_backend("scalar") == "scalar"
        assert resolve_backend("scalar", config_for(),
                               size_distribution=SIZES) == "scalar"

    def test_batch_with_numpy_stays_batch(self, monkeypatch):
        monkeypatch.setattr(backend_module, "numpy_available",
                            lambda: True)
        assert resolve_backend("batch") == "batch"

    def test_batch_without_numpy_degrades_with_warning(self, monkeypatch):
        monkeypatch.setattr(backend_module, "numpy_available",
                            lambda: False)
        with pytest.warns(BackendFallbackWarning):
            assert resolve_backend("batch") == "scalar"

    def test_unknown_backend_is_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("vectorized")


class TestAuto:
    def test_wide_supported_campaign_picks_batch(self, monkeypatch):
        monkeypatch.setattr(backend_module, "numpy_available",
                            lambda: True)
        assert resolve_backend("auto", config_for(),
                               size_distribution=SIZES) == "batch"


    def test_auto_without_numpy_stays_scalar_silently(self, monkeypatch):
        monkeypatch.setattr(backend_module, "numpy_available",
                            lambda: False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_backend("auto", config_for()) == "scalar"

    def test_unsupported_model_stays_scalar(self, monkeypatch):
        monkeypatch.setattr(backend_module, "numpy_available",
                            lambda: True)
        exotic = config_for(placement="first-fit")
        assert resolve_backend("auto", exotic) == "scalar"

    def test_no_config_skips_the_support_check(self, monkeypatch):
        monkeypatch.setattr(backend_module, "numpy_available",
                            lambda: True)
        assert resolve_backend("auto") == "batch"


class TestBatchSupported:
    def test_paper_policies_under_worst_fit_are_supported(self):
        for policy in ("GS", "LS", "LP"):
            assert batch_supported(config_for(policy), SIZES)
        assert batch_supported(
            SimulationConfig.single_cluster(warmup_jobs=1,
                                            measured_jobs=1), SIZES)

    def test_non_worst_fit_placement_is_unsupported(self):
        assert not batch_supported(config_for(placement="first-fit"))

    def test_continuous_size_distribution_is_unsupported(self):
        class Continuous:
            support = None

        assert not batch_supported(config_for(), Continuous())

    def test_numpy_available_matches_reality(self):
        # The real probe must agree with an actual import attempt.
        try:
            import numpy  # noqa: F401
            importable = True
        except ImportError:
            importable = False
        assert numpy_available() == importable
