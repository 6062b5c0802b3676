"""Backend resolution: scalar / batch / auto.

:func:`repro.sim.backend.resolve_backend` is the single choke point
every entry point (sweep, replicate_sweep, the CLI) funnels a
``backend=`` argument through, so these tests pin its whole contract:
explicit choices are honoured, and ``"auto"`` picks the kernel
whenever the model is supported — however narrow the campaign, since
the kernel runs one lane at a time.
"""

from __future__ import annotations

import pytest

from repro.core.placement import PLACEMENT_RULES
from repro.core.system import SimulationConfig
from repro.sim.backend import batch_supported, resolve_backend
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

    def test_batch_with_numpy_stays_batch(self):
        assert resolve_backend("batch") == "batch"

    def test_unknown_backend_is_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("vectorized")


class Continuous:
    """A size distribution without a discrete support."""

    support = None


class TestAuto:
    def test_wide_supported_campaign_picks_batch(self):
        assert resolve_backend("auto", config_for(),
                               size_distribution=SIZES) == "batch"

    def test_unsupported_model_stays_scalar(self):
        assert resolve_backend("auto", config_for(),
                               size_distribution=Continuous()) == "scalar"

    def test_no_config_skips_the_support_check(self):
        assert resolve_backend("auto") == "batch"


class TestBatchSupported:
    def test_paper_policies_under_worst_fit_are_supported(self):
        for policy in ("GS", "LS", "LP"):
            assert batch_supported(config_for(policy), SIZES)
        assert batch_supported(
            SimulationConfig.single_cluster(warmup_jobs=1,
                                            measured_jobs=1), SIZES)

    @pytest.mark.parametrize("placement", sorted(PLACEMENT_RULES))
    def test_every_placement_rule_is_supported(self, placement):
        assert batch_supported(config_for(placement=placement), SIZES)

    def test_continuous_size_distribution_is_unsupported(self):
        assert not batch_supported(config_for(), Continuous())
