"""Tests for the canonical and trace-derived workload distributions."""

import pickle

import numpy as np
import pytest

from repro.workload import (
    WORKLOADS,
    das_s_128,
    das_s_64,
    das_t_900,
    generate_das_log,
    service_distribution_from_log,
    size_distribution_from_log,
)
from repro.workload.stats_model import SERVICE_CUTOFF


class TestDasS128:
    def test_support_and_mass(self):
        d = das_s_128()
        assert len(d.support) == 58
        assert d.probabilities.sum() == pytest.approx(1.0)
        assert d.prob(64) == pytest.approx(0.190)

    def test_moments(self):
        d = das_s_128()
        # Reconstruction: mean ≈ 24.0, CV ≈ 1.07 (paper's illegible
        # digits are consistent with "average twenty-something, CV ~1").
        assert d.mean == pytest.approx(24.041, abs=0.01)
        assert d.cv == pytest.approx(1.075, abs=0.01)


class TestDasS64:
    def test_cut_and_renormalised(self):
        d = das_s_64()
        assert max(d.support) == 64
        assert d.probabilities.sum() == pytest.approx(1.0)

    def test_excludes_two_percent(self):
        full, cut = das_s_128(), das_s_64()
        kept = sum(full.prob(int(v)) for v in cut.support)
        assert kept == pytest.approx(0.980, abs=1e-9)

    def test_mean_reduced(self):
        assert das_s_64().mean < das_s_128().mean

    def test_conditional_probabilities(self):
        full, cut = das_s_128(), das_s_64()
        assert cut.prob(64) == pytest.approx(full.prob(64) / 0.980)


class TestDasT900:
    @pytest.fixture(scope="class")
    def dist(self):
        return das_t_900()

    def test_support_bounded_by_cutoff(self, dist):
        draws = dist.sample_array(np.random.default_rng(0), 5000)
        assert np.all(draws > 0)
        assert np.all(draws <= SERVICE_CUTOFF)

    def test_mean_scale(self, dist):
        # A few hundred seconds — consistent with the response-time
        # magnitudes in the paper's figures.
        assert 200.0 <= dist.mean <= 450.0

    def test_cv_near_one(self, dist):
        assert 0.7 <= dist.cv <= 1.3

    def test_kill_limit_spike_visible(self, dist):
        draws = dist.sample_array(np.random.default_rng(1), 50_000)
        near_limit = np.mean(draws >= 860.0)
        assert near_limit == pytest.approx(0.12, abs=0.02)


class TestTraceDerived:
    @pytest.fixture(scope="class")
    def log(self):
        return generate_das_log(seed=11, num_jobs=40_000)

    def test_size_distribution_matches_canonical(self, log):
        derived = size_distribution_from_log(log)
        canonical = das_s_128()
        assert derived.mean == pytest.approx(canonical.mean, rel=0.02)
        for v in (24, 64, 128):
            assert derived.prob(v) == pytest.approx(canonical.prob(v),
                                                    abs=0.01)

    def test_size_distribution_with_cut(self, log):
        derived = size_distribution_from_log(log, max_size=64)
        assert max(derived.support) <= 64

    def test_size_cut_removing_everything_rejected(self, log):
        with pytest.raises(ValueError):
            size_distribution_from_log(log, max_size=0)

    def test_service_distribution_bounded(self, log):
        d = service_distribution_from_log(log)
        draws = d.sample_array(np.random.default_rng(2), 2000)
        assert np.all((draws >= 0) & (draws <= SERVICE_CUTOFF))

    def test_service_distribution_mean_plausible(self, log):
        d = service_distribution_from_log(log)
        below = [r.runtime for r in log if r.runtime <= SERVICE_CUTOFF]
        assert d.mean == pytest.approx(np.mean(below), rel=0.05)

    def test_cutoff_with_no_jobs_rejected(self, log):
        with pytest.raises(ValueError):
            service_distribution_from_log(log, cutoff=0.0)


def test_workload_registry():
    assert set(WORKLOADS) == {"das-s-128", "das-s-64"}
    assert WORKLOADS["das-s-128"]().mean > WORKLOADS["das-s-64"]().mean


class TestMemoizedBuilders:
    """The canonical builders return one shared instance per process,
    and sharing it changes no task key: the memoized object pickles to
    the same bytes as a freshly built one."""

    @staticmethod
    def pickled(dist) -> bytes:
        # The task-key fingerprint's pinned pickle protocol.
        return pickle.dumps(dist, protocol=4)

    def test_das_t_900_is_shared_per_seed(self):
        assert das_t_900() is das_t_900()
        assert das_t_900(1) is das_t_900(1)
        assert das_t_900(1) is not das_t_900(0)

    @pytest.mark.parametrize("builder", [das_s_128, das_s_64, das_t_900],
                             ids=lambda b: b.__name__)
    def test_shared_instance_pickles_like_a_fresh_build(self, builder):
        shared = builder()
        assert builder() is shared
        fresh = builder.__wrapped__()
        assert fresh is not shared
        assert self.pickled(shared) == self.pickled(fresh)

    def test_sampling_leaves_the_shared_instance_unchanged(self):
        for builder in (das_s_128, das_s_64, das_t_900):
            shared = builder()
            before = self.pickled(shared)
            rng = np.random.default_rng(3)
            shared.sample(rng)
            shared.sample_array(rng, 100)
            assert self.pickled(shared) == before, builder.__name__
