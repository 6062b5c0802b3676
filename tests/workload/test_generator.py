"""Tests for the job factory and arrival process."""

import numpy as np
import pytest

from repro.sim import Deterministic, Simulator, StreamFactory
from repro.sim.distributions import DiscreteEmpirical
from repro.workload import (
    ArrivalProcess,
    JobFactory,
    QueueRouter,
    das_s_128,
    das_t_900,
)
from repro.workload.stats_model import (
    BALANCED_WEIGHTS,
    EXTENSION_FACTOR,
    UNBALANCED_WEIGHTS,
)


def make_factory(limit=16, seed=1, sizes=None, service=None,
                 weights=BALANCED_WEIGHTS):
    return JobFactory(
        size_distribution=sizes or das_s_128(),
        service_distribution=service or Deterministic(100.0),
        component_limit=limit,
        routing_weights=weights,
        streams=StreamFactory(seed),
    )


class TestQueueRouter:
    def test_balanced_frequencies(self):
        router = QueueRouter(BALANCED_WEIGHTS)
        picks = router.queues(np.random.default_rng(0).random(20_000))
        for q in range(4):
            assert np.mean(picks == q) == pytest.approx(0.25, abs=0.02)

    def test_unbalanced_frequencies(self):
        router = QueueRouter(UNBALANCED_WEIGHTS)
        picks = router.queues(np.random.default_rng(0).random(20_000))
        assert np.mean(picks == 0) == pytest.approx(0.40, abs=0.02)
        assert np.mean(picks == 1) == pytest.approx(0.20, abs=0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            QueueRouter([])
        with pytest.raises(ValueError):
            QueueRouter([-1.0, 2.0])
        with pytest.raises(ValueError):
            QueueRouter([0.0, 0.0])


class TestJobFactory:
    def test_specs_have_consistent_components(self):
        f = make_factory(limit=16)
        for spec in f.jobs(500):
            assert sum(spec.components) == spec.size
            assert max(spec.components) <= 32  # worst clamped case
            assert 0 <= spec.queue < 4
            assert spec.service_time == 100.0

    def test_indices_sequential(self):
        f = make_factory()
        specs = f.jobs(10)
        assert [s.index for s in specs] == list(range(10))

    def test_no_splitting_for_total_requests(self):
        f = make_factory(limit=None)
        for spec in f.jobs(200):
            assert spec.components == (spec.size,)
            assert not spec.is_multi_component

    def test_multi_component_flag(self):
        f = make_factory(limit=16)
        specs = f.jobs(5000)
        frac = np.mean([s.is_multi_component for s in specs])
        assert frac == pytest.approx(0.487, abs=0.03)

    def test_common_random_numbers(self):
        # Same master seed → same job stream, regardless of limit.
        a = make_factory(limit=16, seed=9).jobs(100)
        b = make_factory(limit=32, seed=9).jobs(100)
        assert [s.size for s in a] == [s.size for s in b]
        assert [s.service_time for s in a] == [s.service_time for s in b]

    def test_extension_factor_validation(self):
        with pytest.raises(ValueError):
            JobFactory(das_s_128(), Deterministic(1.0), 16,
                       extension_factor=0.5)


class TestLoadAccounting:
    def test_gross_net_ratio_formula(self):
        # For a two-point size distribution the ratio is computable by
        # hand: sizes 10 (single) and 40 (multi under L=16) equally
        # likely; E[s·ext] = .5·10 + .5·40·1.25 = 30; E[s] = 25.
        sizes = DiscreteEmpirical([10, 40], [0.5, 0.5])
        f = JobFactory(sizes, Deterministic(100.0), 16,
                       streams=StreamFactory(0))
        assert f.gross_net_ratio() == pytest.approx(30.0 / 25.0)

    def test_ratio_one_without_splitting(self):
        f = make_factory(limit=None)
        assert f.gross_net_ratio() == pytest.approx(1.0)

    def test_paper_ratios_order(self):
        # §4: the gross/net gap grows as the limit shrinks (more
        # multi-component jobs).
        ratios = {L: make_factory(limit=L).gross_net_ratio()
                  for L in (16, 24, 32)}
        assert ratios[16] > ratios[24] > ratios[32] > 1.0

    def test_rate_and_utilization_inverse(self):
        f = make_factory(limit=16)
        rate = f.arrival_rate_for_gross_utilization(0.6, capacity=128)
        assert f.offered_gross_utilization(rate, 128) == pytest.approx(0.6)

    def test_net_below_gross(self):
        f = make_factory(limit=16)
        rate = 0.01
        assert (f.offered_net_utilization(rate, 128)
                < f.offered_gross_utilization(rate, 128))

    def test_expected_work_with_real_service(self):
        f = JobFactory(das_s_128(), das_t_900(), 16,
                       streams=StreamFactory(0))
        assert f.expected_net_work() == pytest.approx(
            das_s_128().mean * das_t_900().mean
        )

    def test_invalid_utilization(self):
        with pytest.raises(ValueError):
            make_factory().arrival_rate_for_gross_utilization(0.0, 128)


class TestArrivalProcess:
    def test_generates_at_requested_rate(self):
        sim = Simulator()
        f = make_factory()
        seen = []
        ArrivalProcess(sim, f, rate=0.5, submit=seen.append,
                       rng=np.random.default_rng(4))
        sim.run(until=10_000.0)
        # Poisson with λ=0.5 over 10000 s → ~5000 arrivals.
        assert len(seen) == pytest.approx(5000, rel=0.1)

    def test_limit_stops_generation(self):
        sim = Simulator()
        f = make_factory()
        seen = []
        ap = ArrivalProcess(sim, f, rate=1.0, submit=seen.append, limit=25,
                            rng=np.random.default_rng(4))
        sim.run()
        assert len(seen) == 25
        assert ap.generated == 25

    def test_arrival_times_strictly_increase(self):
        sim = Simulator()
        f = make_factory()
        times = []
        ArrivalProcess(sim, f, rate=2.0,
                       submit=lambda s: times.append(sim.now), limit=100,
                       rng=np.random.default_rng(4))
        sim.run()
        assert all(b >= a for a, b in zip(times, times[1:]))

    def test_invalid_rate(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            ArrivalProcess(sim, make_factory(), rate=0.0,
                           submit=lambda s: None)


def test_extension_factor_constant_is_125():
    assert EXTENSION_FACTOR == 1.25
