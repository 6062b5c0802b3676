"""Tests for the non-homogeneous (diurnal) arrival process."""

import numpy as np
import pytest

from repro.sim import Deterministic, Simulator, StreamFactory
from repro.workload import JobFactory, das_s_128
from repro.workload.arrivals import DiurnalRate, NHPPArrivalProcess

DAY = 86_400.0


def make_factory(seed=1):
    return JobFactory(das_s_128(), Deterministic(10.0), 16,
                      streams=StreamFactory(seed))


class TestDiurnalRate:
    def test_daily_average_matches_mean_rate(self):
        rate = DiurnalRate(mean_rate=0.01)
        hourly = [rate(h * 3600.0) for h in range(24)]
        assert np.mean(hourly) == pytest.approx(0.01)

    def test_working_hours_peak(self):
        rate = DiurnalRate(0.01)
        assert rate(12 * 3600.0) > rate(3 * 3600.0)
        assert rate.peak_rate == rate(12 * 3600.0)

    def test_wraps_across_days(self):
        rate = DiurnalRate(0.01)
        assert rate(12 * 3600.0) == rate(DAY + 12 * 3600.0)

    def test_custom_profile(self):
        weights = [1.0] * 24
        rate = DiurnalRate(0.02, weights)
        assert rate(0.0) == pytest.approx(0.02)
        assert rate.peak_rate == pytest.approx(0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            DiurnalRate(0.0)
        with pytest.raises(ValueError):
            DiurnalRate(0.01, [1.0] * 23)
        with pytest.raises(ValueError):
            DiurnalRate(0.01, [0.0] * 24)


class TestNHPP:
    def test_mean_rate_preserved(self):
        sim = Simulator()
        rate = DiurnalRate(0.01)
        seen = []
        NHPPArrivalProcess(sim, make_factory(), rate, seen.append,
                           rng=np.random.default_rng(0))
        days = 30
        sim.run(until=days * DAY)
        expected = 0.01 * days * DAY
        assert len(seen) == pytest.approx(expected, rel=0.05)

    def test_diurnal_concentration(self):
        sim = Simulator()
        rate = DiurnalRate(0.01)
        times = []
        NHPPArrivalProcess(sim, make_factory(), rate,
                           lambda s: times.append(sim.now),
                           rng=np.random.default_rng(1))
        sim.run(until=20 * DAY)
        hours = np.array([int((t % DAY) / 3600.0) for t in times])
        work_share = np.mean((hours >= 9) & (hours < 18))
        assert work_share == pytest.approx(0.75, abs=0.03)

    def test_limit(self):
        sim = Simulator()
        seen = []
        ap = NHPPArrivalProcess(sim, make_factory(), DiurnalRate(0.01),
                                seen.append, limit=37,
                                rng=np.random.default_rng(2))
        sim.run()
        assert len(seen) == 37
        assert ap.generated == 37

    def test_acceptance_rate_below_one(self):
        sim = Simulator()
        ap = NHPPArrivalProcess(sim, make_factory(), DiurnalRate(0.01),
                                lambda s: None,
                                rng=np.random.default_rng(3))
        sim.run(until=5 * DAY)
        assert 0.1 < ap.acceptance_rate < 1.0

    def test_flat_profile_matches_homogeneous(self):
        sim = Simulator()
        rate = DiurnalRate(0.005, [1.0] * 24)
        seen = []
        NHPPArrivalProcess(sim, make_factory(), rate, seen.append,
                           rng=np.random.default_rng(4))
        sim.run(until=30 * DAY)
        assert len(seen) == pytest.approx(0.005 * 30 * DAY, rel=0.05)

    def test_rejects_bad_rate_object(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            NHPPArrivalProcess(sim, make_factory(), object(),  # type: ignore
                               lambda s: None)

    def test_pinned_arrivals_for_fixed_seed(self):
        """Accepted arrival times and thinning counts, pinned exactly."""
        sim = Simulator()
        seen = []
        ap = NHPPArrivalProcess(
            sim, make_factory(5), DiurnalRate(0.01),
            lambda spec: seen.append((sim.now, spec.index)), limit=12,
            rng=np.random.default_rng(11))
        sim.run()
        assert seen == [
            (67.60000562588947, 0), (76.99956733582567, 1),
            (159.7098874897023, 2), (754.8389157372002, 3),
            (944.9171113627164, 4), (1169.96746361402, 5),
            (1183.325886370208, 6), (1378.0641011126754, 7),
            (1386.7262920470382, 8), (1459.5874804095656, 9),
            (1546.8634890635537, 10), (1911.7828957010427, 11),
        ]
        assert (ap.candidates, ap.generated) == (43, 12)

    def test_drives_full_simulation(self):
        from repro.core import MulticlusterSimulation

        system = MulticlusterSimulation("GS")
        factory = make_factory(9)
        rate = DiurnalRate(0.003)
        NHPPArrivalProcess(system.sim, factory, rate, system.submit,
                           limit=300, rng=np.random.default_rng(5))
        system.sim.run()
        assert system.jobs_finished == 300
        assert system.multicluster.total_free == 128
