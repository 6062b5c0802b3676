"""Unit tests for output statistics: tallies, time averages, batch means."""

import math

import numpy as np
import pytest

from repro.sim import (
    ConfidenceInterval,
    Histogram,
    RunStats,
    Tally,
    TimeWeighted,
    normal_quantile,
    student_t_quantile,
    t_half_width,
)


class TestTally:
    def test_empty(self):
        t = Tally()
        assert t.count == 0
        assert math.isnan(t.mean)
        assert math.isnan(t.variance)

    def test_single_observation(self):
        t = Tally()
        t.record(5.0)
        assert t.mean == 5.0
        assert math.isnan(t.variance)
        assert t.minimum == t.maximum == 5.0

    def test_matches_numpy(self):
        data = np.random.default_rng(0).normal(10, 3, 1000)
        t = Tally()
        t.record_many(data)
        assert t.mean == pytest.approx(data.mean())
        assert t.variance == pytest.approx(data.var(ddof=1))
        assert t.std == pytest.approx(data.std(ddof=1))
        assert t.minimum == data.min()
        assert t.maximum == data.max()
        assert t.total == pytest.approx(data.sum())

    def test_cv(self):
        t = Tally()
        t.record_many([1.0, 3.0])
        assert t.cv == pytest.approx(math.sqrt(2.0) / 2.0)

    def test_reset(self):
        t = Tally()
        t.record_many([1, 2, 3])
        t.reset()
        assert t.count == 0
        assert math.isnan(t.mean)

    def test_numerical_stability_large_offset(self):
        # Welford must survive a large constant offset.
        t = Tally()
        base = 1e9
        t.record_many([base + x for x in (1.0, 2.0, 3.0)])
        assert t.variance == pytest.approx(1.0)


class TestTimeWeighted:
    def test_piecewise_constant_average(self):
        tw = TimeWeighted()
        tw.update(0.0, 2.0)   # level 2 on [0, 4)
        tw.update(4.0, 6.0)   # level 6 on [4, 10)
        assert tw.mean(10.0) == pytest.approx((2 * 4 + 6 * 6) / 10)

    def test_integral(self):
        tw = TimeWeighted(value=1.0)
        tw.update(5.0, 0.0)
        assert tw.integral(8.0) == pytest.approx(5.0)

    def test_add_delta(self):
        tw = TimeWeighted()
        tw.add(0.0, 3.0)
        tw.add(2.0, -1.0)
        assert tw.value == 2.0
        assert tw.mean(4.0) == pytest.approx((3 * 2 + 2 * 2) / 4)

    def test_reset_discards_history_keeps_level(self):
        tw = TimeWeighted()
        tw.update(0.0, 100.0)
        tw.reset(10.0)
        assert tw.value == 100.0
        tw.update(12.0, 0.0)
        assert tw.mean(20.0) == pytest.approx(100 * 2 / 10)

    def test_extrema(self):
        tw = TimeWeighted()
        tw.update(1.0, 5.0)
        tw.update(2.0, -3.0)
        assert tw.maximum == 5.0
        assert tw.minimum == -3.0

    def test_time_backwards_rejected(self):
        tw = TimeWeighted()
        tw.update(5.0, 1.0)
        with pytest.raises(ValueError):
            tw.update(4.0, 0.0)
        with pytest.raises(ValueError):
            tw.integral(4.0)

    def test_mean_zero_elapsed_is_nan(self):
        tw = TimeWeighted()
        assert math.isnan(tw.mean(0.0))


def _responses(batch_size, values):
    """A :class:`RunStats` fed ``values`` as the responses of zero-size
    departures at one instant, so only its response half moves."""
    stats = RunStats(batch_size)
    for v in values:
        stats.finish(0.0, 0, 0.0, v)
    return stats


def _batch_ci(stats, level=0.95):
    return ConfidenceInterval(
        stats.batch_mean,
        t_half_width(stats.batches, stats.batch_m2, level), level)


class TestBatchMeans:
    """Batch means on the response half of :class:`RunStats`."""

    def test_batching(self):
        stats = _responses(3, [1, 2, 3, 4, 5, 6, 7])
        assert stats.count == 7
        assert stats.batches == 2
        assert stats.batch_mean == pytest.approx((2 + 5) / 2)
        assert stats.mean == pytest.approx(4.0)

    def test_ci_covers_true_mean_for_iid_data(self):
        rng = np.random.default_rng(42)
        ci = _batch_ci(_responses(100, rng.exponential(10.0, 20_000)))
        assert 10.0 in ci
        assert ci.half_width < 1.0

    def test_ci_infinite_with_too_few_batches(self):
        stats = _responses(100, [1.0])
        assert math.isinf(_batch_ci(stats).half_width)
        *_, half = stats.summary(1.0, 1, 0.95)
        assert math.isinf(half)

    def test_ci_coverage_rate(self):
        # Across many replications, the 90% CI must cover the true mean
        # roughly 90% of the time (allow generous slack).
        covered = 0
        reps = 200
        for rep in range(reps):
            rng = np.random.default_rng(rep)
            stats = _responses(50, rng.normal(5.0, 2.0, 1000))
            if 5.0 in _batch_ci(stats, 0.90):
                covered += 1
        assert 0.82 * reps <= covered <= 0.97 * reps

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            RunStats(0)

    def test_ci_properties(self):
        ci = _batch_ci(_responses(2, [1, 2, 3, 4, 5, 6]))
        assert ci.low == pytest.approx(ci.mean - ci.half_width)
        assert ci.high == pytest.approx(ci.mean + ci.half_width)
        assert ci.relative_width > 0


class TestHistogram:
    def test_binning(self):
        h = Histogram(0.0, 10.0, 10)
        for v in [0.5, 1.5, 1.7, 9.9]:
            h.record(v)
        assert h.counts[0] == 1
        assert h.counts[1] == 2
        assert h.counts[9] == 1

    def test_under_overflow(self):
        h = Histogram(0.0, 10.0, 5)
        h.record(-1.0)
        h.record(10.0)
        h.record(100.0)
        assert h.underflow == 1
        assert h.overflow == 2
        assert h.total == 3

    def test_density_sums_to_one(self):
        h = Histogram(0.0, 1.0, 4)
        for v in np.random.default_rng(0).random(100):
            h.record(v)
        assert h.density().sum() == pytest.approx(1.0)

    def test_edges(self):
        h = Histogram(0.0, 10.0, 5)
        assert list(h.edges()) == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            Histogram(1.0, 1.0, 5)
        with pytest.raises(ValueError):
            Histogram(0.0, 1.0, 0)


class TestQuantiles:
    def test_normal_quantile_symmetry(self):
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-9)
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-4)
        assert normal_quantile(0.025) == pytest.approx(-1.959964, abs=1e-4)

    def test_normal_quantile_tails(self):
        assert normal_quantile(0.001) == pytest.approx(-3.090232, abs=1e-4)
        assert normal_quantile(0.999) == pytest.approx(3.090232, abs=1e-4)

    def test_normal_quantile_domain(self):
        with pytest.raises(ValueError):
            normal_quantile(0.0)
        with pytest.raises(ValueError):
            normal_quantile(1.0)

    @pytest.mark.parametrize(
        "df,expected",
        [
            (1, 12.70620),
            (2, 4.30265),
            (5, 2.57058),
            (10, 2.22814),
            (30, 2.04227),
            (100, 1.98397),
        ],
    )
    def test_t_quantile_97_5(self, df, expected):
        # Reference values from standard t tables.
        tol = 0.02 if df <= 5 else 0.005
        assert student_t_quantile(0.975, df) == pytest.approx(expected,
                                                              rel=tol)

    def test_t_quantile_symmetry(self):
        assert student_t_quantile(0.25, 7) == pytest.approx(
            -student_t_quantile(0.75, 7), abs=1e-9
        )

    def test_t_approaches_normal(self):
        assert student_t_quantile(0.975, 10_000) == pytest.approx(
            normal_quantile(0.975), abs=1e-3
        )

    def test_t_domain(self):
        with pytest.raises(ValueError):
            student_t_quantile(0.5, 0)
        with pytest.raises(ValueError):
            student_t_quantile(1.5, 5)
