"""Property-based tests (hypothesis) for the simulation engine substrate."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    DiscreteEmpirical,
    RunStats,
    Simulator,
    Tally,
    TimeWeighted,
)

delays = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
              allow_infinity=False),
    min_size=1,
    max_size=40,
)


@given(delays)
def test_events_always_processed_in_nondecreasing_time(ds):
    sim = Simulator()
    seen = []
    for d in ds:
        ev = sim.timeout(d)
        ev.callbacks.append(lambda e: seen.append(sim.now))
    sim.run()
    assert seen == sorted(seen)
    assert len(seen) == len(ds)


@given(delays)
def test_clock_never_goes_backwards_through_nested_scheduling(ds):
    # Each first-stage callback schedules a second stage from inside
    # the event loop; the clock must still only move forward.
    sim = Simulator()
    times = []

    def second(_event):
        times.append(sim.now)

    def first(event):
        times.append(sim.now)
        sim.defer(event.value, (second,))

    for d in ds:
        sim.defer(d, (first,), d)
    sim.run()
    assert times == sorted(times)
    assert len(times) == 2 * len(ds)


@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=2,
        max_size=200,
    )
)
def test_tally_agrees_with_numpy(values):
    t = Tally()
    t.record_many(values)
    arr = np.asarray(values)
    assert math.isclose(t.mean, arr.mean(), rel_tol=1e-9, abs_tol=1e-6)
    assert math.isclose(
        t.variance, arr.var(ddof=1), rel_tol=1e-6, abs_tol=1e-3
    )
    assert t.minimum == arr.min()
    assert t.maximum == arr.max()


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.001, max_value=100.0, allow_nan=False),
            st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
        ),
        min_size=1,
        max_size=50,
    )
)
def test_time_weighted_mean_is_within_signal_range(steps):
    tw = TimeWeighted()
    t = 0.0
    lo, hi = 0.0, 0.0
    for dt, level in steps:
        t += dt
        tw.update(t, level)
        lo = min(lo, level)
        hi = max(hi, level)
    end = t + 1.0
    mean = tw.mean(end)
    assert lo - 1e-9 <= mean <= hi + 1e-9


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
        min_size=4,
        max_size=200,
    ),
    st.integers(min_value=1, max_value=20),
)
def test_batch_means_grand_mean_matches_tally(values, batch):
    stats = RunStats(batch)
    t = Tally()
    for v in values:
        stats.finish(0.0, 0, 0.0, v)
        t.record(v)
    assert math.isclose(stats.mean, t.mean, rel_tol=1e-9, abs_tol=1e-9)
    assert stats.batches == len(values) // batch


@given(
    st.dictionaries(
        st.integers(min_value=1, max_value=128),
        st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
        min_size=1,
        max_size=30,
    )
)
def test_discrete_empirical_invariants(masses):
    values = sorted(masses)
    weights = [masses[v] for v in values]
    d = DiscreteEmpirical(values, weights)
    # Probabilities sum to one, CDF is monotone and hits 1 at the top.
    assert math.isclose(float(d.probabilities.sum()), 1.0, rel_tol=1e-9)
    cdf_vals = [d.cdf(v) for v in values]
    assert all(b >= a for a, b in zip(cdf_vals, cdf_vals[1:]))
    assert math.isclose(cdf_vals[-1], 1.0, rel_tol=1e-9)
    # The mean lies inside the support hull.
    assert values[0] <= d.mean <= values[-1]
    # Sampling stays within support.
    draws = d.sample_array(np.random.default_rng(0), 500)
    assert set(np.unique(draws)).issubset(set(float(v) for v in values))


@given(st.integers(min_value=0, max_value=2**32 - 1), delays)
@settings(max_examples=25)
def test_simulation_is_deterministic_for_fixed_seed(seed, ds):
    def run_once():
        sim = Simulator()
        rng = np.random.default_rng(seed)
        order = []

        def record(_event):
            order.append(sim.now)

        for d in ds:
            sim.defer(d + rng.random(), (record,))
        sim.run()
        return order

    assert run_once() == run_once()
