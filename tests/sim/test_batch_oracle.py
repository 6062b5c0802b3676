"""Differential oracle: the batch backend vs. the scalar engine.

The batch backend's contract is *exact* per-replication equality: for
every seed, every :class:`~repro.analysis.points.SweepPoint` statistic
must match the scalar engine bit for bit — same RNG draw sequence,
same event order, same float reduction order.  These tests enforce the
contract across the configuration space the paper exercises: all four
policies, component limits 16/24/32, balanced and unbalanced routing,
every placement rule, batch widths 1/2/7/32, and ragged termination (replications finishing
after different event counts).

Any failure here is a real divergence, never tolerance noise: there is
no approx anywhere in this file.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.points import SweepPoint
from repro.core.placement import PLACEMENT_RULES
from repro.core.system import SimulationConfig, run_open_system
from repro.sim.batch import BatchBackendError, run_batch_points
from repro.sim.rng import StreamFactory
from repro.workload import stats_model
from repro.workload.distributions import das_s_128, das_t_900
from repro.workload.generator import JobFactory

SIZES = das_s_128()
SERVICE = das_t_900()
BALANCED = stats_model.BALANCED_WEIGHTS
UNBALANCED = stats_model.UNBALANCED_WEIGHTS


def make_config(policy, limit, weights, seed=7, warmup=50, measured=200):
    if policy == "SC":
        return SimulationConfig.single_cluster(
            seed=seed, warmup_jobs=warmup, measured_jobs=measured,
            batch_size=50,
        )
    return SimulationConfig(
        policy=policy, component_limit=limit, routing_weights=weights,
        seed=seed, warmup_jobs=warmup, measured_jobs=measured,
        batch_size=50,
    )


def scalar_points(config, offered, seeds):
    """Per-seed oracle points from the scalar reference engine."""
    factory = JobFactory(
        SIZES, SERVICE, config.component_limit,
        clusters=len(config.capacities),
        extension_factor=config.extension_factor,
        routing_weights=config.routing_weights,
        streams=StreamFactory(0),
    )
    rate = factory.arrival_rate_for_gross_utilization(
        offered, config.capacity
    )
    points = []
    for seed in seeds:
        cfg = dataclasses.replace(config, seed=seed)
        points.append(SweepPoint.from_result(
            run_open_system(cfg, SIZES, SERVICE, rate)
        ))
    return points


def assert_identical(config, offered, seeds):
    expected = scalar_points(config, offered, seeds)
    actual = run_batch_points(config, SIZES, SERVICE, offered, seeds)
    assert len(actual) == len(seeds)
    for seed, want, got in zip(seeds, expected, actual):
        assert got == want, (
            f"seed {seed}: batch {got} != scalar {want}"
        )


# -- deterministic smoke over the full policy set -------------------------

@pytest.mark.parametrize("policy", ["GS", "LS", "LP", "SC"])
def test_every_policy_matches_scalar_at_width_two(policy):
    config = make_config(policy, 16, BALANCED)
    assert_identical(config, 0.6, [7, 1007])


@pytest.mark.parametrize("limit", [16, 24, 32])
def test_component_limits_match_scalar(limit):
    config = make_config("GS", limit, BALANCED)
    assert_identical(config, 0.7, [3, 1003])


@pytest.mark.parametrize("policy", ["LS", "LP"])
def test_unbalanced_routing_matches_scalar(policy):
    config = make_config(policy, 16, UNBALANCED)
    assert_identical(config, 0.75, [11, 1011, 2011])


def test_width_one_equals_scalar():
    config = make_config("LP", 24, BALANCED)
    assert_identical(config, 0.8, [42])


def test_width_32_lockstep_matches_scalar():
    config = make_config("GS", 16, BALANCED, warmup=20, measured=100)
    seeds = [7 + 1000 * i for i in range(32)]
    assert_identical(config, 0.65, seeds)


# -- hypothesis sweep over the configuration space ------------------------

config_space = st.tuples(
    st.sampled_from(["GS", "LS", "LP", "SC"]),
    st.sampled_from([16, 24, 32]),
    st.sampled_from([BALANCED, UNBALANCED]),
    st.sampled_from([1, 2, 7]),
    st.sampled_from([0.45, 0.7, 0.9]),
    st.integers(min_value=0, max_value=10_000),
)


@settings(max_examples=15, deadline=None)
@given(config_space)
def test_batch_matches_scalar_across_config_space(params):
    policy, limit, weights, width, offered, base_seed = params
    config = make_config(policy, limit, weights, warmup=30, measured=120)
    seeds = [base_seed + 1000 * i for i in range(width)]
    assert_identical(config, offered, seeds)


# -- ragged termination ----------------------------------------------------

def test_ragged_termination_keeps_lanes_independent():
    """Lanes finish after different event counts; survivors continue.

    At rho 0.9 seeds saturate at visibly different depths, so the
    per-seed end times — and therefore every statistic — diverge
    across lanes.  Each must still match its own scalar run exactly.
    """
    config = make_config("LS", 16, UNBALANCED, warmup=50, measured=300)
    seeds = [5 + 1000 * i for i in range(7)]
    expected = scalar_points(config, 0.9, seeds)
    actual = run_batch_points(config, SIZES, SERVICE, 0.9, seeds)
    assert actual == expected
    # The case is only meaningful if termination really was ragged:
    # distinct seeds must produce distinct measured utilizations.
    gross = [p.gross_utilization for p in actual]
    assert len(set(gross)) == len(gross)


# -- the placement kernels agree decision-for-decision ---------------------

def worst_fit_batch(components, free):
    """Vectorized Worst Fit over distinct clusters, one job per lane.

    ``components`` is a ``(k, C)`` int64 array whose row ``i`` holds
    lane ``i``'s component sizes in non-increasing order, zero-padded;
    ``free`` holds the matching idle-processor counts and is not
    modified.  Returns ``(fit, alloc)``: whether every component of
    the lane's job found a distinct feasible cluster, and the
    processors taken per cluster (all zeros for lanes that do not fit).

    Components are consumed column by column, i.e. in non-increasing
    size order; each goes to the feasible cluster with the most idle
    processors, and ``np.argmax`` takes the first occurrence, which is
    the scalar kernel's lowest-index tie-break.
    """
    import numpy as np

    k, _ = free.shape
    scratch = free.copy()
    alloc = np.zeros_like(free)
    fit = np.ones(k, dtype=bool)
    for col in range(components.shape[1]):
        comp = components[:, col]
        live = fit & (comp > 0)
        if not live.any():
            break
        # Infeasible (or already used, scratch == -1) clusters become
        # -1, so ``best < 0`` means no fit.
        feasible = np.where(scratch >= comp[:, None], scratch, -1)
        best = feasible.max(axis=1)
        best_idx = feasible.argmax(axis=1)
        placed = live & (best >= 0)
        fit &= placed | ~live
        rows = np.nonzero(placed)[0]
        scratch[rows, best_idx[rows]] = -1  # distinct clusters
        alloc[rows, best_idx[rows]] = comp[rows]
    alloc[~fit] = 0
    return fit, alloc


placement_space = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=64),
        st.lists(st.integers(min_value=0, max_value=32),
                 min_size=4, max_size=4),
    ),
    min_size=1, max_size=16,
)


@settings(max_examples=150, deadline=None)
@given(placement_space, st.sampled_from([16, 24, 32]))
def test_worst_fit_batch_matches_scalar_kernel(cases, limit):
    """worst_fit_batch == the scalar Worst Fit, lane for lane.

    The per-lane engine memoizes the same decisions (its differential
    pin is the whole-run tests above); this pins the vectorized oracle
    to the scalar kernel, so the two independent formulations of the
    decision order stay mutually exact.
    """
    import numpy as np

    from repro.core.placement import place_components
    from repro.workload.splitting import split_size

    comp_rows = []
    frees = []
    expected = []
    for size, free in cases:
        comps = split_size(size, limit, 4)
        comp_rows.append(list(comps) + [0] * (4 - len(comps)))
        frees.append(free)
        expected.append(place_components(comps, free, "worst-fit"))
    fit, alloc = worst_fit_batch(
        np.array(comp_rows, dtype=np.int64),
        np.array(frees, dtype=np.int64),
    )
    for lane, want in enumerate(expected):
        if want is None:
            assert not fit[lane]
            assert not alloc[lane].any()
        else:
            assert fit[lane]
            totals = [0, 0, 0, 0]
            for cluster, processors in want:
                totals[cluster] += processors
            assert alloc[lane].tolist() == totals


# -- unsupported configurations fail loudly, never silently ----------------

def test_unknown_policy_is_rejected():
    config = SimulationConfig(policy="GS", warmup_jobs=10, measured_jobs=10)
    config = dataclasses.replace(config, policy="FCFS-elsewhere")
    with pytest.raises(BatchBackendError):
        run_batch_points(config, SIZES, SERVICE, 0.5, [1])


@pytest.mark.parametrize("policy", ["GS", "LS", "LP", "SC"])
@pytest.mark.parametrize("placement", sorted(PLACEMENT_RULES))
def test_every_placement_rule_matches_scalar(placement, policy):
    config = dataclasses.replace(make_config(policy, 16, BALANCED),
                                 placement=placement)
    assert_identical(config, 0.75, [7, 1007])


def test_placement_rules_give_different_points():
    # Guards the test above: the rules must move the points, or a
    # kernel that ignored its placement rule would pass it.
    base = make_config("GS", 16, BALANCED)
    points = {
        rule: scalar_points(dataclasses.replace(base, placement=rule),
                            0.75, [7, 1007])
        for rule in PLACEMENT_RULES
    }
    assert points["first-fit"] != points["worst-fit"]
    assert points["best-fit"] != points["worst-fit"]


def test_unknown_placement_is_rejected():
    config = SimulationConfig(policy="GS", placement="random-fit",
                              warmup_jobs=10, measured_jobs=10)
    with pytest.raises(BatchBackendError):
        run_batch_points(config, SIZES, SERVICE, 0.5, [1])


def test_empty_seed_list_is_rejected():
    config = SimulationConfig(policy="GS")
    with pytest.raises(BatchBackendError):
        run_batch_points(config, SIZES, SERVICE, 0.5, [])
