"""The ``block_equivalent`` contract, checked for every distribution
that declares it.

A distribution declaring ``block_equivalent`` promises that
``sample_array(rng, n)`` returns exactly what ``n`` successive
``sample(rng)`` calls return and leaves the generator in the same
state.  Job streams rely on it: ``sample_exact`` takes the vectorised
path for exactly these distributions, so a dishonest flag would change
every job stream drawn from that distribution.
"""

import inspect

import numpy as np
import pytest

import repro.sim.distributions as dists
from repro.sim.distributions import (
    BoundedPareto,
    ContinuousEmpirical,
    Deterministic,
    DiscreteEmpirical,
    Distribution,
    Erlang,
    Exponential,
    Hyperexponential,
    Lognormal,
    Mixture,
    Scaled,
    TruncatedLognormal,
    Uniform,
    Weibull,
    sample_exact,
)
from repro.workload.distributions import das_s_64, das_s_128, das_t_900
from repro.workload.models import (
    HarmonicSizes,
    LogUniformSizes,
    hypergamma_service,
)

SEEDS = (0, 1, 7, 2**31 + 5)
SIZES_N = (1, 3, 300)


def flagged_instances():
    """One or more instances of every distribution declaring the flag."""
    tln = TruncatedLognormal(Lognormal(50.0, 2.0), 1.0, 900.0)
    return {
        "Deterministic": Deterministic(2.5),
        "Exponential": Exponential(3.0),
        "Uniform": Uniform(-1.0, 4.0),
        "Erlang": Erlang(3, 12.0),
        "Lognormal": Lognormal(10.0, 1.5),
        "Weibull": Weibull(2.0, 0.7),
        "BoundedPareto": BoundedPareto(1.1, 1.0, 1e4),
        "DiscreteEmpirical": DiscreteEmpirical([1, 2, 8, 64],
                                               [5, 3, 1, 1]),
        "Mixture": Mixture([tln, Uniform(880.0, 900.0)], [0.9, 0.1]),
        "Mixture-of-unflagged": Mixture(
            [Hyperexponential(0.3, 1.0, 20.0),
             ContinuousEmpirical([0.0, 1.0, 5.0], [1.0, 2.0])],
            [0.5, 0.5]),
        "Scaled": Scaled(Exponential(100.0), 1.25),
        "Scaled-of-unflagged": Scaled(tln, 1.25),
        "das_s_128": das_s_128(),
        "das_s_64": das_s_64(),
        "das_t_900": das_t_900(),
        "LogUniformSizes": LogUniformSizes(),
        "HarmonicSizes": HarmonicSizes(),
        "hypergamma_service": hypergamma_service(),
    }


INSTANCES = flagged_instances()


def test_every_flagged_class_is_covered():
    flagged = {
        name for name, cls in inspect.getmembers(dists, inspect.isclass)
        if issubclass(cls, Distribution) and cls.block_equivalent
    }
    covered = {type(d).__name__ for d in INSTANCES.values()}
    assert flagged <= covered, flagged - covered
    assert all(d.block_equivalent for d in INSTANCES.values())


@pytest.mark.parametrize("name", sorted(INSTANCES))
@pytest.mark.parametrize("seed", SEEDS)
def test_sample_array_is_n_sample_calls(name, seed):
    dist = INSTANCES[name]
    for n in SIZES_N:
        block_rng = np.random.default_rng(seed)
        scalar_rng = np.random.default_rng(seed)
        block = np.asarray(dist.sample_array(block_rng, n), dtype=float)
        scalar = np.array([dist.sample(scalar_rng) for _ in range(n)],
                          dtype=float)
        assert block.tobytes() == scalar.tobytes(), n
        assert (block_rng.bit_generator.state
                == scalar_rng.bit_generator.state), n


@pytest.mark.parametrize("dist", [
    TruncatedLognormal(Lognormal(50.0, 2.0), 1.0, 900.0),
    Hyperexponential(0.3, 1.0, 20.0),
    ContinuousEmpirical([0.0, 1.0, 5.0], [1.0, 2.0]),
], ids=lambda d: type(d).__name__)
def test_sample_exact_takes_one_sample_call_per_draw_when_unflagged(dist):
    assert not dist.block_equivalent
    exact_rng = np.random.default_rng(3)
    scalar_rng = np.random.default_rng(3)
    exact = sample_exact(dist, exact_rng, 300)
    scalar = np.array([dist.sample(scalar_rng) for _ in range(300)])
    assert exact.tobytes() == scalar.tobytes()
    assert exact_rng.bit_generator.state == scalar_rng.bit_generator.state
