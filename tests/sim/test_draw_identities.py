"""The two numeric identities that let batch lanes share one seed's draws.

:class:`~repro.sim.batch.BatchLaneKernel` draws a seed's *standard*
exponentials once and lets each lane scale them by its own mean
inter-arrival time, then accumulates arrival times with
``itertools.accumulate``.  The scalar engine instead calls
``Generator.exponential(mean, n)`` and chains ``now + delay`` one add
at a time.  Both sides agree bit for bit only while these identities
hold; a numpy or CPython change that breaks one fails here, by name,
rather than as a golden-fixture diff.
"""

from itertools import accumulate

import pytest

from repro.core.system import SimulationConfig
from repro.sim.rng import StreamFactory
from repro.workload.distributions import das_s_128, das_t_900
from repro.workload.generator import DEFAULT_DRAW_BATCH, JobFactory

SEEDS = (0, 1, 3, 7, 2**31 + 5)


def suite_means():
    """``1 / rate`` for the paper grid's loads and policies' shapes."""
    sizes, service = das_s_128(), das_t_900()
    means = []
    for limit in (None, 16, 24, 32):
        config = (SimulationConfig.single_cluster() if limit is None
                  else SimulationConfig(policy="GS", component_limit=limit))
        factory = JobFactory(
            sizes, service, config.component_limit,
            clusters=len(config.capacities),
            extension_factor=config.extension_factor,
            routing_weights=config.routing_weights,
            streams=StreamFactory(0),
        )
        for offered in (0.3, 0.4, 0.45, 0.5, 0.6, 0.7, 0.75, 0.8):
            rate = factory.arrival_rate_for_gross_utilization(
                offered, config.capacity)
            means.append(1.0 / rate)
    return means


SCALES = (1.0, 0.5, 3.0, 1e-3, 1234.5678, *suite_means())


@pytest.mark.parametrize("seed", SEEDS)
def test_exponential_is_scaled_standard_exponential(seed):
    """``exponential(scale, n)`` == ``scale * standard_exponential(n)``."""
    for scale in SCALES:
        direct = StreamFactory(seed).get("arrivals.iat").exponential(
            scale, DEFAULT_DRAW_BATCH)
        shared = StreamFactory(seed).get("arrivals.iat").standard_exponential(
            DEFAULT_DRAW_BATCH)
        assert (scale * shared).tobytes() == direct.tobytes(), scale


@pytest.mark.parametrize("seed", SEEDS)
def test_accumulate_is_the_sequential_add_loop(seed):
    """``accumulate(initial=t)`` performs the scalar ``t = t + d`` chain."""
    rng = StreamFactory(seed).get("arrivals.iat")
    for start in (0.0, 1e-9, 12345.678):
        deltas = rng.exponential(37.5, DEFAULT_DRAW_BATCH).tolist()
        loop = []
        t = start
        for d in deltas:
            t = t + d
            loop.append(t)
        assert list(accumulate(deltas, initial=start))[1:] == loop
