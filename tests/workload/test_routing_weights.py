"""Routing weights are validated once, and both engines share the check.

:class:`~repro.workload.generator.QueueRouter` is the one validation:
the scalar engine routes through its job factory's router and the
batch kernel reads the router of its lane profile's factory.  A
non-finite weight used to pass (NaN compares false against every
bound) and ran to a point on both engines.
"""

import math

import pytest

from repro.analysis.points import SweepPoint
from repro.core.system import SimulationConfig, run_open_system
from repro.sim.batch import run_batch_points
from repro.workload.distributions import das_s_128, das_t_900
from repro.workload.generator import JobFactory

BAD_WEIGHTS = [
    (math.nan, 1.0, 1.0, 1.0),
    (1.0, 1.0, 1.0, math.inf),
    (1.0, -math.inf, 1.0, 1.0),
    (-1.0, 1.0, 1.0, 1.0),
    (0.0, 0.0, 0.0, 0.0),
]


def config(weights, policy="LS", **fields):
    return SimulationConfig(policy=policy, routing_weights=weights,
                            warmup_jobs=20, measured_jobs=60,
                            batch_size=10, seed=3, **fields)


@pytest.mark.parametrize("weights", BAD_WEIGHTS, ids=repr)
def test_scalar_engine_rejects_bad_weights(weights):
    with pytest.raises(ValueError, match="weights must be finite"):
        run_open_system(config(weights), das_s_128(), das_t_900(),
                        arrival_rate=0.02)


@pytest.mark.parametrize("weights", BAD_WEIGHTS, ids=repr)
def test_batch_kernel_rejects_bad_weights(weights):
    with pytest.raises(ValueError, match="weights must be finite"):
        run_batch_points(config(weights), das_s_128(), das_t_900(),
                         offered_gross=0.5, seeds=(3,))


@pytest.mark.parametrize("cfg", [
    config((0.5, 0.5)),
    config((1.0, 2.0, 3.0, 4.0, 5.0), policy="LP"),
    SimulationConfig.single_cluster(warmup_jobs=20, measured_jobs=60,
                                    batch_size=10, seed=3),
], ids=lambda c: f"{c.policy}-{len(c.routing_weights)}-weights")
def test_weight_count_other_than_clusters_still_wraps(cfg):
    """A weight list of another length than the cluster count is
    accepted, and both engines wrap queue indices modulo the clusters
    alike."""
    sizes, service = das_s_128(), das_t_900()
    rate = JobFactory(sizes, service, cfg.component_limit,
                      clusters=len(cfg.capacities),
                      routing_weights=cfg.routing_weights
                      ).arrival_rate_for_gross_utilization(0.5, cfg.capacity)
    (point,) = run_batch_points(cfg, sizes, service, offered_gross=0.5,
                                seeds=(cfg.seed,))
    scalar = SweepPoint.from_result(run_open_system(cfg, sizes, service,
                                                    rate))
    assert point == scalar
