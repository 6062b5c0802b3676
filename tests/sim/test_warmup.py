"""Audit of the fixed warmup budgets with the MSER-5 truncation rule.

The run drivers discard a fixed number of completions (cheap,
reproducible).  The MSER rule (White 1997; MSER-5 averages observations
into groups of five first) picks the truncation point that minimises
the standard error of the remaining data's mean; these tests use it as
an oracle to check that the fixed budget covers the initial transient
of a representative run.
"""

import numpy as np


def mser_truncation_point(values, group=5, max_fraction=0.5):
    """The MSER(-``group``) truncation point, in raw observations.

    Only candidates in the first ``max_fraction`` of the series count:
    a run whose transient looks longer than that is too short to trust.
    """
    x = np.asarray(values, dtype=float)
    n = (x.size // group) * group
    grouped = x[:n].reshape(-1, group).mean(axis=1)
    limit = max(1, int(grouped.size * max_fraction))
    # Suffix statistics: mean/var of grouped[d:] for every d.
    suffix_sum = np.cumsum(grouped[::-1])[::-1]
    suffix_sq = np.cumsum((grouped ** 2)[::-1])[::-1]
    counts = np.arange(grouped.size, 0, -1, dtype=float)
    means = suffix_sum / counts
    objective = (suffix_sq / counts - means**2) / counts
    return int(np.argmin(objective[:limit])) * group


def transient_series(transient_len=200, total=2_000, seed=0):
    """A decaying transient followed by stationary noise."""
    rng = np.random.default_rng(seed)
    t = np.arange(total, dtype=float)
    drift = 50.0 * np.exp(-t / (transient_len / 3.0))
    return 100.0 + drift + rng.normal(0, 5.0, total)


class TestWarmupAdequacy:
    def test_fixed_budget_audit(self):
        # The oracle itself sees a planted transient.
        d = mser_truncation_point(transient_series(transient_len=200))
        assert 50 <= d <= 600

    def test_audits_the_actual_simulation_driver(self):
        # The fixed warmup used by the benchmark harness must cover the
        # MSER-detected transient of a representative run.
        from repro.core import SimulationConfig
        from repro.core.system import _build
        from repro.sim.rng import StreamFactory
        from repro.workload import (
            ArrivalProcess,
            JobFactory,
            das_s_128,
            das_t_900,
        )

        sizes, service = das_s_128(), das_t_900()
        config = SimulationConfig(policy="GS", component_limit=16,
                                  warmup_jobs=1_000,
                                  measured_jobs=0, seed=8)
        system, factory = _build(config, sizes, service)
        rate = JobFactory(
            sizes, service, 16, streams=StreamFactory(8)
        ).arrival_rate_for_gross_utilization(0.5, 128)
        responses = []
        system.on_departure_hook = (
            lambda job: responses.append(job.response_time)
        )
        ArrivalProcess(system.sim, factory, rate, system.submit,
                       limit=None,
                       rng=StreamFactory(8).get("arrivals.iat"))
        while system.jobs_finished < 6_000:
            system.sim.step()
        d = mser_truncation_point(responses)
        assert d <= config.warmup_jobs, (
            f"MSER wants {d} but the fixed budget is "
            f"{config.warmup_jobs}"
        )
