"""Heterogeneous lanes: one kernel, many configurations, exact oracle.

``test_batch_oracle.py`` pins the homogeneous case — N seeds of one
configuration.  This file pins what PR 9 generalized: lanes of one
:class:`~repro.sim.batch.BatchLaneKernel` may differ in arrival rate,
component limit, routing weights, warmup/measured targets and batch
size, and retired lanes may be *reloaded* with fresh work mid-flight.
Every lane must still reproduce its own scalar run bit for bit — the
same no-approx contract as the oracle suite.

Lanes of one seed share the kernel's read-only record of that seed's
raw draws (common random numbers).  ``TestSharedSeedLanes`` loads
such lanes with everything else different, at several widths, and
pins each point to the scalar run and to the lane run alone.

Also pinned here: the bounded placement memo.  Capping the cache
changes *which* placements are memoized, never what any placement
decision is, so a cap-1 kernel and an unbounded one are byte-identical
— only the eviction counters differ.
"""

import dataclasses

import pytest

from repro.analysis.points import SweepPoint
from repro.core.system import SimulationConfig, run_open_system
from repro.obs.registry import REGISTRY
from repro.runner.task import RunTask
from repro.sim.batch import (
    PLACE_CACHE_CAP,
    BatchBackendError,
    BatchLaneKernel,
    run_batch_task,
)
from repro.sim.rng import StreamFactory
from repro.workload import stats_model
from repro.workload.distributions import das_s_128, das_t_900
from repro.workload.generator import JobFactory

SIZES = das_s_128()
SERVICE = das_t_900()
BALANCED = stats_model.BALANCED_WEIGHTS
UNBALANCED = stats_model.UNBALANCED_WEIGHTS


def make_config(policy, limit=16, weights=BALANCED, seed=7, warmup=50,
                measured=200, batch=50):
    if policy == "SC":
        return SimulationConfig.single_cluster(
            seed=seed, warmup_jobs=warmup, measured_jobs=measured,
            batch_size=batch,
        )
    return SimulationConfig(
        policy=policy, component_limit=limit, routing_weights=weights,
        seed=seed, warmup_jobs=warmup, measured_jobs=measured,
        batch_size=batch,
    )


def scalar_point(config, offered):
    """The scalar engine's point for one (config, offered) cell."""
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
    return SweepPoint.from_result(
        run_open_system(config, SIZES, SERVICE, rate)
    )


def run_hetero(policy_template, cells, width, **kernel_kw):
    """Feed ``cells`` ((config, offered) pairs) through ``width`` lanes.

    Retired lanes are refilled from the remaining cells, so any
    ``width < len(cells)`` exercises mid-flight slot reuse.  Returns
    points in cell order.
    """
    kernel = BatchLaneKernel(policy_template, SIZES, SERVICE, width,
                             **kernel_kw)
    pending = list(enumerate(cells))
    free = list(range(width))
    loaded = {}
    points = {}
    while pending or not kernel.idle:
        while free and pending:
            slot = free.pop()
            index, (config, offered) = pending.pop(0)
            kernel.load(slot, config, offered)
            loaded[slot] = index
        kernel.step()
        for slot, point in kernel.drain_retired():
            points[loaded.pop(slot)] = point
            free.append(slot)
    return [points[i] for i in range(len(cells))], kernel


class TestHeterogeneousLanes:
    def test_mixed_rho_limit_and_seed_lanes_match_scalar(self):
        """Every lane differs in load, limit and seed at once."""
        cells = [
            (make_config("GS", limit=limit, seed=seed), offered)
            for limit, seed, offered in [
                (16, 7, 0.45), (24, 1007, 0.65), (32, 2007, 0.8),
                (16, 3007, 0.8), (24, 4007, 0.45),
            ]
        ]
        template = cells[0][0]
        actual, _ = run_hetero(template, cells, width=len(cells))
        for (config, offered), got in zip(cells, actual):
            assert got == scalar_point(config, offered)

    def test_mixed_run_lengths_and_batch_sizes_match_scalar(self):
        """Warmup, measured-job and batch-means targets are per lane."""
        cells = [
            (make_config("LS", warmup=w, measured=m, batch=b,
                         seed=100 + 7 * i), 0.7)
            for i, (w, m, b) in enumerate(
                [(0, 120, 30), (50, 200, 50), (25, 300, 100),
                 (80, 160, 40)])
        ]
        template = cells[0][0]
        actual, _ = run_hetero(template, cells, width=len(cells))
        for (config, offered), got in zip(cells, actual):
            assert got == scalar_point(config, offered)

    def test_mixed_routing_weights_match_scalar(self):
        """Balanced and unbalanced queue routing coexist as lanes."""
        cells = [
            (make_config("LP", weights=BALANCED, seed=11), 0.75),
            (make_config("LP", weights=UNBALANCED, seed=11), 0.75),
            (make_config("LP", weights=UNBALANCED, seed=2011), 0.6),
        ]
        template = cells[0][0]
        actual, _ = run_hetero(template, cells, width=len(cells))
        for (config, offered), got in zip(cells, actual):
            assert got == scalar_point(config, offered)

    @pytest.mark.parametrize("policy", ["GS", "LS", "LP", "SC"])
    def test_refill_with_fewer_lanes_than_cells(self, policy):
        """width 2 over 5 cells: three slots are reused mid-flight."""
        limits = [16, 24, 32, 16, 24]
        rhos = [0.5, 0.7, 0.6, 0.8, 0.45]
        cells = [
            (make_config(policy, limit=limit, seed=7 + 1000 * i,
                         warmup=30, measured=120, batch=30), rho)
            for i, (limit, rho) in enumerate(zip(limits, rhos))
        ]
        template = cells[0][0]
        actual, _ = run_hetero(template, cells, width=2)
        for (config, offered), got in zip(cells, actual):
            assert got == scalar_point(config, offered)

    def test_load_rejects_occupied_and_mismatched_slots(self):
        config = make_config("GS")
        kernel = BatchLaneKernel(config, SIZES, SERVICE, 2)
        kernel.load(0, config, 0.6)
        with pytest.raises(BatchBackendError):
            kernel.load(0, dataclasses.replace(config, seed=8), 0.6)
        with pytest.raises(BatchBackendError):
            kernel.load(1, make_config("LS"), 0.6)
        with pytest.raises(BatchBackendError):
            kernel.load(2, config, 0.6)


SHARED_SEED = 5


def shared_seed_cells(policy):
    """Lanes of one seed that differ in everything else a lane carries:
    component limit, load, routing weights, run lengths, batch size.
    The two long lanes span several prefetch chunks, so the later one
    reads chunks past the first from the shared record."""
    return [
        (make_config(policy, limit=16, seed=SHARED_SEED), 0.5),
        (make_config(policy, limit=24, weights=UNBALANCED,
                     seed=SHARED_SEED, measured=650, batch=65), 0.7),
        (make_config(policy, limit=32, seed=SHARED_SEED, warmup=0,
                     measured=120, batch=30), 0.8),
        (make_config(policy, limit=16, weights=UNBALANCED,
                     seed=SHARED_SEED, warmup=80, measured=700,
                     batch=100), 0.45),
        (make_config(policy, limit=24, seed=SHARED_SEED, warmup=25,
                     measured=160, batch=40), 0.6),
    ]


class TestSharedSeedLanes:
    @pytest.mark.parametrize("policy", ["GS", "LS", "LP", "SC"])
    def test_shared_seed_lanes_match_alone_and_scalar(self, policy):
        """Width 1 drops the seed's record between lanes and redraws
        it; width 2 shares it while lanes refill; wide kernels share it
        across every cell."""
        cells = shared_seed_cells(policy)
        scalar = [repr(scalar_point(config, offered))
                  for config, offered in cells]
        alone = [repr(run_batch_task(RunTask(config, SIZES, SERVICE,
                                             offered)))
                 for config, offered in cells]
        assert alone == scalar
        for width in (1, 2, len(cells), len(cells) + 2):
            points, kernel = run_hetero(cells[0][0], cells, width)
            assert [repr(point) for point in points] == scalar, width
            assert kernel.idle and kernel._draws == {}

    def test_lane_loaded_after_its_seed_mates_retired_redraws(self):
        cells = shared_seed_cells("LS")
        kernel = BatchLaneKernel(cells[0][0], SIZES, SERVICE, 2)
        for slot, (config, offered) in enumerate(cells[:2]):
            kernel.load(slot, config, offered)
        assert list(kernel._draws) == [SHARED_SEED]
        while not kernel.idle:
            kernel.step()
        kernel.drain_retired()
        assert kernel._draws == {}
        config, offered = cells[3]
        drawn = REGISTRY.counter("batch.draws.chunks").value
        kernel.load(0, config, offered)
        assert REGISTRY.counter("batch.draws.chunks").value == drawn + 1
        kernel.step()
        [(_, point)] = kernel.drain_retired()
        assert repr(point) == repr(scalar_point(config, offered))
        assert kernel._draws == {}

    def test_draw_counters_count_drawn_and_shared_chunks(self):
        """Two identical lanes of one seed: the second reads every chunk
        the first drew; one slot apart, each draws its own."""
        config = make_config("GS", seed=SHARED_SEED, warmup=50,
                             measured=700)
        cells = [(config, 0.6)] * 2

        def deltas(width):
            drawn = REGISTRY.counter("batch.draws.chunks").value
            shared = REGISTRY.counter("batch.draws.shared").value
            run_hetero(config, cells, width)
            return (REGISTRY.counter("batch.draws.chunks").value - drawn,
                    REGISTRY.counter("batch.draws.shared").value - shared)

        drawn, shared = deltas(width=2)
        assert drawn >= 3 and shared == drawn
        assert deltas(width=1) == (2 * drawn, 0)


class TestBoundedPlacementMemo:
    def test_default_cap_is_bounded(self):
        assert BatchLaneKernel(make_config("GS"), SIZES, SERVICE, 1
                               )._place_cap == PLACE_CACHE_CAP

    def test_cap_one_is_byte_identical_to_unbounded(self):
        """Eviction pressure changes memoization, never decisions."""
        cells = [
            (make_config("GS", limit=limit, seed=7 + 1000 * i,
                         warmup=30, measured=150, batch=30), rho)
            for i, (limit, rho) in enumerate(
                zip([16, 24, 32], [0.7, 0.8, 0.75]))
        ]
        template = cells[0][0]
        capped, capped_kernel = run_hetero(
            template, cells, width=3, place_cache_cap=1)
        unbounded, roomy_kernel = run_hetero(
            template, cells, width=3, place_cache_cap=1 << 30)
        assert capped == unbounded
        assert capped_kernel.place_evictions > 0
        assert roomy_kernel.place_evictions == 0

    def test_evictions_feed_the_registry_counter(self):
        counter = REGISTRY.counter("batch.place_cache.evictions")
        before = counter.value
        cells = [(make_config("GS", warmup=20, measured=100,
                              batch=25), 0.7)]
        _, kernel = run_hetero(cells[0][0], cells, width=1,
                               place_cache_cap=1)
        assert kernel.place_evictions > 0
        assert counter.value - before == kernel.place_evictions

    def test_invalid_cap_is_rejected(self):
        with pytest.raises(BatchBackendError):
            BatchLaneKernel(make_config("GS"), SIZES, SERVICE, 1,
                            place_cache_cap=0)
