"""Determinism regression: one master seed => byte-identical runs.

The engine promises fully deterministic event ordering — events are
processed in (time, priority, insertion order) — and all stochastic
draws flow through named StreamFactory substreams.  Together these mean
that two simulations built from the same ``SimulationConfig`` must
produce *identical* traces and metrics, which is exactly what the
common-random-numbers policy comparisons rely on.  This test replays a
GS run twice and compares the full event trace and the report
byte-for-byte, guarding both contracts at once.
"""

from __future__ import annotations

import json

import numpy as np

from repro.core import SimulationConfig, run_open_system
from repro.core import system as system_module
from repro.core.system import MulticlusterSimulation
from repro.sim.rng import StreamFactory
from repro.sim.trace import Tracer
from repro.workload import WORKLOADS, das_t_900
from repro.workload.generator import ArrivalProcess, JobFactory, JobSpec
from repro.workload.splitting import split_size


def _one_run(seed: int) -> tuple[bytes, bytes]:
    """(trace bytes, report bytes) of one small GS open-system run."""
    config = SimulationConfig(
        policy="GS",
        component_limit=16,
        seed=seed,
        warmup_jobs=50,
        measured_jobs=300,
        batch_size=25,
    )
    tracer = Tracer()
    result = run_open_system(
        config,
        WORKLOADS["das-s-128"](),
        das_t_900(),
        arrival_rate=0.02,
        tracer=tracer,
    )
    trace_bytes = "\n".join(
        repr((record.time, record.kind, sorted(record.payload.items())))
        for record in tracer
    ).encode()
    report = result.report.as_dict()
    report_bytes = json.dumps(
        {
            "report": {key: repr(value) for key, value in sorted(report.items())},
            "offered_gross": repr(result.offered_gross_utilization),
            "saturated": result.saturated,
            "end_time": repr(result.end_time),
        },
        sort_keys=True,
    ).encode()
    return trace_bytes, report_bytes


def test_same_seed_gives_byte_identical_traces_and_metrics() -> None:
    trace_a, report_a = _one_run(seed=7)
    trace_b, report_b = _one_run(seed=7)
    assert trace_a, "tracer recorded nothing; the run did not execute"
    assert trace_a == trace_b
    assert report_a == report_b


def test_different_seeds_actually_diverge() -> None:
    # Guards the guard: if the workload ignored the seed, the identity
    # assertion above would pass vacuously.
    trace_a, _ = _one_run(seed=7)
    trace_b, _ = _one_run(seed=8)
    assert trace_a != trace_b


def _policy_run(policy: str) -> tuple[bytes, str, bytes]:
    """(trace, extras, report) bytes of one small run of ``policy``."""
    if policy == "SC":
        config = SimulationConfig.single_cluster(
            seed=5, warmup_jobs=50, measured_jobs=250, batch_size=25,
        )
    else:
        config = SimulationConfig(
            policy=policy, component_limit=16, seed=5,
            warmup_jobs=50, measured_jobs=250, batch_size=25,
        )
    tracer = Tracer()
    result = run_open_system(
        config,
        WORKLOADS["das-s-128"](),
        das_t_900(),
        arrival_rate=0.02,
        tracer=tracer,
    )
    trace_bytes = "\n".join(
        repr((record.time, record.kind, sorted(record.payload.items())))
        for record in tracer
    ).encode()
    extras = repr(sorted(result.extras.items()))
    report_bytes = json.dumps(
        {key: repr(value) for key, value in sorted(result.report.as_dict().items())},
        sort_keys=True,
    ).encode()
    return trace_bytes, extras, report_bytes


class _PerDrawJobFactory(JobFactory):
    """The reference job source: every value is drawn by one scalar call
    from its named stream as its job is made, and derived on the spot."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        streams = kwargs["streams"]
        self.ref_sizes = streams.get("workload.sizes")
        self.ref_services = streams.get("workload.services")
        self.ref_routing = streams.get("workload.routing")
        weights = np.asarray(kwargs["routing_weights"], dtype=float)
        self.ref_cdf = np.cumsum(weights / weights.sum())
        self.ref_cdf[-1] = 1.0
        self.ref_count = 0

    def next_job(self) -> JobSpec:
        size = int(self.size_distribution.sample(self.ref_sizes))
        limit = self.component_limit
        components = ((size,) if limit is None
                      else split_size(size, limit, self.clusters))
        service = float(self.service_distribution.sample(self.ref_services))
        queue = int(np.searchsorted(self.ref_cdf, self.ref_routing.random(),
                                    side="right"))
        spec = JobSpec(self.ref_count, size, components, service, queue)
        self.ref_count += 1
        return spec


def _per_draw_iat(self: ArrivalProcess) -> float:
    return float(self._rng.exponential(self._mean_iat))


def test_batched_rng_byte_identical_to_scalar_draws(monkeypatch) -> None:
    """The chunked job source == a per-draw reference, all four policies.

    The workload layer draws sizes, services, routing uniforms and
    interarrival times in chunks of ``DEFAULT_DRAW_BATCH``.  The
    reference draws each value with one scalar call when its job is
    made.  Both consume every stream identically, so traces, extras
    counters and reports must match byte for byte — over runs long
    enough to cross a chunk boundary.
    """

    def all_runs() -> dict[str, tuple[bytes, str, bytes]]:
        return {policy: _policy_run(policy)
                for policy in ("GS", "LS", "LP", "SC")}

    chunked = all_runs()
    monkeypatch.setattr(system_module, "JobFactory", _PerDrawJobFactory)
    monkeypatch.setattr(ArrivalProcess, "_next_iat", _per_draw_iat)
    reference = all_runs()
    assert chunked["GS"][0], "tracer recorded nothing; the runs did not execute"
    assert chunked == reference


def test_run_while_matches_stepwise_drive_loop() -> None:
    """The fused ``run_while`` loop == the stepwise ``peek()``/``step()``
    drive loop, all four policies.

    ``run_while`` inlines the heap pop and the ``step()`` body; both
    loops must process the same event sequence, so counters, policy
    statistics, the final clock and the report must match exactly.
    """

    def run(policy: str, fused: bool) -> str:
        config = (SimulationConfig.single_cluster(seed=7) if policy == "SC"
                  else SimulationConfig(policy=policy, seed=7))
        system = MulticlusterSimulation(
            config.policy, capacities=config.capacities, batch_size=40,
        )
        factory = JobFactory(
            WORKLOADS["das-s-128"](), das_t_900(), config.component_limit,
            clusters=len(config.capacities),
            routing_weights=config.routing_weights,
            streams=StreamFactory(config.seed),
        )
        rate = factory.arrival_rate_for_gross_utilization(
            0.6, config.capacity)
        sim = system.sim
        ArrivalProcess(sim, factory, rate, system.submit,
                       rng=StreamFactory(config.seed).get("arrivals.iat"))

        def drive(target: int) -> None:
            if fused:
                sim.run_while(lambda: system.jobs_finished < target)
            else:
                while (system.jobs_finished < target
                       and sim.peek() != float("inf")):
                    sim.step()

        drive(100)  # warmup
        system.metrics.reset(sim.now)
        drive(500)
        assert system.jobs_finished == 500
        report = system.metrics.report(sim.now)
        return repr((
            sim.events_processed, sim.events_scheduled,
            system.jobs_started, system.jobs_finished,
            system.policy.placement_attempts,
            system.policy.placement_failures,
            sorted((q.name, q.times_disabled)
                   for q in system.policy.queues()),
            sim.now, sorted(report.as_dict().items()),
        ))

    for policy in ("GS", "LS", "LP", "SC"):
        assert run(policy, True) == run(policy, False), policy
