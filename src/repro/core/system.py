"""The runnable simulation: engine + clusters + policy + metrics.

:class:`MulticlusterSimulation` wires a :class:`~repro.sim.Simulator`, a
:class:`~repro.core.cluster.Multicluster`, one scheduling policy and a
:class:`~repro.metrics.recorder.MetricsRecorder` into the system the
paper simulates.  Two high-level drivers cover the paper's two
methodologies:

* :func:`run_open_system` — exponential arrivals at a given rate, warmup
  deletion, measurement over a fixed number of completions (the
  response-time-vs-utilization curves of Figures 3, 5, 6, 7);
* :func:`run_constant_backlog` — the queue is never allowed to drain
  below a fixed backlog, so the measured busy fraction is the *maximal*
  utilization (Table 3; paper §4, "we maintain a constant backlog and
  observe the time-average fraction of processors being busy").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.metrics.recorder import MetricsRecorder, UtilizationReport
from repro.sim.distributions import Distribution
from repro.sim.engine import Simulator
from repro.sim.rng import StreamFactory
from repro.sim.trace import NullTracer, Tracer
from repro.workload import stats_model
from repro.workload.generator import ArrivalProcess, JobFactory, JobSpec

from .cluster import Multicluster
from .jobs import Job
from .placement import PLACEMENT_RULES, PlacementRule
from .policies import Policy, make_policy

__all__ = [
    "MulticlusterSimulation",
    "SimulationConfig",
    "OpenSystemResult",
    "run_open_system",
    "run_constant_backlog",
    "is_saturated",
]


class MulticlusterSimulation:
    """A multicluster with one scheduling policy attached.

    Parameters
    ----------
    policy:
        Registry name ("GS", "LS", "LP", "SC") or a policy factory
        taking the system.
    capacities:
        Cluster sizes; defaults to the paper's 4×32 (use ``[128]``
        for SC).
    extension_factor:
        Wide-area slowdown for multi-component jobs.
    placement:
        Placement-rule name or callable (default Worst Fit).
    tracer:
        Optional event tracer for debugging/tests.
    """

    def __init__(self,
                 policy: "str | Callable[[MulticlusterSimulation], Policy]",
                 capacities: Optional[Sequence[int]] = None,
                 extension_factor: float = stats_model.EXTENSION_FACTOR,
                 placement: "str | PlacementRule" = "worst-fit",
                 batch_size: int = 500,
                 tracer: Optional[Tracer] = None,
                 sim: Optional[Simulator] = None) -> None:
        if capacities is None:
            capacities = [stats_model.CLUSTER_SIZE] * stats_model.NUM_CLUSTERS
        self.sim = sim if sim is not None else Simulator()
        self.multicluster = Multicluster(capacities)
        self.extension_factor = float(extension_factor)
        self.placement_rule: PlacementRule = (
            PLACEMENT_RULES[placement] if isinstance(placement, str)
            else placement
        )
        self.metrics = MetricsRecorder(self.multicluster.total_capacity,
                                       batch_size=batch_size)
        self.tracer = tracer if tracer is not None else NullTracer()
        self.policy: Policy = (
            make_policy(policy, self) if isinstance(policy, str)
            else policy(self)
        )
        #: Called after each departure (drives constant-backlog runs).
        self.on_departure_hook: Optional[Callable[[Job], None]] = None
        self.jobs_started = 0
        self.jobs_finished = 0
        # One tuple shared by every deferred departure (see start_job).
        self._departure_callbacks = (self._departure_callback,)

    # -- job flow ---------------------------------------------------------------

    def submit(self, spec: JobSpec) -> Job:
        """A job arrives now; the policy queues (and maybe starts) it."""
        now = self.sim.now
        job = Job(spec, now, self.extension_factor)
        self.metrics.on_arrival(job, now)
        if self.tracer.enabled:
            self.tracer.emit_row({"t": now, "kind": "arrival",
                                  "job": spec.index, "size": spec.size,
                                  "queue": spec.queue})
        self.policy.submit(job)
        return job

    def start_job(self, job: Job, assignment: Sequence[tuple[int, int]],
                  *, from_global_queue: bool = False) -> None:
        """Begin executing ``job`` on ``assignment`` (policy callback)."""
        job.from_global_queue = from_global_queue
        self.multicluster.allocate(assignment)
        now = self.sim.now
        job.start(now, assignment)
        self.metrics.on_start(job, now)
        self.jobs_started += 1
        if self.tracer.enabled:
            self.tracer.emit_row({"t": now, "kind": "start",
                                  "job": job.spec.index,
                                  "assignment": job.placement})
        # One calendar push carrying the job: no Timeout object or
        # per-job callback list.
        self.sim.defer(job.gross_service_time,
                       self._departure_callbacks, job)

    def _departure_callback(self, event) -> None:
        job: Job = event.value
        self.multicluster.release(job.placement)
        now = self.sim.now
        job.finish(now)
        self.metrics.on_finish(job, now,
                               global_queue=job.from_global_queue)
        self.jobs_finished += 1
        if self.tracer.enabled:
            self.tracer.emit_row({"t": now, "kind": "departure",
                                  "job": job.spec.index})
        if self.on_departure_hook is not None:
            self.on_departure_hook(job)
        self.policy.on_departure(job)

    # -- diagnostics -------------------------------------------------------------

    def invariants_ok(self) -> bool:
        """Cheap structural invariants (used by tests)."""
        mc = self.multicluster
        return (
            0 <= mc.total_free <= mc.total_capacity
            and all(0 <= c.free <= c.capacity for c in mc)
            and self.jobs_finished <= self.jobs_started
        )

    def __repr__(self) -> str:
        return (
            f"<MulticlusterSimulation {self.policy.name} t={self.sim.now:.6g} "
            f"started={self.jobs_started} finished={self.jobs_finished}>"
        )


@dataclass(frozen=True)
class SimulationConfig:
    """Everything defining one open-system run.

    The defaults reproduce the paper's base case: 4×32 multicluster,
    extension factor 1.25, balanced local queues.
    """

    policy: str = "GS"
    capacities: tuple[int, ...] = (
        (stats_model.CLUSTER_SIZE,) * stats_model.NUM_CLUSTERS
    )
    component_limit: Optional[int] = 16
    extension_factor: float = stats_model.EXTENSION_FACTOR
    routing_weights: tuple[float, ...] = stats_model.BALANCED_WEIGHTS
    placement: str = "worst-fit"
    seed: int = 1
    warmup_jobs: int = 2_000
    measured_jobs: int = 10_000
    batch_size: int = 500

    @property
    def capacity(self) -> int:
        """Total processors."""
        return sum(self.capacities)

    @classmethod
    def single_cluster(cls, **overrides: Any) -> "SimulationConfig":
        """The paper's SC reference configuration."""
        defaults: dict[str, Any] = dict(
            policy="SC",
            capacities=(stats_model.SINGLE_CLUSTER_SIZE,),
            component_limit=None,
        )
        defaults.update(overrides)
        return cls(**defaults)


@dataclass(frozen=True)
class OpenSystemResult:
    """Outcome of one open-system run at one arrival rate."""

    config: SimulationConfig
    arrival_rate: float
    offered_gross_utilization: float
    offered_net_utilization: float
    report: UtilizationReport
    saturated: bool
    end_time: float
    extras: dict = field(default_factory=dict)

    @property
    def mean_response(self) -> float:
        """Measured mean response time."""
        return self.report.mean_response

    @property
    def gross_utilization(self) -> float:
        """Measured gross utilization."""
        return self.report.gross_utilization

    @property
    def net_utilization(self) -> float:
        """Measured net utilization."""
        return self.report.net_utilization


def _build(config: SimulationConfig, size_distribution: Distribution,
           service_distribution: Distribution,
           tracer: Optional[Tracer] = None
           ) -> tuple[MulticlusterSimulation, JobFactory]:
    system = MulticlusterSimulation(
        policy=config.policy,
        capacities=config.capacities,
        extension_factor=config.extension_factor,
        placement=config.placement,
        batch_size=config.batch_size,
        tracer=tracer,
    )
    factory = JobFactory(
        size_distribution=size_distribution,
        service_distribution=service_distribution,
        component_limit=config.component_limit,
        clusters=len(config.capacities),
        extension_factor=config.extension_factor,
        routing_weights=config.routing_weights,
        streams=StreamFactory(config.seed),
    )
    return system, factory


def is_saturated(backlog_end: int, backlog_reset: int) -> bool:
    """Whether an open-system run saturated: its backlog at the end of
    the measurement window exceeds a fixed multiple of its level at the
    warm-up reset.  Both engines flag their runs with this rule."""
    return backlog_end > max(50, 3 * backlog_reset + 20)


def run_open_system(config: SimulationConfig, size_distribution: Distribution,
                    service_distribution: Distribution, arrival_rate: float,
                    tracer: Optional[Tracer] = None) -> OpenSystemResult:
    """One open-system run: warmup, then measure a fixed job count.

    The run is considered *saturated* (:func:`is_saturated`) when the
    backlog at the end of the measurement window exceeds a fixed
    multiple of its starting level — with FCFS queues an unstable
    system grows its queue without bound (paper §3.1.3), so
    response-time numbers past that point are reported but flagged.
    """
    system, factory = _build(config, size_distribution,
                             service_distribution, tracer)
    sim = system.sim
    # No arrival limit: the source keeps producing until the completion
    # target is reached.  (A capped source would let the queue drain at
    # the end of every run, contaminating the measurement with a
    # closed-system tail — especially at high loads.)
    ArrivalProcess(
        sim, factory, arrival_rate, system.submit,
        limit=None,
        rng=StreamFactory(config.seed).get("arrivals.iat"),
    )

    # Warmup: run until `warmup_jobs` completions, then reset statistics.
    # run_while fuses the predicate check and the heap pop into one
    # loop (and stops cleanly if the calendar ever drains), replacing
    # the per-event peek()-against-inf guard.
    warmup_target = config.warmup_jobs
    sim.run_while(lambda: system.jobs_finished < warmup_target)
    system.metrics.reset(sim.now)
    backlog_at_reset = system.policy.pending_jobs()

    total_target = config.warmup_jobs + config.measured_jobs
    sim.run_while(lambda: system.jobs_finished < total_target)

    backlog_at_end = system.policy.pending_jobs()
    saturated = is_saturated(backlog_at_end, backlog_at_reset)
    report = system.metrics.report(sim.now)
    return OpenSystemResult(
        config=config,
        arrival_rate=arrival_rate,
        offered_gross_utilization=factory.offered_gross_utilization(
            arrival_rate, config.capacity
        ),
        offered_net_utilization=factory.offered_net_utilization(
            arrival_rate, config.capacity
        ),
        report=report,
        saturated=saturated,
        end_time=sim.now,
        extras={"backlog_end": backlog_at_end,
                "backlog_reset": backlog_at_reset,
                # Deterministic run counters for the observability
                # side-band (manifests, metrics snapshots).  They are
                # maintained unconditionally — plain integer adds — so
                # results are identical with observability on or off.
                "events_processed": sim.events_processed,
                "events_scheduled": sim.events_scheduled,
                "jobs_started": system.jobs_started,
                "jobs_finished": system.jobs_finished,
                "placement_attempts": system.policy.placement_attempts,
                "placement_failures": system.policy.placement_failures,
                "queue_disables": {
                    q.name: q.times_disabled
                    for q in system.policy.queues()
                }},
    )


def run_constant_backlog(config: SimulationConfig,
                         size_distribution: Distribution,
                         service_distribution: Distribution, *,
                         backlog: int = 50,
                         warmup_jobs: int = 2_000,
                         measured_jobs: int = 10_000) -> UtilizationReport:
    """Constant-backlog run measuring the maximal utilization (Table 3).

    The queue is kept at a constant backlog: ``backlog`` jobs are
    submitted at time 0 and every departure triggers one new submission,
    so the scheduler never starves.  The time-average busy fraction over
    the measurement window is the maximal gross utilization of the
    policy (paper §4).
    """
    system, factory = _build(config, size_distribution,
                             service_distribution)
    sim = system.sim

    def refill(_job) -> None:
        system.submit(factory.next_job())

    system.on_departure_hook = refill
    for _ in range(backlog):
        system.submit(factory.next_job())

    # run_while stops cleanly when the calendar drains, so a model bug
    # (refill failing to keep the schedule populated) ends the run with
    # a truncated report instead of an EmptySchedule crash mid-loop.
    sim.run_while(lambda: system.jobs_finished < warmup_jobs)
    system.metrics.reset(sim.now)
    target = warmup_jobs + measured_jobs
    sim.run_while(lambda: system.jobs_finished < target)
    return system.metrics.report(sim.now)
