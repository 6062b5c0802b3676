"""Open-system workload generation for the simulations.

:class:`JobFactory` turns the workload distributions into a stream of
:class:`JobSpec` tuples — total size, component split, base (net) service
time, and the submission queue for policies with local queues.
:class:`ArrivalProcess` drives a factory inside a simulation with
exponential interarrival times (the paper's arrival model).

Load accounting: for a given size distribution, component-size limit and
extension factor, the *offered gross utilization* of an arrival rate λ is

    rho_gross = λ · E[size · extension(size)] · E[service] / capacity

with extension(size) = 1.25 for multi-component sizes and 1 otherwise
(sizes and service times are independent in the model, paper §4).
:meth:`JobFactory.arrival_rate_for_gross_utilization` inverts this so
sweeps can be parameterised directly by target utilization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence, TypeVar

import numpy as np

from repro.sim.distributions import (
    DiscreteEmpirical,
    Distribution,
    sample_exact,
)
from repro.sim.rng import StreamFactory

from . import stats_model
from .splitting import split_size

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

__all__ = ["JobSpec", "JobFactory", "JobDraws", "ArrivalProcess",
           "QueueRouter", "DEFAULT_DRAW_BATCH"]

#: Jobs per chunk of a job stream's raw draws (:class:`JobDraws`), and
#: inter-arrival times per block of an :class:`ArrivalProcess`.  Every
#: draw is stream-exact (:func:`~repro.sim.distributions.sample_exact`),
#: so the chunk size never changes a value.
DEFAULT_DRAW_BATCH = 256

#: One chunk of raw draws: integer sizes, base service times and
#: routing uniforms, :data:`DEFAULT_DRAW_BATCH` of each.
DrawChunk = tuple[np.ndarray, np.ndarray, np.ndarray]

_V = TypeVar("_V")


@dataclass(frozen=True)
class JobSpec:
    """A job as produced by the workload layer.

    Attributes
    ----------
    index:
        0-based arrival sequence number.
    size:
        Total number of processors.
    components:
        Non-increasing component sizes (one entry per required cluster).
    service_time:
        Base (net) service time; *not* extended.
    queue:
        Index of the local queue this job is submitted to (policies with
        a single global queue ignore it).
    user:
        Anonymised submitting-user index (for fairness analysis; 0 when
        the workload has no user model).
    """

    index: int
    size: int
    components: tuple[int, ...]
    service_time: float
    queue: int
    user: int = 0

    @property
    def is_multi_component(self) -> bool:
        """Whether the job needs co-allocation (more than one component)."""
        return len(self.components) > 1


class JobDraws:
    """The raw draws of one job stream, one chunk at a time.

    Sizes, base service times and routing uniforms come from the
    ``workload.sizes``, ``workload.services`` and ``workload.routing``
    substreams of ``streams``, :data:`DEFAULT_DRAW_BATCH` of each per
    :meth:`draw`, through
    :func:`~repro.sim.distributions.sample_exact`.  So the *i*-th
    chunk is a pure function of (the streams' seed, *i*, the two
    distributions), and it is what one scalar draw per job would
    give.  Both engines read jobs from this record:
    :class:`JobFactory` through its own cursor, the batch kernel
    through one record per seed whose chunks that seed's lanes share.
    """

    __slots__ = ("size_distribution", "service_distribution", "sizes",
                 "services", "routing")

    def __init__(self, size_distribution: Distribution,
                 service_distribution: Distribution,
                 streams: StreamFactory) -> None:
        self.size_distribution = size_distribution
        self.service_distribution = service_distribution
        self.sizes = streams.get("workload.sizes")
        self.services = streams.get("workload.services")
        self.routing = streams.get("workload.routing")

    def draw(self) -> DrawChunk:
        """Draw the next chunk: sizes truncated to ``int64``, service
        times as ``float64``, routing uniforms in [0, 1)."""
        n = DEFAULT_DRAW_BATCH
        sizes = sample_exact(self.size_distribution, self.sizes, n)
        services = sample_exact(self.service_distribution, self.services,
                                n)
        return (sizes.astype(np.int64),
                np.asarray(services, dtype=np.float64),
                self.routing.random(n))


class QueueRouter:
    """Routes arriving jobs to local queues with given probabilities.

    The paper studies *balanced* (25% each) and *unbalanced* (one queue
    40%, the others 20%) submission of jobs to the local queues of LS and
    LP.  This is the one validation of routing weights: both engines
    route through the router of their :class:`JobFactory`.  A job's
    queue index is ``searchsorted(cdf, u, side="right")`` of its
    routing uniform ``u`` (drawn by :class:`JobDraws`); policies take
    it modulo their cluster count.
    """

    def __init__(self, weights: Sequence[float]):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(w)) or np.any(w < 0) or w.sum() <= 0:
            raise ValueError(
                "weights must be finite and nonnegative with positive sum, "
                f"got {tuple(weights)!r}"
            )
        self.weights = w / w.sum()
        self.cdf = np.cumsum(self.weights)
        self.cdf[-1] = 1.0

    def queues(self, u: np.ndarray) -> np.ndarray:
        """The queue index of each routing uniform in ``u``."""
        return np.searchsorted(self.cdf, u, side="right")

    @property
    def num_queues(self) -> int:
        """Number of local queues."""
        return int(self.weights.size)


class _PerSize(dict[int, _V]):
    """A table keyed by job size, filled by ``derive`` on first lookup."""

    def __init__(self, derive: Callable[[int], _V]) -> None:
        super().__init__()
        self._derive = derive

    def __missing__(self, size: int) -> _V:
        value = self[size] = self._derive(size)
        return value


class JobFactory:
    """Samples :class:`JobSpec` streams and computes offered loads.

    Parameters
    ----------
    size_distribution:
        Total-job-size distribution (DAS-s-128 or DAS-s-64).
    service_distribution:
        Base service-time distribution (DAS-t-900).
    component_limit:
        Job-component-size limit L; ``None`` disables splitting entirely
        (total requests for the single-cluster reference system).
    clusters:
        Number of clusters (bounds the number of components).
    extension_factor:
        Service-time multiplier for multi-component jobs.
    routing_weights:
        Local-queue submission probabilities.
    streams:
        Named random streams (common random numbers across policies).
    num_users:
        Size of the submitting-user population; users are assigned with
        Zipf-like activity shares (0 disables the user model — every
        job gets user 0).

    Besides the stream itself, a factory holds the tables that shape
    its jobs, which the batch kernel reads too: :attr:`router`, and
    :attr:`components` and :attr:`extensions`, keyed by job size and
    filled on first lookup, so any size distribution works.
    """

    def __init__(self,
                 size_distribution: DiscreteEmpirical,
                 service_distribution: Distribution,
                 component_limit: Optional[int],
                 clusters: int = stats_model.NUM_CLUSTERS,
                 extension_factor: float = stats_model.EXTENSION_FACTOR,
                 routing_weights: Sequence[float] = stats_model.BALANCED_WEIGHTS,
                 streams: Optional[StreamFactory] = None,
                 num_users: int = 0):
        if extension_factor < 1.0:
            raise ValueError(
                f"extension factor must be >= 1, got {extension_factor!r}"
            )
        self.size_distribution = size_distribution
        self.service_distribution = service_distribution
        self.component_limit = component_limit
        self.clusters = clusters
        self.extension_factor = float(extension_factor)
        streams = streams or StreamFactory(None)
        self._draws = JobDraws(size_distribution, service_distribution,
                               streams)
        self.router = QueueRouter(routing_weights)
        #: Component sizes of a job of each size.
        self.components: _PerSize[tuple[int, ...]] = _PerSize(self._split)
        #: Service-time multiplier of a job of each size.
        self.extensions: _PerSize[float] = _PerSize(self._extension)
        self.num_users = int(num_users)
        if self.num_users > 0:
            ranks = np.arange(1, self.num_users + 1, dtype=float)
            shares = 1.0 / ranks
            self._user_probs = shares / shares.sum()
            self._user_cdf = np.cumsum(self._user_probs)
            self._user_cdf[-1] = 1.0
            self._user_rng = streams.get("workload.users")
        # The cursor into the current chunk; the first job draws one.
        self._sizes: list[int] = []
        self._services: list[float] = []
        self._queues: list[int] = []
        self._users: list[int] = []
        self._pos = DEFAULT_DRAW_BATCH
        self._count = 0

    # -- per-size tables ---------------------------------------------------

    def _split(self, size: int) -> tuple[int, ...]:
        if self.component_limit is None:
            return (size,)
        return split_size(size, self.component_limit, self.clusters)

    def _extension(self, size: int) -> float:
        return self.extension_factor if len(self.components[size]) > 1 else 1.0

    # -- sampling ----------------------------------------------------------

    def _next_chunk(self) -> None:
        sizes, services, u = self._draws.draw()
        self._sizes = sizes.tolist()
        self._services = services.tolist()
        self._queues = self.router.queues(u).tolist()
        if self.num_users > 0:
            self._users = np.searchsorted(
                self._user_cdf, self._user_rng.random(DEFAULT_DRAW_BATCH),
                side="right").tolist()
        else:
            self._users = [0] * DEFAULT_DRAW_BATCH
        self._pos = 0

    def next_job(self) -> JobSpec:
        """Sample the next job spec."""
        if self._pos == DEFAULT_DRAW_BATCH:
            self._next_chunk()
        pos = self._pos
        self._pos = pos + 1
        size = self._sizes[pos]
        index = self._count
        self._count = index + 1
        return JobSpec(index, size, self.components[size],
                       self._services[pos], self._queues[pos],
                       self._users[pos])

    def jobs(self, n: int) -> list[JobSpec]:
        """Sample ``n`` job specs."""
        return [self.next_job() for _ in range(n)]

    # -- analytic load accounting -------------------------------------------

    def expected_gross_work(self) -> float:
        """E[size · extension(size)] · E[service]: mean gross
        processor-seconds demanded per job."""
        def weighted(sizes: np.ndarray) -> np.ndarray:
            return sizes * np.array([self.extensions[int(s)]
                                     for s in sizes])

        return (self.size_distribution.expectation(weighted)
                * self.service_distribution.mean)

    def expected_net_work(self) -> float:
        """E[size] · E[service]: mean net processor-seconds per job."""
        return self.size_distribution.mean * self.service_distribution.mean

    def gross_net_ratio(self) -> float:
        """Ratio of gross to net utilization (paper §4).

        Independent of the scheduling policy because sizes and service
        times are independent of each other and of arrival times.
        """
        return self.expected_gross_work() / self.expected_net_work()

    def arrival_rate_for_gross_utilization(self, rho: float,
                                           capacity: int) -> float:
        """λ achieving offered gross utilization ``rho`` on ``capacity``."""
        if rho <= 0:
            raise ValueError(f"utilization must be positive, got {rho!r}")
        return rho * capacity / self.expected_gross_work()

    def offered_gross_utilization(self, rate: float, capacity: int) -> float:
        """Offered gross utilization of arrival rate ``rate``."""
        return rate * self.expected_gross_work() / capacity

    def offered_net_utilization(self, rate: float, capacity: int) -> float:
        """Offered net utilization of arrival rate ``rate``."""
        return rate * self.expected_net_work() / capacity


class ArrivalProcess:
    """Poisson job source driving a submit callback inside a simulation.

    The source is direct-scheduled: each arrival is one lightweight
    deferred callback on the calendar, with no generator-process
    machinery per tick.  The event sequence matches the classic
    process-based formulation exactly — one urgent initialisation event
    at time 0, then per tick the job is submitted *before* the next
    arrival is scheduled.  Interarrival times are drawn in blocks of
    :data:`DEFAULT_DRAW_BATCH` (``rng.exponential(mean, n)`` consumes
    the bit stream exactly like ``n`` scalar draws).

    Parameters
    ----------
    sim:
        The simulator to run in.
    factory:
        Source of job specs.
    rate:
        Arrival rate λ (jobs per second); interarrival times are
        exponential with mean 1/λ.
    submit:
        Callback invoked with each :class:`JobSpec` at its arrival time.
    limit:
        Stop after this many arrivals (``None`` = run until the
        simulation ends).
    rng:
        Random generator for interarrival times.
    """

    def __init__(self, sim: "Simulator", factory: JobFactory, rate: float,
                 submit: Callable[[JobSpec], None],
                 limit: Optional[int] = None,
                 rng: Optional[np.random.Generator] = None):
        if rate <= 0:
            raise ValueError(f"arrival rate must be positive, got {rate!r}")
        self.sim = sim
        self.factory = factory
        self.rate = float(rate)
        self.submit = submit
        self.limit = limit
        # Seeded fallback: an OS-entropy default would silently break
        # replayability and common-random-numbers comparisons.
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self.generated = 0
        self._mean_iat = 1.0 / self.rate
        self._iat_buf = np.empty(0)
        self._iat_pos = 0
        self._tick_callbacks = (self._tick,)
        # Urgent init event at t=0, mirroring the initialisation event a
        # process-based source would schedule — the scheduling sequence
        # numbers of everything that follows are unchanged.
        sim.defer(0.0, (self._arm,), priority=True)

    def _next_iat(self) -> float:
        pos = self._iat_pos
        buf = self._iat_buf
        if pos >= len(buf):
            buf = self._iat_buf = self._rng.exponential(
                self._mean_iat, DEFAULT_DRAW_BATCH
            )
            pos = 0
        self._iat_pos = pos + 1
        return float(buf[pos])

    def _arm(self, _event: object) -> None:
        if self.limit is None or self.generated < self.limit:
            self.sim.defer(self._next_iat(), self._tick_callbacks)

    def _tick(self, _event: object) -> None:
        self.submit(self.factory.next_job())
        self.generated += 1
        if self.limit is None or self.generated < self.limit:
            self.sim.defer(self._next_iat(), self._tick_callbacks)
