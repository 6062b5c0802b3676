"""Batch backend: N heterogeneous lanes in one kernel, run one at a time.

Campaigns run many configurations — replication seeds, utilization
grids, component-limit ladders — that share one policy.  This backend
holds N such runs ("lanes") in one :class:`BatchLaneKernel`.  Each
lane's whole state — its queues, free processors, running-job
calendar, queue ring, statistics record and run control — is one
:class:`_Lane` record of plain Python floats, ints and containers.
numpy only draws the workload, in chunks drawn once per seed and
shared by that seed's loaded lanes (:class:`_SeedDraws`).
:meth:`BatchLaneKernel.step` takes the earliest-loaded lane and runs
its event loop until the lane retires.

Lanes are *heterogeneous*: each carries its own arrival rate, seed,
warmup/measured-job targets, batch size, component limit, extension
factor and routing weights.  Only the policy, the placement rule, the
cluster capacities and the two workload distributions are fixed per
kernel (policy state containers differ by policy; capacities size the
free-processor lists).  Per-lane workload tables (component splits,
extension factors, routing CDF) are those of a
:class:`~repro.workload.generator.JobFactory`, shared through interned
:class:`_LaneProfile` objects keyed by the lane parameters that shape
them.

A finished lane is *retired* — queued for
:meth:`BatchLaneKernel.drain_retired` — and its slot can be
*refilled* with a fresh configuration via :meth:`BatchLaneKernel.load`.
Lanes retire in load order, so a driver that loads tasks in order
receives their points in order.  The fused sweep executor
(:func:`repro.runner.fused.execute_fused`) drives exactly this
load/step/retire cycle over a whole campaign grid.

The contract is *bit-exactness against the scalar engine*: for each
lane, the six :class:`~repro.analysis.points.SweepPoint` statistics
(offered gross load, measured gross/net utilization, mean response,
CI half width, saturation flag) must equal the scalar run's output
exactly.  That holds because

* the job stream is the scalar engine's own: a lane's sizes, service
  times and routing uniforms are the chunks of a
  :class:`~repro.workload.generator.JobDraws` record, and its
  components, extensions and queue indices come from the tables of its
  profile's :class:`~repro.workload.generator.JobFactory`; only the
  arrival times are the kernel's, standard exponentials scaled by the
  lane's mean and accumulated by *sequential* float addition
  (``np.cumsum`` may pairwise-sum, which is not the scalar reduction
  order), pinned by ``tests/sim/test_draw_identities.py``;
* events are ordered by ``(time, sequence-number)`` with the same
  sequence-number bookkeeping as :meth:`repro.sim.engine.Simulator.defer`;
* placement is the scalar rule itself, looked up in
  :data:`~repro.core.placement.PLACEMENT_RULES` and memoized per
  (lane profile, size, free counts), and every queue decision — the
  FCFS drain, the LS/LP visiting rounds, the disable and re-enable
  order, LP's local priority — is the shared :mod:`repro.core.rounds`
  code the scalar policies run, over per-lane deques and
  visit/disabled lists;
* each lane keeps its statistics in a :class:`~repro.sim.stats.RunStats`
  record, the one the scalar recorder keeps, and calls its ``start``,
  ``finish``, ``reset`` and ``summary`` at the same event times with
  the same values; the saturation flag is the scalar
  :func:`~repro.core.system.is_saturated`;
* lanes share only read-only draws — no queues, generators or
  statistics — and a seed's chunk of raw draws is the same whichever
  lane reaches it first, so a lane's results are independent of which
  other lanes share the kernel, of slot position, and of when its slot
  was (re)loaded.

The backend intentionally computes *only* what feeds ``SweepPoint``:
queue-population time series, quantiles, slowdowns and the
local/global response split draw no RNG and never reach the point, so
they are skipped.  Consequently diagnostic counters
(``placement_attempts`` and friends) are not maintained and provably
no-op placement retries are elided — behavioural identity is defined
on the returned statistics, which the differential oracle suite pins.

Supported model surface: the four paper policies (GS/LS/LP/SC) under
every rule in :data:`~repro.core.placement.PLACEMENT_RULES`, with a
discrete size distribution; anything else raises
:class:`BatchBackendError`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from heapq import heappop, heappush
from itertools import accumulate
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.core.placement import PLACEMENT_RULES
from repro.core.rounds import (
    TryStart,
    drain,
    needs_rounds,
    new_ring,
    reenable,
    rounds,
)
from repro.core.system import SimulationConfig, is_saturated
from repro.obs.registry import REGISTRY
from repro.sim.distributions import Distribution
from repro.sim.rng import StreamFactory
from repro.sim.stats import RunStats
from repro.workload.generator import DEFAULT_DRAW_BATCH, JobDraws, JobFactory

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.analysis.points import SweepPoint
    from repro.runner.task import RunTask

__all__ = [
    "BatchBackendError",
    "BatchLaneKernel",
    "PLACE_CACHE_CAP",
    "run_batch_points",
    "run_batch_task",
]

_INF = float("inf")

#: Default bound on the shared placement memo (entries).  Placement is
#: a pure function of its key, so the cap trades recomputation for
#: memory and never changes results; a campaign's working set is far
#: smaller, so evictions are rare outside adversarial workloads.
PLACE_CACHE_CAP = 1 << 18

#: One running job on a lane's calendar heap: (departure
#: time, event-sequence number, arrival time, total size, net size,
#: allocation pairs).  The sequence number is unique per lane, so heap
#: comparisons never reach the payload and the pop order is exactly
#: the scalar calendar's (time, sequence) total order.
_HeapItem = tuple[float, int, float, int, float,
                  tuple[tuple[int, int], ...]]

#: Cache-miss sentinel (``None`` is a valid cached "does not fit").
_MISS = object()

#: One chunk of a seed's raw draws: a job chunk of
#: :meth:`~repro.workload.generator.JobDraws.draw` plus as many standard
#: exponentials (see :class:`_SeedDraws`).
_Chunk = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class BatchBackendError(ValueError):
    """The batch backend does not support the requested configuration."""


class _SeedDraws:
    """The raw workload draws of one seed, shared read-only by its lanes.

    Common random numbers: every lane of one seed consumes the four
    named substreams a scalar :func:`~repro.core.system.run_open_system`
    consumes.  The job draws are a
    :class:`~repro.workload.generator.JobDraws` record — the one the
    scalar :class:`~repro.workload.generator.JobFactory` reads — and
    the arrival draws are *standard* exponentials, one per job, so a
    chunk is a pure function of (seed, chunk index, the kernel's two
    distributions).  The kernel draws each chunk once per seed into
    ``chunks`` and every loaded lane of that seed reads it through its
    own cursor, deriving its queue ids, gross/net service and arrival
    times itself.  ``lanes`` counts the loaded lanes holding the
    record; the kernel drops it when the last of them retires, so a
    later lane of the seed redraws from a fresh generator and sees the
    same values.
    """

    __slots__ = ("seed", "jobs", "iat", "chunks", "lanes")

    def __init__(self, seed: int, size_distribution: Distribution,
                 service_distribution: Distribution) -> None:
        streams = StreamFactory(seed)
        self.seed = seed
        self.jobs = JobDraws(size_distribution, service_distribution,
                             streams)
        self.iat = streams.get("arrivals.iat")
        #: ``(sizes, services, routing uniforms, standard
        #: exponentials)`` per chunk.
        self.chunks: list[_Chunk] = []
        self.lanes = 0


class _LaneProfile:
    """The job-shaping tables shared by every lane with the same shape.

    Component splits, extension factors and the routing CDF are those
    of ``factory``, a :class:`~repro.workload.generator.JobFactory`
    over the lane's (component limit, extension factor, routing
    weights); lanes differing only in seed, rate or run-length targets
    intern to the same profile.  The factory never draws: it also
    performs the rate <-> offered-utilization conversions with the
    exact scalar float math.  ``pid`` keys the shared placement memo
    (component splits differ per profile, so memo entries must not
    cross profiles).
    """

    __slots__ = ("pid", "factory")

    def __init__(self, pid: int, factory: JobFactory) -> None:
        self.pid = pid
        self.factory = factory


_ProfileKey = tuple[Optional[int], float, tuple[float, ...]]


class _Lane:
    """The whole state of one loaded lane, in plain Python values.

    Run parameters, the event state (job tuples, free processors per
    cluster, the running-job calendar heap, the event-sequence
    counter, the next-arrival cursor and its ``(time, sequence)``
    key), the policy queues and the run's statistics record that
    every start and departure update.
    """

    __slots__ = ("prof", "draws", "chunk", "last_arrival", "mean_iat",
                 "offered", "warm_tgt", "total_tgt",
                 "jobs", "free", "heap", "eid", "now", "next_job", "na_t",
                 "na_eid", "qs", "visit", "disabled", "enabled", "stats")

    def __init__(self, prof: _LaneProfile, draws: _SeedDraws,
                 config: SimulationConfig, rate: float, offered: float,
                 nq: int) -> None:
        self.prof = prof
        #: The seed's shared raw draws, the index of the next chunk to
        #: take from them, and the running arrival-time accumulator.
        self.draws = draws
        self.chunk = 0
        self.last_arrival = 0.0
        self.mean_iat = 1.0 / rate
        self.offered = offered
        self.warm_tgt = int(config.warmup_jobs)
        self.total_tgt = int(config.warmup_jobs + config.measured_jobs)
        self.jobs: list[tuple] = []
        self.free = [int(cap) for cap in config.capacities]
        self.heap: list[_HeapItem] = []
        # After the urgent arrival-process init event at t=0 the scalar
        # engine has consumed sequence numbers 1 (init) and 2 (first
        # tick); every later event is NORMAL rank, so ordering reduces
        # to (time, sequence number).
        self.eid = 2
        #: The time of the event being handled (read by the starts).
        self.now = 0.0
        self.next_job = 0
        self.na_t = _INF
        self.na_eid = 2
        #: The job-index queues and their ring, laid out as
        #: :mod:`repro.core.rounds` expects: GS/SC one queue; LS one
        #: local queue per cluster; LP the global queue, then the
        #: locals.
        self.qs: list[deque[int]] = [deque() for _ in range(nq)]
        self.visit, self.disabled, self.enabled = new_ring(nq)
        self.stats = RunStats(int(config.batch_size))


class BatchLaneKernel:
    """N lane slots of one kernel shape and their event loop.

    Construction fixes the *kernel shape* — policy, placement,
    capacities, the two workload distributions and the slot count
    (``width``).  :meth:`load` arms one slot with a lane configuration
    (seed, rate, limits, run-length targets); :meth:`step` runs the
    earliest-loaded lane until it reaches its completion target and
    retires; :meth:`drain_retired` yields the finished
    :class:`~repro.analysis.points.SweepPoint` so the slot can be
    refilled.
    """

    def __init__(self, config: SimulationConfig,
                 size_distribution: Distribution,
                 service_distribution: Distribution,
                 width: int, *,
                 place_cache_cap: int = PLACE_CACHE_CAP) -> None:
        policy = config.policy.upper()
        if policy not in ("GS", "LS", "LP", "SC"):
            raise BatchBackendError(
                f"batch backend supports GS/LS/LP/SC, got {config.policy!r}"
            )
        if config.placement not in PLACEMENT_RULES:
            raise BatchBackendError(
                f"unknown placement rule {config.placement!r}"
            )
        if width < 1:
            raise BatchBackendError(f"kernel width must be >= 1, got {width}")
        if place_cache_cap < 1:
            raise BatchBackendError(
                f"place_cache_cap must be >= 1, got {place_cache_cap}"
            )
        self.policy = policy
        self.placement = config.placement
        self.size_distribution = size_distribution
        self.service_distribution = service_distribution

        self.n = int(width)
        caps = tuple(int(cap) for cap in config.capacities)
        self.capacities = caps
        self.n_clusters = len(caps)
        self.capacity = sum(caps)

        # The supported model surface: discrete job sizes only.
        if getattr(size_distribution, "support", None) is None:
            raise BatchBackendError(
                "batch backend needs a discrete size distribution "
                "(integer support)"
            )
        self._profiles: dict[_ProfileKey, _LaneProfile] = {}

        #: GS/SC drain one FCFS queue; LS/LP run the visiting rounds
        #: over ``_nq`` queues, LP with local priority.
        self._single = policy in ("GS", "SC")
        self._lp = policy == "LP"
        self._nq = (1 if self._single else self.n_clusters + self._lp)
        self._place = PLACEMENT_RULES[config.placement]
        self._place_cache: dict[
            tuple[int, ...],
            Optional[tuple[tuple[int, int], ...]]] = {}
        self._place_cap = int(place_cache_cap)
        #: Evictions this kernel performed on the bounded memo.
        self.place_evictions = 0
        #: Shared raw draws of the loaded lanes' seeds (see
        #: :class:`_SeedDraws`).
        self._draws: dict[int, _SeedDraws] = {}
        #: Active ``(slot, lane)`` pairs in load order.
        self._order: deque[tuple[int, _Lane]] = deque()
        #: Finished ``(slot, point)`` pairs awaiting
        #: :meth:`drain_retired`.
        self._retired: list[tuple[int, SweepPoint]] = []

    # -- lane lifecycle ----------------------------------------------------

    @property
    def active_lanes(self) -> int:
        """Number of loaded lanes that have not retired yet."""
        return len(self._order)

    @property
    def idle(self) -> bool:
        """True when no lane is active (every slot loadable/drained)."""
        return not self._order

    def _profile_for(self, config: SimulationConfig) -> _LaneProfile:
        """Intern the workload tables for this lane's shape parameters."""
        key: _ProfileKey = (
            config.component_limit,
            float(config.extension_factor),
            tuple(float(w) for w in config.routing_weights),
        )
        prof = self._profiles.get(key)
        if prof is None:
            factory = JobFactory(
                self.size_distribution,  # type: ignore[arg-type]
                self.service_distribution,
                config.component_limit,
                clusters=self.n_clusters,
                extension_factor=config.extension_factor,
                routing_weights=config.routing_weights,
                streams=StreamFactory(0),
            )
            prof = self._profiles[key] = _LaneProfile(len(self._profiles),
                                                       factory)
        return prof

    def load(self, slot: int, config: SimulationConfig,
             offered_gross: Optional[float] = None,
             arrival_rate: Optional[float] = None) -> None:
        """Arm ``slot`` with one lane: the run that a scalar
        :func:`~repro.core.system.run_open_system` under ``config``
        would perform at the given load.

        ``arrival_rate`` overrides the rate derived from
        ``offered_gross`` (they are redundant; both are accepted so
        callers can match either scalar entry point exactly).  The
        slot must be empty — never loaded, or retired and drained.
        """
        if not 0 <= slot < self.n:
            raise BatchBackendError(f"slot {slot} out of range 0..{self.n-1}")
        if any(s == slot for s, _ in self._order) or any(
                s == slot for s, _ in self._retired):
            raise BatchBackendError(f"slot {slot} is not free")
        if config.policy.upper() != self.policy:
            raise BatchBackendError(
                f"kernel runs policy {self.policy}, got {config.policy!r}"
            )
        if config.placement != self.placement:
            raise BatchBackendError(
                f"kernel runs placement {self.placement!r}, got "
                f"{config.placement!r}"
            )
        if tuple(int(cap) for cap in config.capacities) != self.capacities:
            raise BatchBackendError(
                f"kernel capacities {self.capacities} != "
                f"{tuple(config.capacities)}"
            )
        prof = self._profile_for(config)
        if arrival_rate is None:
            if offered_gross is None:
                raise BatchBackendError(
                    "need offered_gross or arrival_rate"
                )
            arrival_rate = prof.factory.arrival_rate_for_gross_utilization(
                float(offered_gross), self.capacity
            )
        rate = float(arrival_rate)
        seed = int(config.seed)
        draws = self._draws.get(seed)
        if draws is None:
            draws = self._draws[seed] = _SeedDraws(
                seed, self.size_distribution, self.service_distribution)
        draws.lanes += 1
        lane = _Lane(prof, draws, config, rate,
                     prof.factory.offered_gross_utilization(
                         rate, self.capacity),
                     self._nq)
        self._next_chunk(lane)
        lane.na_t = lane.jobs[0][0]
        self._order.append((slot, lane))

    def drain_retired(self) -> "list[tuple[int, SweepPoint]]":
        """Finished lanes since the last drain, as ``(slot, point)``
        pairs in retirement order.  Drained slots are free for
        :meth:`load`."""
        out = self._retired
        self._retired = []
        return out

    # -- workload generation ---------------------------------------------

    def _next_chunk(self, lane: _Lane) -> None:
        """Append the lane's next chunk of jobs to its tuples.

        The block's raw draws come from the seed's shared record,
        drawn there first if no lane of the seed has reached it yet.
        """
        draws = lane.draws
        chunks = draws.chunks
        index = lane.chunk
        lane.chunk = index + 1
        # Counters resolved at use time, never cached: REGISTRY.reset()
        # replaces Counter objects.
        if index < len(chunks):
            REGISTRY.counter("batch.draws.shared").inc()
        else:
            # ``exponential(scale, n)`` is ``scale *
            # standard_exponential`` draw for draw, so each lane scales
            # the shared standard draws by its own mean and gets its
            # scalar run's inter-arrival times.
            chunks.append((*draws.jobs.draw(),
                           draws.iat.standard_exponential(
                               DEFAULT_DRAW_BATCH)))
            REGISTRY.counter("batch.draws.chunks").inc()
        sizes, svc, u, std_exp = chunks[index]
        factory = lane.prof.factory
        # Sequential accumulation: the scalar engine chains ``now +
        # delay`` one float add at a time, and so does ``accumulate``;
        # np.cumsum may pairwise-sum, which rounds differently.
        arr = list(accumulate((lane.mean_iat * std_exp).tolist(),
                              initial=lane.last_arrival))
        lane.last_arrival = arr[-1]
        del arr[0]

        # Jobs land in per-lane Python tuples.  The products and
        # quotients below are the same IEEE double operations the scalar
        # engine performs, so the tuples hold the exact scalar values.
        n = len(sizes)
        size_list = sizes.tolist()
        ext = np.fromiter(map(factory.extensions.__getitem__, size_list),
                          np.float64, n)
        gross = (svc * ext).tolist()
        net = (sizes / ext).tolist()
        if self._single:
            # GS/SC ignore the routing draw (drawn for stream parity):
            # (arrival, gross service, net size, total size).
            lane.jobs.extend(zip(arr, gross, net, size_list))
            return
        # LS/LP append the routing decision: (..., destination queue,
        # multi-component flag).  LS routes every job to its origin
        # cluster's local queue; LP sends multi-component jobs to the
        # global queue (index 0) and the rest to 1 + origin cluster.
        queues = factory.router.queues(u)
        multi = np.fromiter(map(len, map(factory.components.__getitem__,
                                         size_list)), np.int64, n) > 1
        if self.policy == "LS":
            qid = queues % self.n_clusters
        else:
            qid = np.where(multi, 0, 1 + queues % self.n_clusters)
        lane.jobs.extend(
            zip(arr, gross, net, size_list, qid.tolist(), multi.tolist()))

    # -- placement, starts and arrivals -------------------------------------

    def _remember(self, key: tuple[int, ...],
                  result: Optional[tuple[tuple[int, int], ...]]
                  ) -> Optional[tuple[tuple[int, int], ...]]:
        """Store one placement outcome in the bounded placement memo.

        Placement is a pure function of (profile, total size, free
        counts), so outcomes are memoized; the memo also elides
        re-deriving the scalar engine's repeated identical
        head-of-queue failures.  It is bounded at ``place_cache_cap``
        entries with deterministic oldest-insertion eviction —
        recomputing an evicted entry yields the identical tuple, so the
        cap never changes results.
        """
        cache = self._place_cache
        if len(cache) >= self._place_cap:
            # Deterministic eviction: dicts iterate in insertion
            # order, so the oldest entry goes first (FIFO).
            del cache[next(iter(cache))]
            self.place_evictions += 1
            # Resolved at use time, never cached: REGISTRY.reset()
            # replaces Counter objects (pool.py does the same).
            REGISTRY.counter("batch.place_cache.evictions").inc()
        cache[key] = result
        return result

    def _starter(self, lane: _Lane) -> TryStart:
        """The lane's ``try_start`` for :mod:`repro.core.rounds`.

        GS/SC heads and multi-component LS/LP heads take the kernel's
        placement rule: the memo keyed by (lane profile, total size,
        free counts), and on a miss the scalar rule itself (see
        :meth:`_remember`).  A single-component LS/LP head fits
        only on its own cluster (LS: the queue id; LP: the queue id -
        1, since LP's global queue, id 0, holds only multi-component
        jobs).  A fit starts the job at ``lane.now``: it takes the
        processors, pushes the departure under the next sequence
        number and records the start in the lane's statistics, as the
        scalar recorder's ``on_start`` does.
        """
        jobs = lane.jobs
        free = lane.free
        heap = lane.heap
        pid = lane.prof.pid
        components = lane.prof.factory.components
        cache = self._place_cache
        place = self._place
        remember = self._remember
        anywhere = self._single
        base = int(self._lp)
        start = lane.stats.start

        def try_start(qid: int, head: int) -> bool:
            jt = jobs[head]
            size = jt[3]
            if anywhere or jt[5]:
                key = (pid, size, *free)
                alloc = cache.get(key, _MISS)
                if alloc is _MISS:
                    alloc = remember(key, place(components[size], free))
                if alloc is None:
                    return False
            elif free[qid - base] >= size:
                alloc = ((qid - base, size),)
            else:
                return False
            for ci, comp in alloc:
                free[ci] -= comp
            now = lane.now
            eid = lane.eid + 1
            lane.eid = eid
            net = jt[2]
            heappush(heap, (now + jt[1], eid, jt[0], size, net, alloc))
            start(now, size, net)
            return True

        return try_start

    def _arrival_burst(self, lane: _Lane, dmin: float,
                       try_start: TryStart) -> None:
        """Process the lane's due arrival plus every later arrival that
        strictly precedes the lane's earliest departure.

        Each arrival pushes its job (LS/LP: to the destination queue
        precomputed in the job tuple) and reacts as the scalar policy
        does: GS/SC drain, LS/LP run the rounds when
        :func:`~repro.core.rounds.needs_rounds` says they can start
        something.  GS/SC skip the drain when the push lands on a
        non-empty queue (the head is known not to fit; see
        ``needs_rounds``).  A start may pull the earliest departure
        in; an arrival tying it exactly stops the burst and returns to
        the (time, sequence) select, which owns tie-breaks.
        """
        job = lane.next_job
        jobs = lane.jobs
        qs = lane.qs
        visit = lane.visit
        disabled = lane.disabled
        enabled = lane.enabled
        heap = lane.heap
        single = self._single
        lp = self._lp
        t = lane.na_t
        while True:
            lane.now = t
            if single:
                q = qs[0]
                q.append(job)
                if len(q) == 1:
                    drain(q, try_start)
            else:
                qid = jobs[job][4]
                qs[qid].append(job)
                if needs_rounds(qs, enabled, qid, lp):
                    rounds(qs, visit, disabled, enabled, lp, try_start)
            # ArrivalProcess._tick: schedule the next arrival one
            # sequence number after any starts the submit made.
            lane.eid += 1
            job += 1
            while job >= len(jobs):
                self._next_chunk(lane)
            t_next = jobs[job][0]
            if heap:
                top_t = heap[0][0]
                if top_t < dmin:
                    dmin = top_t
            if t_next >= dmin:
                break
            t = t_next
        lane.next_job = job
        lane.na_eid = lane.eid
        lane.na_t = t_next

    # -- the per-lane event loop ---------------------------------------------

    @staticmethod
    def _backlog(lane: _Lane) -> int:
        """Total queued jobs (the saturation-estimate input)."""
        return sum(map(len, lane.qs))

    def step(self) -> None:
        """Run the earliest-loaded active lane until it retires.

        Lanes share only read-only draws, so a lane needs no event
        order beyond its own: each event is the earlier, in ``(time,
        sequence)`` order, of the lane's next arrival and its heap top.
        An arrival runs the policy's arrival burst up to the heap top.
        A departure pops and releases, records the departure in the
        lane's statistics as ``MetricsRecorder.on_finish`` does
        (``in_system`` and the diagnostic tallies never reach
        ``SweepPoint`` and are omitted), runs the policy reaction
        (GS/SC drain; LS/LP re-enable, then rounds), then checks the
        scalar ``run_while`` predicates — warm-up reset, then
        termination — exactly in the scalar order.
        """
        if not self._order:
            return
        from repro.analysis.points import SweepPoint

        slot, lane = self._order.popleft()
        try_start = self._starter(lane)
        burst = self._arrival_burst
        single = self._single
        lp = self._lp
        qs = lane.qs
        visit = lane.visit
        disabled = lane.disabled
        enabled = lane.enabled
        heap = lane.heap
        free = lane.free
        stats = lane.stats
        finish = stats.finish
        warm = lane.warm_tgt
        total = lane.total_tgt
        backlog_reset = 0
        finished = 0
        while True:
            if not heap:
                burst(lane, _INF, try_start)
                continue
            top = heap[0]
            dep_t = top[0]
            na_t = lane.na_t
            # Sequence numbers are unique per lane, so this is the
            # calendar's total order.
            if na_t < dep_t or (na_t == dep_t and lane.na_eid < top[1]):
                burst(lane, dep_t, try_start)
                continue
            _, _, arr_t, size, net, alloc = heappop(heap)
            for ci, comp in alloc:
                free[ci] += comp
            finish(dep_t, size, net, dep_t - arr_t)
            finished += 1
            lane.now = dep_t
            if single:
                drain(qs[0], try_start)
            else:
                reenable(qs, visit, disabled, enabled, lp)
                rounds(qs, visit, disabled, enabled, lp, try_start)
            # ``finished`` steps by one, so this fires exactly once; with
            # warmup_jobs == 0 the scalar run resets at t=0 before any
            # event, which is exactly the initial state.
            if finished == warm:
                stats.reset(dep_t)
                backlog_reset = self._backlog(lane)
            if finished >= total:
                break

        # The finished lane's statistics, exactly as the scalar
        # engine's SweepPoint.
        gross, net_util, mean, half = stats.summary(dep_t, self.capacity,
                                                    0.95)
        self._retired.append((slot, SweepPoint(
            offered_gross=lane.offered,
            gross_utilization=gross,
            net_utilization=net_util,
            mean_response=mean,
            ci_half_width=half,
            saturated=is_saturated(self._backlog(lane), backlog_reset),
        )))
        draws = lane.draws
        draws.lanes -= 1
        if not draws.lanes:
            del self._draws[draws.seed]


def run_batch_points(config: SimulationConfig,
                     size_distribution: Distribution,
                     service_distribution: Distribution,
                     offered_gross: float,
                     seeds: Sequence[int],
                     arrival_rate: Optional[float] = None
                     ) -> "list[SweepPoint]":
    """Run one configuration under many seeds as lanes of one kernel.

    Returns one :class:`~repro.analysis.points.SweepPoint` per seed, in
    input order, each bit-identical to the scalar
    :func:`~repro.core.system.run_open_system` result for that seed.
    ``arrival_rate`` overrides the rate derived from ``offered_gross``
    (they are redundant; both are accepted so callers can match either
    scalar entry point exactly).
    """
    if not seeds:
        raise BatchBackendError("need at least one seed")
    kernel = BatchLaneKernel(config, size_distribution,
                             service_distribution, len(seeds))
    for slot, seed in enumerate(seeds):
        kernel.load(slot, replace(config, seed=int(seed)),
                    offered_gross=offered_gross, arrival_rate=arrival_rate)
    while not kernel.idle:
        kernel.step()
    by_slot = dict(kernel.drain_retired())
    return [by_slot[slot] for slot in range(len(seeds))]


def run_batch_task(task: "RunTask") -> "SweepPoint":
    """Worker entry point for ``backend="batch"`` tasks (width 1).

    A one-slot kernel runs the single lane; results are
    width-independent, so a task executed here (serially, under the
    fault-injecting pool, from a cache-miss retry, ...) is
    byte-identical to the same seed inside a wide wave.
    """
    points = run_batch_points(task.config, task.size_distribution,
                              task.service_distribution, task.offered_gross,
                              (task.config.seed,))
    return points[0]
