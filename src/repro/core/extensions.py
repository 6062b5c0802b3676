"""Policy extensions beyond the paper's §2.5 set.

These variants feed the ablation studies DESIGN.md calls out:

* :class:`OrderedGSPolicy` / :class:`FlexibleGSPolicy` — the GS policy
  scheduling *ordered* and *flexible* requests instead of unordered
  ones, completing the request-type taxonomy of the authors' earlier
  work [6, 7].  Ordered requests pin component *i* to cluster *i*
  (modelling applications with data staged at specific sites); flexible
  requests let the scheduler split the total size arbitrarily
  (components lose their meaning, giving an upper bound on what any
  splitting rule could achieve).
* :class:`BackfillGSPolicy` — GS with aggressive backfilling over a
  bounded window: when the head of the queue does not fit, up to
  ``window - 1`` later jobs are examined and started if they fit.  The
  paper observes that LS's multiple queues act as "a form of
  backfilling with a window equal to the number of clusters" (§3.1.1);
  this policy isolates that mechanism inside a single global queue.

Extension-factor and placement-rule ablations need no new policy: both
are constructor knobs on :class:`~repro.core.system.MulticlusterSimulation`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .policies import Policy, _SingleQueuePolicy
from .queues import JobQueue
from .requests import RequestType, try_place

if TYPE_CHECKING:  # pragma: no cover
    from .jobs import Job
    from .system import MulticlusterSimulation

__all__ = [
    "OrderedGSPolicy",
    "FlexibleGSPolicy",
    "BackfillGSPolicy",
    "EasyBackfillGSPolicy",
    "EXTENSION_POLICIES",
    "register_extension_policies",
]


class OrderedGSPolicy(_SingleQueuePolicy):
    """GS scheduling *ordered* requests: component i → cluster i."""

    name = "GS-ORDERED"
    request_type = RequestType.ORDERED


class FlexibleGSPolicy(_SingleQueuePolicy):
    """GS scheduling *flexible* requests: any split over the clusters."""

    name = "GS-FLEX"
    request_type = RequestType.FLEXIBLE


class BackfillGSPolicy(Policy):
    """GS with aggressive backfilling over a bounded window.

    FCFS order is preferred but not enforced: if the head does not fit,
    the next ``window - 1`` queued jobs are tried in order and started
    when they fit.  (Aggressive, i.e. without a head reservation — the
    same flavour the paper attributes to LS's multi-queue effect; large
    jobs can therefore starve under sustained load, exactly like the
    whole-system jobs starve under LS.)
    """

    name = "GS-BF"
    request_type = RequestType.UNORDERED

    def __init__(self, system: "MulticlusterSimulation",
                 window: Optional[int] = None) -> None:
        super().__init__(system)
        self.queue = JobQueue("global", is_global=True)
        self.window = window if window is not None else len(
            system.multicluster
        )
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window!r}")

    def queues(self) -> Sequence[JobQueue]:
        return (self.queue,)

    def submit(self, job: "Job") -> None:
        self.queue.push(job)
        self._drain()

    def on_departure(self, job: "Job") -> None:
        self._drain()

    def _drain(self) -> None:
        started = True
        while started:
            started = False
            candidates = list(self.queue)[: self.window]
            for job in candidates:
                assignment = try_place(
                    self.request_type, job.components, self._free,
                    rule=self._placement_rule,
                )
                if assignment is None:
                    continue
                self.queue.jobs.remove(job)
                self.system.start_job(job, assignment,
                                      from_global_queue=True)
                started = True
                break  # re-snapshot the window after every start


class EasyBackfillGSPolicy(Policy):
    """GS with EASY (conservative, reservation-based) backfilling.

    The head of the queue receives a *reservation*: the earliest future
    time at which enough processors will be free on distinct clusters,
    computed from the (estimated) completion times of running jobs.
    Later jobs may start out of order only if they are estimated to
    finish by the reservation — so, unlike the aggressive
    :class:`BackfillGSPolicy`, the head can never starve.

    Parameters
    ----------
    estimator:
        Maps a job to its *estimated* gross runtime.  ``None`` uses the
        exact runtime (perfect estimates — the idealised upper bound).
        Real schedulers see user estimates, typically overestimates;
        pass e.g. ``lambda job: 3.0 * job.gross_service_time`` to study
        the cost of inaccuracy (the estimate-accuracy ablation).
        Underestimates are clamped so a reservation never predates the
        jobs' actual remaining occupancy being *believed* over: the
        reservation simply turns out wrong and is recomputed at the
        next scheduling event, as in real EASY.
    """

    name = "GS-EASY"
    request_type = RequestType.UNORDERED

    def __init__(self, system: "MulticlusterSimulation",
                 estimator: Optional[Callable[["Job"], float]] = None) -> None:
        super().__init__(system)
        self.queue = JobQueue("global", is_global=True)
        self.estimator = estimator
        #: (estimated finish, placement) of running jobs.
        self._running: dict[int, tuple[float, tuple[tuple[int, int], ...]]] = {}
        self.backfills = 0

    def queues(self) -> Sequence[JobQueue]:
        return (self.queue,)

    def submit(self, job: "Job") -> None:
        self.queue.push(job)
        self._drain()

    def on_departure(self, job: "Job") -> None:
        self._running.pop(id(job), None)
        self._drain()

    def _estimate(self, job: "Job") -> float:
        if self.estimator is None:
            return job.gross_service_time
        est = float(self.estimator(job))
        if est <= 0:
            raise ValueError(f"estimate must be positive, got {est!r}")
        return est

    def _start(self, job: "Job",
               assignment: tuple[tuple[int, int], ...]) -> None:
        finish = self.system.sim.now + self._estimate(job)
        self.system.start_job(job, assignment, from_global_queue=True)
        self._running[id(job)] = (finish, tuple(assignment))

    def _head_reservation(self, head: "Job") -> Optional[float]:
        """Earliest time the head fits, replaying future departures."""
        free = list(self._free)
        events = sorted(self._running.values())
        now = self.system.sim.now
        if try_place(self.request_type, head.components, free,
                     rule=self._placement_rule) is not None:
            return now
        for finish, placement in events:
            for cluster, procs in placement:
                free[cluster] += procs
            if try_place(self.request_type, head.components, free,
                         rule=self._placement_rule) is not None:
                return finish
        return None  # cannot ever fit (should not happen: job <= system)

    def _drain(self) -> None:
        # Phase 1: start in FCFS order while heads fit.
        while self.queue:
            head = self.queue.head
            assignment = try_place(self.request_type, head.components,
                                   self._free,
                                   rule=self._placement_rule)
            if assignment is None:
                break
            self.queue.pop()
            self._start(head, assignment)
        if not self.queue:
            return
        # Phase 2: reserve for the head, backfill jobs that fit now and
        # finish before the reservation.
        head = self.queue.head
        reservation = self._head_reservation(head)
        if reservation is None:
            return
        now = self.system.sim.now
        candidates = list(self.queue)[1:]
        for job in candidates:
            if now + self._estimate(job) > reservation + 1e-12:
                continue
            assignment = try_place(self.request_type, job.components,
                                   self._free,
                                   rule=self._placement_rule)
            if assignment is None:
                continue
            # Starting this job must not push the reservation back:
            # it finishes before the reservation, so the processors it
            # takes are returned in time.  (This is the EASY guarantee
            # with exact runtimes.)
            self.queue.jobs.remove(job)
            self._start(job, assignment)
            self.backfills += 1


def make_backfill_policy(
    window: int,
) -> Callable[["MulticlusterSimulation"], BackfillGSPolicy]:
    """A policy factory for :class:`BackfillGSPolicy` with a window."""

    def factory(system: "MulticlusterSimulation") -> BackfillGSPolicy:
        return BackfillGSPolicy(system, window=window)

    return factory


#: Extension-policy registry (name → class), kept separate from the
#: paper's POLICIES so the core registry stays exactly the §2.5 set.
EXTENSION_POLICIES = {
    "GS-ORDERED": OrderedGSPolicy,
    "GS-FLEX": FlexibleGSPolicy,
    "GS-BF": BackfillGSPolicy,
    "GS-EASY": EasyBackfillGSPolicy,
}


def register_extension_policies() -> None:
    """Add the extension policies to the main registry (idempotent)."""
    from .policies import POLICIES

    POLICIES.update(EXTENSION_POLICIES)
