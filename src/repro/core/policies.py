"""The scheduling policies: GS, LS, LP and the single-cluster SC.

All four policies are FCFS per queue — only the job at the head of a
queue may start — and differ in how many queues exist, which jobs they
receive and which clusters each queue may use (paper §2.5):

* :class:`GSPolicy` — one global queue for all jobs; the scheduler picks
  clusters for every job (Worst Fit over distinct clusters).
* :class:`LSPolicy` — one local queue per cluster, each receiving both
  single- and multi-component jobs; single-component jobs may only run on
  their local cluster, multi-component jobs are co-allocated anywhere.
* :class:`LPPolicy` — local queues receive the single-component jobs, a
  global queue receives all multi-component jobs; local queues have
  priority: the global queue may start jobs only while at least one local
  queue is empty.
* :class:`SCPolicy` — the single-cluster reference: total requests in one
  cluster, FCFS.

Queue mechanics (disable on head-does-not-fit, re-enable at departures in
disablement order, at most one start per queue per visiting round) follow
§2.5 verbatim; they live in :mod:`repro.core.rounds`, which the batch
kernel shares.  Each policy here supplies the placement rule and the
start as one ``try_start`` callback.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from .placement import PlacementRule, place_components
from .queues import JobQueue
from .requests import RequestType, try_place
from .rounds import drain, needs_rounds, new_ring, reenable, rounds

if TYPE_CHECKING:  # pragma: no cover
    from .jobs import Job
    from .system import MulticlusterSimulation

__all__ = ["Policy", "GSPolicy", "LSPolicy", "LPPolicy", "SCPolicy",
           "POLICIES", "make_policy"]

#: Trace-event kind per ring-observer action (precomputed — the
#: observer fires on every ring change).
_QUEUE_KINDS = {"disable": "queue_disable", "enable": "queue_enable",
                "reenable": "queue_reenable"}


class Policy:
    """Base class wiring a policy to its system.

    Subclasses implement :meth:`submit` (a job arrived) and
    :meth:`on_departure` (a job left; re-enable queues and try to start
    more work).  They call ``self.system.start_job(job, assignment)`` to
    begin execution.
    """

    #: Registry name, set by subclasses.
    name: str = "?"

    def __init__(self, system: "MulticlusterSimulation") -> None:
        self.system = system
        #: Placement decisions taken (head-of-queue fit checks).
        self.placement_attempts = 0
        #: Placement decisions where the head did not fit anywhere.
        self.placement_failures = 0

    # -- interface -------------------------------------------------------------

    def submit(self, job: "Job") -> None:
        """Handle a job arrival."""
        raise NotImplementedError

    def on_departure(self, job: "Job") -> None:
        """Handle a job departure."""
        raise NotImplementedError

    def queues(self) -> Sequence[JobQueue]:
        """All queues of this policy (diagnostics)."""
        raise NotImplementedError

    def pending_jobs(self) -> int:
        """Jobs currently waiting in queues."""
        return sum(len(q) for q in self.queues())

    # -- helpers ---------------------------------------------------------------

    @property
    def _free(self) -> list[int]:
        # The live, incrementally maintained idle-count array — NOT a
        # snapshot.  Placement rules only read it; anything that wants
        # to mutate must copy (see Multicluster.free_view).
        return self.system.multicluster.free_view

    @property
    def _placement_rule(self) -> PlacementRule:
        return self.system.placement_rule

    def _note_placement(self, job: "Job", queue: JobQueue,
                        assignment: "Optional[tuple[tuple[int, int], ...]]"
                        ) -> None:
        """Count one placement decision and stream it as an event.

        For a fit the assignment *is* the Worst Fit cluster choice; for
        a no-fit the event names the queue that will be disabled.
        """
        self.placement_attempts += 1
        if assignment is None:
            self.placement_failures += 1
        tracer = self.system.tracer
        if tracer.enabled:
            if assignment is None:
                tracer.emit_row({"t": self.system.sim.now,
                                 "kind": "placement_no_fit",
                                 "job": job.spec.index,
                                 "queue": queue.name})
            else:
                tracer.emit_row({"t": self.system.sim.now,
                                 "kind": "placement_fit",
                                 "job": job.spec.index,
                                 "queue": queue.name,
                                 "assignment": tuple(assignment)})

    def __repr__(self) -> str:
        return f"<{type(self).__name__} pending={self.pending_jobs()}>"


class _SingleQueuePolicy(Policy):
    """Shared machinery for GS and SC: one FCFS queue, drain while the
    head fits."""

    request_type: RequestType = RequestType.UNORDERED

    def __init__(self, system: "MulticlusterSimulation") -> None:
        super().__init__(system)
        self.queue = JobQueue("global", is_global=True)

    def queues(self) -> Sequence[JobQueue]:
        return (self.queue,)

    def submit(self, job: "Job") -> None:
        self.queue.push(job)
        drain(self.queue.jobs, self._try_start)

    def on_departure(self, job: "Job") -> None:
        drain(self.queue.jobs, self._try_start)

    def _try_start(self, qid: int, head: "Job") -> bool:
        assignment = try_place(
            self.request_type, head.components, self._free,
            rule=self._placement_rule,
        )
        self._note_placement(head, self.queue, assignment)
        if assignment is None:
            return False
        self.system.start_job(head, assignment, from_global_queue=True)
        return True


class GSPolicy(_SingleQueuePolicy):
    """[GS] One global scheduler with one global queue for all jobs.

    The scheduler knows the idle counts of every cluster and chooses the
    clusters for each job — including the cluster of single-component
    jobs — with Worst Fit.
    """

    name = "GS"
    request_type = RequestType.UNORDERED


class SCPolicy(_SingleQueuePolicy):
    """[SC] The single-cluster reference: total requests under FCFS.

    Runs on a system whose multicluster has a single cluster of the
    combined size; a job fits iff its *total* size fits in one cluster.
    """

    name = "SC"
    request_type = RequestType.TOTAL


class _RingPolicy(Policy):
    """Shared state of LS and LP: the queues by id and their ring.

    ``visit``, ``disabled`` and ``enabled`` are the ring containers of
    :mod:`repro.core.rounds`, over queue ids that index
    :meth:`queues`.
    """

    #: Whether queue 0 is LP's global queue (local priority applies).
    _lp = False

    def _init_ring(self, queues: list[JobQueue]) -> None:
        self._queues = queues
        self._qs = [queue.jobs for queue in queues]
        self.visit, self.disabled, self.enabled = new_ring(len(queues))

    def queues(self) -> Sequence[JobQueue]:
        return tuple(self._queues)

    def _ring_event(self, action: str, qid: int, order: int) -> None:
        """Ring observer: count disables, stream every ring change."""
        queue = self._queues[qid]
        if action == "disable":
            queue.times_disabled += 1
        tracer = self.system.tracer
        if tracer.enabled:
            tracer.emit_row({"t": self.system.sim.now,
                             "kind": _QUEUE_KINDS[action],
                             "queue": queue.name, "order": order})

    def _push(self, qid: int, job: "Job") -> None:
        """Queue ``job`` and run the rounds the arrival rule asks for."""
        self._queues[qid].push(job)
        if needs_rounds(self._qs, self.enabled, qid, self._lp):
            rounds(self._qs, self.visit, self.disabled, self.enabled,
                   self._lp, self._try_start, self._ring_event)

    def _depart(self) -> None:
        """Re-enable the disabled queues, then run the rounds."""
        qs = self._qs
        reenable(qs, self.visit, self.disabled, self.enabled, self._lp,
                 self._ring_event)
        rounds(qs, self.visit, self.disabled, self.enabled, self._lp,
               self._try_start, self._ring_event)

    def _try_start(self, qid: int, head: "Job") -> bool:
        raise NotImplementedError


class LSPolicy(_RingPolicy):
    """[LS] One local queue per cluster; all queues receive both job
    types; single-component jobs run only on the local cluster.

    Scheduling visits all enabled queues round-robin, starting at most
    one job per queue per round; a queue whose head does not fit is
    disabled until the next departure; departures re-enable the disabled
    queues in disablement order.  The multi-queue structure gives LS a
    backfilling-like window equal to the number of clusters (§3.1.1).
    """

    name = "LS"

    def __init__(self, system: "MulticlusterSimulation") -> None:
        super().__init__(system)
        n = len(system.multicluster)
        self.local_queues = [JobQueue(f"local-{i}", index=i)
                             for i in range(n)]
        self._init_ring(self.local_queues)

    def submit(self, job: "Job") -> None:
        self._push(job.origin_queue % len(self.local_queues), job)

    def on_departure(self, job: "Job") -> None:
        self._depart()

    def _try_start(self, qid: int, head: "Job") -> bool:
        if head.is_multi_component:
            assignment = place_components(head.components, self._free,
                                          self._placement_rule)
        elif self._free[qid] >= head.size:
            # Single-component: only the local cluster (queue id ==
            # cluster index).
            assignment = ((qid, head.size),)
        else:
            assignment = None
        self._note_placement(head, self.local_queues[qid], assignment)
        if assignment is None:
            return False
        self.system.start_job(head, assignment)
        return True


class LPPolicy(_RingPolicy):
    """[LP] Local queues for single-component jobs with priority; a
    global queue for all multi-component jobs.

    The global scheduler may start jobs only while at least one local
    queue is empty.  At departures: if one or more local queues are
    empty, the global queue and the local queues are all enabled,
    starting with the global queue; otherwise only the local queues are
    enabled, and the global queue joins the visit list as soon as a local
    queue empties.  Queue id 0 is the global queue, ids 1..C the local
    queues.
    """

    name = "LP"
    _lp = True

    def __init__(self, system: "MulticlusterSimulation") -> None:
        super().__init__(system)
        n = len(system.multicluster)
        self.local_queues = [JobQueue(f"local-{i}", index=i)
                             for i in range(n)]
        self.global_queue = JobQueue("global", is_global=True)
        self._init_ring([self.global_queue] + self.local_queues)

    def submit(self, job: "Job") -> None:
        if job.is_multi_component:
            self._push(0, job)
        else:
            self._push(1 + job.origin_queue % len(self.local_queues), job)

    def on_departure(self, job: "Job") -> None:
        self._depart()

    def _try_start(self, qid: int, head: "Job") -> bool:
        if not qid:
            assignment = place_components(head.components, self._free,
                                          self._placement_rule)
        elif self._free[qid - 1] >= head.size:
            # A local queue: only its own cluster.
            assignment = ((qid - 1, head.size),)
        else:
            assignment = None
        self._note_placement(head, self._queues[qid], assignment)
        if assignment is None:
            return False
        self.system.start_job(head, assignment,
                              from_global_queue=not qid)
        return True


#: Policy registry by paper name.
POLICIES = {
    "GS": GSPolicy,
    "LS": LSPolicy,
    "LP": LPPolicy,
    "SC": SCPolicy,
}


def make_policy(name: str, system: "MulticlusterSimulation") -> Policy:
    """Instantiate a policy from its registry name."""
    try:
        cls = POLICIES[name.upper()]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; choose from {sorted(POLICIES)}"
        ) from None
    return cls(system)
