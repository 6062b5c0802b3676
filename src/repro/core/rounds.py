"""The §2.5 queue rules, written once for both simulation backends.

All four paper policies are FCFS per queue: only the job at the head of
a queue may start.  GS and SC drain their single queue while the head
fits.  LS and LP visit their *enabled* queues round-robin, starting at
most one job per queue per round; a queue whose head does not fit is
*disabled* until the next departure, and at each departure the disabled
queues are re-enabled in the order in which they were disabled.  LP
adds local priority: its global queue may start jobs only while some
local queue is empty, it is re-enabled first at a departure when some
local queue is empty (and stays disabled otherwise), and it rejoins the
visit list as soon as a local queue empties mid-round.

The rules act on plain containers, indexed by queue id:

* ``qs`` — the queue deques.  LS: one local queue per cluster (queue id
  == cluster index).  LP: id 0 is the global queue, ids 1..C the local
  queues.  GS/SC: the single queue.
* the *ring* of LS and LP: ``visit`` (ids of the enabled queues, in
  enablement order), ``disabled`` (ids of the disabled queues, in
  disablement order) and ``enabled`` (one flag per id).

Jobs, clusters and time stay with the backend.  It supplies one
callback per head, ``try_start(qid, head) -> bool``: place ``head`` for
queue ``qid`` and, on a fit, start it.  The rules pop a started head
afterwards.  An optional ``observer(action, qid, order)`` sees every
ring change: ``("disable", qid, position in the disabled list)``,
``("enable", qid, position in the re-enable sequence)`` and
``("reenable", 0, 0)`` when LP's global queue rejoins mid-round.

The scalar policies (:mod:`repro.core.policies`) and the batch kernel
(:mod:`repro.sim.batch`) both call these functions.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional, Sequence

__all__ = ["TryStart", "RingObserver", "new_ring", "drain",
           "some_local_empty", "needs_rounds", "rounds", "reenable"]

#: ``try_start(qid, head) -> started``: place and, on a fit, start.
TryStart = Callable[[int, Any], bool]

#: ``observer(action, qid, order)``, fired on every ring change.
RingObserver = Callable[[str, int, int], None]


def new_ring(nq: int) -> tuple[list[int], list[int], list[bool]]:
    """``(visit, disabled, enabled)`` for ``nq`` queues, all enabled."""
    if nq < 1:
        raise ValueError(f"need at least one queue, got {nq}")
    return list(range(nq)), [], [True] * nq


def drain(queue: "deque[Any]", try_start: TryStart) -> None:
    """FCFS on a single queue (GS/SC): start heads while they fit.

    A head that does not fit stops the drain; it is tried again at the
    next arrival or departure.
    """
    while queue and try_start(0, queue[0]):
        queue.popleft()


def some_local_empty(qs: Sequence["deque[Any]"]) -> bool:
    """LP's local-priority test: is some local queue (id >= 1) empty?"""
    return not all(qs[1:])


def needs_rounds(qs: Sequence["deque[Any]"], enabled: Sequence[bool],
                 qid: int, lp: bool) -> bool:
    """The arrival rule: after a push to queue ``qid``, can the visiting
    rounds start anything?

    Every :func:`rounds` call ends with each enabled queue empty, except
    LP's global queue while every local queue holds a job (the gate
    skips it), and a push never empties a queue.  So a round after a
    push to a disabled queue, or to LP's global queue while no local
    queue is empty, visits only empty or gated queues: it places
    nothing and changes no ring state.

    GS/SC have no ring and drain at every arrival.  The batch kernel
    alone skips that drain when the push lands on a non-empty queue:
    the head is the one the last drain left because it did not fit,
    and free processors grow only at departures, which drain.  The
    scalar policies keep the drain, since each retry is a counted
    placement attempt and a traced ``placement_no_fit`` row.
    """
    return enabled[qid] and (not lp or qid != 0 or some_local_empty(qs))


def rounds(qs: Sequence["deque[Any]"], visit: list[int],
           disabled: list[int], enabled: list[bool], lp: bool,
           try_start: TryStart,
           observer: Optional[RingObserver] = None) -> None:
    """The LS/LP visiting rounds.

    Each pass visits a snapshot of ``visit``, so a queue disabled or
    re-enabled during the pass keeps the pass's order.  An enabled
    non-empty queue gets one start attempt per pass; a head that does
    not fit disables its queue.  Passes repeat while one started a job.
    Under ``lp`` the global queue is skipped — not disabled — unless
    some local queue is empty, tested at each visit, and a start that
    empties a local queue while the global queue is disabled puts the
    global queue back on the visit list.
    """
    progress = True
    while progress:
        progress = False
        for qid in tuple(visit):
            q = qs[qid]
            if not enabled[qid] or not q:
                continue
            if lp and not qid and not some_local_empty(qs):
                continue
            if not try_start(qid, q[0]):
                enabled[qid] = False
                visit.remove(qid)
                disabled.append(qid)
                if observer is not None:
                    observer("disable", qid, len(disabled) - 1)
                continue
            q.popleft()
            progress = True
            if lp and qid and not q and not enabled[0]:
                disabled.remove(0)
                enabled[0] = True
                visit.append(0)
                if observer is not None:
                    observer("reenable", 0, 0)


def reenable(qs: Sequence["deque[Any]"], visit: list[int],
             disabled: list[int], enabled: list[bool], lp: bool,
             observer: Optional[RingObserver] = None) -> None:
    """The departure rule: move the disabled queues back to the visit
    list in disablement order.

    Under ``lp`` a disabled global queue goes first when some local
    queue is empty, and otherwise stays disabled (it rejoins at a later
    departure or when a local queue empties).
    """
    if not disabled:
        return
    hold_global = False
    if lp and not enabled[0]:
        disabled.remove(0)
        if some_local_empty(qs):
            disabled.insert(0, 0)
        else:
            hold_global = True
    for order, qid in enumerate(disabled):
        enabled[qid] = True
        if observer is not None:
            observer("enable", qid, order)
    visit.extend(disabled)
    disabled.clear()
    if hold_global:
        disabled.append(0)
