"""FCFS job queues.

All schedulers in the paper are FCFS per queue: only the job at the head
of a queue may start.  :class:`JobQueue` is that FIFO queue plus its
name and counters; the queue rules that act on it (§2.5) live in
:mod:`repro.core.rounds`, which works on the queue's :attr:`jobs` deque.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover
    from .jobs import Job

__all__ = ["JobQueue"]


class JobQueue:
    """A FIFO queue of jobs.

    Attributes
    ----------
    name:
        Display name ("local-0", "global", ...).
    is_global:
        Marks the global queue of the LP policy (affects eligibility and
        metric attribution).
    index:
        Position of this queue in its policy's local-queue list (0 for
        global/standalone queues).  Precomputed so the scheduling hot
        path never scans ``local_queues.index(queue)``.
    jobs:
        The waiting jobs, head first: the deque the queue rules of
        :mod:`repro.core.rounds` drain.
    """

    __slots__ = ("name", "is_global", "index", "jobs",
                 "total_enqueued", "times_disabled")

    def __init__(self, name: str, *, is_global: bool = False,
                 index: int = 0) -> None:
        self.name = name
        self.is_global = is_global
        self.index = index
        self.jobs: deque["Job"] = deque()
        self.total_enqueued = 0
        #: How often this queue was disabled (head did not fit).
        self.times_disabled = 0

    def push(self, job: "Job") -> None:
        """Append a job to the tail."""
        self.jobs.append(job)
        self.total_enqueued += 1

    @property
    def head(self) -> Optional["Job"]:
        """The job eligible to start next (None when empty)."""
        return self.jobs[0] if self.jobs else None

    def pop(self) -> "Job":
        """Remove and return the head job."""
        return self.jobs.popleft()

    def __len__(self) -> int:
        return len(self.jobs)

    def __bool__(self) -> bool:  # truthiness = has jobs
        return bool(self.jobs)

    def __iter__(self) -> Iterator["Job"]:
        return iter(self.jobs)

    def __repr__(self) -> str:
        return f"<JobQueue {self.name} len={len(self)}>"
