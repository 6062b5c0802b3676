"""Tests for FCFS queues and the §2.5 queue rules."""

from collections import deque

import pytest

from repro.core import JobQueue, MulticlusterSimulation
from repro.core.rounds import (
    drain,
    needs_rounds,
    new_ring,
    reenable,
    rounds,
    some_local_empty,
)


def q(name, **kw):
    return JobQueue(name, **kw)


class TestJobQueue:
    def test_fifo(self):
        queue = q("local-0")
        queue.push("a")
        queue.push("b")
        assert queue.head == "a"
        assert queue.pop() == "a"
        assert queue.head == "b"

    def test_empty_head_none(self):
        assert q("x").head is None

    def test_truthiness_and_len(self):
        queue = q("x")
        assert not queue
        queue.push(1)
        assert queue
        assert len(queue) == 1

    def test_total_enqueued_counter(self):
        queue = q("x")
        for i in range(5):
            queue.push(i)
        queue.pop()
        assert queue.total_enqueued == 5

    def test_global_flag(self):
        assert q("global", is_global=True).is_global
        assert not q("local-0").is_global


class TestQueueRing:
    """The ring of LS/LP — visit list, disabled list, enabled flags —
    as the queue rules of :mod:`repro.core.rounds` maintain it."""

    def setup_method(self):
        self.events = []

    def observe(self, action, qid, order):
        self.events.append((action, qid, order))

    @staticmethod
    def never(qid, head):
        return False

    def test_needs_queues(self):
        with pytest.raises(ValueError):
            new_ring(0)

    def test_initial_visit_order(self):
        visit, disabled, enabled = new_ring(3)
        assert visit == [0, 1, 2]
        assert disabled == []
        assert enabled == [True, True, True]

    def test_disable_removes_from_rotation(self):
        qs = [deque(), deque(["b"]), deque()]
        visit, disabled, enabled = new_ring(3)
        rounds(qs, visit, disabled, enabled, False, self.never,
               self.observe)
        assert not enabled[1]
        assert visit == [0, 2]
        assert disabled == [1]
        assert self.events == [("disable", 1, 0)]

    def test_disable_idempotent(self):
        qs = [deque(["a"]), deque(), deque()]
        visit, disabled, enabled = new_ring(3)
        rounds(qs, visit, disabled, enabled, False, self.never,
               self.observe)
        rounds(qs, visit, disabled, enabled, False, self.never,
               self.observe)
        assert disabled == [0]
        assert self.events == [("disable", 0, 0)]

    def test_reenable_in_disablement_order(self):
        # §2.5: "At each job departure the queues are enabled in the
        # same order in which they were disabled."
        qs = [deque(), deque(), deque(["c"])]
        visit, disabled, enabled = new_ring(3)
        rounds(qs, visit, disabled, enabled, False, self.never)
        qs[0].append("a")
        rounds(qs, visit, disabled, enabled, False, self.never)
        assert disabled == [2, 0]
        reenable(qs, visit, disabled, enabled, False, self.observe)
        assert visit == [1, 2, 0]
        assert all(enabled)
        assert self.events == [("enable", 2, 0), ("enable", 0, 1)]

    def test_enable_all_global_first(self):
        # LP rule: "they are always enabled starting with the global
        # queue."  Id 0 is the global queue; local 2 (id 3) is empty.
        qs = [deque(["g"]), deque(["a"]), deque(["b"]), deque()]
        visit, disabled, enabled = [3], [2, 0, 1], [False, False, False,
                                                    True]
        reenable(qs, visit, disabled, enabled, True, self.observe)
        assert visit == [3, 0, 2, 1]
        assert disabled == []
        assert [order for _, _, order in self.events] == [0, 1, 2]

    def test_enable_all_skip_global(self):
        # LP rule: with no empty local queue, only locals re-enable.
        qs = [deque(["g"]), deque(["a"]), deque(["b"])]
        visit, disabled, enabled = [1], [0, 2], [False, True, False]
        reenable(qs, visit, disabled, enabled, True, self.observe)
        assert enabled[2]
        assert not enabled[0]
        assert disabled == [0]
        assert self.events == [("enable", 2, 0)]
        # The skipped global queue re-enables at the next opportunity.
        qs[1].clear()
        reenable(qs, visit, disabled, enabled, True)
        assert enabled[0]
        assert visit == [1, 2, 0]

    def test_reenable_single_queue(self):
        # LP: a local queue emptying mid-round brings the disabled
        # global queue back at once, at the end of the visit list.
        qs = [deque(["g"]), deque(["a"]), deque(["b"])]
        visit, disabled, enabled = [1, 2], [0], [False, True, True]
        started = []

        def local_only(qid, head):
            if qid == 1:
                started.append(head)
                return True
            return False

        rounds(qs, visit, disabled, enabled, True, local_only,
               self.observe)
        assert started == ["a"]
        assert ("reenable", 0, 0) in self.events
        # Re-enabled, then visited in the next pass: its head does not
        # fit, so it is disabled again behind queue 2.
        assert disabled == [2, 0]

    def test_reenable_enabled_queue_noop(self):
        qs = [deque(), deque(["a"]), deque()]
        visit, disabled, enabled = new_ring(3)
        rounds(qs, visit, disabled, enabled, True,
               lambda qid, head: True, self.observe)
        assert visit == [0, 1, 2]
        assert self.events == []

    def test_total_jobs(self):
        # Jobs waiting across every queue of a ring policy: the backlog
        # the saturation flag reads.
        policy = MulticlusterSimulation("LP", (32, 32, 32)).policy
        policy.local_queues[0].push("a")
        policy.local_queues[2].push("b")
        policy.global_queue.push("c")
        assert policy.pending_jobs() == 3


class TestQueueRules:
    """The FCFS drain, LP's gate and the arrival rule."""

    def test_drain_starts_heads_until_one_does_not_fit(self):
        queue = deque([3, 5, 1])
        started = []

        def fits_small(qid, head):
            if head > 4:
                return False
            started.append(head)
            return True

        drain(queue, fits_small)
        assert started == [3]
        assert list(queue) == [5, 1]

    def test_gate_skips_global_without_disabling_it(self):
        # Every local queue holds a job: the global queue is not even
        # tried, and it stays enabled.
        qs = [deque(["g"]), deque(["a"]), deque(["b"])]
        visit, disabled, enabled = new_ring(3)
        tried = []

        def never(qid, head):
            tried.append(qid)
            return False

        rounds(qs, visit, disabled, enabled, True, never)
        assert tried == [1, 2]
        assert enabled[0]
        assert disabled == [1, 2]

    def test_some_local_empty_ignores_the_global_queue(self):
        assert not some_local_empty([deque(), deque([1]), deque([2])])
        assert some_local_empty([deque([1]), deque([1]), deque()])

    def test_arrival_rule(self):
        qs = [deque(["g"]), deque(["a"]), deque(["b"])]
        enabled = [True, True, False]
        assert needs_rounds(qs, enabled, 1, True)
        assert not needs_rounds(qs, enabled, 2, True)
        # The gate blocks the global queue while no local is empty.
        assert not needs_rounds(qs, enabled, 0, True)
        qs[2].clear()
        assert needs_rounds(qs, enabled, 0, True)
        # LS has no gate: queue 0 is a local queue.
        qs[2].append("b")
        assert needs_rounds(qs, enabled, 0, False)
