"""Independent reference implementation of the LS protocol.

A from-scratch chronological replay of LS — local queues, the §2.5
enable/disable discipline, visiting rounds, cluster-local single-
component jobs — compared against the engine-based policy on random
workloads.  This pins the *entire* LS protocol, not just individual
rules.
"""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MulticlusterSimulation
from repro.core.placement import worst_fit
from repro.workload import JobSpec
from repro.workload.splitting import split_size

CAPS = (32, 32, 32, 32)
EXTENSION = 1.25


class ReferenceLS:
    """Chronological LS replay (no event engine, no shared queue code)."""

    def __init__(self, jobs):
        # jobs: list of (arrival, components, gross, queue_index)
        self.jobs = jobs
        self.free = list(CAPS)
        self.queues = [[] for _ in CAPS]          # job indices
        self.enabled = [True] * len(CAPS)
        self.visit = list(range(len(CAPS)))       # visit order
        self.disabled_order = []
        self.results = {}
        self.departures = []                      # (finish, seq, idx, asg)
        self.seq = 0
        self.now = 0.0

    def _fit(self, queue_index, job_index):
        _, components, _, _ = self.jobs[job_index]
        if len(components) > 1:
            return worst_fit(components, self.free)
        size = components[0]
        if self.free[queue_index] >= size:
            return ((queue_index, size),)
        return None

    def _start(self, job_index, assignment):
        for cluster, procs in assignment:
            self.free[cluster] -= procs
        _, _, gross, _ = self.jobs[job_index]
        finish = self.now + gross
        self.results[job_index] = (self.now, finish)
        self.seq += 1
        heapq.heappush(self.departures,
                       (finish, self.seq, job_index, assignment))

    def _disable(self, queue_index):
        if self.enabled[queue_index]:
            self.enabled[queue_index] = False
            self.visit.remove(queue_index)
            self.disabled_order.append(queue_index)

    def _enable_all(self):
        for queue_index in self.disabled_order:
            self.enabled[queue_index] = True
            self.visit.append(queue_index)
        self.disabled_order = []

    def _rounds(self):
        progress = True
        while progress:
            progress = False
            for queue_index in list(self.visit):
                if (not self.enabled[queue_index]
                        or not self.queues[queue_index]):
                    continue
                head = self.queues[queue_index][0]
                assignment = self._fit(queue_index, head)
                if assignment is None:
                    self._disable(queue_index)
                else:
                    self.queues[queue_index].pop(0)
                    self._start(head, assignment)
                    progress = True

    def run(self):
        order = sorted(range(len(self.jobs)),
                       key=lambda i: self.jobs[i][0])
        next_arrival = 0
        while next_arrival < len(order) or self.departures:
            t_arr = (self.jobs[order[next_arrival]][0]
                     if next_arrival < len(order) else None)
            t_dep = self.departures[0][0] if self.departures else None
            if t_dep is not None and (t_arr is None or t_dep <= t_arr):
                self.now = t_dep
                _, _, _, assignment = heapq.heappop(self.departures)
                for cluster, procs in assignment:
                    self.free[cluster] += procs
                self._enable_all()
                self._rounds()
            else:
                self.now = t_arr
                idx = order[next_arrival]
                next_arrival += 1
                queue_index = self.jobs[idx][3]
                self.queues[queue_index].append(idx)
                if self.enabled[queue_index]:
                    self._rounds()
        return [self.results[i] for i in range(len(self.jobs))]


def engine_ls(jobs):
    system = MulticlusterSimulation("LS", CAPS,
                                    extension_factor=EXTENSION)
    tracked = {}
    for i, (arrival, components, gross, queue) in enumerate(jobs):
        multi = len(components) > 1
        service = gross / (EXTENSION if multi else 1.0)
        spec = JobSpec(index=i, size=sum(components),
                       components=components, service_time=service,
                       queue=queue)

        def submit(spec=spec, i=i):
            tracked[i] = system.submit(spec)

        system.sim.call_at(arrival, submit)
    system.sim.run()
    return [
        (tracked[i].start_time, tracked[i].finish_time)
        for i in range(len(jobs))
    ]


job_stream = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=250.0, allow_nan=False),
        st.integers(min_value=1, max_value=128),
        st.floats(min_value=0.5, max_value=70.0, allow_nan=False),
        st.integers(min_value=0, max_value=3),
    ),
    min_size=1, max_size=25,
)


def build_jobs(raw):
    jobs, used = [], set()
    for arrival, size, service, queue in raw:
        while arrival in used:
            arrival += 1e-3
        used.add(arrival)
        components = split_size(size, 16, 4)
        gross = service * (EXTENSION if len(components) > 1 else 1.0)
        jobs.append((arrival, components, gross, queue))
    return jobs


@given(job_stream)
@settings(max_examples=60, deadline=None)
def test_engine_ls_matches_reference(raw):
    jobs = build_jobs(raw)
    expected = ReferenceLS(jobs).run()
    actual = engine_ls(jobs)
    for i, ((es, ef), (as_, af)) in enumerate(zip(expected, actual)):
        assert as_ == pytest.approx(es, abs=1e-6), (i, jobs[i])
        assert af == pytest.approx(ef, abs=1e-6), (i, jobs[i])


@pytest.mark.xfail(
    strict=True,
    reason="equal-timestamp tie, not an LS rule: the departure of the "
           "first job and the arrival of job 3 both fall at t=1.0; the "
           "engine fires same-time events in (time, rank, insertion) "
           "order, so the arrival, scheduled first, is handled before "
           "the departure, while the reference replay always handles "
           "departures first; no same-time event-order rule is chosen "
           "yet (ROADMAP.md: same-time event order)",
)
def test_ls_divergence_departure_round_ordering():
    """Minimal pinned trace where the engine and the oracle disagree.

    The cause is the arrival/departure tie at t=1.0: moving the arrival
    to 1.0 +- 1e-9 makes the two agree either way.  Kept as a strict
    xfail: once one same-time event-order rule holds on both sides,
    this starts passing and the xfail fails the suite, so the marker
    cannot go stale.
    """
    raw = [(0.0, 9, 1.0, 0), (0.0, 49, 1.0, 0), (0.0, 49, 1.0, 0),
           (1.0, 8, 1.0, 1)]
    jobs = build_jobs(raw)
    expected = ReferenceLS(jobs).run()
    actual = engine_ls(jobs)
    for i, ((es, ef), (as_, af)) in enumerate(zip(expected, actual)):
        assert as_ == pytest.approx(es, abs=1e-6), (i, jobs[i])
        assert af == pytest.approx(ef, abs=1e-6), (i, jobs[i])
