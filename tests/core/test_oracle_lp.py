"""Independent reference implementation of the LP protocol.

A from-scratch chronological replay of LP, written from the policy
text of §2.5 rather than from the engine's queue code: local queues
receive the single-component jobs and run them on their own cluster
only; one global queue receives every multi-component job; the §2.5
enable/disable discipline and visiting rounds apply to all queues; and
local queues have priority:

* the global queue may start a job only while some local queue is
  empty (tested when the global queue's turn comes; a blocked global
  queue is passed over, not disabled);
* at a departure, if some local queue is empty, the disabled queues are
  re-enabled global queue first, the rest in disablement order;
  otherwise only the local queues are re-enabled;
* when a local queue empties while the global queue is disabled, the
  global queue rejoins the visit list at once.

Two choices the text leaves open follow the engine: the queues start
enabled in the order global, local 0, local 1, ...; and one round
visits the queues that were enabled when it began, in that order.

The replay runs the rounds after *every* arrival, so it also checks
that the engine's arrival rule, which skips rounds it proves idle,
changes nothing.  Inputs are tie-free: no arrival coincides with a
departure (the same-time event order is a separate question).
"""

import heapq
from collections import Counter

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import MulticlusterSimulation
from repro.core.placement import worst_fit
from repro.workload import JobSpec
from repro.workload.splitting import split_size

CAPS = (32, 32, 32, 32)
EXTENSION = 1.25
GLOBAL = "global"


class TieError(Exception):
    """An arrival coincides with a departure."""


class ReferenceLP:
    """Chronological LP replay (no event engine, no shared queue code)."""

    def __init__(self, jobs):
        # jobs: list of (arrival, components, service, origin cluster)
        self.jobs = jobs
        self.free = list(CAPS)
        self.queues = {GLOBAL: []}
        for cluster in range(len(CAPS)):
            self.queues[cluster] = []
        self.visit = [GLOBAL, *range(len(CAPS))]
        self.disabled = []
        self.results = {}
        self.departures = []                      # (finish, seq, idx)
        self.seq = 0
        self.now = 0.0
        #: How often each LP-specific rule changed the course of the run.
        self.fired = Counter()

    def gross(self, idx):
        _, components, service, _ = self.jobs[idx]
        return service * (EXTENSION if len(components) > 1 else 1.0)

    def some_local_empty(self):
        return any(not self.queues[c] for c in range(len(CAPS)))

    def fit(self, name, idx):
        _, components, _, _ = self.jobs[idx]
        if name == GLOBAL:
            return worst_fit(components, self.free)
        if self.free[name] >= components[0]:
            return ((name, components[0]),)
        return None

    def start(self, idx, assignment):
        for cluster, procs in assignment:
            self.free[cluster] -= procs
        finish = self.now + self.gross(idx)
        self.results[idx] = (self.now, finish, assignment)
        self.seq += 1
        heapq.heappush(self.departures, (finish, self.seq, idx))

    def rounds(self):
        started = True
        while started:
            started = False
            for name in list(self.visit):
                if name in self.disabled or not self.queues[name]:
                    continue
                if name == GLOBAL and not self.some_local_empty():
                    self.fired["gate"] += 1
                    continue
                head = self.queues[name][0]
                assignment = self.fit(name, head)
                if assignment is None:
                    self.visit.remove(name)
                    self.disabled.append(name)
                    continue
                self.queues[name].pop(0)
                self.start(head, assignment)
                started = True
                if (name != GLOBAL and not self.queues[name]
                        and GLOBAL in self.disabled):
                    self.disabled.remove(GLOBAL)
                    self.visit.append(GLOBAL)
                    self.fired["rejoin"] += 1

    def depart(self, idx):
        for cluster, procs in self.results[idx][2]:
            self.free[cluster] += procs
        back = [name for name in self.disabled if name != GLOBAL]
        stay = []
        if GLOBAL in self.disabled:
            if self.some_local_empty():
                back.insert(0, GLOBAL)
                self.fired["global_first"] += 1
            else:
                stay.append(GLOBAL)
                self.fired["hold"] += 1
        self.visit.extend(back)
        self.disabled = stay
        self.rounds()

    def arrive(self, idx):
        _, components, _, origin = self.jobs[idx]
        name = GLOBAL if len(components) > 1 else origin
        self.queues[name].append(idx)
        self.rounds()

    def run(self):
        order = sorted(range(len(self.jobs)), key=lambda i: self.jobs[i][0])
        next_arrival = 0
        while next_arrival < len(order) or self.departures:
            t_arr = (self.jobs[order[next_arrival]][0]
                     if next_arrival < len(order) else None)
            t_dep = self.departures[0][0] if self.departures else None
            if t_arr is not None and t_arr == t_dep:
                raise TieError(t_arr)
            if t_dep is not None and (t_arr is None or t_dep < t_arr):
                self.now = t_dep
                _, _, idx = heapq.heappop(self.departures)
                self.depart(idx)
            else:
                self.now = t_arr
                self.arrive(order[next_arrival])
                next_arrival += 1
        return [self.results[i][:2] for i in range(len(self.jobs))]


def engine_lp(jobs):
    system = MulticlusterSimulation("LP", CAPS, extension_factor=EXTENSION)
    tracked = {}
    for i, (arrival, components, service, origin) in enumerate(jobs):
        spec = JobSpec(index=i, size=sum(components),
                       components=components, service_time=service,
                       queue=origin)

        def submit(spec=spec, i=i):
            tracked[i] = system.submit(spec)

        system.sim.call_at(arrival, submit)
    system.sim.run()
    return [(tracked[i].start_time, tracked[i].finish_time)
            for i in range(len(jobs))]


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
    for arrival, size, service, origin in raw:
        while arrival in used:
            arrival += 1e-3
        used.add(arrival)
        jobs.append((arrival, split_size(size, 16, 4), service, origin))
    return jobs


def replay(jobs):
    """The reference result, or ``None`` for an input with a tie."""
    try:
        return ReferenceLP(jobs).run()
    except TieError:
        return None


@given(job_stream)
@settings(max_examples=80, deadline=None)
def test_engine_lp_matches_reference(raw):
    jobs = build_jobs(raw)
    expected = replay(jobs)
    assume(expected is not None)
    assert engine_lp(jobs) == expected


def test_fixed_scenario_exercises_every_lp_rule():
    """A seeded near-saturation stream in which every LP rule decides
    something, replayed by both sides.

    Small multi-component jobs (17-24 processors, two components) among
    cluster-filling single-component ones make each rule change some
    start time here: an engine without the gate, the mid-round rejoin,
    the global-first re-enable or the arrival rule's gate test diverges
    from the replay on this stream.
    """
    rng = np.random.default_rng(5)
    raw = [
        (float(t), int(s), float(sv), int(o))
        for t, s, sv, o in zip(
            np.cumsum(rng.exponential(1.0, 80)),
            rng.choice([8, 14, 16, 16, 17, 20, 24], 80),
            rng.exponential(40.0, 80) + 1.0,
            rng.integers(0, 4, 80),
        )
    ]
    jobs = build_jobs(raw)
    reference = ReferenceLP(jobs)
    expected = reference.run()
    assert engine_lp(jobs) == expected
    assert set(reference.fired) == {"gate", "hold", "rejoin",
                                    "global_first"}
