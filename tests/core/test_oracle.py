"""Cross-verification against an independent reference implementation.

The engine-based GS policy is re-simulated by a from-scratch
chronological replay (no event engine, no callbacks, no shared code
beyond the placement rule) and the two must produce identical start
and finish times for every job.  Any bug in the engine's event
ordering, the policy's drain loop or the departure plumbing breaks
this equivalence.  The same replay on one cluster of the combined
size, with every job one total request, is SC.
"""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MulticlusterSimulation
from repro.core.placement import worst_fit
from repro.workload import JobSpec
from repro.workload.splitting import split_size

CAPS = (32, 32, 32, 32)
SC_CAPS = (128,)
EXTENSION = 1.25


def reference_gs(jobs, caps=CAPS):
    """Chronological replay of GS: FCFS, WF over distinct clusters.

    ``jobs``: list of (arrival, components, gross_service).
    Returns [(start, finish)] per job, same order.  With ``caps`` a
    single cluster and one component per job this is SC: FCFS, a job
    fits iff its total size fits in the cluster.
    """
    free = list(caps)
    queue = []                   # indices, FCFS
    arrivals = sorted(range(len(jobs)), key=lambda i: jobs[i][0])
    departures = []              # heap of (finish, seq, job index)
    results = {}
    seq = 0
    next_arrival = 0
    now = 0.0

    def try_drain():
        nonlocal seq
        while queue:
            idx = queue[0]
            _, components, gross = jobs[idx]
            assignment = worst_fit(components, free)
            if assignment is None:
                return
            queue.pop(0)
            for cluster, procs in assignment:
                free[cluster] -= procs
            finish = now + gross
            results[idx] = [now, finish]
            seq += 1
            heapq.heappush(departures, (finish, seq, idx, assignment))

    while next_arrival < len(arrivals) or departures:
        # Pick the next chronological event; engine semantics: at equal
        # times, earlier-scheduled departures precede later arrivals
        # only if their event entered the calendar first.  Departures
        # are scheduled at start time, arrivals at submission — an
        # arrival at exactly a departure's time was scheduled earlier
        # (call_at at t=0 vs timeout mid-run) in the harness; keep the
        # engine's effective order: departures first at ties, matching
        # heapq eid order because the departure's timeout was created
        # before the later arrival's... to stay exact we use the same
        # rule the engine exhibits with this harness: process
        # departures before arrivals at equal times.
        t_arr = (jobs[arrivals[next_arrival]][0]
                 if next_arrival < len(arrivals) else None)
        t_dep = departures[0][0] if departures else None
        if t_dep is not None and (t_arr is None or t_dep <= t_arr):
            now = t_dep
            _, _, _, assignment = heapq.heappop(departures)
            for cluster, procs in assignment:
                free[cluster] += procs
            try_drain()
        else:
            now = t_arr
            queue.append(arrivals[next_arrival])
            next_arrival += 1
            try_drain()
    return [tuple(results[i]) for i in range(len(jobs))]


def engine_gs(jobs, policy="GS", caps=CAPS):
    """The same workload through the real engine + GS policy (or
    ``policy`` on ``caps``)."""
    system = MulticlusterSimulation(policy, caps,
                                    extension_factor=EXTENSION)
    tracked = {}
    for i, (arrival, components, gross) in enumerate(jobs):
        # gross = service * ext for multi; invert to the base service.
        multi = len(components) > 1
        service = gross / (EXTENSION if multi else 1.0)
        spec = JobSpec(index=i, size=sum(components),
                       components=components, service_time=service,
                       queue=0)

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
        st.floats(min_value=0.0, max_value=300.0, allow_nan=False),
        st.integers(min_value=1, max_value=128),
        st.floats(min_value=0.5, max_value=80.0, allow_nan=False),
    ),
    min_size=1, max_size=30,
)


def build_jobs(raw):
    jobs = []
    used = set()
    for arrival, size, service in raw:
        # Distinct arrival times keep the tie-order question out of the
        # oracle (tie-breaking inside the engine is tested separately).
        while arrival in used:
            arrival += 1e-3
        used.add(arrival)
        components = split_size(size, 16, 4)
        gross = service * (EXTENSION if len(components) > 1 else 1.0)
        jobs.append((arrival, components, gross))
    return jobs


@given(job_stream)
@settings(max_examples=60, deadline=None)
def test_engine_gs_matches_reference(raw):
    jobs = build_jobs(raw)
    expected = reference_gs(jobs)
    actual = engine_gs(jobs)
    for i, ((es, ef), (as_, af)) in enumerate(zip(expected, actual)):
        assert as_ == pytest.approx(es, abs=1e-6), (i, jobs[i])
        assert af == pytest.approx(ef, abs=1e-6), (i, jobs[i])


@given(job_stream)
@settings(max_examples=60, deadline=None)
def test_engine_sc_matches_reference(raw):
    # SC: every job is one total request on one cluster of the
    # combined size, so no extension factor applies.
    jobs = [(arrival, (size,), service)
            for (arrival, _, _), (_, size, service)
            in zip(build_jobs(raw), raw)]
    expected = reference_gs(jobs, caps=SC_CAPS)
    actual = engine_gs(jobs, policy="SC", caps=SC_CAPS)
    for i, ((es, ef), (as_, af)) in enumerate(zip(expected, actual)):
        assert as_ == pytest.approx(es, abs=1e-6), (i, jobs[i])
        assert af == pytest.approx(ef, abs=1e-6), (i, jobs[i])


def test_oracle_on_fixed_scenario():
    rng = np.random.default_rng(5)
    raw = [
        (float(t), int(s), float(sv))
        for t, s, sv in zip(
            np.cumsum(rng.exponential(20.0, 60)),
            rng.choice([1, 8, 16, 24, 64, 128], 60),
            rng.exponential(40.0, 60) + 1.0,
        )
    ]
    jobs = build_jobs(raw)
    assert engine_gs(jobs) == pytest.approx(reference_gs(jobs))
