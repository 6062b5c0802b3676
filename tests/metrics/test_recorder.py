"""Unit tests for the metrics recorder (utilization and response)."""

import math
import random

import pytest

from repro.core import Job
from repro.metrics import MetricsRecorder, SlowdownTracker
from repro.sim.quantiles import P2Quantile, QuantileSet
from repro.sim.stats import Tally, TimeWeighted, student_t_quantile
from repro.workload import JobSpec


def job(size=16, components=(16,), service=100.0, arrival=0.0):
    spec = JobSpec(index=0, size=size, components=tuple(components),
                   service_time=service, queue=0)
    return Job(spec, arrival, 1.25)


class TestLifecycleAccounting:
    def test_single_job_utilization_exact(self):
        rec = MetricsRecorder(capacity=128)
        j = job(size=64, service=100.0)
        rec.on_arrival(j, 0.0)
        j.start(0.0, [(0, 64)])
        rec.on_start(j, 0.0)
        j.finish(100.0)
        rec.on_finish(j, 100.0)
        report = rec.report(100.0)
        # 64 processors busy for 100 of 100 s on 128: exactly 0.5.
        assert report.gross_utilization == pytest.approx(0.5)
        assert report.net_utilization == pytest.approx(0.5)
        assert report.mean_response == pytest.approx(100.0)

    def test_multi_component_gross_vs_net(self):
        rec = MetricsRecorder(capacity=128)
        j = job(size=64, components=(32, 32), service=100.0)
        rec.on_arrival(j, 0.0)
        j.start(0.0, [(0, 32), (1, 32)])
        rec.on_start(j, 0.0)
        j.finish(125.0)  # extended by 1.25
        rec.on_finish(j, 125.0)
        report = rec.report(125.0)
        # Gross: 64 busy for 125 s; net: the same work at rate 64/1.25.
        assert report.gross_utilization == pytest.approx(
            64 * 125 / (128 * 125)
        )
        assert report.net_utilization == pytest.approx(
            64 * 100 / (128 * 125)
        )

    def test_partial_inflight_job_counted(self):
        # A job still running at the report time contributes its
        # elapsed busy time exactly.
        rec = MetricsRecorder(capacity=128)
        j = job(size=32, service=1000.0)
        rec.on_arrival(j, 0.0)
        j.start(0.0, [(0, 32)])
        rec.on_start(j, 0.0)
        assert rec.gross_utilization(50.0) == pytest.approx(
            32 * 50 / (128 * 50)
        )

    def test_local_vs_global_breakdown(self):
        rec = MetricsRecorder(capacity=128)
        a, b = job(service=10.0), job(service=30.0)
        for x, t, is_global in ((a, 0.0, False), (b, 0.0, True)):
            rec.on_arrival(x, t)
            x.start(t, [(0, 16)])
            rec.on_start(x, t)
        a.finish(10.0)
        rec.on_finish(a, 10.0, global_queue=False)
        b.finish(30.0)
        rec.on_finish(b, 30.0, global_queue=True)
        report = rec.report(30.0)
        assert report.mean_response_local == pytest.approx(10.0)
        assert report.mean_response_global == pytest.approx(30.0)
        assert report.mean_response == pytest.approx(20.0)

    def test_queue_population_signals(self):
        rec = MetricsRecorder(capacity=4)
        j = job(size=4, components=(4,), service=10.0)
        rec.on_arrival(j, 0.0)
        j.start(5.0, [(0, 4)])
        rec.on_start(j, 5.0)
        j.finish(15.0)
        rec.on_finish(j, 15.0)
        report = rec.report(20.0)
        # Waiting 5 of 20 s; in system 15 of 20 s.
        assert report.mean_jobs_waiting == pytest.approx(5 / 20)
        assert report.mean_jobs_in_system == pytest.approx(15 / 20)


class TestWindows:
    def test_reset_discards_history(self):
        rec = MetricsRecorder(capacity=128)
        j = job(size=128, service=100.0)
        rec.on_arrival(j, 0.0)
        j.start(0.0, [(0, 128)])
        rec.on_start(j, 0.0)
        j.finish(100.0)
        rec.on_finish(j, 100.0)
        rec.reset(100.0)
        assert rec.completions == 0
        report = rec.report(200.0)
        assert report.gross_utilization == pytest.approx(0.0)
        assert math.isnan(report.mean_response)

    def test_reset_preserves_levels(self):
        rec = MetricsRecorder(capacity=128)
        j = job(size=64, service=1000.0)
        rec.on_arrival(j, 0.0)
        j.start(0.0, [(0, 64)])
        rec.on_start(j, 0.0)
        rec.reset(10.0)
        # Still busy after the reset.
        assert rec.gross_utilization(20.0) == pytest.approx(0.5)

    def test_empty_window_rejected(self):
        rec = MetricsRecorder(capacity=8)
        with pytest.raises(ValueError):
            rec.report(0.0)

    def test_departure_before_the_last_start_rejected(self):
        # The finish passes the in-system signal (last moved at t=1)
        # but precedes the busy levels' last change at t=10.
        rec = MetricsRecorder(capacity=128)
        a, b = job(size=16), job(size=16)
        rec.on_arrival(a, 0.0)
        rec.on_arrival(b, 1.0)
        a.start(2.0, [(0, 16)])
        rec.on_start(a, 2.0)
        b.start(10.0, [(1, 16)])
        rec.on_start(b, 10.0)
        a.finish(5.0)
        with pytest.raises(ValueError, match="backwards"):
            rec.on_finish(a, 5.0)
        with pytest.raises(ValueError, match="backwards"):
            rec.gross_utilization(5.0)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            MetricsRecorder(capacity=0)


class TestReport:
    def test_as_dict_roundtrip(self):
        rec = MetricsRecorder(capacity=8)
        j = job(size=8, components=(8,), service=5.0)
        rec.on_arrival(j, 0.0)
        j.start(0.0, [(0, 8)])
        rec.on_start(j, 0.0)
        j.finish(5.0)
        rec.on_finish(j, 5.0)
        d = rec.report(10.0).as_dict()
        assert d["completed_jobs"] == 1
        assert set(d) >= {"gross_utilization", "net_utilization",
                          "mean_response", "elapsed"}

    def test_unknown_report_fields_rejected(self):
        from repro.metrics import UtilizationReport

        with pytest.raises(TypeError):
            UtilizationReport(bogus=1.0)


class _ReferenceRecorder:
    """The recorder as it was before it kept only what it reports: the
    default P² ladder, a full :class:`SlowdownTracker` and a wait tally
    on every departure.  It keeps its busy levels in two
    :class:`TimeWeighted` and its batch means in two :class:`Tally`, so
    it is independent of the ``RunStats`` record the recorder keeps.
    ``MetricsRecorder`` must report the same."""

    def __init__(self, capacity, batch_size=500):
        self.capacity = capacity
        self.batch_size = batch_size
        self.busy_gross = TimeWeighted()
        self.busy_net_rate = TimeWeighted()
        self.in_system = TimeWeighted()
        self.waiting = TimeWeighted()
        self.reset(0.0)

    def on_arrival(self, job, time):
        self.in_system.add(time, 1.0)
        self.waiting.add(time, 1.0)

    def on_start(self, job, time):
        self.waiting.add(time, -1.0)
        self.busy_gross.add(time, job.size)
        self.busy_net_rate.add(time, job.size / job.extension_factor)

    def on_finish(self, job, time, *, global_queue=False):
        self.completions += 1
        self.in_system.add(time, -1.0)
        self.busy_gross.add(time, -job.size)
        self.busy_net_rate.add(time, -job.size / job.extension_factor)
        self.response.record(job.response_time)
        self.batch_sum += job.response_time
        self.in_batch += 1
        if self.in_batch == self.batch_size:
            self.batches.record(self.batch_sum / self.batch_size)
            self.batch_sum = 0.0
            self.in_batch = 0
        self.quantiles.record(job.response_time)
        self.slowdowns.record_job(job)
        self.wait.record(job.wait_time)
        (self.response_global if global_queue
         else self.response_local).record(job.response_time)

    def reset(self, time):
        self.origin = time
        for signal in (self.busy_gross, self.busy_net_rate,
                       self.in_system, self.waiting):
            signal.reset(time)
        self.response = Tally()
        self.batches = Tally()
        self.batch_sum = 0.0
        self.in_batch = 0
        self.response_local = Tally()
        self.response_global = Tally()
        self.quantiles = QuantileSet()
        self.slowdowns = SlowdownTracker()
        self.wait = Tally()
        self.completions = 0

    def half_width(self, level=0.95):
        k = self.batches.count
        if k < 2:
            return math.inf
        t = student_t_quantile(0.5 + level / 2.0, k - 1)
        return t * self.batches.std / math.sqrt(k)

    def report(self, time):
        elapsed = time - self.origin
        denom = self.capacity * elapsed
        return dict(
            elapsed=elapsed,
            gross_utilization=self.busy_gross.integral(time) / denom,
            net_utilization=self.busy_net_rate.integral(time) / denom,
            mean_response=self.response.mean,
            response_ci_half_width=self.half_width(),
            mean_response_local=self.response_local.mean,
            mean_response_global=self.response_global.mean,
            response_p50=self.quantiles[0.5],
            response_p95=self.quantiles[0.95],
            mean_bounded_slowdown=self.slowdowns.mean_bounded_slowdown,
            mean_jobs_in_system=self.in_system.mean(time),
            mean_jobs_waiting=self.waiting.mean(time),
            completed_jobs=self.completions,
        )


def _lifecycle(seed, jobs=3000):
    """A seeded, time-ordered ``(time, kind, job, global_queue)`` stream
    of single- and multi-component jobs from local and global queues."""
    rng = random.Random(seed)
    events = []
    arrival = 0.0
    for index in range(jobs):
        arrival += rng.expovariate(1 / 20.0)
        parts = 1 if rng.random() < 0.5 else rng.randint(2, 4)
        components = sorted((rng.randint(1, 32) for _ in range(parts)),
                            reverse=True)
        service = rng.choice((rng.uniform(0.5, 9.5),
                              rng.expovariate(1 / 300.0)))
        spec = JobSpec(index=index, size=sum(components),
                       components=tuple(components), service_time=service,
                       queue=rng.randrange(4))
        j = Job(spec, arrival, 1.25)
        start = arrival + (0.0 if rng.random() < 0.3
                           else rng.expovariate(1 / 100.0))
        finish = start + j.gross_service_time
        global_queue = rng.random() < 0.4
        events += [(arrival, 0, j, global_queue),
                   (start, 1, j, global_queue),
                   (finish, 2, j, global_queue)]
    events.sort(key=lambda e: (e[0], e[1], e[2].spec.index))
    return events


def _replay(recorders, events, reset_after):
    """Drive every recorder through ``events``; reset each once after
    ``reset_after`` events and report before the reset and at the end."""
    reports = []
    for done, (time, kind, j, global_queue) in enumerate(events, 1):
        if kind == 0:
            for rec in recorders:
                rec.on_arrival(j, time)
        elif kind == 1:
            j.start(time, [(c, n) for c, n in enumerate(j.components)])
            for rec in recorders:
                rec.on_start(j, time)
        else:
            j.finish(time)
            for rec in recorders:
                rec.on_finish(j, time, global_queue=global_queue)
        if done == reset_after:
            reports.append([rec.report(time) for rec in recorders])
            for rec in recorders:
                rec.reset(time)
    end = events[-1][0] + 1.0
    reports.append([rec.report(end) for rec in recorders])
    return reports


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


class TestReportedStatisticsOnly:
    """The recorder keeps only the accumulators its report reads, and
    every reported figure is bit-identical to the full recorder's."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_report_matches_the_full_recorder(self, seed):
        events = _lifecycle(seed)
        rec = MetricsRecorder(capacity=128, batch_size=50)
        ref = _ReferenceRecorder(capacity=128, batch_size=50)
        for got, want in _replay([rec, ref], events, len(events) // 2):
            got = got.as_dict()
            assert set(got) == set(want)
            mismatched = {name: (got[name], want[name]) for name in got
                          if not _same(got[name], want[name])}
            assert not mismatched

    def test_nan_fields_match_on_an_empty_breakdown(self):
        # Only local-queue departures: the global mean is nan on both.
        events = [e[:3] + (False,) for e in _lifecycle(4, jobs=200)]
        rec = MetricsRecorder(capacity=128, batch_size=50)
        ref = _ReferenceRecorder(capacity=128, batch_size=50)
        [(got, want)] = _replay([rec, ref], events, 0)
        assert math.isnan(got.mean_response_global)
        assert all(_same(v, want[k]) for k, v in got.as_dict().items())

    def test_one_departure_updates_two_quantile_estimators(
            self, monkeypatch):
        calls = []
        real = P2Quantile.record

        def counting(self, value):
            calls.append(self.p)
            real(self, value)

        monkeypatch.setattr(P2Quantile, "record", counting)
        rec = MetricsRecorder(capacity=128)
        rec.reset(0.0)
        j = job(size=64, components=(32, 32), service=100.0)
        rec.on_arrival(j, 0.0)
        j.start(0.0, [(0, 32), (1, 32)])
        rec.on_start(j, 0.0)
        j.finish(125.0)
        assert calls == []
        rec.on_finish(j, 125.0, global_queue=True)
        assert sorted(calls) == [0.5, 0.95]
