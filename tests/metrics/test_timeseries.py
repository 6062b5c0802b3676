"""Tests for trajectory sampling."""

import numpy as np
import pytest

from repro.core import MulticlusterSimulation
from repro.metrics.timeseries import TimeSeriesProbe, TrajectoryRecorder
from repro.sim import Simulator, StreamFactory
from repro.workload import JobFactory, das_s_128, das_t_900
from repro.workload.generator import ArrivalProcess
from repro.sim.distributions import Deterministic


class TestTimeSeriesProbe:
    def test_samples_at_period(self):
        sim = Simulator()
        counter = {"v": 0.0}

        def bump(_event):
            counter["v"] += 1.0
            sim.defer(1.0, (bump,))

        sim.defer(1.0, (bump,))
        probe = TimeSeriesProbe(sim, {"v": lambda: counter["v"]},
                                period=2.0)
        sim.run(until=10.5)
        times, values = probe.series("v")
        assert list(times) == [2.0, 4.0, 6.0, 8.0, 10.0]
        # Tie order at even times: the probe's tick was scheduled
        # before the bump that re-armed at the previous odd time, so it
        # samples first (FIFO at equal time).
        assert list(values) == [1.0, 3.0, 5.0, 7.0, 9.0]
        assert len(probe) == 5

    def test_stop(self):
        sim = Simulator()
        probe = TimeSeriesProbe(sim, {"x": lambda: 1.0}, period=1.0)
        sim.call_at(3.5, probe.stop)
        sim.run(until=10.0)
        assert probe.times == [1.0, 2.0, 3.0]

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            TimeSeriesProbe(sim, {"x": lambda: 1.0}, period=0.0)
        with pytest.raises(ValueError):
            TimeSeriesProbe(sim, {}, period=1.0)

    def test_last_empty_is_nan(self):
        sim = Simulator()
        probe = TimeSeriesProbe(sim, {"x": lambda: 1.0}, period=1.0)
        assert np.isnan(probe.last("x"))


class TestTrajectoryRecorder:
    def test_multicluster_signals(self):
        system = MulticlusterSimulation("LS")
        recorder = TrajectoryRecorder(system, period=50.0)
        factory = JobFactory(das_s_128(), Deterministic(100.0), 16,
                             streams=StreamFactory(2))
        for _ in range(60):
            system.submit(factory.next_job())
        system.sim.run(until=600.0)
        # Signals exist for every queue and cluster.
        names = set(recorder.probe.signals)
        assert {"backlog", "busy"} <= names
        assert sum(1 for n in names if n.startswith("queue:")) == 4
        assert sum(1 for n in names if n.startswith("cluster:")) == 4
        # The sampled busy average is within capacity.
        assert 0.0 <= recorder.mean_busy() <= 128.0
        # Busiest queue resolves to a real queue name.
        assert recorder.busiest_queue().startswith("local-")

    def test_queue_series_shape(self):
        system = MulticlusterSimulation("GS")
        recorder = TrajectoryRecorder(system, period=10.0)
        system.sim.run(until=55.0)
        times, values = recorder.queue_series("global")
        assert len(times) == len(values) == 5
        assert np.all(values == 0.0)

    def test_pinned_trajectory_for_fixed_seed(self):
        """Sample times and values of a seeded LS run, pinned exactly.

        ``stop()`` at t=2600 takes effect at the next boundary (2750):
        the last sample is the one at 2500.
        """
        system = MulticlusterSimulation("LS")
        recorder = TrajectoryRecorder(system, period=250.0)
        factory = JobFactory(das_s_128(), das_t_900(), 16,
                             streams=StreamFactory(4))
        ArrivalProcess(system.sim, factory, 0.03, system.submit,
                       limit=200, rng=StreamFactory(4).get("arrivals.iat"))
        system.sim.call_at(2600.0, recorder.probe.stop)
        system.sim.run(until=4000.0)
        assert recorder.probe.times == [250.0 * k for k in range(1, 11)]
        samples = recorder.probe.samples
        assert samples["backlog"] == [
            0.0, 0.0, 4.0, 2.0, 3.0, 3.0, 8.0, 15.0, 26.0, 29.0]
        assert samples["busy"] == [
            52.0, 101.0, 56.0, 74.0, 86.0, 112.0, 88.0, 75.0, 66.0, 128.0]
        assert samples["cluster:0.busy"] == [
            15.0, 28.0, 0.0, 22.0, 22.0, 24.0, 24.0, 18.0, 18.0, 32.0]
        assert samples["cluster:1.busy"] == [
            11.0, 28.0, 16.0, 16.0, 31.0, 31.0, 31.0, 24.0, 16.0, 32.0]
        assert samples["cluster:2.busy"] == [
            11.0, 17.0, 17.0, 20.0, 17.0, 29.0, 17.0, 17.0, 16.0, 32.0]
        assert samples["cluster:3.busy"] == [
            15.0, 28.0, 23.0, 16.0, 16.0, 28.0, 16.0, 16.0, 16.0, 32.0]
        assert samples["queue:local-0"] == [
            0.0, 0.0, 2.0, 0.0, 2.0, 0.0, 1.0, 3.0, 7.0, 7.0]
        assert samples["queue:local-1"] == [
            0.0, 0.0, 0.0, 0.0, 0.0, 2.0, 4.0, 5.0, 10.0, 9.0]
        assert samples["queue:local-2"] == [
            0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 4.0, 4.0, 7.0]
        assert samples["queue:local-3"] == [
            0.0, 0.0, 2.0, 2.0, 0.0, 0.0, 2.0, 3.0, 5.0, 6.0]
