"""Unit tests for the Event state machine."""

import pytest

from repro.sim import SchedulingError, Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestEventLifecycle:
    def test_fresh_event_is_untriggered(self, sim):
        ev = sim.event()
        assert not ev.triggered
        assert not ev.processed

    def test_value_before_trigger_raises(self, sim):
        with pytest.raises(SchedulingError):
            sim.event().value

    def test_ok_before_trigger_raises(self, sim):
        with pytest.raises(SchedulingError):
            sim.event().ok

    def test_succeed_sets_value_and_ok(self, sim):
        ev = sim.event().succeed(42)
        assert ev.triggered
        assert ev.ok
        assert ev.value == 42

    def test_succeed_twice_rejected(self, sim):
        ev = sim.event().succeed()
        with pytest.raises(SchedulingError):
            ev.succeed()

    def test_fail_then_succeed_rejected(self, sim):
        ev = sim.event().fail(RuntimeError())
        ev.defuse()
        with pytest.raises(SchedulingError):
            ev.succeed()

    def test_fail_requires_exception_instance(self, sim):
        with pytest.raises(TypeError):
            sim.event().fail("not an exception")

    def test_callbacks_receive_event(self, sim):
        ev = sim.event()
        got = []
        ev.callbacks.append(got.append)
        ev.succeed("x")
        sim.run()
        assert got == [ev]
        assert ev.processed

    def test_succeed_with_delay(self, sim):
        ev = sim.event()
        times = []
        ev.callbacks.append(lambda e: times.append(sim.now))
        ev.succeed(delay=4.0)
        sim.run()
        assert times == [4.0]

    def test_trigger_from_copies_success(self, sim):
        src = sim.event().succeed("payload")
        dst = sim.event()
        dst.trigger_from(src)
        assert dst.ok and dst.value == "payload"

    def test_trigger_from_copies_failure(self, sim):
        exc = RuntimeError("x")
        src = sim.event().fail(exc)
        src.defuse()
        dst = sim.event()
        dst.trigger_from(src)
        dst.defuse()
        assert not dst.ok and dst.value is exc
