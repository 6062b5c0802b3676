"""Edge-case tests for the engine's boundary semantics."""

import pytest

from repro.sim import EmptySchedule, Simulator


def test_zero_delay_timeout_fires_now_after_current_event():
    sim = Simulator()
    order = []

    def first(_event):
        order.append(("before", sim.now))
        sim.timeout(0.0).callbacks.append(
            lambda e: order.append(("after", sim.now)))
        order.append(("still in callback", sim.now))

    sim.defer(0.0, (first,))
    sim.run()
    assert order == [("before", 0.0), ("still in callback", 0.0),
                     ("after", 0.0)]


def test_event_exactly_at_run_horizon_is_processed():
    # run(until=t): events scheduled at exactly t... the stop event is
    # urgent, so it fires BEFORE normal events at the same time — the
    # horizon is exclusive for same-time normal events.
    sim = Simulator()
    fired = []
    ev = sim.timeout(5.0)
    ev.callbacks.append(lambda e: fired.append(sim.now))
    sim.run(until=5.0)
    assert fired == []
    assert sim.now == 5.0
    # Continuing the run processes it.
    sim.run()
    assert fired == [5.0]


def test_run_resumable_after_horizon():
    sim = Simulator()
    ticks = []

    def tick(_event):
        ticks.append(sim.now)
        sim.defer(1.0, (tick,))

    sim.defer(1.0, (tick,))
    sim.run(until=3.5)
    assert ticks == [1.0, 2.0, 3.0]
    sim.run(until=5.5)
    assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_run_until_now_is_noop():
    sim = Simulator(initial_time=2.0)
    sim.timeout(1.0)
    sim.run(until=2.0)
    assert sim.now == 2.0


def test_step_after_drain_raises():
    sim = Simulator()
    sim.timeout(1.0)
    sim.run()
    with pytest.raises(EmptySchedule):
        sim.step()


def test_massive_simultaneous_events_preserve_fifo():
    sim = Simulator()
    fired = []
    for i in range(500):
        ev = sim.timeout(1.0, value=i)
        ev.callbacks.append(lambda e: fired.append(e.value))
    sim.run()
    assert fired == list(range(500))


def test_events_processed_counter_includes_internal_events():
    sim = Simulator()
    sim.timeout(1.0)
    sim.run(until=5.0)
    # The timeout + the run's internal horizon event.
    assert sim.events_processed == 2
    assert sim.events_scheduled == 2


def test_nested_scheduling_during_callbacks():
    sim = Simulator()
    spawned = []

    def child(event):
        depth = event.value
        spawned.append(depth)
        if depth < 5:
            sim.defer(0.5, (child,), depth + 1)

    sim.defer(0.5, (child,), 1)
    sim.run()
    assert spawned == [1, 2, 3, 4, 5]
    assert sim.now == pytest.approx(2.5)
