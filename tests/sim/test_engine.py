"""Unit tests for the event calendar and run control."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    EmptySchedule,
    Event,
    SchedulingError,
    Simulator,
    Timeout,
)


def test_clock_starts_at_initial_time():
    assert Simulator().now == 0.0
    assert Simulator(initial_time=5.5).now == 5.5


def test_run_until_time_advances_clock_exactly():
    sim = Simulator()
    sim.timeout(3.0)
    sim.run(until=10.0)
    assert sim.now == 10.0


def test_run_until_past_time_rejected():
    sim = Simulator(initial_time=5.0)
    with pytest.raises(SchedulingError):
        sim.run(until=1.0)


def test_run_drains_calendar_when_until_none():
    sim = Simulator()
    sim.timeout(1.0)
    sim.timeout(7.0)
    sim.run()
    assert sim.now == 7.0


def test_step_raises_on_empty_calendar():
    with pytest.raises(EmptySchedule):
        Simulator().step()


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(4.0)
    sim.timeout(2.0)
    assert sim.peek() == 2.0


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    for delay in (5.0, 1.0, 3.0):
        ev = sim.timeout(delay, value=delay)
        ev.callbacks.append(lambda e: fired.append(e.value))
    sim.run()
    assert fired == [1.0, 3.0, 5.0]


def test_simultaneous_events_fire_fifo():
    sim = Simulator()
    fired = []
    for tag in "abc":
        ev = sim.timeout(1.0, value=tag)
        ev.callbacks.append(lambda e: fired.append(e.value))
    sim.run()
    assert fired == ["a", "b", "c"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SchedulingError):
        sim.timeout(-1.0)
    with pytest.raises(SchedulingError):
        sim.schedule(Event(sim), delay=-0.5)


def test_run_until_event_returns_its_value():
    sim = Simulator()
    ev = sim.event()
    sim.call_at(4.0, lambda: ev.succeed("payload"))
    assert sim.run(until=ev) == "payload"
    assert sim.now == 4.0


def test_run_until_already_processed_event():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(11)
    sim.run()
    assert sim.run(until=ev) == 11


def test_run_until_event_that_never_fires_raises():
    sim = Simulator()
    ev = sim.event()
    sim.timeout(1.0)
    with pytest.raises(SchedulingError):
        sim.run(until=ev)


def test_run_until_failed_event_raises_its_exception():
    sim = Simulator()
    ev = sim.event()
    sim.call_at(2.0, lambda: ev.fail(RuntimeError("boom")))
    with pytest.raises(RuntimeError, match="boom"):
        sim.run(until=ev)


def test_call_at_runs_function_at_absolute_time():
    sim = Simulator()
    seen = []
    sim.call_at(6.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [6.0]


def test_call_at_in_past_rejected():
    sim = Simulator(initial_time=3.0)
    with pytest.raises(SchedulingError):
        sim.call_at(2.0, lambda: None)


def test_events_processed_counter():
    sim = Simulator()
    sim.timeout(1.0)
    sim.timeout(2.0)
    sim.run()
    assert sim.events_processed == 2


def test_unhandled_failed_event_crashes_run():
    sim = Simulator()
    ev = sim.event()
    ev.fail(ValueError("unnoticed"))
    with pytest.raises(ValueError, match="unnoticed"):
        sim.run()


def test_defused_failed_event_does_not_crash():
    sim = Simulator()
    ev = sim.event()
    ev.fail(ValueError("handled"))
    ev.defuse()
    sim.run()  # must not raise
    assert sim.events_processed == 1


def test_timeout_carries_value():
    sim = Simulator()
    ev = sim.timeout(1.0, value="v")
    sim.run()
    assert ev.value == "v"
    assert ev.ok


def test_repr_smoke():
    sim = Simulator()
    sim.timeout(1.0)
    assert "pending=1" in repr(sim)


def test_run_while_stops_on_predicate():
    sim = Simulator()
    seen = []
    for t in (1.0, 2.0, 3.0, 4.0):
        ev = sim.timeout(t, value=t)
        ev.callbacks.append(lambda e: seen.append(e.value))
    stopped = sim.run_while(lambda: len(seen) < 2)
    assert stopped is True
    assert seen == [1.0, 2.0]
    assert sim.now == 2.0
    # Remaining events stay on the calendar, resumable.
    assert sim.run_while(lambda: True) is False
    assert seen == [1.0, 2.0, 3.0, 4.0]


def test_run_while_returns_false_when_calendar_drains():
    sim = Simulator()
    sim.timeout(1.0)
    assert sim.run_while(lambda: True) is False
    assert sim.events_processed == 1
    # Draining never raises EmptySchedule, even on an empty calendar.
    assert sim.run_while(lambda: True) is False


def test_run_while_checks_predicate_before_each_event():
    # Exactly like `while pred() and peek() != inf: step()` — an
    # already-false predicate processes nothing.
    sim = Simulator()
    sim.timeout(1.0)
    assert sim.run_while(lambda: False) is True
    assert sim.events_processed == 0


def test_run_while_propagates_failed_events():
    sim = Simulator()
    ev = sim.event()
    ev.fail(ValueError("boom"))
    with pytest.raises(ValueError, match="boom"):
        sim.run_while(lambda: True)


def test_defer_interleaves_with_timeouts_in_fifo_order():
    sim = Simulator()
    order = []
    sim.timeout(1.0).callbacks.append(lambda e: order.append("timeout"))
    sim.defer(1.0, (lambda e: order.append("defer"),))
    sim.timeout(1.0).callbacks.append(lambda e: order.append("timeout2"))
    sim.run()
    # Same time, same rank: insertion order decides.
    assert order == ["timeout", "defer", "timeout2"]
    assert sim.events_scheduled == 3
    assert sim.events_processed == 3


def test_defer_value_and_priority():
    sim = Simulator()
    order = []
    sim.defer(0.0, (lambda e: order.append(("normal", e.value)),), value=1)
    sim.defer(0.0, (lambda e: order.append(("urgent", e.value)),), value=2,
              priority=True)
    sim.run()
    assert order == [("urgent", 2), ("normal", 1)]


def test_defer_rejects_negative_delay():
    sim = Simulator()
    with pytest.raises(SchedulingError):
        sim.defer(-1.0, (lambda e: None,))


def test_defer_shared_callback_tuple_is_not_consumed():
    sim = Simulator()
    hits = []
    shared = (lambda e: hits.append(e.value),)
    for i in range(3):
        sim.defer(float(i), shared, value=i)
    sim.run()
    assert hits == [0, 1, 2]
    assert shared  # the tuple itself is untouched


_grid = st.sampled_from([0.0, 0.25, 0.5, 1.0, 7.25])


@given(st.lists(
    st.tuples(_grid, st.booleans(),
              st.one_of(st.none(), st.tuples(_grid, st.booleans()))),
    min_size=1, max_size=80,
))
@settings(max_examples=100, deadline=None)
def test_pop_order_is_time_rank_insertion_under_tie_storms(ops):
    """Every event processed is the (time, rank, insertion) minimum of
    what is pending at that moment — under heavy timestamp collisions,
    mixed urgent/normal ranks, and events scheduled from inside
    callbacks at the current time."""
    sim = Simulator()
    pending = set()
    popped = []

    def schedule(delay, urgent, spawn):
        key = (sim.now + delay, 0 if urgent else 1, sim.events_scheduled + 1)
        sim.defer(delay, (fire,), (key, spawn), priority=urgent)
        pending.add(key)

    def fire(event):
        key, spawn = event.value
        assert sim.now == key[0]
        assert key == min(pending)
        pending.remove(key)
        popped.append(key)
        if spawn is not None:
            schedule(*spawn, None)

    for delay, urgent, spawn in ops:
        schedule(delay, urgent, spawn)
    sim.run()
    assert not pending
    assert len(popped) == sim.events_processed == sim.events_scheduled
