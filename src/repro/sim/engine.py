"""The simulation engine: a time-ordered event calendar and its driver.

:class:`Simulator` owns the clock and the pending-event heap.  Events are
processed in (time, priority, insertion order) — ties at the same timestamp
are broken first by the *urgent* flag (used for initialisation events and
the ``run(until=)`` horizon, which precede ordinary events) and then FIFO,
which makes runs fully deterministic.

Typical usage::

    sim = Simulator()

    def tick(_event):
        print("tick at", sim.now)
        sim.defer(1.0, (tick,))

    sim.defer(1.0, (tick,))
    sim.run(until=10.0)

The engine is single-threaded and re-entrant-free by design: model code
runs only inside event callbacks, so no locking is ever needed.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Optional

from .errors import EmptySchedule, SchedulingError, StopSimulation
from .events import Callback, Event, Timeout

__all__ = ["Simulator", "Infinity"]

#: Convenience alias used for "run forever".
Infinity = float("inf")

#: Priority rank for urgent (engine-internal) events.
_URGENT = 0
#: Priority rank for normal events.
_NORMAL = 1


class Simulator:
    """Discrete-event simulation kernel.

    Parameters
    ----------
    initial_time:
        Starting value of the simulation clock (default 0).

    Attributes
    ----------
    now:
        Current simulation time.  Only the engine advances it.
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        #: Pending entries ``(time, rank, sequence, event)``, a binary heap.
        self._heap: list[tuple] = []
        self._eid = 0
        #: Monotone counter of processed events (for diagnostics/benchmarks).
        self.events_processed = 0

    # -- clock ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def events_scheduled(self) -> int:
        """Events placed on the calendar so far (heap pushes).

        Together with :attr:`events_processed` (heap pops) this gives
        the engine's event-list traffic for diagnostics; the counter is
        the scheduling sequence number, so it costs nothing extra.
        """
        return self._eid

    # -- event factories -------------------------------------------------

    def event(self) -> Event:
        """Create a new untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """Create an event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value)

    # -- calendar ----------------------------------------------------------

    def schedule(self, event: Event, *, delay: float = 0.0,
                 priority: bool = False) -> None:
        """Place a triggered event on the calendar ``delay`` from now.

        ``priority`` marks urgent events (initialisation, the run
        horizon), which are processed before normal events scheduled at
        the same time.
        """
        if delay < 0:
            raise SchedulingError(f"cannot schedule into the past ({delay!r})")
        self._eid += 1
        rank = _URGENT if priority else _NORMAL
        heappush(self._heap, (self._now + delay, rank, self._eid, event))

    def defer(self, delay: float,
              callbacks: "tuple[Callable[[Callback], None], ...]",
              value: object = None, *, priority: bool = False) -> None:
        """Schedule a lightweight :class:`Callback` ``delay`` from now.

        The fast path for hot loops that fire a known, fixed set of
        callbacks (job departures, arrival ticks): one calendar push,
        no per-occurrence callback-list or event-state allocation.
        Callers share a single ``callbacks`` tuple across all their
        occurrences.  Consumes exactly one scheduling sequence number,
        so event ordering and the :attr:`events_scheduled` counter are
        identical to scheduling a triggered :class:`Event`.
        """
        if delay < 0:
            raise SchedulingError(f"cannot schedule into the past ({delay!r})")
        self._eid += 1
        rank = _URGENT if priority else _NORMAL
        heappush(
            self._heap,
            (self._now + delay, rank, self._eid, Callback(callbacks, value)),
        )

    def call_at(self, time: float, fn: Callable[[], None]) -> Event:
        """Invoke ``fn()`` at absolute simulation time ``time``.

        Returns the underlying event so callers can cancel interest by
        ignoring it; ``fn`` runs as an ordinary event callback.
        """
        if time < self._now:
            raise SchedulingError(
                f"call_at({time!r}) is in the past (now={self._now!r})"
            )
        ev = Timeout(self, time - self._now)
        ev.callbacks.append(lambda _ev: fn())  # type: ignore[union-attr]
        return ev

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if none."""
        return self._heap[0][0] if self._heap else Infinity

    # -- execution ---------------------------------------------------------

    def step(self) -> None:
        """Process exactly one event.

        Raises :class:`EmptySchedule` if the calendar is empty, and
        re-raises unhandled failed events (model bugs must not pass
        silently).
        """
        try:
            self._now, _, _, event = heappop(self._heap)
        except IndexError:
            raise EmptySchedule("no more events scheduled") from None

        callbacks = event.callbacks
        event.callbacks = None  # mark processed
        self.events_processed += 1
        for callback in callbacks:  # type: ignore[union-attr]
            callback(event)

        if event._ok is False and not event._defused:
            # Nobody handled the failure: crash loudly.
            raise event._value  # type: ignore[misc]

    def run_while(self, predicate: Callable[[], bool]) -> bool:
        """Process events while ``predicate()`` holds and events remain.

        The fused drive loop for count-based stop conditions: instead of
        the per-event ``while pred() and sim.peek() != inf: sim.step()``
        pattern — two method calls and a float comparison of bookkeeping
        per event — the engine checks the predicate and pops the next
        heap entry in one flat loop.

        ``predicate`` is evaluated *before* each event, exactly like the
        classic guarded loop, so the processed-event sequence is
        identical.  Returns ``True`` if the loop stopped because the
        predicate went false, ``False`` if the calendar drained first.
        Failed events propagate exactly as from :meth:`step`.
        """
        heap = self._heap
        pop = heappop
        while heap:
            if not predicate():
                return True
            self._now, _, _, event = pop(heap)
            callbacks = event.callbacks
            event.callbacks = None  # mark processed
            self.events_processed += 1
            for callback in callbacks:  # type: ignore[union-attr]
                callback(event)
            if event._ok is False and not event._defused:
                raise event._value  # type: ignore[misc]
        return False

    def run(self, until: "float | Event | None" = None) -> object:
        """Run the simulation.

        Parameters
        ----------
        until:
            * ``None`` — run until the calendar empties.
            * a number — run until the clock reaches that time (the clock
              is set exactly to it on return).
            * an :class:`Event` — run until that event is processed and
              return its value (raising if the event failed).
        """
        stop: Optional[Event] = None
        if until is None:
            pass
        elif isinstance(until, Event):
            stop = until
            if stop.callbacks is None:
                # Already processed.
                if stop._ok:
                    return stop._value
                raise stop._value  # type: ignore[misc]
            stop.callbacks.append(self._stop_callback)
        else:
            horizon = float(until)
            if horizon < self._now:
                raise SchedulingError(
                    f"run(until={horizon!r}) is in the past (now={self._now!r})"
                )
            stop = Event(self)
            stop._ok = True
            stop._value = None
            stop.callbacks.append(self._stop_callback)
            self.schedule(stop, delay=horizon - self._now, priority=True)

        try:
            # Same fused loop as run_while: the step() body inlined.
            heap = self._heap
            pop = heappop
            while True:
                if not heap:
                    raise EmptySchedule("no more events scheduled")
                self._now, _, _, event = pop(heap)
                callbacks = event.callbacks
                event.callbacks = None  # mark processed
                self.events_processed += 1
                for callback in callbacks:  # type: ignore[union-attr]
                    callback(event)
                if event._ok is False and not event._defused:
                    raise event._value  # type: ignore[misc]
        except StopSimulation as signal:
            return signal.value
        except EmptySchedule:
            if stop is not None and stop.callbacks is not None:
                if isinstance(until, Event):
                    raise SchedulingError(
                        "run(until=event): calendar emptied before the event "
                        "triggered"
                    ) from None
            return None

    @staticmethod
    def _stop_callback(event: Event) -> None:
        if event._ok:
            raise StopSimulation(event._value)
        raise event._value  # type: ignore[misc]

    def __repr__(self) -> str:
        return (
            f"<Simulator t={self._now:.6g} pending={len(self._heap)} "
            f"processed={self.events_processed}>"
        )
