"""Event primitives for the discrete-event simulation engine.

An :class:`Event` is a one-shot occurrence on the simulation timeline.  It
moves through three states:

``untriggered`` → ``triggered`` (scheduled on the calendar with a value) →
``processed`` (callbacks have run).

:class:`Timeout` is an event that triggers itself a fixed delay ahead, and
:class:`Callback` is the allocation-light occurrence that
:meth:`~repro.sim.engine.Simulator.defer` schedules for hot loops.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from .errors import SchedulingError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .engine import Simulator

__all__ = ["Event", "Timeout", "Callback", "PENDING"]


class _PendingType:
    """Sentinel for the value of an event that has not been triggered."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "<PENDING>"


#: Sentinel marking an event whose value has not been set yet.
PENDING = _PendingType()


class Event:
    """A one-shot occurrence whose callbacks run when it is processed.

    Parameters
    ----------
    sim:
        The :class:`~repro.sim.engine.Simulator` this event belongs to.

    Attributes
    ----------
    callbacks:
        List of callables invoked with the event when it is processed.
        ``None`` once the event has been processed.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: object = PENDING
        self._ok: Optional[bool] = None
        self._defused = False

    # -- state inspection -------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled with a value."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been invoked."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded; raises if not yet triggered."""
        if self._ok is None:
            raise SchedulingError(f"{self!r} has not been triggered")
        return self._ok

    @property
    def value(self) -> object:
        """The event's value (or exception for failed events)."""
        if self._value is PENDING:
            raise SchedulingError(f"{self!r} has no value yet")
        return self._value

    # -- triggering -------------------------------------------------------

    def succeed(self, value: object = None, *, delay: float = 0.0) -> "Event":
        """Trigger the event successfully with ``value``.

        The event is placed on the calendar at ``now + delay`` and its
        callbacks run when the simulator reaches that time.
        """
        if self._value is not PENDING:
            raise SchedulingError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.sim.schedule(self, delay=delay)
        return self

    def fail(self, exception: BaseException, *, delay: float = 0.0) -> "Event":
        """Trigger the event as failed with ``exception``.

        Unless the failure is defused first, the engine re-raises the
        exception when it processes the event.
        """
        if self._value is not PENDING:
            raise SchedulingError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.sim.schedule(self, delay=delay)
        return self

    def trigger_from(self, event: "Event") -> None:
        """Trigger this event with the state (ok/value) of ``event``.

        Useful for chaining events: the target mirrors the source.
        """
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)  # type: ignore[arg-type]

    def defuse(self) -> None:
        """Mark a failed event as handled so the engine will not re-raise.

        The engine propagates a failed event's exception out of
        :meth:`Simulator.step` to avoid silently lost errors; defusing
        suppresses that.
        """
        self._defused = True

    @property
    def defused(self) -> bool:
        """Whether a failure of this event has been marked as handled."""
        return self._defused

    def __repr__(self) -> str:
        state = (
            "processed"
            if self.processed
            else ("triggered" if self.triggered else "pending")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers after a fixed simulated delay.

    Callbacks appended to a ``Timeout`` run once the clock has advanced
    by ``delay``::

        sim.timeout(3.5).callbacks.append(lambda ev: print(sim.now))
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: object = None) -> None:
        if delay < 0:
            raise SchedulingError(f"negative timeout delay {delay!r}")
        super().__init__(sim)
        self.delay = float(delay)
        self._ok = True
        self._value = value
        sim.schedule(self, delay=delay)

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay!r}>"


class Callback:
    """A pre-armed, always-successful occurrence on the calendar.

    Hot paths (job departures, arrival ticks) schedule hundreds of
    thousands of one-shot occurrences whose callbacks are fully known at
    creation time.  A full :class:`Event` pays for a fresh callback
    list, state flags and triggering machinery per instance; ``Callback``
    carries a *shared* callback tuple and a value through the engine's
    ``(time, rank, seq, event)`` calendar protocol with nothing else.

    The engine only requires ``callbacks`` (set to ``None`` after
    processing), ``_ok`` and ``_defused``; the latter two are class
    attributes here because a ``Callback`` always succeeds.  Schedule
    instances with :meth:`repro.sim.engine.Simulator.defer`, which
    constructs them directly.

    The shared tuple is safe: processing an event replaces only the
    *instance* ``callbacks`` slot with ``None``, never mutating the
    tuple itself.
    """

    __slots__ = ("callbacks", "value")

    _ok = True
    _defused = False

    def __init__(self,
                 callbacks: "tuple[Callable[[Callback], None], ...]",
                 value: object = None) -> None:
        self.callbacks: "Optional[tuple[Callable[[Callback], None], ...]]" \
            = callbacks
        self.value = value

    def __repr__(self) -> str:
        state = "processed" if self.callbacks is None else "scheduled"
        return f"<Callback {state} at {id(self):#x}>"
