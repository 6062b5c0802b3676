"""Exception types used by the discrete-event simulation engine.

The engine distinguishes two failure modes:

* :class:`SimulationError` — a structural misuse of the engine (scheduling
  into the past, running a finished simulation, ...).  These indicate bugs
  in the model, never ordinary simulation outcomes.
* :class:`StopSimulation` — raised internally to end :meth:`Simulator.run`
  when the ``until`` event triggers.
"""

from __future__ import annotations

__all__ = [
    "SimulationError",
    "SchedulingError",
    "StopSimulation",
    "EmptySchedule",
]


class SimulationError(Exception):
    """Base class for all engine-level errors."""


class SchedulingError(SimulationError):
    """An event was scheduled or triggered in an illegal way.

    Examples: scheduling an event at a time earlier than the current
    simulation time, or triggering an already-triggered event.
    """


class EmptySchedule(SimulationError):
    """The event calendar ran empty before the run's stop condition."""


class StopSimulation(Exception):
    """Internal control-flow exception that terminates :meth:`Simulator.run`.

    Carries the value of the event that ended the run.  User code never
    needs to raise or catch this.
    """

    def __init__(self, value: object = None) -> None:
        super().__init__(value)
        self.value = value
