"""``repro.sim`` — the discrete-event simulation substrate.

This subpackage replaces the commercial CSIM18 package the paper used,
trimmed to what the multicluster model drives: an event calendar with
deterministic tie-breaking and lightweight deferred callbacks,
reproducible named random streams, input distributions, steady-state
output statistics (batch means, time-weighted averages), and the
fused batch-replication kernel.

Quick example::

    from repro.sim import Simulator, Exponential, StreamFactory

    sim = Simulator()
    rng = StreamFactory(1).get("arrivals")
    iat = Exponential(mean=2.0)

    def arrival(_event):
        print("arrival at", sim.now)
        sim.defer(iat.sample(rng), (arrival,))

    sim.defer(iat.sample(rng), (arrival,))
    sim.run(until=10)
"""

from .engine import Infinity, Simulator
from .errors import EmptySchedule, SchedulingError, SimulationError
from .events import Event, Timeout
from .rng import StreamFactory, stream
from .distributions import (
    BoundedPareto,
    ContinuousEmpirical,
    Deterministic,
    DiscreteEmpirical,
    Distribution,
    Erlang,
    Exponential,
    Hyperexponential,
    Lognormal,
    Mixture,
    Scaled,
    TruncatedLognormal,
    Uniform,
    Weibull,
)
from .quantiles import P2Quantile, QuantileSet
from .stats import (
    ConfidenceInterval,
    Histogram,
    RunStats,
    Tally,
    TimeWeighted,
    normal_quantile,
    student_t_quantile,
    t_half_width,
)
from .trace import NullTracer, TraceRecord, Tracer

__all__ = [
    # engine
    "Simulator", "Infinity",
    # errors
    "SimulationError", "SchedulingError", "EmptySchedule",
    # events
    "Event", "Timeout",
    # rng
    "StreamFactory", "stream",
    # distributions
    "Distribution", "Deterministic", "Exponential", "Uniform", "Erlang",
    "Hyperexponential", "Lognormal", "TruncatedLognormal",
    "DiscreteEmpirical", "ContinuousEmpirical", "Mixture", "Scaled",
    "Weibull", "BoundedPareto",
    # stats
    "P2Quantile", "QuantileSet",
    "Tally", "TimeWeighted", "RunStats", "Histogram",
    "ConfidenceInterval", "normal_quantile", "student_t_quantile",
    "t_half_width",
    # tracing
    "Tracer", "NullTracer", "TraceRecord",
]
