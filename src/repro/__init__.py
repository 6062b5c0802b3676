"""repro — trace-based simulation of processor co-allocation in multiclusters.

A production-quality reproduction of A.I.D. Bucur and D.H.J. Epema,
*Trace-Based Simulations of Processor Co-Allocation Policies in
Multiclusters* (HPDC 2003), built as four layers:

* :mod:`repro.sim` — a process-oriented discrete-event simulation engine
  (the CSIM substrate the authors used, rebuilt from scratch);
* :mod:`repro.workload` — the DAS-derived workload model: synthetic DAS1
  trace, the DAS-s-128 / DAS-s-64 / DAS-t-900 distributions, component
  splitting, SWF I/O, arrival generation;
* :mod:`repro.core` — the paper's contribution: the multicluster model,
  Worst-Fit placement of unordered requests, the GS / LS / LP
  co-allocation policies and the SC single-cluster reference;
* :mod:`repro.metrics` / :mod:`repro.analysis` — utilization accounting,
  saturation estimation, sweeps, and regeneration of every table and
  figure in the paper;
* :mod:`repro.runner` — deterministic parallel execution of independent
  runs over worker processes, with a content-hash-keyed on-disk result
  cache (``workers=N`` / ``cache=True`` on sweeps and replications,
  ``--workers`` / ``--cache`` on the CLI);
* :mod:`repro.lint` — simlint, the AST-based static-analysis pass that
  enforces the determinism and common-random-numbers invariants the
  benchmarks depend on (``python -m repro.lint`` / ``repro-sim lint``).

Quickstart::

    from repro import SimulationConfig, run_open_system
    from repro.workload import das_s_128, das_t_900, JobFactory
    from repro.sim import StreamFactory

    sizes, service = das_s_128(), das_t_900()
    config = SimulationConfig(policy="LS", component_limit=16)
    factory = JobFactory(sizes, service, 16, streams=StreamFactory(1))
    rate = factory.arrival_rate_for_gross_utilization(0.5, 128)
    result = run_open_system(config, sizes, service, rate)
    print(result.mean_response, result.gross_utilization)
"""

from .core import (
    GSPolicy,
    Job,
    JobQueue,
    LPPolicy,
    LSPolicy,
    Multicluster,
    MulticlusterSimulation,
    OpenSystemResult,
    Policy,
    SCPolicy,
    SimulationConfig,
    run_constant_backlog,
    run_open_system,
)
from .metrics import MetricsRecorder, UtilizationReport

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "SimulationConfig", "MulticlusterSimulation", "OpenSystemResult",
    "run_open_system", "run_constant_backlog",
    "Multicluster", "Job", "JobQueue",
    "Policy", "GSPolicy", "LSPolicy", "LPPolicy", "SCPolicy",
    "MetricsRecorder", "UtilizationReport",
]
