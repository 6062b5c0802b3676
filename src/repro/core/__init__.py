"""``repro.core`` — processor co-allocation in multiclusters.

The paper's primary contribution: the multicluster model, unordered
request placement (Worst Fit over distinct clusters), the GS / LS / LP
co-allocation policies with the queue enable/disable protocol, the SC
single-cluster reference, and the open-system / constant-backlog run
drivers.
"""

from .cluster import AllocationError, Cluster, Multicluster
from .jobs import Job, JobState
from .placement import (
    PLACEMENT_RULES,
    best_fit,
    first_fit,
    place_components,
    worst_fit,
)
from .policies import (
    POLICIES,
    GSPolicy,
    LPPolicy,
    LSPolicy,
    Policy,
    SCPolicy,
    make_policy,
)
from .queues import JobQueue
from .requests import RequestType, try_place
from .system import (
    MulticlusterSimulation,
    OpenSystemResult,
    SimulationConfig,
    run_constant_backlog,
    run_open_system,
)

__all__ = [
    # clusters
    "Cluster", "Multicluster", "AllocationError",
    # jobs
    "Job", "JobState",
    # placement & requests
    "worst_fit", "first_fit", "best_fit", "place_components",
    "PLACEMENT_RULES", "RequestType", "try_place",
    # queues
    "JobQueue",
    # policies
    "Policy", "GSPolicy", "LSPolicy", "LPPolicy", "SCPolicy",
    "POLICIES", "make_policy",
    # system
    "MulticlusterSimulation", "SimulationConfig", "OpenSystemResult",
    "run_open_system", "run_constant_backlog",
]
