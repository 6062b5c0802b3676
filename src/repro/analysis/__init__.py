"""``repro.analysis`` — experiment definitions, sweeps, theory, rendering."""

from . import (
    ablations,
    experiments,
    figures,
    io,
    queueing,
    sensitivity,
    tables,
    theory,
)
from .ascii_plot import bar_chart, line_plot, sparkline
from .io import (
    load_replicated_sweep,
    load_report,
    load_sweep,
    save_replicated_sweep,
    save_report,
    save_sweep,
)
from .replications import (
    ReplicatedPoint,
    ReplicatedSweep,
    paired_comparison,
    replicate_sweep,
)
from .sweeps import (
    SweepPoint,
    SweepResult,
    compare,
    default_grid,
    rank_by_performance,
    sweep,
    utilization_grid,
)
from .theory import (
    gross_net_ratio,
    gross_net_ratios_table,
    mm1_response_time,
)

__all__ = [
    "experiments", "tables", "theory", "queueing", "ablations", "io",
    "figures", "sensitivity",
    "sweep", "SweepPoint", "SweepResult", "compare", "default_grid",
    "utilization_grid", "rank_by_performance",
    "replicate_sweep", "paired_comparison", "ReplicatedSweep",
    "ReplicatedPoint",
    "save_sweep", "load_sweep", "save_report", "load_report",
    "save_replicated_sweep", "load_replicated_sweep",
    "gross_net_ratio", "gross_net_ratios_table", "mm1_response_time",
    "line_plot", "bar_chart", "sparkline",
]
