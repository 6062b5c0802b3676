"""Placement of unordered requests onto distinct clusters.

The paper (§2.3): *"To determine whether an unordered request fits, we try
to schedule its components in decreasing order of their sizes on distinct
clusters.  We use Worst Fit (WF) to place the components on clusters."*

Worst Fit assigns each component (largest first) to the cluster with the
most idle processors among the clusters not yet used by this job; the
request fits iff every component finds a cluster.  For the *fit decision*
this greedy rule is optimal (sorted components against sorted free counts
is exactly Hall's condition here — the test suite verifies this by brute
force), but the *choice* of clusters still shapes future fragmentation,
which is why First Fit and Best Fit behave differently over time.

First Fit and Best Fit are provided for the placement ablation study.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

__all__ = [
    "worst_fit",
    "first_fit",
    "best_fit",
    "place_components",
    "PLACEMENT_RULES",
]

#: A placement rule maps (component sizes, free processors per cluster)
#: to a tuple of (cluster index, processors) pairs, or None if no fit.
PlacementRule = Callable[
    [Sequence[int], Sequence[int]], Optional[tuple[tuple[int, int], ...]]
]


def worst_fit(components: Sequence[int], free: Sequence[int]
              ) -> Optional[tuple[tuple[int, int], ...]]:
    """Worst Fit: each component goes to the emptiest feasible cluster.

    Ties break toward the lowest cluster index (deterministic).
    """
    n = len(free)
    k = len(components)
    if k > n:
        return None
    # ``max`` finds the emptiest cluster, and ``index`` its lowest index
    # on ties; the emptiest one fits iff any does.
    if k == 1:
        # The dominant case (single-component jobs): no scratch.
        comp = components[0]
        best = max(free)
        if best < comp:
            return None
        return ((free.index(best), comp),)
    scratch = list(free)  # per call: the service runs engines in threads
    assignment: list[tuple[int, int]] = []
    for comp in sorted(components, reverse=True):
        best = max(scratch)
        if best < comp:
            return None
        idx = scratch.index(best)
        scratch[idx] = -1  # distinct clusters: mark used
        assignment.append((idx, comp))
    return tuple(assignment)


def first_fit(components: Sequence[int], free: Sequence[int]
              ) -> Optional[tuple[tuple[int, int], ...]]:
    """First Fit: each component goes to the lowest-indexed feasible
    cluster (ablation alternative)."""
    n = len(free)
    k = len(components)
    if k > n:
        return None
    if k == 1:
        comp = components[0]
        for idx in range(n):
            if free[idx] >= comp:
                return ((idx, comp),)
        return None
    scratch = list(free)
    assignment: list[tuple[int, int]] = []
    for comp in sorted(components, reverse=True):
        for idx in range(n):
            if scratch[idx] >= comp:
                scratch[idx] = -1  # distinct clusters: mark used
                assignment.append((idx, comp))
                break
        else:
            return None
    return tuple(assignment)


def best_fit(components: Sequence[int], free: Sequence[int]
             ) -> Optional[tuple[tuple[int, int], ...]]:
    """Best Fit: each component goes to the feasible cluster with the
    least free space (ablation alternative).  Ties break toward the
    lowest index."""
    n = len(free)
    k = len(components)
    if k > n:
        return None
    if k == 1:
        comp = components[0]
        best_idx = -1
        best = -1
        for idx in range(n):
            f = free[idx]
            # Strict ``<`` keeps the lowest index on ties, matching
            # min(key=(free, index)).
            if f >= comp and (best_idx < 0 or f < best):
                best = f
                best_idx = idx
        if best_idx < 0:
            return None
        return ((best_idx, comp),)
    scratch = list(free)
    assignment: list[tuple[int, int]] = []
    for comp in sorted(components, reverse=True):
        best_idx = -1
        best = -1
        for idx in range(n):
            f = scratch[idx]
            if f >= comp and (best_idx < 0 or f < best):
                best = f
                best_idx = idx
        if best_idx < 0:
            return None
        scratch[best_idx] = -1  # distinct clusters: mark used
        assignment.append((best_idx, comp))
    return tuple(assignment)


#: Registry used by configuration and the ablation benchmark.
PLACEMENT_RULES: dict[str, PlacementRule] = {
    "worst-fit": worst_fit,
    "first-fit": first_fit,
    "best-fit": best_fit,
}


def place_components(components: Sequence[int], free: Sequence[int],
                     rule: "str | PlacementRule" = "worst-fit",
                     ) -> Optional[tuple[tuple[int, int], ...]]:
    """Place ``components`` on clusters with ``free`` idle processors.

    ``rule`` is a registry name or a placement callable.  Returns the
    (cluster, processors) assignment or ``None`` if the request does not
    fit under the rule.
    """
    fn = PLACEMENT_RULES[rule] if isinstance(rule, str) else rule
    return fn(components, free)
