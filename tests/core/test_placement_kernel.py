"""The allocation-free placement kernels vs the reference greedy.

The hot-path kernels in :mod:`repro.core.placement` (single linear scan
over a per-call copy of the free counts, folded feasibility tests,
single-component fast path) must make *exactly* the decisions of the
straightforward allocating greedy kept here as the oracle — assignments
feed the obs event stream and the extras counters, so any divergence
breaks byte-identity of runs.  Hypothesis
drives both implementations through the same inputs, including unsorted
component lists (the kernels skip re-sorting pre-sorted input),
infeasible requests and degenerate shapes.
"""

from __future__ import annotations

import random
import sys
import threading

from typing import Callable, Optional, Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.placement import PLACEMENT_RULES, PlacementRule

RULES = sorted(PLACEMENT_RULES)


def _greedy_reference(
        components: Sequence[int], free: Sequence[int],
        choose: Callable[[list[tuple[int, int]]], tuple[int, int]],
        ) -> Optional[tuple[tuple[int, int], ...]]:
    """Reference greedy placement: the oracle for the fast kernels.

    Components in decreasing size order, each on a distinct cluster
    selected by ``choose`` from the feasible candidates.
    """
    if len(components) > len(free):
        return None
    ordered = sorted(components, reverse=True)
    remaining = list(enumerate(free))
    assignment: list[tuple[int, int]] = []
    for comp in ordered:
        candidates = [(idx, f) for idx, f in remaining if f >= comp]
        if not candidates:
            return None
        idx, _ = choose(candidates)
        assignment.append((idx, comp))
        remaining = [(i, f) for i, f in remaining if i != idx]
    return tuple(assignment)


def _worst_fit_reference(components: Sequence[int], free: Sequence[int]
                         ) -> Optional[tuple[tuple[int, int], ...]]:
    return _greedy_reference(
        components, free,
        choose=lambda cands: max(cands, key=lambda c: (c[1], -c[0])),
    )


def _first_fit_reference(components: Sequence[int], free: Sequence[int]
                         ) -> Optional[tuple[tuple[int, int], ...]]:
    return _greedy_reference(
        components, free,
        choose=lambda cands: min(cands, key=lambda c: c[0]),
    )


def _best_fit_reference(components: Sequence[int], free: Sequence[int]
                        ) -> Optional[tuple[tuple[int, int], ...]]:
    return _greedy_reference(
        components, free,
        choose=lambda cands: min(cands, key=lambda c: (c[1], c[0])),
    )


#: Oracle implementations by rule name.
REFERENCE_RULES: dict[str, PlacementRule] = {
    "worst-fit": _worst_fit_reference,
    "first-fit": _first_fit_reference,
    "best-fit": _best_fit_reference,
}


def test_reference_registry_mirrors_rules() -> None:
    assert sorted(REFERENCE_RULES) == RULES


@given(
    components=st.lists(st.integers(min_value=1, max_value=40),
                        min_size=0, max_size=6),
    free=st.lists(st.integers(min_value=0, max_value=40),
                  min_size=1, max_size=6),
    rule=st.sampled_from(RULES),
    presorted=st.booleans(),
)
@settings(max_examples=400, deadline=None)
def test_fast_kernels_match_reference(components, free, rule, presorted):
    if presorted:
        components = sorted(components, reverse=True)
    fast = PLACEMENT_RULES[rule](components, free)
    reference = REFERENCE_RULES[rule](components, free)
    assert fast == reference


@given(
    free=st.lists(st.integers(min_value=0, max_value=40),
                  min_size=1, max_size=6),
    rule=st.sampled_from(RULES),
)
@settings(max_examples=100, deadline=None)
def test_kernels_do_not_mutate_free(free, rule):
    # The kernels read the policy's *live* free array; writing to it
    # would corrupt cluster state.
    snapshot = list(free)
    PLACEMENT_RULES[rule]([3, 2], free)
    PLACEMENT_RULES[rule]([1], free)
    assert free == snapshot


@given(
    a=st.lists(st.integers(min_value=1, max_value=40),
               min_size=1, max_size=6),
    b=st.lists(st.integers(min_value=1, max_value=40),
               min_size=1, max_size=6),
    free=st.lists(st.integers(min_value=0, max_value=40),
                  min_size=1, max_size=6),
    rule=st.sampled_from(RULES),
)
@settings(max_examples=100, deadline=None)
def test_scratch_reuse_is_stateless_across_calls(a, b, free, rule):
    # The second call must see none of the first call's markings.
    fn = PLACEMENT_RULES[rule]
    expected_b = REFERENCE_RULES[rule](b, free)
    fn(a, free)
    assert fn(b, free) == expected_b


def test_concurrent_threads_place_independently():
    # The sweep service runs several engines in threads of one process,
    # so the kernels must keep no state shared between calls.
    rng = random.Random(5)
    cases = [(sorted((rng.randint(1, 32) for _ in range(rng.randint(2, 4))),
                     reverse=True),
              [rng.randint(0, 64) for _ in range(5)], rule)
             for rule in RULES for _ in range(200)]
    expected = [REFERENCE_RULES[rule](c, f) for c, f, rule in cases]
    mismatches = []

    def place(offset: int) -> None:
        for _ in range(20):
            for n in range(len(cases)):
                c, f, rule = cases[(n + offset) % len(cases)]
                got = PLACEMENT_RULES[rule](c, f)
                if got != expected[(n + offset) % len(cases)]:
                    mismatches.append(got)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=place, args=(k * 97,))
                   for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []
