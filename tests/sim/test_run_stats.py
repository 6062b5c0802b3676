"""``RunStats`` against an oracle of two TimeWeighted and two Tally.

Both engines compute a run's gross and net utilization, mean response
and batch-means CI half width through one :class:`RunStats` record, so
that record is the statistics half of the batch kernel's bit-exactness
contract.  This module pins it, bit for bit, against an independent
oracle built the way the scalar recorder used to keep those numbers:
two :class:`TimeWeighted` busy levels (each with its own clock, no
accrual elided), a Welford :class:`Tally` of responses and a
:class:`Tally` of batch means.  Event times lie on a grid, so equal
times and zero-width accruals are common.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.stats import RunStats, Tally, TimeWeighted, student_t_quantile

LEVEL = 0.95


class _Oracle:
    """The run statistics from the general-purpose collectors."""

    def __init__(self, batch_size):
        self.batch_size = batch_size
        self.gross = TimeWeighted()
        self.net = TimeWeighted()
        self.reset(0.0)

    def start(self, now, size, ext):
        self.gross.add(now, size)
        self.net.add(now, size / ext)

    def finish(self, now, size, ext, response):
        self.gross.add(now, -size)
        self.net.add(now, -size / ext)
        self.responses.record(response)
        self.batch_sum += response
        self.in_batch += 1
        if self.in_batch == self.batch_size:
            self.batches.record(self.batch_sum / self.batch_size)
            self.batch_sum = 0.0
            self.in_batch = 0

    def reset(self, now):
        self.gross.reset(now)
        self.net.reset(now)
        self.origin = now
        self.responses = Tally()
        self.batches = Tally()
        self.batch_sum = 0.0
        self.in_batch = 0

    def summary(self, now, capacity):
        denom = capacity * (now - self.origin)
        k = self.batches.count
        if k < 2:
            half = math.inf
        else:
            t = student_t_quantile(0.5 + LEVEL / 2.0, k - 1)
            half = t * self.batches.std / math.sqrt(k)
        return (self.gross.integral(now) / denom,
                self.net.integral(now) / denom,
                self.responses.mean,
                half)


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


#: One event: (kind, grid steps since the last event, size, extension
#: factor, which running job departs, how long before its start it
#: arrived).  Kinds: 0 start, 1 finish, 2 reset.
events = st.lists(
    st.tuples(
        st.sampled_from((0, 0, 1, 1, 2)),
        st.sampled_from((0, 0, 1, 2, 5)),
        st.integers(min_value=1, max_value=64),
        st.sampled_from((1.0, 1.1, 1.25, 1.3)),
        st.integers(min_value=0, max_value=1_000),
        st.integers(min_value=0, max_value=7),
    ),
    max_size=120,
)


@settings(max_examples=200, deadline=None)
@given(events,
       st.integers(min_value=1, max_value=5),
       st.sampled_from((1.0, 0.1, 0.37)),
       st.integers(min_value=1, max_value=256))
def test_summary_matches_the_oracle_bit_for_bit(stream, batch_size, scale,
                                                capacity):
    stats = RunStats(batch_size)
    oracle = _Oracle(batch_size)
    running = []
    step = 0
    for kind, gap, size, ext, pick, wait in stream:
        step += gap
        now = step * scale
        if kind == 0:
            running.append((size, ext, (step - wait) * scale))
            stats.start(now, size, size / ext)
            oracle.start(now, size, ext)
        elif kind == 1 and running:
            size, ext, arrival = running.pop(pick % len(running))
            stats.finish(now, size, size / ext, now - arrival)
            oracle.finish(now, size, ext, now - arrival)
        elif kind == 2:
            stats.reset(now)
            oracle.reset(now)
        end = (step + 1) * scale
        got = stats.summary(end, capacity, LEVEL)
        want = oracle.summary(end, capacity)
        assert all(map(_same, got, want)), (got, want)


def test_backwards_time_is_rejected():
    stats = RunStats(2)
    stats.start(5.0, 4, 4.0)
    with pytest.raises(ValueError):
        stats.start(4.0, 1, 1.0)
    with pytest.raises(ValueError):
        stats.finish(4.0, 4, 4.0, 1.0)
    with pytest.raises(ValueError):
        stats.summary(4.0, 8, LEVEL)


def test_empty_window_is_rejected():
    stats = RunStats(1)
    stats.reset(3.0)
    with pytest.raises(ValueError):
        stats.summary(3.0, 8, LEVEL)
