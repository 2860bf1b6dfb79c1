"""Tests for repro.memtrace.stats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.memtrace.stats import (
    cold_fraction,
    reuse_times,
    unique_lines,
    working_set_bytes,
)
from repro.memtrace.trace import AccessKind, Segment, Trace


def trace_from_addrs(addrs, segment=Segment.HEAP):
    n = len(addrs)
    return Trace(
        addr=np.asarray(addrs, np.uint64),
        kind=np.full(n, AccessKind.LOAD, np.uint8),
        segment=np.full(n, segment, np.uint8),
        thread=np.zeros(n, np.uint16),
        instruction_count=n,
    )


class TestWorkingSet:
    def test_unique_lines(self):
        trace = trace_from_addrs([0, 1, 63, 64, 128, 64])
        assert unique_lines(trace) == 3

    def test_empty_trace(self):
        assert unique_lines(Trace.empty()) == 0

    def test_working_set_bytes(self):
        trace = trace_from_addrs([0, 64, 128])
        assert working_set_bytes(trace) == 192



class TestReuseTimes:
    def test_simple_sequence(self):
        lines = np.array([1, 2, 1, 1, 3, 2])
        reuse, cold = reuse_times(lines)
        assert list(cold) == [True, True, False, False, True, False]
        assert list(reuse) == [0, 0, 2, 1, 0, 4]

    def test_all_distinct(self):
        reuse, cold = reuse_times(np.arange(10))
        assert cold.all()
        assert (reuse == 0).all()

    def test_empty(self):
        reuse, cold = reuse_times(np.empty(0, np.int64))
        assert len(reuse) == 0 and len(cold) == 0

    @settings(max_examples=30)
    @given(st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=60))
    def test_matches_naive(self, values):
        lines = np.asarray(values, np.int64)
        reuse, cold = reuse_times(lines)
        last = {}
        for i, v in enumerate(values):
            if v in last:
                assert not cold[i]
                assert reuse[i] == i - last[v]
            else:
                assert cold[i]
            last[v] = i

    def test_cold_fraction(self):
        trace = trace_from_addrs([0, 0, 0, 64])
        assert cold_fraction(trace) == pytest.approx(0.5)

    def test_cold_fraction_empty_raises(self):
        with pytest.raises(TraceError):
            cold_fraction(Trace.empty())
