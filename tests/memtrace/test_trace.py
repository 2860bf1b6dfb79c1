"""Tests for repro.memtrace.trace."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.memtrace.trace import AccessKind, Segment, Trace


def make_trace(n=10, instruction_count=0, threads=1):
    rng = np.random.default_rng(0)
    return Trace(
        addr=rng.integers(0, 1 << 30, n).astype(np.uint64),
        kind=rng.integers(0, 3, n).astype(np.uint8),
        segment=rng.integers(0, 4, n).astype(np.uint8),
        thread=rng.integers(0, threads, n).astype(np.uint16),
        instruction_count=instruction_count,
    )


class TestConstruction:
    def test_length(self):
        assert len(make_trace(17)) == 17

    def test_empty(self):
        trace = Trace.empty()
        assert len(trace) == 0
        assert trace.instruction_count == 0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(TraceError):
            Trace(
                addr=np.zeros(3, np.uint64),
                kind=np.zeros(2, np.uint8),
                segment=np.zeros(3, np.uint8),
                thread=np.zeros(3, np.uint16),
            )

    def test_instruction_count_defaults_to_instr_accesses(self):
        trace = Trace(
            addr=np.array([0, 64, 128], np.uint64),
            kind=np.array([AccessKind.INSTR, AccessKind.INSTR, AccessKind.LOAD]),
            segment=np.array([Segment.CODE, Segment.CODE, Segment.HEAP]),
            thread=np.zeros(3, np.uint16),
        )
        assert trace.instruction_count == 2

    def test_explicit_instruction_count(self):
        trace = make_trace(10, instruction_count=1000)
        assert trace.instruction_count == 1000
        assert trace.kilo_instructions == 1.0

    def test_concatenate(self):
        a = make_trace(5, instruction_count=100)
        b = make_trace(7, instruction_count=50)
        merged = Trace.concatenate([a, b])
        assert len(merged) == 12
        assert merged.instruction_count == 150

    def test_concatenate_skips_empty(self):
        a = make_trace(5, instruction_count=100)
        merged = Trace.concatenate([a, Trace.empty()])
        assert len(merged) == 5


class TestLines:
    def test_line_addresses(self):
        trace = Trace(
            addr=np.array([0, 65], np.uint64),
            kind=np.full(2, AccessKind.LOAD, np.uint8),
            segment=np.full(2, Segment.HEAP, np.uint8),
            thread=np.zeros(2, np.uint16),
        )
        assert list(trace.lines(64)) == [0, 1]

    def test_block_size_must_be_power_of_two(self):
        with pytest.raises(TraceError):
            make_trace().lines(48)

    @given(st.integers(min_value=0, max_value=6))
    def test_lines_scale_with_block(self, shift):
        trace = make_trace(50)
        block = 64 << shift
        expected = trace.addr // np.uint64(block)
        assert (trace.lines(block) == expected).all()


class TestFiltering:
    def test_only_kind_preserves_instruction_count(self):
        trace = make_trace(100, instruction_count=5000)
        loads = trace.only_kind(AccessKind.LOAD)
        assert loads.instruction_count == 5000
        assert (loads.kind == AccessKind.LOAD).all()

    def test_only_segment(self):
        trace = make_trace(200)
        heap = trace.only_segment(Segment.HEAP)
        assert (heap.segment == Segment.HEAP).all()

    def test_only_thread_scales_instruction_count(self):
        trace = make_trace(1000, instruction_count=10_000, threads=2)
        t0 = trace.only_thread(0)
        # Instructions split roughly proportionally to access share.
        share = len(t0) / len(trace)
        assert t0.instruction_count == round(10_000 * share)

    def test_instructions_and_data_partition(self):
        trace = make_trace(300)
        assert len(trace.instructions()) + len(trace.data()) == len(trace)

    def test_select_mask_shape_checked(self):
        trace = make_trace(10)
        with pytest.raises(TraceError):
            trace.select(np.ones(5, bool))


class TestSummaries:
    def test_segment_counts_sum(self):
        trace = make_trace(500)
        assert sum(trace.segment_counts().values()) == 500

    def test_kind_counts_sum(self):
        trace = make_trace(500)
        assert sum(trace.kind_counts().values()) == 500

    def test_thread_ids_sorted(self):
        trace = make_trace(100, threads=4)
        ids = trace.thread_ids()
        assert ids == sorted(ids)

    def test_describe_mentions_counts(self):
        trace = make_trace(42, instruction_count=999)
        text = trace.describe()
        assert "42" in text and "999" in text

    def test_iteration_matches_arrays(self):
        trace = make_trace(5)
        rows = list(trace)
        assert len(rows) == 5
        assert rows[0][0] == int(trace.addr[0])
