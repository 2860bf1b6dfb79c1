"""Tests for the exact Mattson stack-distance analysis and its reference loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cachesim.cache import CacheGeometry
from repro.cachesim.mattson import COLD, hit_rate_for_capacities, hit_rate_for_ways
from repro.errors import TraceError
from tests.cachesim.loop_oracles import lru_hits, stack_distances


def naive_stack_distances(lines):
    """Reference implementation: explicit LRU stack."""
    stack = []
    out = []
    for line in lines:
        if line in stack:
            out.append(stack.index(line) + 1)
            stack.remove(line)
        else:
            out.append(COLD)
        stack.insert(0, line)
    return out


class TestStackDistances:
    def test_simple(self):
        distances = stack_distances(np.array([1, 2, 1, 2, 3, 1]))
        assert list(distances) == [COLD, COLD, 2, 2, COLD, 3]

    def test_repeated_line(self):
        distances = stack_distances(np.array([7, 7, 7]))
        assert list(distances) == [COLD, 1, 1]

    def test_empty(self):
        assert len(stack_distances(np.empty(0, np.int64))) == 0

    @settings(max_examples=40)
    @given(st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=120))
    def test_matches_naive(self, values):
        lines = np.asarray(values, np.int64)
        assert list(stack_distances(lines)) == naive_stack_distances(values)


class TestHitRateForCapacities:
    def test_monotone(self):
        rng = np.random.default_rng(0)
        lines = (rng.zipf(1.3, 5000) % 800).astype(np.int64)
        rates = hit_rate_for_capacities(lines, [4, 16, 64, 256, 1024])
        assert (np.diff(rates) >= 0).all()

    def test_infinite_capacity_hits_all_reuses(self):
        lines = np.array([1, 2, 1, 2, 1])
        rates = hit_rate_for_capacities(lines, [100])
        assert rates[0] == pytest.approx(3 / 5)

    def test_matches_fa_simulation(self):
        rng = np.random.default_rng(3)
        lines = (rng.zipf(1.4, 3000) % 300).astype(np.int64)
        for capacity in (4, 16, 64):
            geometry = CacheGeometry.fully_associative(capacity * 64)
            simulated = lru_hits(geometry, lines).mean()
            analytic = hit_rate_for_capacities(lines, [capacity])[0]
            assert analytic == pytest.approx(simulated, abs=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(TraceError):
            hit_rate_for_capacities(np.empty(0, np.int64), [4])

    def test_rejects_bad_capacity(self):
        with pytest.raises(TraceError):
            hit_rate_for_capacities(np.array([1, 2]), [0])

    def test_all_cold_stream(self):
        rates = hit_rate_for_capacities(np.arange(100), [10, 1000])
        assert (rates == 0).all()


class TestHitRateForWays:
    def test_rejects_empty_stream(self):
        with pytest.raises(TraceError):
            hit_rate_for_ways(np.empty(0, np.int64), 4, [1, 2])

    @pytest.mark.parametrize("ladder", [[], [0], [2, -1]])
    def test_rejects_bad_ladder(self, ladder):
        with pytest.raises(TraceError):
            hit_rate_for_ways(np.array([1, 2, 1]), 2, ladder)


class TestEngineBranches:
    """Backfill for branches the differential suite exposed."""

    def test_all_cold_stream_fast_engine(self):
        lines = np.arange(50, dtype=np.int64)  # no reuse at all
        rates = hit_rate_for_capacities(lines, [1, 8, 64])
        assert rates.tolist() == [0.0, 0.0, 0.0]

    def test_single_access_stream_both_engines(self):
        """The Mattson loop and the vectorized rates agree on one access."""
        lines = np.array([7], np.int64)
        assert stack_distances(lines).tolist() == [COLD]
        assert hit_rate_for_capacities(lines, [1, 2]).tolist() == [0.0, 0.0]

    def test_fast_engine_rejects_empty_and_bad_capacity(self):
        with pytest.raises(TraceError):
            hit_rate_for_capacities(np.empty(0, np.int64), [1])
        with pytest.raises(TraceError):
            hit_rate_for_capacities(np.array([1, 2]), [0])
