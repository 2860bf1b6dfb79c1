"""Tests for the vectorized direct-mapped simulation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cachesim.cache import CacheGeometry
from repro.cachesim.directmapped import simulate_direct_mapped
from repro.errors import ConfigurationError
from tests.cachesim.loop_oracles import lru_hits


class TestDirectMapped:
    def test_simple(self):
        hits = simulate_direct_mapped(np.array([0, 0, 1, 0]), num_sets=16)
        assert list(hits) == [False, True, False, True]

    def test_negative_line_ids(self):
        """Line -1 is an ordinary line id, not an empty-set marker."""
        hits = simulate_direct_mapped(np.array([-1, -3, -1, -3]), num_sets=2)
        assert list(hits) == [False, False, False, False]

    def test_conflict(self):
        # Lines 0 and 16 share set 0 in a 16-set cache.
        hits = simulate_direct_mapped(np.array([0, 16, 0]), num_sets=16)
        assert list(hits) == [False, False, False]

    def test_empty(self):
        assert len(simulate_direct_mapped(np.empty(0, np.int64), 4)) == 0

    def test_rejects_bad_sets(self):
        with pytest.raises(ConfigurationError):
            simulate_direct_mapped(np.array([1]), 0)

    @settings(max_examples=25)
    @given(
        st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=300),
        st.sampled_from([1, 2, 4, 16, 64]),
    )
    def test_matches_exact_simulator(self, lines, num_sets):
        """The vectorized simulation must agree with the exact simulator
        configured as direct-mapped."""
        lines = np.asarray(lines, np.int64)
        fast = simulate_direct_mapped(lines, num_sets)
        slow = lru_hits(CacheGeometry(num_sets * 64, 1, 64), lines)
        assert (fast == slow).all()

    def test_large_stream_performance_shape(self):
        """A Zipfian stream should hit substantially in a large cache."""
        rng = np.random.default_rng(0)
        lines = (rng.zipf(1.4, 50_000) % 10_000).astype(np.int64)
        small = simulate_direct_mapped(lines, 64).mean()
        large = simulate_direct_mapped(lines, 1 << 16).mean()
        assert large > small
        assert large > 0.5
