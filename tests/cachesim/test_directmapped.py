"""Tests for the vectorized direct-mapped engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cachesim.cache import CacheGeometry, SetAssociativeCache
from repro.cachesim.directmapped import direct_mapped_hit_rate, simulate_direct_mapped
from repro.cachesim.fastsim import fast_direct_mapped_hits
from repro.errors import ConfigurationError


class TestDirectMapped:
    def test_simple(self):
        hits = simulate_direct_mapped(np.array([0, 0, 1, 0]), num_sets=16)
        assert list(hits) == [False, True, False, True]

    def test_conflict(self):
        # Lines 0 and 16 share set 0 in a 16-set cache.
        hits = simulate_direct_mapped(np.array([0, 16, 0]), num_sets=16)
        assert list(hits) == [False, False, False]

    def test_empty(self):
        assert len(simulate_direct_mapped(np.empty(0, np.int64), 4)) == 0

    def test_rejects_bad_sets(self):
        with pytest.raises(ConfigurationError):
            simulate_direct_mapped(np.array([1]), 0)

    def test_hit_rate_helper(self):
        rate = direct_mapped_hit_rate(np.array([5, 5, 5, 6]), 16)
        assert rate == pytest.approx(0.5)

    def test_hit_rate_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            direct_mapped_hit_rate(np.empty(0, np.int64), 16)

    @settings(max_examples=25)
    @given(
        st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=300),
        st.sampled_from([1, 2, 4, 16, 64]),
    )
    def test_matches_exact_simulator(self, lines, num_sets):
        """The vectorized engine must agree with the exact simulator
        configured as direct-mapped."""
        lines = np.asarray(lines, np.int64)
        fast = simulate_direct_mapped(lines, num_sets)
        cache = SetAssociativeCache(CacheGeometry(num_sets * 64, 1, 64))
        slow = cache.simulate(lines)
        assert (fast == slow).all()

    def test_large_stream_performance_shape(self):
        """A Zipfian stream should hit substantially in a large cache."""
        rng = np.random.default_rng(0)
        lines = (rng.zipf(1.4, 50_000) % 10_000).astype(np.int64)
        small = simulate_direct_mapped(lines, 64).mean()
        large = simulate_direct_mapped(lines, 1 << 16).mean()
        assert large > small
        assert large > 0.5


class TestCarriedTags:
    """``fast_direct_mapped_hits`` threading cache state through ``tags``."""

    LINES = np.array([5 + 2**34, 5], np.int64)

    def test_int64_tags_across_calls_match_one_pass(self):
        tags = np.full(16, -1, np.int64)
        first = fast_direct_mapped_hits(self.LINES[:1], 16, tags=tags)
        second = fast_direct_mapped_hits(self.LINES[1:], 16, tags=tags)
        whole = simulate_direct_mapped(self.LINES, 16)
        assert list(np.concatenate((first, second))) == list(whole)
        assert list(whole) == [False, False]

    @pytest.mark.parametrize("dtype", [np.int32, np.uint32, np.uint64, np.float64])
    def test_rejects_non_int64_tags(self, dtype):
        """Line 5 + 2**34 stored in int32 tags would read back as line 5
        and turn the later access to line 5 into a false hit."""
        tags = np.full(16, 0, dtype)
        with pytest.raises(ConfigurationError):
            fast_direct_mapped_hits(self.LINES, 16, tags=tags)
