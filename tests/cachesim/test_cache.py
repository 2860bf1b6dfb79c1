"""Tests for repro.cachesim.cache (exact set-associative LRU)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._units import KiB, MiB
from repro.cachesim.cache import CacheGeometry, SetAssociativeCache
from repro.errors import ConfigurationError
from tests.cachesim.loop_oracles import access_hits


class TestCacheGeometry:
    def test_num_sets(self):
        geo = CacheGeometry(32 * KiB, 8, 64)
        assert geo.num_sets == 64
        assert geo.capacity_lines == 512

    def test_non_power_of_two_sets_allowed(self):
        # POWER8's 96 MiB L3 has a non-power-of-two set count.
        geo = CacheGeometry(96 * MiB, 8, 128)
        assert geo.num_sets == 98304

    def test_indivisible_size_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheGeometry(1000, 8, 64)

    def test_block_power_of_two(self):
        with pytest.raises(ConfigurationError):
            CacheGeometry(4096, 8, 48)

    def test_cat_way_masking(self):
        geo = CacheGeometry(40 * MiB, 20).with_ways(10)
        assert geo.effective_ways == 10
        assert geo.effective_size == 20 * MiB
        assert geo.capacity_lines == geo.num_sets * 10

    def test_cat_bounds(self):
        geo = CacheGeometry(40 * MiB, 20)
        with pytest.raises(ConfigurationError):
            geo.with_ways(0)
        with pytest.raises(ConfigurationError):
            geo.with_ways(21)

    def test_fully_associative(self):
        geo = CacheGeometry.fully_associative(4096)
        assert geo.num_sets == 1
        assert geo.assoc == 64

    def test_str(self):
        assert "40 MiB" in str(CacheGeometry(40 * MiB, 20))
        assert "CAT" in str(CacheGeometry(40 * MiB, 20).with_ways(4))


class TestSetAssociativeCache:
    def cache(self, size=1024, assoc=2, block=64, ways=None):
        geo = CacheGeometry(size, assoc, block, ways)
        return SetAssociativeCache(geo)

    def test_cold_miss_then_hit(self):
        cache = self.cache()
        hit, victim = cache.access(5)
        assert not hit and victim is None
        hit, __ = cache.access(5)
        assert hit

    def test_lru_eviction_order(self):
        # Direct-mapped-like: 1 set, 2 ways.
        cache = self.cache(size=128, assoc=2)
        cache.access(0)
        cache.access(1)
        cache.access(0)  # 0 is now MRU
        hit, victim = cache.access(2)
        assert not hit
        assert victim == 1  # LRU was 1

    def test_set_isolation(self):
        cache = self.cache(size=256, assoc=1)  # 4 sets, direct-mapped
        cache.access(0)
        cache.access(1)
        assert cache.contains(0)
        assert cache.contains(1)
        # Line 4 conflicts with line 0 (same set), not line 1.
        hit, victim = cache.access(4)
        assert victim == 0
        assert cache.contains(1)

    def test_way_masking_reduces_capacity(self):
        full = self.cache(size=512, assoc=8)
        masked = self.cache(size=512, assoc=8, ways=2)
        for line in range(8):
            full.access(line)
            masked.access(line)
        assert full.resident_lines == 8
        assert masked.resident_lines == 2

    def test_invalidate(self):
        cache = self.cache()
        cache.access(7)
        assert cache.invalidate(7)
        assert not cache.contains(7)
        assert not cache.invalidate(7)

    def test_fill_installs_without_stats(self):
        cache = self.cache()
        cache.fill(3)
        hit, __ = cache.access(3)
        assert hit

    def test_flush(self):
        cache = self.cache()
        cache.access(1)
        cache.access(2)
        cache.flush()
        assert cache.resident_lines == 0

    def test_resident_never_exceeds_capacity(self):
        cache = self.cache(size=1024, assoc=2)
        rng = np.random.default_rng(1)
        access_hits(cache, rng.integers(0, 1000, 5000))
        assert cache.resident_lines <= cache.geometry.capacity_lines

    @settings(max_examples=20)
    @given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=200))
    def test_fully_associative_is_lru(self, lines):
        """Property: FA cache of size C hits iff <= C distinct lines touched
        since the previous access to the same line."""
        capacity = 4
        cache = SetAssociativeCache(
            CacheGeometry.fully_associative(capacity * 64)
        )
        history: list[int] = []
        for line in lines:
            hit, __ = cache.access(line)
            if line in history:
                idx = history.index(line)
                distinct_between = len(set(history[: idx + 1]))
                assert hit == (distinct_between <= capacity)
            else:
                assert not hit
            if line in history:
                history.remove(line)
            history.insert(0, line)

    def test_larger_cache_never_worse_fa(self):
        """LRU stack property: fully-associative hit counts are monotone
        in capacity."""
        rng = np.random.default_rng(2)
        lines = (rng.zipf(1.5, 4000) % 500).astype(np.int64)
        hits = []
        for capacity_lines in (8, 32, 128, 512):
            cache = SetAssociativeCache(
                CacheGeometry.fully_associative(capacity_lines * 64)
            )
            hits.append(access_hits(cache, lines).sum())
        assert hits == sorted(hits)
