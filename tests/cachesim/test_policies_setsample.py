"""Tests for the reference cache's replacement policies."""

import numpy as np
import pytest

from repro._units import KiB
from repro.cachesim.cache import CacheGeometry, SetAssociativeCache
from repro.errors import ConfigurationError
from tests.cachesim.loop_oracles import access_hits


def zipf_lines(n=30_000, pool=4000, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.zipf(1.3, n) % pool).astype(np.int64)


class TestReplacementPolicies:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            SetAssociativeCache(CacheGeometry(1024, 2), replacement="plru")

    def test_fifo_ignores_recency(self):
        # 1 set, 2 ways.  FIFO evicts by insertion order even if re-touched.
        cache = SetAssociativeCache(CacheGeometry(128, 2), replacement="fifo")
        cache.access(0)
        cache.access(1)
        cache.access(0)  # re-touch does NOT refresh under FIFO
        hit, victim = cache.access(2)
        assert victim == 0

    def test_lru_respects_recency(self):
        cache = SetAssociativeCache(CacheGeometry(128, 2), replacement="lru")
        cache.access(0)
        cache.access(1)
        cache.access(0)
        __, victim = cache.access(2)
        assert victim == 1

    def test_random_is_deterministic_by_seed(self):
        lines = zipf_lines(5000)
        a = SetAssociativeCache(CacheGeometry(16 * KiB, 4), "random", seed=1)
        b = SetAssociativeCache(CacheGeometry(16 * KiB, 4), "random", seed=1)
        assert (access_hits(a, lines) == access_hits(b, lines)).all()

    def test_lru_beats_fifo_on_zipf(self):
        """Recency matters for skewed reuse: LRU >= FIFO on Zipf streams."""
        lines = zipf_lines()
        geometry = CacheGeometry(16 * KiB, 8)
        lru = access_hits(SetAssociativeCache(geometry, "lru"), lines).mean()
        fifo = access_hits(SetAssociativeCache(geometry, "fifo"), lines).mean()
        assert lru >= fifo - 0.01

    def test_random_between_reasonable_bounds(self):
        lines = zipf_lines()
        geometry = CacheGeometry(16 * KiB, 8)
        lru = access_hits(SetAssociativeCache(geometry, "lru"), lines).mean()
        rand = access_hits(SetAssociativeCache(geometry, "random"), lines).mean()
        assert lru - 0.15 < rand <= lru + 0.02
