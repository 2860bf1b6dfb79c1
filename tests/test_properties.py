"""Property-based tests of the library's central invariants.

The experiments' credibility stands on a handful of mathematical
properties; this module hammers them with hypothesis-generated inputs
beyond the structured cases in the per-module suites.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cachesim.cache import CacheGeometry, SetAssociativeCache
from repro.cachesim.composition import CompositeCache, StreamComponent
from repro.cachesim.mattson import hit_rate_for_capacities
from repro.cachesim.misscurve import MissRatioCurve
from repro.cachesim.opt import simulate_opt
from repro.search.frontend import ResultCache
from repro.search.root import SearchResultPage
from tests.cachesim.loop_oracles import access_hits, lru_hits

line_streams = st.lists(
    st.integers(min_value=0, max_value=40), min_size=8, max_size=250
).map(lambda values: np.asarray(values, np.int64))


class TestMissCurveProperties:
    @settings(max_examples=50)
    @given(line_streams)
    def test_hotl_matches_mattson_within_tolerance(self, lines):
        """The footprint approximation tracks exact stack distances."""
        capacities = [1, 2, 4, 8, 16, 64]
        exact = hit_rate_for_capacities(lines, capacities)
        curve = MissRatioCurve(lines)
        approx = np.array([curve.hit_rate(c) for c in capacities])
        assert np.abs(exact - approx).max() <= 0.25  # tiny-stream worst case
        # At full capacity both count every reuse.
        assert approx[-1] == pytest.approx(exact[-1], abs=1e-9)

    @settings(max_examples=50)
    @given(line_streams)
    def test_curve_bounds(self, lines):
        curve = MissRatioCurve(lines)
        for capacity in (1, 4, 16, 256):
            rate = curve.hit_rate(capacity)
            assert 0.0 <= rate <= 1.0
            assert curve.miss_count(capacity) + rate * len(lines) == pytest.approx(
                len(lines), abs=1e-6
            )

    @settings(max_examples=50)
    @given(line_streams)
    def test_footprint_bounded_by_distinct(self, lines):
        curve = MissRatioCurve(lines)
        for window in (1, len(lines) // 2 or 1, len(lines)):
            fp = curve.footprint(window)
            assert 1.0 - 1e-9 <= fp <= curve.distinct_lines + 1e-9


class TestPolicyOrderings:
    @settings(max_examples=30)
    @given(line_streams, st.integers(min_value=1, max_value=16))
    def test_opt_dominates_every_policy(self, lines, capacity):
        opt_hits = simulate_opt(lines, capacity).sum()
        for policy in ("lru", "fifo"):
            cache = SetAssociativeCache(
                CacheGeometry.fully_associative(capacity * 64), replacement=policy
            )
            assert opt_hits >= access_hits(cache, lines).sum()

    @settings(max_examples=30)
    @given(line_streams)
    def test_lru_inclusion_property(self, lines):
        """LRU's stack property: a hit at capacity C is a hit at C' > C."""
        small = lru_hits(CacheGeometry.fully_associative(4 * 64), lines)
        large = lru_hits(CacheGeometry.fully_associative(16 * 64), lines)
        assert (large | ~small).all()  # small-hit implies large-hit


cache_ops = st.lists(
    st.tuples(st.sampled_from(["put", "get"]), st.integers(min_value=0, max_value=8)),
    max_size=80,
)


class TestResultCacheProperties:
    @settings(max_examples=100)
    @given(st.integers(min_value=0, max_value=6), cache_ops)
    def test_cache_invariants(self, capacity, operations):
        """The frontend cache never exceeds capacity, counts every
        lookup, and a capacity of zero stores nothing at all."""
        cache = ResultCache(capacity=capacity)
        puts = gets = 0
        for op, k in operations:
            key = ((k,), 10)
            if op == "put":
                puts += 1
                page = SearchResultPage(terms=(k,), hits=(), snippets=())
                cache.put(key, page)
                if capacity > 0:
                    gets += 1
                    assert cache.get(key) is page  # most recent put wins
            else:
                gets += 1
                cache.get(key)
            assert len(cache) <= capacity
            if capacity == 0:
                assert len(cache) == 0
        assert cache.hits + cache.misses == gets
        assert cache.evictions <= puts
        assert 0.0 <= cache.hit_rate <= 1.0


class TestCompositionProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31),
        st.floats(min_value=0.5, max_value=50.0),
        st.floats(min_value=0.5, max_value=50.0),
        st.integers(min_value=8, max_value=2048),
    )
    def test_rates_and_bounds(self, seed, rate_a, rate_b, capacity):
        rng = np.random.default_rng(seed)
        a = StreamComponent(
            "a", (rng.zipf(1.3, 2000) % 300).astype(np.int64), rate=rate_a
        )
        b = StreamComponent(
            "b", rng.integers(1000, 5000, 1500).astype(np.int64), rate=rate_b
        )
        cache = CompositeCache([a, b], capacity)
        for name, component in (("a", a), ("b", b)):
            rate = cache.hit_rate(name)
            assert 0.0 <= rate <= 1.0
            assert 0.0 <= cache.mpki(name) <= component.total_rate + 1e-9
        assert cache.total_mpki() == pytest.approx(
            cache.mpki("a") + cache.mpki("b")
        )

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_capacity_monotonicity(self, seed):
        rng = np.random.default_rng(seed)
        components = [
            StreamComponent(
                "x", (rng.zipf(1.25, 3000) % 500).astype(np.int64), rate=5.0
            ),
            StreamComponent(
                "y", (rng.zipf(1.15, 3000) % 900).astype(np.int64), rate=2.0
            ),
        ]
        previous = {"x": -1.0, "y": -1.0}
        for capacity in (8, 32, 128, 512, 2048):
            cache = CompositeCache(components, capacity)
            for name in ("x", "y"):
                rate = cache.hit_rate(name)
                assert rate >= previous[name] - 1e-9
                previous[name] = rate
