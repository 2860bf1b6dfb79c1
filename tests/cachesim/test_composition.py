"""Tests for shared-cache stream composition."""

import numpy as np
import pytest

from repro.cachesim.cache import CacheGeometry
from repro.cachesim.composition import (
    CompositeCache,
    StreamComponent,
    merge_streams_by_rate,
)
from repro.errors import ConfigurationError, TraceError
from tests.cachesim.loop_oracles import lru_hits


def zipf_stream(n, pool, a=1.3, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.zipf(a, n) % pool).astype(np.int64)


class TestStreamComponent:
    def test_builds_curve(self):
        component = StreamComponent("x", zipf_stream(1000, 100), rate=5.0)
        assert component.curve.num_accesses == 1000

    def test_rejects_empty(self):
        with pytest.raises(TraceError):
            StreamComponent("x", np.empty(0, np.int64), rate=1.0)

    def test_rejects_bad_rate(self):
        with pytest.raises(ConfigurationError):
            StreamComponent("x", zipf_stream(10, 5), rate=0.0)

    def test_total_rate_with_multiplicity(self):
        component = StreamComponent("x", zipf_stream(10, 5), rate=2.0, multiplicity=4)
        assert component.total_rate == 8.0

    def test_scaled_rate(self):
        component = StreamComponent("x", zipf_stream(10, 5), rate=2.0)
        assert component.scaled_rate(3.0).rate == 6.0


class TestCompositeCache:
    def test_single_stream_matches_misscurve(self):
        """With one stream, composition degenerates to its own curve."""
        lines = zipf_stream(5000, 500)
        component = StreamComponent("only", lines, rate=10.0)
        for capacity in (16, 64, 256):
            composite = CompositeCache([component], capacity)
            assert composite.hit_rate("only") == pytest.approx(
                component.curve.hit_rate(capacity), abs=0.02
            )

    def test_duplicate_names_rejected(self):
        a = StreamComponent("x", zipf_stream(100, 10), rate=1.0)
        b = StreamComponent("x", zipf_stream(100, 10, seed=1), rate=1.0)
        with pytest.raises(ConfigurationError):
            CompositeCache([a, b], 64)

    def test_unknown_stream_rejected(self):
        composite = CompositeCache(
            [StreamComponent("x", zipf_stream(100, 10), rate=1.0)], 64
        )
        with pytest.raises(ConfigurationError):
            composite.hit_rate("y")

    def test_hit_rates_monotone_in_capacity(self):
        components = [
            StreamComponent("a", zipf_stream(3000, 400, seed=1), rate=5.0),
            StreamComponent("b", zipf_stream(3000, 400, seed=2), rate=2.0),
        ]
        prev = -1.0
        for capacity in (8, 32, 128, 512):
            composite = CompositeCache(components, capacity)
            rate = composite.hit_rate("a")
            assert rate >= prev - 1e-9
            prev = rate

    def test_higher_rate_stream_gets_more_residency(self):
        """Two identical streams at different rates: the faster one has
        shorter reuse *times* relative to the window, so it hits more."""
        lines = zipf_stream(4000, 600, seed=5)
        fast = StreamComponent("fast", lines, rate=20.0)
        slow = StreamComponent("slow", lines.copy(), rate=1.0)
        composite = CompositeCache([fast, slow], 128)
        assert composite.hit_rate("fast") > composite.hit_rate("slow")

    def test_mpki_accounting(self):
        component = StreamComponent("x", zipf_stream(2000, 300), rate=10.0)
        composite = CompositeCache([component], 64)
        expected = 10.0 * (1.0 - composite.hit_rate("x"))
        assert composite.mpki("x") == pytest.approx(expected)
        assert composite.total_mpki() == pytest.approx(expected)

    def test_multiplicity_scales_occupancy(self):
        """Private per-thread streams with multiplicity k occupy k times
        the space, depressing everyone's hit rate."""
        shared = StreamComponent("s", zipf_stream(4000, 500, seed=3), rate=5.0)
        single = CompositeCache(
            [shared, StreamComponent("p", zipf_stream(2000, 200, seed=4), rate=2.0)],
            256,
        )
        multi = CompositeCache(
            [
                shared,
                StreamComponent(
                    "p", zipf_stream(2000, 200, seed=4), rate=2.0, multiplicity=8
                ),
            ],
            256,
        )
        assert multi.hit_rate("s") <= single.hit_rate("s") + 1e-9

    def test_miss_component_rate(self):
        component = StreamComponent("x", zipf_stream(3000, 500), rate=10.0)
        composite = CompositeCache([component], 32)
        miss = composite.miss_component("x")
        miss_fraction = len(miss.lines) / 3000
        assert miss.rate == pytest.approx(10.0 * miss_fraction)

    def test_all_miss_component_shares_lines_and_curve(self):
        component = StreamComponent("x", np.arange(100, dtype=np.int64), rate=1.0)
        composite = CompositeCache([component], 8)
        miss = composite.miss_component("x")
        assert miss.lines is component.lines
        assert miss.curve is component.curve
        assert miss.rate == component.rate

    def test_miss_component_none_when_everything_hits(self):
        lines = np.array([1, 1, 1, 1, 1, 1])
        component = StreamComponent("x", lines, rate=1.0)
        composite = CompositeCache([component], 1024)
        miss = composite.miss_component("x")
        # Only the single cold miss remains -> below the 2-access floor.
        assert miss is None

    def test_against_direct_simulation(self):
        """Composition must approximate a true interleaved LRU simulation."""
        rng = np.random.default_rng(7)
        a_lines = zipf_stream(6000, 300, a=1.4, seed=8)
        b_lines = zipf_stream(2000, 2000, a=1.05, seed=9)
        # Build a literal 3:1 interleave and simulate it exactly (FA LRU).
        merged = np.empty(8000, np.int64)
        tags = np.zeros(8000, bool)
        tags[3::4] = True  # every 4th access is stream b
        merged[~tags] = a_lines + 10_000_000
        merged[tags] = b_lines + 20_000_000
        capacity = 256
        hits = lru_hits(CacheGeometry.fully_associative(capacity * 64), merged)
        true_a = hits[~tags].mean()
        true_b = hits[tags].mean()

        composite = CompositeCache(
            [
                StreamComponent("a", a_lines, rate=7.5),
                StreamComponent("b", b_lines, rate=2.5),
            ],
            capacity,
        )
        assert composite.hit_rate("a") == pytest.approx(true_a, abs=0.06)
        assert composite.hit_rate("b") == pytest.approx(true_b, abs=0.06)


class TestMergeStreams:
    def test_proportional_counts(self):
        rng = np.random.default_rng(0)
        a = (zipf_stream(10_000, 100, seed=1), 10.0)
        b = (zipf_stream(5_000, 100, seed=2), 5.0)
        lines, tags = merge_streams_by_rate([a, b], rng)
        counts = np.bincount(tags)
        assert counts[0] / counts[1] == pytest.approx(2.0, rel=0.01)

    def test_preserves_stream_order(self):
        rng = np.random.default_rng(0)
        a = (np.arange(1000), 1.0)
        b = (np.arange(1000, 2000), 1.0)
        lines, tags = merge_streams_by_rate([a, b], rng)
        assert (np.diff(lines[tags == 0]) > 0).all()
        assert (np.diff(lines[tags == 1]) > 0).all()

    def test_minor_short_stream_does_not_strangle(self):
        """A tiny minor-rate stream must not truncate the major streams."""
        rng = np.random.default_rng(0)
        major = (np.arange(100_000), 10.0)
        minor = (np.arange(50), 1.0)
        lines, tags = merge_streams_by_rate([major, minor], rng)
        assert np.count_nonzero(tags == 0) == 100_000

    def test_rejects_empty_list(self):
        with pytest.raises(ConfigurationError):
            merge_streams_by_rate([], np.random.default_rng(0))

    def test_rejects_bad_streams(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            merge_streams_by_rate([(np.arange(10), 0.0)], rng)
        with pytest.raises(TraceError):
            merge_streams_by_rate([(np.empty(0, np.int64), 1.0)], rng)


class TestMissStream:
    def test_matches_miss_component(self):
        component = StreamComponent("x", zipf_stream(3000, 500), rate=10.0)
        composite = CompositeCache([component], 32)
        lines, rate = composite.miss_stream("x")
        miss = composite.miss_component("x")
        np.testing.assert_array_equal(lines, miss.lines)
        assert rate == miss.rate

    def test_all_miss_shares_lines(self):
        component = StreamComponent("x", np.arange(100, dtype=np.int64), rate=1.0)
        lines, rate = CompositeCache([component], 8).miss_stream("x")
        assert lines is component.lines
        assert rate == component.rate

    def test_none_when_everything_hits(self):
        component = StreamComponent("x", np.array([1, 1, 1, 1]), rate=1.0)
        assert CompositeCache([component], 1024).miss_stream("x") is None
