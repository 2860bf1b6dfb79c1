"""Tests for the HOTL footprint-theory miss-ratio curve engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cachesim.mattson import hit_rate_for_capacities
from repro.cachesim.misscurve import MissRatioCurve
from repro.errors import SimulationError, TraceError


def naive_average_footprint(lines, window):
    """Brute-force average distinct-count over all windows of a length."""
    n = len(lines)
    counts = [
        len(set(lines[start : start + window])) for start in range(n - window + 1)
    ]
    return sum(counts) / len(counts)


class TestFootprint:
    @settings(max_examples=30)
    @given(
        st.lists(st.integers(min_value=0, max_value=8), min_size=2, max_size=60),
        st.data(),
    )
    def test_matches_bruteforce(self, values, data):
        lines = np.asarray(values, np.int64)
        window = data.draw(st.integers(min_value=1, max_value=len(values)))
        curve = MissRatioCurve(lines)
        assert curve.footprint(window) == pytest.approx(
            naive_average_footprint(values, window)
        )

    def test_footprint_window_one(self):
        curve = MissRatioCurve(np.array([1, 1, 2, 3]))
        assert curve.footprint(1) == pytest.approx(1.0)

    def test_footprint_full_window(self):
        curve = MissRatioCurve(np.array([1, 1, 2, 3]))
        assert curve.footprint(4) == pytest.approx(3.0)

    def test_footprint_monotone(self):
        rng = np.random.default_rng(0)
        lines = (rng.zipf(1.3, 2000) % 200).astype(np.int64)
        curve = MissRatioCurve(lines)
        values = [curve.footprint(w) for w in (1, 5, 20, 100, 500, 2000)]
        assert values == sorted(values)

    def test_footprint_bounds_checked(self):
        curve = MissRatioCurve(np.array([1, 2, 3]))
        with pytest.raises(TraceError):
            curve.footprint(0)
        with pytest.raises(TraceError):
            curve.footprint(4)

    def test_footprint_clamped(self):
        curve = MissRatioCurve(np.array([1, 2, 3]))
        assert curve.footprint_clamped(0.5) == pytest.approx(0.5)
        assert curve.footprint_clamped(100) == 3.0
        assert curve.footprint_clamped(-1) == 0.0

    def test_basic_counters(self):
        curve = MissRatioCurve(np.array([1, 2, 1, 3]))
        assert curve.num_accesses == 4
        assert curve.distinct_lines == 3
        assert curve.cold_misses == 3


class TestHitRates:
    def test_empty_rejected(self):
        with pytest.raises(TraceError):
            MissRatioCurve(np.empty(0, np.int64))

    def test_two_dimensional_stream_rejected(self):
        """Regression: a 2-D array crashed in a numpy broadcast."""
        with pytest.raises(TraceError, match="1-D"):
            MissRatioCurve(np.arange(12).reshape(3, 4))

    def test_capacity_above_footprint_hits_all_reuses(self):
        lines = np.array([1, 2, 1, 2, 1, 2])
        curve = MissRatioCurve(lines)
        assert curve.hit_rate(10) == pytest.approx(4 / 6)
        assert curve.miss_count(10) == 2

    def test_hit_rates_monotone(self):
        rng = np.random.default_rng(1)
        lines = (rng.zipf(1.3, 5000) % 1000).astype(np.int64)
        curve = MissRatioCurve(lines)
        rates = [curve.hit_rate(c) for c in (2, 8, 32, 128, 512, 2048)]
        assert rates == sorted(rates)

    def test_close_to_exact_mattson(self):
        """HOTL approximation vs exact stack distances on a Zipf stream."""
        rng = np.random.default_rng(2)
        lines = (rng.zipf(1.25, 20_000) % 4000).astype(np.int64)
        capacities = [16, 64, 256, 1024]
        exact = hit_rate_for_capacities(lines, capacities)
        curve = MissRatioCurve(lines)
        approx = np.array([curve.hit_rate(c) for c in capacities])
        assert np.abs(exact - approx).max() < 0.03

    def test_close_to_exact_on_sequential_runs(self):
        """Streaming patterns (shard-like) must also agree."""
        rng = np.random.default_rng(3)
        starts = rng.integers(0, 50_000, 500)
        lines = np.concatenate([np.arange(s, s + 20) for s in starts])
        capacities = [64, 1024, 16384]
        exact = hit_rate_for_capacities(lines, capacities)
        curve = MissRatioCurve(lines)
        approx = np.array([curve.hit_rate(c) for c in capacities])
        assert np.abs(exact - approx).max() < 0.05

    def test_hit_mask_consistent_with_rate(self):
        rng = np.random.default_rng(4)
        lines = (rng.zipf(1.4, 3000) % 400).astype(np.int64)
        curve = MissRatioCurve(lines)
        for capacity in (8, 64, 512):
            mask = curve.hit_mask(capacity)
            assert mask.mean() == pytest.approx(curve.hit_rate(capacity))
            assert (~curve.miss_mask(capacity) == mask).all()

    def test_cold_always_miss(self):
        lines = np.array([1, 2, 3, 1])
        curve = MissRatioCurve(lines)
        mask = curve.hit_mask(100)
        assert list(mask) == [False, False, False, True]

    def test_window_for_capacity_bounds(self):
        curve = MissRatioCurve(np.array([1, 2, 1, 2]))
        assert curve.window_for_capacity(100) == 4
        with pytest.raises(TraceError):
            curve.window_for_capacity(0)

    def test_window_variants(self):
        lines = np.array([1, 2, 1, 3, 1])  # line 1 reused at distance 2, twice
        curve = MissRatioCurve(lines)
        assert curve.hit_rate_for_window(len(lines)) == pytest.approx(2 / 5)
        mask = curve.hit_mask_for_window(2)
        assert list(mask) == [False, False, True, False, True]
        assert not curve.hit_mask_for_window(1).any()


class TestCompactStorage:
    def test_retained_bytes_per_access(self):
        """Histograms and int32 positions: at most 20 bytes per access."""
        rng = np.random.default_rng(0)
        lines = rng.zipf(1.3, 200_000) % 5000
        curve = MissRatioCurve(lines)
        retained = sum(
            value.nbytes
            for value in vars(curve).values()
            if isinstance(value, np.ndarray)
        )
        assert retained <= 20 * len(lines)

    def test_filter_keeping_everything_is_the_same_curve(self):
        curve = MissRatioCurve(np.array([1, 2, 1, 3]))
        assert curve.filtered(np.ones(4, bool)) is curve

    def test_released_curve_keeps_histogram_answers(self):
        """A released curve answers rates and windows as before; the
        per-access operations raise the typed error, not ``TypeError``."""
        rng = np.random.default_rng(3)
        lines = rng.zipf(1.3, 20_000) % 3000
        fresh = MissRatioCurve(lines)
        released = MissRatioCurve(lines)
        released.release_positions()
        capacities = [1, 16, 256, 2048, 10_000]
        for capacity in capacities:
            assert released.hit_rate(capacity) == fresh.hit_rate(capacity)
            assert released.miss_count(capacity) == fresh.miss_count(capacity)
        assert released.hit_rate_for_window(500.0) == fresh.hit_rate_for_window(
            500.0
        )
        assert released.footprint(777) == fresh.footprint(777)
        mask = np.arange(len(lines)) % 2 == 0
        with pytest.raises(SimulationError):
            released.filtered(mask)
        with pytest.raises(SimulationError):
            released.filtered(np.ones(len(lines), bool))
        with pytest.raises(SimulationError):
            released.hit_mask(256)
        with pytest.raises(SimulationError):
            released.miss_mask(256)
        with pytest.raises(SimulationError):
            released.hit_mask_for_window(500.0)
