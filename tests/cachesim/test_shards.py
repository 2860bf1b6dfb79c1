"""Tests for the streaming SHARDS miss-ratio-curve estimator."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cachesim.mattson import hit_rate_for_capacities
from repro.cachesim.shards import (
    ShardsEnsemble,
    ShardsEstimator,
    curve_drift,
    hash_unit,
)
from repro.errors import ConfigurationError, TraceError

line_streams = st.lists(
    st.integers(min_value=0, max_value=200), min_size=1, max_size=500
).map(lambda values: np.asarray(values, np.int64))


def zipf_lines(n=60_000, pool=6000, a=1.2, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.zipf(a, n) % pool).astype(np.int64)


def estimated_hit_rates(lines, caps, rate, seed=0, replicas=1):
    """Hit rates at ``caps`` of one estimator fed the whole stream."""
    if replicas > 1:
        estimator = ShardsEnsemble(rate=rate, replicas=replicas, seed=seed)
    else:
        estimator = ShardsEstimator(rate=rate, seed=seed)
    estimator.feed(lines)
    return estimator.curve().hit_rates(caps)


class TestHashUnit:
    def test_deterministic_and_uniform(self):
        lines = np.arange(50_000, dtype=np.int64)
        h1, h2 = hash_unit(lines, seed=3), hash_unit(lines, seed=3)
        assert np.array_equal(h1, h2)
        assert 0.0 <= h1.min() and h1.max() < 1.0
        # Uniformity: each decile holds ~10% of the lines.
        counts, _ = np.histogram(h1, bins=10, range=(0.0, 1.0))
        assert np.abs(counts / len(lines) - 0.1).max() < 0.01

    def test_seed_changes_hashes(self):
        lines = np.arange(1000, dtype=np.int64)
        assert not np.array_equal(hash_unit(lines, 0), hash_unit(lines, 1))


class TestExactness:
    @given(line_streams)
    def test_rate_one_matches_mattson_at_integer_capacities(self, lines):
        """R -> 1 convergence: at R=1 the estimate IS the exact curve.

        Integer capacities up to 128 have exact edges in the default
        distance histogram, so no interpolation error is allowed at all.
        """
        caps = np.array([1, 2, 3, 5, 17, 64, 128], np.int64)
        exact = hit_rate_for_capacities(lines, caps)
        estimated = estimated_hit_rates(lines, caps, rate=1.0)
        assert np.allclose(estimated, exact, atol=1e-12)

    @given(line_streams, st.sampled_from([0.25, 0.5, 0.9]))
    def test_estimate_converges_toward_exact_as_rate_grows(self, lines, rate):
        """Sampled estimates stay within the trivial error bound and the
        R=1 limit is exact (previous test); here: the estimator runs at
        any rate without crashing and stays a valid hit rate."""
        caps = np.array([4, 32, 128], np.int64)
        estimated = estimated_hit_rates(lines, caps, rate=rate)
        assert ((0.0 <= estimated) & (estimated <= 1.0)).all()

    def test_accuracy_on_zipf_stream(self):
        lines = zipf_lines()
        caps = np.array([256, 512, 1024, 2048, 4096], np.int64)
        exact = hit_rate_for_capacities(lines, caps)
        estimated = estimated_hit_rates(lines, caps, rate=0.05, seed=1, replicas=4)
        assert np.abs(estimated - exact).max() < 0.03


class TestConditionalInclusion:
    @given(
        st.lists(
            st.integers(0, 3000), min_size=50, max_size=800
        ).map(lambda v: np.asarray(v, np.int64)),
        st.sampled_from([(0.1, 0.5), (0.05, 0.2), (0.3, 0.9)]),
    )
    def test_sampled_sets_nest_as_rate_grows(self, lines, rates):
        """Hash sampling is *nested*: the lines a low-rate estimator
        tracks are a subset of a higher-rate estimator's (same seed) —
        the property that makes scaled distances monotone in R."""
        low_rate, high_rate = rates
        low = ShardsEstimator(rate=low_rate, seed=5)
        high = ShardsEstimator(rate=high_rate, seed=5)
        low.feed(lines)
        high.feed(lines)
        assert set(low.tracked_lines.tolist()) <= set(high.tracked_lines.tolist())

    def test_scaled_distances_shrink_reservoir_not_mass(self):
        lines = zipf_lines(20_000, pool=2000)
        full = ShardsEstimator(rate=1.0, seed=2)
        sampled = ShardsEstimator(rate=0.1, seed=2)
        full.feed(lines)
        sampled.feed(lines)
        assert sampled.reservoir_lines < full.reservoir_lines
        # 1/R weighting keeps total mass near the true access count.
        curve = sampled.curve()
        mass = curve.cold_misses + float(
            curve.hit_rates(np.array([10**9]))[0] * curve.num_accesses
        )
        assert mass == pytest.approx(len(lines), rel=0.15)


class TestReservoirBound:
    @given(st.integers(16, 256))
    def test_reservoir_never_exceeds_bound(self, bound):
        """Rate adaptation enforces the O(1) memory contract."""
        rng = np.random.default_rng(bound)
        lines = rng.permutation(50_000)[:20_000].astype(np.int64)
        estimator = ShardsEstimator(rate=0.5, max_reservoir=bound, seed=0)
        for chunk in np.array_split(lines, 10):
            estimator.feed(chunk)
            assert estimator.reservoir_lines <= bound
        assert estimator.rate < 0.5  # adaptation actually kicked in
        assert estimator.reservoir_evictions > 0

    def test_unbounded_mode_keeps_initial_rate(self):
        estimator = ShardsEstimator(rate=0.25, seed=0)
        estimator.feed(np.arange(50_000, dtype=np.int64))
        assert estimator.rate == 0.25


class TestCurve:
    def test_hit_rates_monotone_and_bounded(self):
        lines = zipf_lines(30_000, pool=3000)
        estimator = ShardsEstimator(rate=0.1, seed=3)
        estimator.feed(lines)
        curve = estimator.curve()
        caps = np.array([1, 16, 256, 1024, 4096, 65536], np.int64)
        rates = curve.hit_rates(caps)
        assert ((0.0 <= rates) & (rates <= 1.0)).all()
        assert (np.diff(rates) >= -1e-12).all()
        assert curve.miss_ratio(256) == pytest.approx(
            1.0 - curve.hit_rate(256)
        )
        assert curve.miss_count(256) == pytest.approx(
            curve.num_accesses * curve.miss_ratio(256)
        )

    def test_empty_estimator_raises(self):
        with pytest.raises(TraceError):
            ShardsEstimator().curve()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ShardsEstimator(rate=0.0)
        with pytest.raises(ConfigurationError):
            ShardsEstimator(rate=1.5)
        with pytest.raises(ConfigurationError):
            ShardsEstimator(max_reservoir=0)
        estimator = ShardsEstimator()
        estimator.feed(np.arange(100, dtype=np.int64))
        with pytest.raises(TraceError):
            estimator.curve().hit_rates(np.array([0]))


class TestEnsemble:
    def test_replica_validation(self):
        with pytest.raises(ConfigurationError):
            ShardsEnsemble(replicas=0)

    def test_single_replica_matches_estimator(self):
        lines = zipf_lines(10_000, pool=800)
        caps = np.array([64, 256, 1024], np.int64)
        one = ShardsEnsemble(rate=0.2, replicas=1, seed=4)
        one.feed(lines)
        solo = ShardsEstimator(rate=0.2, seed=4)
        solo.feed(lines)
        assert np.allclose(
            one.curve().hit_rates(caps), solo.curve().hit_rates(caps)
        )

    def test_replication_reduces_error(self):
        lines = zipf_lines(40_000, pool=4000, seed=9)
        caps = np.array([512, 1024, 2048], np.int64)
        exact = hit_rate_for_capacities(lines, caps)

        def worst(replicas):
            errors = []
            for seed in range(4):
                estimated = estimated_hit_rates(
                    lines, caps, rate=0.02, seed=10 * seed, replicas=replicas
                )
                errors.append(np.abs(estimated - exact).max())
            return float(np.mean(errors))

        assert worst(8) < worst(1)


class TestDriftAndEdges:
    def test_curve_drift(self):
        caps = np.array([64, 512], np.int64)
        a = ShardsEstimator(rate=1.0, seed=0)
        a.feed(zipf_lines(5_000, pool=500))
        b = ShardsEstimator(rate=1.0, seed=0)
        b.feed(np.arange(5_000, dtype=np.int64))  # pure cold stream
        drift_ab = curve_drift(a.curve(), b.curve(), caps)
        drift_aa = curve_drift(a.curve(), a.curve(), caps)
        assert drift_aa == 0.0
        assert drift_ab > 0.1
        with pytest.raises(ConfigurationError):
            curve_drift(a.curve(), b.curve(), np.array([], np.int64))
