"""Tests for repro.memtrace.sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.memtrace.sampling import (
    ZipfSampler,
    bounded_geometric,
    scatter_permutation,
    sequential_runs,
)


class TestZipfSampler:
    def test_in_range(self):
        sampler = ZipfSampler(100, 1.0, np.random.default_rng(0))
        draws = sampler.sample(10_000)
        assert draws.min() >= 0
        assert draws.max() < 100

    def test_rank_zero_most_popular(self):
        sampler = ZipfSampler(1000, 1.0, np.random.default_rng(0))
        draws = sampler.sample(50_000)
        counts = np.bincount(draws, minlength=1000)
        assert counts[0] == counts.max()

    def test_uniform_when_exponent_zero(self):
        sampler = ZipfSampler(10, 0.0, np.random.default_rng(0))
        draws = sampler.sample(100_000)
        counts = np.bincount(draws, minlength=10)
        assert counts.min() > 0.8 * counts.max()

    def test_probability_sums_to_one(self):
        sampler = ZipfSampler(50, 0.8, np.random.default_rng(0))
        total = sum(sampler.probability(k) for k in range(50))
        assert total == pytest.approx(1.0)

    def test_probability_matches_empirical(self):
        sampler = ZipfSampler(20, 1.2, np.random.default_rng(1))
        draws = sampler.sample(200_000)
        empirical = np.count_nonzero(draws == 0) / len(draws)
        assert empirical == pytest.approx(sampler.probability(0), rel=0.05)

    def test_higher_exponent_concentrates(self):
        rng = np.random.default_rng(0)
        flat = ZipfSampler(1000, 0.5, rng).sample(20_000)
        steep = ZipfSampler(1000, 1.5, np.random.default_rng(0)).sample(20_000)
        assert len(np.unique(steep)) < len(np.unique(flat))

    def test_invalid_parameters(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            ZipfSampler(0, 1.0, rng)
        with pytest.raises(ConfigurationError):
            ZipfSampler(10, -0.1, rng)
        sampler = ZipfSampler(10, 1.0, rng)
        with pytest.raises(ConfigurationError):
            sampler.sample(-1)
        with pytest.raises(ConfigurationError):
            sampler.probability(10)


class TestZipfSamplerMatchesSearchsorted:
    """``sample`` looks ranks up in sorted chunks; it must equal the plain
    inverse-CDF lookup of the same uniforms."""

    @given(
        st.integers(1, 600_000),
        st.sampled_from([0.0, 0.5, 0.9, 1.0, 1.5]),
        st.one_of(
            st.sampled_from([0, 1, 65_535, 65_536, 65_537, 3 * 65_536 + 11]),
            st.integers(0, 200_000),
        ),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_twin_generator(self, n, exponent, count, seed):
        sampler = ZipfSampler(n, exponent, np.random.default_rng(seed))
        twin = np.random.default_rng(seed)
        cdf = np.cumsum(np.arange(1, n + 1, dtype=np.float64) ** -exponent)
        cdf /= cdf[-1]
        draws = sampler.sample(count)
        expected = np.searchsorted(cdf, twin.random(count), side="left")
        assert draws.dtype == np.int64
        assert np.array_equal(draws, expected)
        # Both generators are left in the same state.
        assert sampler._rng.random() == twin.random()


class TestBoundedGeometric:
    def test_range(self):
        draws = bounded_geometric(8.0, 32, 10_000, np.random.default_rng(0))
        assert draws.min() >= 1
        assert draws.max() <= 32

    def test_mean_approximately_correct(self):
        draws = bounded_geometric(8.0, 10_000, 50_000, np.random.default_rng(0))
        assert draws.mean() == pytest.approx(8.0, rel=0.1)

    def test_invalid(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            bounded_geometric(0.5, 10, 5, rng)
        with pytest.raises(ConfigurationError):
            bounded_geometric(2.0, 0, 5, rng)


class TestSequentialRuns:
    def test_simple(self):
        out = sequential_runs(np.array([10, 100]), np.array([3, 2]))
        assert list(out) == [10, 11, 12, 100, 101]

    def test_empty(self):
        out = sequential_runs(np.empty(0, np.int64), np.empty(0, np.int64))
        assert len(out) == 0

    def test_single_length_runs(self):
        out = sequential_runs(np.array([5, 7, 9]), np.array([1, 1, 1]))
        assert list(out) == [5, 7, 9]

    def test_rejects_zero_length(self):
        with pytest.raises(ConfigurationError):
            sequential_runs(np.array([1]), np.array([0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            sequential_runs(np.array([1, 2]), np.array([1]))

    @settings(max_examples=25)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10_000),
                st.integers(min_value=1, max_value=50),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_matches_naive_expansion(self, runs):
        starts = np.array([s for s, _ in runs], np.int64)
        lengths = np.array([length for _, length in runs], np.int64)
        expected = [s + i for s, length in runs for i in range(length)]
        assert list(sequential_runs(starts, lengths)) == expected


class TestScatterPermutation:
    def test_is_permutation(self):
        perm = scatter_permutation(1000, np.random.default_rng(0))
        assert sorted(perm) == list(range(1000))

    def test_rejects_non_positive(self):
        with pytest.raises(ConfigurationError):
            scatter_permutation(0, np.random.default_rng(0))
