"""Tests for Belady's OPT analysis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cachesim.cache import CacheGeometry
from repro.cachesim.opt import NEVER, next_use_indices, opt_hit_rate, simulate_opt
from repro.errors import TraceError
from tests.cachesim.loop_oracles import lru_hits


class TestNextUse:
    def test_simple(self):
        out = next_use_indices(np.array([1, 2, 1, 2, 1]))
        assert list(out) == [2, 3, 4, NEVER, NEVER]

    def test_all_distinct(self):
        out = next_use_indices(np.arange(5))
        assert (out == NEVER).all()

    def test_empty(self):
        assert len(next_use_indices(np.empty(0, np.int64))) == 0


class TestSimulateOpt:
    def test_classic_belady_example(self):
        # The textbook OPT example: 20 references, 3 frames, 9 faults.
        lines = np.array(
            [7, 0, 1, 2, 0, 3, 0, 4, 2, 3, 0, 3, 2, 1, 2, 0, 1, 7, 0, 1]
        )
        hits = simulate_opt(lines, 3)
        assert int((~hits).sum()) == 9

    def test_never_worse_than_lru(self):
        rng = np.random.default_rng(0)
        lines = (rng.zipf(1.3, 8000) % 900).astype(np.int64)
        for capacity in (8, 32, 128):
            lru = lru_hits(CacheGeometry.fully_associative(capacity * 64), lines)
            opt = simulate_opt(lines, capacity)
            assert opt.sum() >= lru.sum()

    def test_monotone_in_capacity(self):
        rng = np.random.default_rng(1)
        lines = (rng.zipf(1.3, 5000) % 600).astype(np.int64)
        rates = [opt_hit_rate(lines, c) for c in (4, 16, 64, 256)]
        assert rates == sorted(rates)

    def test_everything_fits(self):
        lines = np.array([1, 2, 1, 2])
        assert opt_hit_rate(lines, 10) == pytest.approx(0.5)

    def test_capacity_one(self):
        lines = np.array([1, 1, 2, 1])
        hits = simulate_opt(lines, 1)
        assert list(hits) == [False, True, False, False]

    def test_validation(self):
        with pytest.raises(TraceError):
            simulate_opt(np.array([1]), 0)
        with pytest.raises(TraceError):
            opt_hit_rate(np.empty(0, np.int64), 4)

    @settings(max_examples=25)
    @given(
        st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=100),
        st.integers(min_value=1, max_value=8),
    )
    def test_opt_dominates_lru_property(self, values, capacity):
        lines = np.asarray(values, np.int64)
        lru = lru_hits(CacheGeometry.fully_associative(capacity * 64), lines)
        assert simulate_opt(lines, capacity).sum() >= lru.sum()
