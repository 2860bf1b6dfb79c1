"""Differential suite: the batch SHARDS feed against the per-access oracle.

``ShardsEstimator.feed`` sends each batch's sampled sub-stream through
the vectorized Mattson kernel, cut at reservoir evictions; the oracle in
``shards_oracle.py`` takes one Python step per sampled access.  They must
agree bit for bit — histogram, cold weight, effective rate and every
health counter — for any split of a stream into calls, at every rate
and reservoir bound, including bounds small enough that nearly every
new line forces an eviction.

Run with ``HYPOTHESIS_PROFILE=ci`` for the heavy fixed-corpus version.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cachesim import shards
from repro.cachesim.shards import ShardsEstimator, _accumulate
from tests.cachesim import shards_oracle
from tests.cachesim.shards_oracle import OracleShardsEstimator

RATES = (1.0, 0.5, 0.1, 0.01)
RESERVOIRS = (None, 2, 5, 4096)


def assert_same_state(batch, oracle):
    """Bit-for-bit equality of everything the estimator exposes."""
    assert batch.rate == oracle.rate
    assert batch.total_accesses == oracle.total_accesses
    assert batch.sampled_accesses == oracle.sampled_accesses
    assert batch.reservoir_lines == oracle.reservoir_lines
    assert batch.reservoir_evictions == oracle.reservoir_evictions
    assert np.array_equal(batch.tracked_lines, oracle.tracked_lines)
    if batch.total_accesses:
        curve = batch.curve()
        assert np.array_equal(curve._weights, oracle.weights)
        assert curve.cold_weight == oracle.cold_weight
        assert curve.cold_touches == oracle.cold_touches


@st.composite
def split_streams(draw):
    """A stream split into ``feed`` batches (arrays, some empty) and
    single-line ``observe`` calls (ints)."""
    pool = draw(st.sampled_from([8, 64, 3000]))
    values = draw(st.lists(st.integers(0, pool), min_size=0, max_size=400))
    lines = np.asarray(values, np.int64)
    cuts = sorted(draw(st.lists(st.integers(0, len(lines)), max_size=6)))
    pieces = np.split(lines, cuts)
    calls = []
    for piece in pieces:
        if len(piece) and draw(st.booleans()) and len(piece) <= 8:
            calls.extend(int(v) for v in piece)
        else:
            calls.append(piece)
    return calls


class TestBatchFeedMatchesOracle:
    @given(
        split_streams(),
        st.sampled_from(RATES),
        st.sampled_from(RESERVOIRS),
        st.integers(0, 3),
    )
    def test_any_split_is_bit_identical(self, calls, rate, reservoir, seed):
        batch = ShardsEstimator(rate=rate, max_reservoir=reservoir, seed=seed)
        oracle = OracleShardsEstimator(rate=rate, max_reservoir=reservoir, seed=seed)
        for call in calls:
            if isinstance(call, int):
                batch.observe(call)
                oracle.observe(call)
            else:
                batch.feed(call)
                oracle.feed(call)
            assert_same_state(batch, oracle)

    @pytest.mark.parametrize("rate", RATES)
    @pytest.mark.parametrize("reservoir", RESERVOIRS)
    def test_zipf_stream_in_uneven_batches(self, rate, reservoir):
        """Enough distinct lines that R=0.01 samples some and the 4096
        bound never fills; the small bounds evict on nearly every new line."""
        rng = np.random.default_rng(7)
        lines = (rng.zipf(1.2, 30_000) % 20_000).astype(np.int64)
        cuts = np.sort(rng.integers(0, len(lines), 5))
        batch = ShardsEstimator(rate=rate, max_reservoir=reservoir, seed=3)
        oracle = OracleShardsEstimator(rate=rate, max_reservoir=reservoir, seed=3)
        for piece in np.split(lines, cuts):
            batch.feed(piece)
            oracle.feed(piece)
        assert_same_state(batch, oracle)
        if reservoir in (2, 5) and rate >= 0.1:
            assert batch.reservoir_evictions >= 10

    def test_reservoir_fill_crossing_batches(self):
        """The bound is reached mid-batch, then again in the next batch."""
        lines = np.arange(200, dtype=np.int64)
        batch = ShardsEstimator(rate=1.0, max_reservoir=50, seed=1)
        oracle = OracleShardsEstimator(rate=1.0, max_reservoir=50, seed=1)
        for piece in (lines[:40], lines[:60], lines[40:], np.empty(0, np.int64)):
            batch.feed(piece)
            oracle.feed(piece)
            assert_same_state(batch, oracle)
        assert batch.reservoir_evictions > 0


    @given(
        st.lists(st.integers(0, 300), max_size=300),
        st.sampled_from([2, 3, 5, 20]),
        st.integers(0, 3),
    )
    def test_hash_ties_evict_together(self, values, reservoir, seed):
        """A coarse hash makes distinct lines share hashes, so one
        overflow evicts several lines and leaves the reservoir short."""
        real = shards.hash_unit

        def coarse(lines, seed=0):
            return np.floor(real(lines, seed) * 16) / 16

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(shards, "hash_unit", coarse)
            patch.setattr(shards_oracle, "hash_unit", coarse)
            batch = ShardsEstimator(rate=1.0, max_reservoir=reservoir, seed=seed)
            oracle = OracleShardsEstimator(
                rate=1.0, max_reservoir=reservoir, seed=seed
            )
            lines = np.asarray(values, np.int64)
            for piece in np.array_split(lines, 3):
                batch.feed(piece)
                oracle.feed(piece)
                assert_same_state(batch, oracle)


class TestSequentialWeightSums:
    @given(
        st.floats(0.0, 1e9, allow_nan=False),
        st.lists(st.sampled_from([1.0 / r for r in RATES] + [1 / 0.0137, 1 / 0.3])),
        st.integers(1, 50),
    )
    def test_accumulate_equals_python_loop(self, start, steps, repeat):
        terms = np.asarray(steps * repeat, np.float64)
        expected = start
        for term in terms.tolist():
            expected += term
        assert _accumulate(start, terms) == expected

    def test_differs_from_pairwise_sum(self):
        """Why the sums accumulate: ``np.sum`` adds pairwise and rounds
        differently from the streaming ``+=`` loop."""
        terms = np.full(1000, 1.0 / 0.3)
        expected = 0.3
        for term in terms.tolist():
            expected += term
        assert _accumulate(0.3, terms) == expected
        assert float(np.sum(np.concatenate(([0.3], terms)))) != expected
