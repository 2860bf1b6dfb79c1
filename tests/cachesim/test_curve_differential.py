"""Differential suite: the compact ``MissRatioCurve`` against its oracle.

``curve_oracle.SortedArrayCurve`` is the sorted-array construction the
histogram-backed curve replaced.  Every value the curve returns — the
footprint at every window, clamped real-valued footprints, capacity
windows, hit rates, hit masks and miss counts — must match the oracle bit
for bit (compared through ``tobytes``), on fresh curves and along chains
of :meth:`~repro.cachesim.misscurve.MissRatioCurve.filtered`, all-True
masks included.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.cachesim.misscurve import MissRatioCurve
from tests.cachesim.curve_oracle import SortedArrayCurve

line_streams = st.lists(
    st.integers(min_value=-3, max_value=25), min_size=1, max_size=150
).map(lambda values: np.asarray(values, np.int64))

CAPACITIES = [1, 2, 3, 5, 8, 17, 120, 4000]


def _assert_same(curve: MissRatioCurve, oracle: SortedArrayCurve, data) -> None:
    n = oracle.num_accesses
    assert curve.num_accesses == n
    assert curve.distinct_lines == oracle.distinct_lines
    every_window = np.arange(1, n + 1)
    assert (
        curve.footprint(every_window).tobytes()
        == oracle.footprint(every_window).tobytes()
    )
    assert curve.footprint(n) == oracle.footprint(n)

    reals = np.asarray(
        data.draw(
            st.lists(
                st.floats(min_value=-2.0, max_value=n + 3.0), min_size=1, max_size=8
            )
        ),
        np.float64,
    )
    assert (
        curve.footprints_clamped(reals).tobytes()
        == oracle.footprints_clamped(reals).tobytes()
    )
    for capacity in CAPACITIES:
        assert curve.window_for_capacity(capacity) == oracle.window_for_capacity(
            capacity
        )
        assert curve.miss_count(capacity) == oracle.miss_count(capacity)
        assert repr(curve.hit_rate(capacity)) == repr(oracle.hit_rate(capacity))
    for window in [*reals.tolist(), 0, 1, n]:
        assert repr(curve.hit_rate_for_window(window)) == repr(
            oracle.hit_rate_for_window(window)
        )
        assert (
            curve.hit_mask_for_window(window).tobytes()
            == oracle.hit_mask_for_window(window).tobytes()
        )


@given(line_streams, st.data())
def test_fresh_curve_matches_oracle(lines, data):
    _assert_same(MissRatioCurve(lines), SortedArrayCurve(lines), data)


@given(line_streams, st.data())
def test_filtered_chain_matches_oracle(lines, data):
    curve, oracle = MissRatioCurve(lines), SortedArrayCurve(lines)
    for __ in range(data.draw(st.integers(min_value=1, max_value=3))):
        n = curve.num_accesses
        if data.draw(st.booleans()):
            mask = np.ones(n, bool)
        else:
            mask = np.asarray(
                data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), bool
            )
            if not mask.any():
                mask[data.draw(st.integers(min_value=0, max_value=n - 1))] = True
        curve, oracle = curve.filtered(mask), oracle.filtered(mask)
        _assert_same(curve, oracle, data)
        # A derived curve is also the fresh curve of the kept subsequence.
        lines = lines[mask]
        _assert_same(MissRatioCurve(lines), oracle, data)
