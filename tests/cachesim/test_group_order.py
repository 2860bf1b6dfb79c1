"""Differential tests for the shared grouping sort.

:func:`repro.cachesim.indexing.stable_group_order` replaces
``np.argsort(keys, kind="stable")`` plus a gather in every offline
simulator, so it must reproduce both exactly: the same order, the same
sorted keys bit for bit, the same dtype.  The packed int64 key covers
spans below ``2**(63 - bits)``; wider spans take the argsort fallback,
and both sides of that boundary are pinned here.

Run with ``HYPOTHESIS_PROFILE=ci`` for the heavy fixed-corpus version
(see ``tests/conftest.py``).
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cachesim.indexing import _packed_key_bits, stable_group_order

#: Lengths around powers of two, where the position field gains a bit.
SIZES = [0, 1, 2, 3, 4, 5, 8, 9, 64, 65, 1024, 1025]

DTYPES = [np.int64, np.uint64, np.int32, np.uint32, np.int8, np.uint8]


def assert_matches_argsort(keys: np.ndarray) -> None:
    order, sorted_keys = stable_group_order(keys)
    expected = np.argsort(keys, kind="stable")
    assert order.dtype == np.int64
    np.testing.assert_array_equal(order, expected)
    assert sorted_keys.dtype == keys.dtype
    assert sorted_keys.tobytes() == keys[expected].tobytes()


@st.composite
def key_arrays(draw):
    """Integer key arrays of any supported dtype, often with repeats."""
    dtype = np.dtype(draw(st.sampled_from(DTYPES)))
    info = np.iinfo(dtype)
    n = draw(st.sampled_from(SIZES) | st.integers(0, 300))
    low = draw(st.integers(int(info.min), int(info.max)))
    high = draw(st.integers(low, int(info.max)))
    distinct = draw(st.integers(1, 8))
    pool = draw(
        st.lists(st.integers(low, high), min_size=distinct, max_size=distinct)
    )
    picks = draw(st.lists(st.integers(0, distinct - 1), min_size=n, max_size=n))
    return np.array([pool[i] for i in picks], dtype=dtype)


@given(key_arrays())
def test_matches_stable_argsort(keys):
    assert_matches_argsort(keys)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("dtype", DTYPES)
def test_all_equal_keys(n, dtype):
    keys = np.full(n, np.iinfo(dtype).max, dtype)
    order, _ = stable_group_order(keys)
    np.testing.assert_array_equal(order, np.arange(n))
    assert_matches_argsort(keys)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9, 1024, 1025])
@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
@pytest.mark.parametrize("past", [0, 1])
def test_packing_boundary(n, dtype, past):
    """Spans exactly at the packing limit pack; one past falls back."""
    bits = (n - 1).bit_length()
    span = (1 << (63 - bits)) - 1 + past
    low = -(1 << 62) if dtype == np.int64 else (1 << 63) + 7
    rng = np.random.default_rng(n + past)
    inner = rng.integers(0, span, size=n, dtype=np.uint64, endpoint=True)
    values = [low + int(v) for v in inner]
    values[0], values[-1] = low + span, low  # pin the span
    keys = np.array(values, dtype)
    assert int(keys.max()) - int(keys.min()) == span
    assert (_packed_key_bits(n, span) is None) == bool(past)
    assert_matches_argsort(keys)
    # Repeats around the extremes must keep program order either way.
    assert_matches_argsort(np.concatenate((keys, keys[::-1], keys)))


def test_negative_int64_keys():
    keys = np.array([-5, -(1 << 40), 0, -5, np.iinfo(np.int64).min, 0], np.int64)
    assert_matches_argsort(keys)


def test_full_int64_domain_falls_back():
    info = np.iinfo(np.int64)
    keys = np.array([info.max, info.min, 0, info.max, info.min], np.int64)
    assert _packed_key_bits(len(keys), int(info.max) - int(info.min)) is None
    assert_matches_argsort(keys)


def test_uint64_keys_above_int64_range():
    top = np.iinfo(np.uint64).max
    keys = np.array([top, 1 << 63, top - 1, 1 << 63, top], np.uint64)
    assert_matches_argsort(keys)


def test_non_integer_keys_fall_back():
    keys = np.array([1.5, -0.5, 1.5, 0.0])
    assert_matches_argsort(keys)


def test_input_left_untouched():
    keys = np.array([3, 1, 2, 1], np.int64)
    before = keys.copy()
    stable_group_order(keys)
    np.testing.assert_array_equal(keys, before)
