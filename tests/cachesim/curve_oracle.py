"""Sorted-array HOTL curves: the oracle for the compact ``MissRatioCurve``.

This is the construction the compact curve replaced, kept as a reference:
every gap (front, reuse and back) is sorted into one array with a float
suffix sum beside it, and every nonzero reuse time into another, all
int64/float64 and one entry per access.  ``footprint`` and the hit counts
binary-search those arrays directly.  It is the obvious reading of the
closed form, which is what makes it the reference: the differential suite
(``test_curve_differential.py``) asserts that the histogram-backed
``MissRatioCurve`` reproduces its footprints, windows, hit rates, masks and
miss counts bit for bit, fresh and through chains of ``filtered``.

The capacity search (``window_for_capacity``) is inherited: it only
reads ``footprint``, which is what differs.
"""

from __future__ import annotations

import numpy as np

from repro.cachesim.misscurve import MissRatioCurve
from repro.errors import TraceError


class SortedArrayCurve(MissRatioCurve):
    """HOTL curve over sorted per-access gap and reuse arrays."""

    def __init__(self, lines: np.ndarray) -> None:
        lines = np.asarray(lines)
        n = len(lines)
        if n == 0:
            raise TraceError("cannot build a miss-ratio curve from an empty stream")
        order = np.argsort(lines, kind="stable").astype(np.int64)
        self._init_sorted(n, order, lines[order])

    def _init_sorted(
        self, n: int, order: np.ndarray, sorted_lines: np.ndarray
    ) -> None:
        self._n = n
        self._order = order
        self._sorted_lines = sorted_lines
        starts = np.flatnonzero(sorted_lines[1:] != sorted_lines[:-1]) + 1
        ends = np.append(starts - 1, n - 1)
        self._m = len(starts) + 1

        gap = np.empty(n, np.int64)
        gap[0] = order[0] + 1
        np.subtract(order[1:], order[:-1], out=gap[1:])
        gap[starts] = order[starts] + 1
        back = n - order[ends]
        self._gaps_sorted = np.sort(np.concatenate((gap, back)))
        suffix = np.zeros(n + self._m + 1, np.float64)
        suffix[:-1] = np.cumsum(self._gaps_sorted[::-1])[::-1]
        self._gap_suffix_sum = suffix

        gap[0] = 0
        gap[starts] = 0
        self._reuse = np.empty(n, np.int64)
        self._reuse[order] = gap
        gap.sort()
        self._reuse_sorted_nonzero = gap[self._m :].copy()

    def filtered(self, mask: np.ndarray) -> "SortedArrayCurve":
        mask = np.asarray(mask, bool)
        if len(mask) != self._n:
            raise TraceError(
                f"mask length {len(mask)} does not match stream length {self._n}"
            )
        n = int(np.count_nonzero(mask))
        if n == 0:
            raise TraceError("cannot build a miss-ratio curve from an empty stream")
        keep = mask[self._order]
        new_index = np.cumsum(mask, dtype=np.int64) - 1
        out = SortedArrayCurve.__new__(SortedArrayCurve)
        out._init_sorted(
            n, new_index[self._order[keep]], self._sorted_lines[keep]
        )
        return out

    def footprint(self, window: int | np.ndarray) -> np.ndarray | float:
        w = np.asarray(window, np.int64)
        if (w < 1).any() or (w > self._n).any():
            raise TraceError(f"window lengths must be in [1, {self._n}]")
        idx = np.searchsorted(self._gaps_sorted, w, side="right")
        count_above = len(self._gaps_sorted) - idx
        tail_sum = self._gap_suffix_sum[idx]
        missing = tail_sum - w.astype(np.float64) * count_above
        fp = self._m - missing / (self._n - w + 1)
        return fp if fp.shape else float(fp)

    def _hits_within(self, windows: float | np.ndarray) -> np.ndarray:
        return np.searchsorted(self._reuse_sorted_nonzero, windows, side="right")

    def hit_mask_for_window(self, window: float) -> np.ndarray:
        return (self._reuse > 0) & (self._reuse <= window)
