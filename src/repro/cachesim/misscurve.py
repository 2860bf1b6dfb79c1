"""Single-pass LRU miss-ratio curves via footprint theory.

The paper sweeps shared-cache capacities from 4 MiB to 8 GiB (Figures 6 and
13).  Exact per-access simulation of such sweeps over many-million-access
traces is infeasible in Python, so this module implements the
higher-order-theory-of-locality (HOTL) construction of Xiang et al.
[ASPLOS'13]: from one vectorized pass that measures *reuse times*, compute
the average-footprint function fp(w) — the mean number of distinct lines in
a window of w accesses — and estimate the LRU stack distance of a reuse with
reuse time r as fp(r).  An access then hits in a fully-associative LRU cache
of C lines iff fp(r) <= C.

The average footprint has a closed form over the reuse-time histogram.  For
a window length w, a line is *absent* from a window only when the window
fits entirely inside one of the line's access gaps, so with gap lengths g:

    fp(w) = m - (1/(n-w+1)) * sum over gaps of max(0, g - w + 1)

where the gaps of a line accessed at positions p_1 < ... < p_k (1-based) are
``p_1 - 1`` (front), ``p_{j+1} - p_j - 1`` (between accesses, i.e. reuse
time - 1), and ``n - p_k`` (back).  All three gap populations reduce to one
multiset V with contributions ``max(0, v - w)``.  Every v is an integer in
``[1, n]``, so V is stored as a histogram: its distinct values with the
integer count and sum of the values above each.  fp(w) is then one binary
search over the distinct values; the sums are exact int64, so they convert
to the same float64 a suffix sum over the sorted multiset would give.  Hit
counts read the same kind of histogram of the reuse times.

Storage is O(distinct gap and reuse values) plus three position arrays per
access (the stable sort, its line-group ids and each access's reuse time),
int32 whenever the stream is shorter than 2**31.  Only :meth:`filtered` and
the hit masks read the position arrays; a curve whose derived curves are
built drops them with :meth:`~MissRatioCurve.release_positions` and keeps
answering footprints, windows and hit rates from its histograms.

Fully-associative LRU is the right model for the swept levels: the paper
measures conflict misses beyond L1 at under 1% (Figure 7a).  Tests validate
this engine against the exact Mattson analysis.
"""

from __future__ import annotations

import numpy as np

from repro.cachesim.indexing import stable_group_order
from repro.errors import SimulationError, TraceError


def _position_dtype(n: int) -> type[np.signedinteger]:
    """int32 when positions and counts up to ``n`` fit in it, else int64."""
    return np.int32 if n < 2**31 else np.int64


def _suffix_sums(values: np.ndarray) -> np.ndarray:
    """``out[k] = values[k:].sum()`` as int64, with a trailing zero."""
    out = np.zeros(len(values) + 1, np.int64)
    np.cumsum(values[::-1], out=out[-2::-1])
    return out


class MissRatioCurve:
    """LRU miss-ratio curve of one access stream, from a single numpy pass.

    Parameters
    ----------
    lines:
        Cache-line addresses in program order.
    """

    def __init__(self, lines: np.ndarray) -> None:
        lines = np.asarray(lines)
        if lines.ndim != 1:
            raise TraceError(f"lines must be 1-D, got shape {lines.shape}")
        n = len(lines)
        if n == 0:
            raise TraceError("cannot build a miss-ratio curve from an empty stream")

        # Group each line's accesses (stable sort keeps program order within
        # a group): adjacent entries of a group are consecutive touches.
        order, sorted_lines = stable_group_order(lines)
        positions = _position_dtype(n)
        group = np.zeros(n, positions)
        np.cumsum(
            sorted_lines[1:] != sorted_lines[:-1], dtype=positions, out=group[1:]
        )
        del sorted_lines
        self._init_from_order(n, order.astype(positions), group)

    def _init_from_order(
        self, n: int, order: np.ndarray, group: np.ndarray
    ) -> None:
        """Shared constructor tail given the stable sort of the stream.

        ``order`` is the stable argsort of the stream and ``group`` a
        nondecreasing id per sorted position that changes exactly where
        one line's group of accesses ends and the next begins.
        :meth:`filtered` re-enters here with a *derived* sort and the
        parent's group ids; only where the ids change is read, so derived
        curves are bit-identical to freshly built ones.
        """
        self._n = n
        self._order = order
        self._group = group

        # Sort indices where each line's group starts (the first group's
        # start, 0, left out) and where each group ends.
        starts = np.flatnonzero(group[1:] != group[:-1]) + 1
        ends = np.append(starts - 1, n - 1)
        self._m = len(starts) + 1

        # Reuse time of each access in sorted order; re-references have
        # reuse >= 1, so ``_reuse == 0`` marks the cold (first-touch)
        # accesses.
        reuse = np.empty(n, order.dtype)
        reuse[0] = 0
        np.subtract(order[1:], order[:-1], out=reuse[1:])
        reuse[starts] = 0
        self._reuse = np.empty(n, order.dtype)
        self._reuse[order] = reuse
        hist = np.bincount(reuse, minlength=n + 1)
        del reuse
        self._reuse_values = np.flatnonzero(hist[1:] != 0) + 1
        self._reuse_hits = np.zeros(len(self._reuse_values) + 1, np.int64)
        np.cumsum(hist[self._reuse_values], out=self._reuse_hits[1:])

        # Gap multiset over 1-based positions: reuse gaps contribute
        # max(0, r - w); a first touch at f contributes max(0, f - w)
        # (front gap f-1); a last touch at l contributes
        # max(0, (n - l + 1) - w) (back gap n-l).  Every value lies in
        # [1, n], so the multiset is a histogram (first touches enter
        # through their front gaps, not as reuse 0).
        hist[0] = 0
        np.add.at(hist, order[np.append(0, starts)] + 1, 1)
        np.add.at(hist, n - order[ends], 1)
        self._gap_values = np.flatnonzero(hist != 0)
        counts = hist[self._gap_values]
        del hist
        # Count and integer sum of the gaps above each distinct value.
        self._gaps_above = _suffix_sums(counts)
        self._gap_sum_above = _suffix_sums(counts * self._gap_values)

    def filtered(self, mask: np.ndarray) -> "MissRatioCurve":
        """Curve of the subsequence ``lines[mask]`` without a new argsort.

        Filtering preserves relative order, so the stable sort of the
        subsequence is exactly the subsequence of this curve's stable sort:
        gathering the stored sort and group ids through ``mask`` and
        renumbering positions yields the groups a fresh
        ``MissRatioCurve(lines[mask])`` would compute — the derived curve
        is bit-identical to a fresh one (the differential suite pins
        this).  A mask that keeps every access returns this curve itself.
        Used by stream composition to build each level's miss-stream curve
        in O(n) instead of O(n log n).
        """
        self._require_positions("filtered")
        mask = np.asarray(mask)
        if mask.dtype != bool or mask.ndim != 1 or len(mask) != self._n:
            raise TraceError(
                f"mask must be a bool array of shape ({self._n},), "
                f"got {mask.dtype} {mask.shape}"
            )
        n = int(np.count_nonzero(mask))
        if n == 0:
            raise TraceError("cannot build a miss-ratio curve from an empty stream")
        if n == self._n:
            return self
        keep = mask[self._order]
        # New 0-based position of each surviving access in the subsequence.
        new_index = np.cumsum(mask, dtype=_position_dtype(n))
        new_index -= 1
        out = MissRatioCurve.__new__(MissRatioCurve)
        out._init_from_order(n, new_index[self._order[keep]], self._group[keep])
        return out

    def release_positions(self) -> None:
        """Drop the per-access arrays; keep the histograms.

        Afterwards the curve still answers footprints, windows, hit
        rates and miss counts, but :meth:`filtered`, :meth:`hit_mask`
        and the other masks raise :class:`~repro.errors.SimulationError`.
        A composed hierarchy calls this on the L1 and L2 curves once the
        next level's curves are derived from them.
        """
        self._order = self._group = self._reuse = None

    def _require_positions(self, operation: str) -> None:
        if self._reuse is None:
            raise SimulationError(
                f"{operation} needs the per-access arrays this curve released"
            )

    # ------------------------------------------------------------------
    # Core curve functions
    # ------------------------------------------------------------------

    @property
    def num_accesses(self) -> int:
        return self._n

    @property
    def distinct_lines(self) -> int:
        """Number of distinct lines — the stream's total working set."""
        return self._m

    @property
    def cold_misses(self) -> int:
        """First-touch accesses; they miss at any capacity."""
        return self._m

    def footprint(self, window: int | np.ndarray) -> np.ndarray | float:
        """Average number of distinct lines in windows of length ``window``.

        Accepts a scalar or array of window lengths in ``[1, n]``.
        """
        w = np.asarray(window, np.int64)
        if (w < 1).any() or (w > self._n).any():
            raise TraceError(f"window lengths must be in [1, {self._n}]")
        idx = np.searchsorted(self._gap_values, w, side="right")
        # The integer sum converts to float64 exactly as a float suffix
        # sum over the sorted gaps would.
        tail_sum = self._gap_sum_above[idx]
        missing = tail_sum - w.astype(np.float64) * self._gaps_above[idx]
        fp = self._m - missing / (self._n - w + 1)
        return fp if fp.shape else float(fp)

    def footprint_clamped(self, window: float) -> float:
        """Average footprint with out-of-range windows clamped.

        Windows below one access occupy (proportionally) less than one line;
        windows beyond the stream length see the whole footprint.  Used by
        stream composition, where windows are real-valued.
        """
        if window >= self._n:
            return float(self._m)
        if window < 1.0:
            return max(0.0, window) * float(self.footprint(1))
        return float(self.footprint(int(window)))

    def footprints_clamped(self, windows: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`footprint_clamped` over an array of windows.

        Elementwise bit-identical to the scalar method (same clamping
        branches, same float64 arithmetic); used by the lockstep capacity
        solves in :mod:`repro.cachesim.composition`.
        """
        w = np.asarray(windows, np.float64)
        out = np.empty(w.shape, np.float64)
        big = w >= self._n
        out[big] = float(self._m)
        small = ~big & (w < 1.0)
        if small.any():
            out[small] = np.maximum(0.0, w[small]) * float(self.footprint(1))
        mid = ~big & ~small
        if mid.any():
            out[mid] = np.asarray(self.footprint(w[mid].astype(np.int64)))
        return out

    def window_for_capacity(self, capacity_lines: int) -> int:
        """Largest window whose average footprint fits in the capacity.

        Reuses with reuse time <= this window hit in a ``capacity_lines``
        LRU cache; returns 0 when even single-access windows overflow it
        (which cannot happen for capacities >= 1).
        """
        if capacity_lines <= 0:
            raise TraceError(f"capacity must be positive, got {capacity_lines}")
        if capacity_lines >= self._m:
            return self._n
        lo, hi = 1, self._n  # invariant: fp(lo) <= C < fp(hi+1-ish)
        if self.footprint(1) > capacity_lines:
            return 0
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.footprint(mid) <= capacity_lines:
                lo = mid
            else:
                hi = mid - 1
        return lo

    # ------------------------------------------------------------------
    # Hit rates and masks
    # ------------------------------------------------------------------

    def hit_mask(self, capacity_lines: int) -> np.ndarray:
        """Per-access boolean hit prediction for one capacity.

        Aligned with the constructor's ``lines``; cold accesses always miss.
        """
        window = self.window_for_capacity(capacity_lines)
        return self.hit_mask_for_window(window)

    # -- window-denominated variants (used by stream composition) -------

    def hit_mask_for_window(self, window: float) -> np.ndarray:
        """Hit mask given an own-stream reuse window instead of a capacity.

        Composition of concurrent streams sharing one cache (see
        :mod:`repro.cachesim.composition`) solves for a *global* time window
        and converts it to each stream's own access count; this applies such
        a window directly.
        """
        self._require_positions("hit_mask_for_window")
        return (self._reuse > 0) & (self._reuse <= window)

    def _hits_within(self, windows: float | np.ndarray) -> np.ndarray:
        """Number of reuses with reuse time at most each window."""
        return self._reuse_hits[
            np.searchsorted(self._reuse_values, windows, side="right")
        ]

    def hit_rate_for_window(self, window: float) -> float:
        """Hit rate given an own-stream reuse window."""
        return int(self._hits_within(window)) / self._n

    def miss_mask(self, capacity_lines: int) -> np.ndarray:
        """Complement of :meth:`hit_mask` — used to build downstream streams."""
        return ~self.hit_mask(capacity_lines)

    def hit_rate(self, capacity_lines: int) -> float:
        """Hit rate at one capacity."""
        window = self.window_for_capacity(capacity_lines)
        return int(self._hits_within(window)) / self._n

    def miss_count(self, capacity_lines: int) -> int:
        """Number of misses at one capacity (cold + capacity misses)."""
        window = self.window_for_capacity(capacity_lines)
        return self._n - int(self._hits_within(window))
