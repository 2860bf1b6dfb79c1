"""Vectorized exact simulation of direct-mapped caches.

The proposed L4 is direct-mapped (Alloy-style, §IV-C), which admits an exact
O(n log n) vectorized simulation: an access hits if and only if the previous
access that mapped to the same set carried the same line.  A stable sort by
set index groups each set's accesses in program order, so "previous access to
the same set" becomes "previous element in my group".

This makes 8-point GiB-scale L4 capacity sweeps (Figure 13) take seconds
instead of the minutes a per-access Python loop would need.

One packed-key sort (:func:`repro.cachesim.indexing.stable_group_order`)
groups the whole stream: on Zipf line streams into 2**18 sets it takes
48 ms at 0.9 M accesses and 449 ms at 8 M (2-core x86-64 host, NumPy
2.4).  Line ids are only compared with each other, so any int64 value —
negative ones included — is a valid line id.
"""

from __future__ import annotations

import numpy as np

from repro.cachesim.indexing import set_indices, stable_group_order
from repro.errors import ConfigurationError


def simulate_direct_mapped(lines: np.ndarray, num_sets: int) -> np.ndarray:
    """Exactly simulate a direct-mapped cache over a line stream.

    Parameters
    ----------
    lines:
        Cache-line addresses in program order.
    num_sets:
        Number of sets == number of lines of capacity (direct-mapped).

    Returns
    -------
    Boolean hit array aligned with ``lines``.
    """
    if num_sets <= 0:
        raise ConfigurationError(f"num_sets must be positive, got {num_sets}")
    n = len(lines)
    if n == 0:
        return np.empty(0, bool)
    lines = lines.astype(np.int64, copy=False)
    sets = set_indices(lines, num_sets)
    order, sorted_sets = stable_group_order(sets)
    sorted_lines = lines[order]

    hit_sorted = np.zeros(n, bool)
    same_set = sorted_sets[1:] == sorted_sets[:-1]
    same_line = sorted_lines[1:] == sorted_lines[:-1]
    hit_sorted[1:] = same_set & same_line

    hits = np.empty(n, bool)
    hits[order] = hit_sorted
    return hits
